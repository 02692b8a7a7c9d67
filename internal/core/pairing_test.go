package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"

	"trustedcells/internal/cloud"
	"trustedcells/internal/crypto"
	"trustedcells/internal/datamodel"
	"trustedcells/internal/policy"
	syncpkg "trustedcells/internal/sync"
)

// shareFixture returns Alice's and Bob's paired cells on one cloud, Alice's
// document to share, and Bob's private note, readable by Bob alone.
func shareFixture(t testing.TB) (svc *cloud.Memory, alice, bob *Cell, doc, note *datamodel.Document) {
	t.Helper()
	svc = cloud.NewMemory()
	alice = newTestCell(t, "alice-gw", svc)
	bob = newTestCell(t, "bob-phone", svc)
	pairCells(t, alice, bob)
	var err error
	if doc, err = alice.Ingest([]byte("holiday photo"), IngestOptions{Type: "photo", Class: datamodel.ClassAuthored}); err != nil {
		t.Fatal(err)
	}
	if err := bob.AddRule(policy.Rule{ID: "owner", Effect: policy.EffectAllow,
		SubjectIDs: []string{"bob-phone"}, Actions: []policy.Action{policy.ActionRead}}); err != nil {
		t.Fatal(err)
	}
	if note, err = bob.Ingest([]byte("bob's private note"), IngestOptions{Type: "note", Class: datamodel.ClassAuthored}); err != nil {
		t.Fatal(err)
	}
	return svc, alice, bob, doc, note
}

// signedOffer builds the offer body from's Share would send for doc, with
// the sticky policy edited by edit before from signs it.
func signedOffer(t testing.TB, from *Cell, doc *datamodel.Document, edit func(*policy.StickyPolicy)) offer {
	t.Helper()
	sp := policy.StickyPolicy{
		DocumentID: doc.ID, ContentHash: doc.ContentHash, OriginatorID: from.ID(),
		Access: policy.Set{Owner: from.ID(), Rules: []policy.Rule{{ID: "shared-read", Effect: policy.EffectAllow,
			SubjectIDs: []string{"bob-phone"}, Actions: []policy.Action{policy.ActionRead},
			Resource: policy.Resource{DocumentID: doc.ID}}}},
	}
	if edit != nil {
		edit(&sp)
	}
	identity, err := from.Identity()
	if err != nil {
		t.Fatal(err)
	}
	sticky, err := policy.SealSticky(sp, identity, from.tee.Sign)
	if err != nil {
		t.Fatal(err)
	}
	key := from.keys.DocumentKey(doc.ID)
	return offer{Document: doc, Key: key[:], Sticky: sticky}
}

// recipientState is what a refused offer must leave untouched.
type recipientState struct {
	rules  []policy.Rule
	docs   []*datamodel.Document
	shared []string
	usage  []string
}

func stateOf(c *Cell, offered string) recipientState {
	var usage []string
	for _, p := range c.usage.Policies(offered) {
		usage = append(usage, p.ObjectID)
	}
	return recipientState{c.AccessPolicy().Rules, c.Catalog().All(), sharedWithMe(c), usage}
}

// inbox runs ProcessInbox and fails the test on a service error.
func inbox(t *testing.T, c *Cell) InboxSummary {
	t.Helper()
	sum, err := c.ProcessInbox()
	if err != nil {
		t.Fatalf("%s inbox: %v", c.ID(), err)
	}
	return sum
}

// TestOfferChannelOpensSharedParts opens a share offer the way the recipient
// does and finds the three shared things: the document, its key and the
// signed sticky policy, which verifies against the document's content hash.
func TestOfferChannelOpensSharedParts(t *testing.T) {
	svc, alice, bob, doc, _ := shareFixture(t)
	if err := alice.Share(doc.ID, "bob-phone", ShareOptions{MaxUses: 1}); err != nil {
		t.Fatal(err)
	}
	msgs, _ := svc.Receive("bob-phone", 0)
	if len(msgs) != 1 || msgs[0].Kind != kindShareOffer || msgs[0].From != "alice-gw" {
		t.Fatalf("mailbox: %+v", msgs)
	}
	plain, err := bob.openPaired(msgs[0])
	if err != nil {
		t.Fatalf("openPaired: %v", err)
	}
	var o offer
	if err := json.Unmarshal(plain, &o); err != nil {
		t.Fatal(err)
	}
	if key := alice.keys.DocumentKey(doc.ID); !bytes.Equal(o.Key, key[:]) {
		t.Fatal("offered key differs from the document key")
	}
	if !reflect.DeepEqual(o.Document, doc) {
		t.Fatalf("offered document %+v, want %+v", o.Document, doc)
	}
	if err := o.Sticky.Verify(doc.ContentHash); err != nil || o.Sticky.MaxUses != 1 {
		t.Fatalf("sticky policy %+v: %v", o.Sticky, err)
	}
	_ = svc.Send(msgs[0])
	if sum := inbox(t, bob); sum.OffersAccepted != 1 || sum.Rejected != 0 {
		t.Fatalf("inbox summary %+v", sum)
	}
}

// TestOfferChannelRoundTrip sends an offer body through the paired channel
// and decodes the same body on the other side; a sealed body that is not an
// offer is refused.
func TestOfferChannelRoundTrip(t *testing.T) {
	svc, alice, bob, doc, _ := shareFixture(t)
	sent := signedOffer(t, alice, doc, nil)
	if err := alice.sendPaired("bob-phone", kindShareOffer, sent); err != nil {
		t.Fatal(err)
	}
	msgs, _ := svc.Receive("bob-phone", 0)
	if len(msgs) != 1 {
		t.Fatalf("mailbox: %+v", msgs)
	}
	plain, err := bob.openPaired(msgs[0])
	if err != nil {
		t.Fatalf("openPaired: %v", err)
	}
	var got offer
	if err := json.Unmarshal(plain, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sent) {
		t.Fatalf("decoded offer %+v, want %+v", got, sent)
	}
	_ = svc.Send(msgs[0])
	if sum := inbox(t, bob); sum.OffersAccepted != 1 || sum.Rejected != 0 {
		t.Fatalf("inbox summary %+v", sum)
	}

	if err := alice.sendPaired("bob-phone", kindShareOffer, "not an offer"); err != nil {
		t.Fatal(err)
	}
	if sum := inbox(t, bob); sum.OffersAccepted != 0 || sum.Rejected != 1 {
		t.Fatalf("malformed offer: %+v", sum)
	}
}

// TestOfferToAnotherCellRefused redirects Alice's offer for Bob to Carol,
// who is paired with Alice under the very same secret: the channel key is
// bound to the direction alice->bob, so Carol cannot open it.
func TestOfferToAnotherCellRefused(t *testing.T) {
	svc := cloud.NewMemory()
	alice := newTestCell(t, "alice-gw", svc)
	bob := newTestCell(t, "bob-phone", svc)
	carol := newTestCell(t, "carol-tab", svc)
	secret, _ := NewPairingSecret()
	for _, p := range [][2]*Cell{{alice, bob}, {bob, alice}, {alice, carol}, {carol, alice}} {
		if err := p[0].Pair(p[1].ID(), secret); err != nil {
			t.Fatal(err)
		}
	}
	doc, _ := alice.Ingest([]byte("x"), IngestOptions{Type: "note", Class: datamodel.ClassAuthored})
	if err := alice.Share(doc.ID, "bob-phone", ShareOptions{}); err != nil {
		t.Fatal(err)
	}
	msgs, _ := svc.Receive("bob-phone", 0)
	msgs[0].To = "carol-tab"
	_ = svc.Send(msgs[0])
	if sum := inbox(t, carol); sum.OffersAccepted != 0 || sum.Rejected != 1 {
		t.Fatalf("redirected offer: %+v", sum)
	}
}

// TestOfferFromAnotherCellRefused relabels the sender of an offer, and
// reflects an offer back to its own sender: both fail to open.
func TestOfferFromAnotherCellRefused(t *testing.T) {
	svc, alice, bob, doc, _ := shareFixture(t)
	carol := newTestCell(t, "carol-tab", svc)
	pairCells(t, carol, bob)
	if err := alice.Share(doc.ID, "bob-phone", ShareOptions{}); err != nil {
		t.Fatal(err)
	}
	msgs, _ := svc.Receive("bob-phone", 0)
	relabelled := msgs[0]
	relabelled.From = "carol-tab"
	reflected := msgs[0]
	reflected.From, reflected.To = "bob-phone", "alice-gw"
	_ = svc.Send(relabelled)
	_ = svc.Send(reflected)
	if sum := inbox(t, bob); sum.OffersAccepted != 0 || sum.Rejected != 1 {
		t.Fatalf("relabelled offer: %+v", sum)
	}
	if sum := inbox(t, alice); sum.OffersAccepted != 0 || sum.Rejected != 1 {
		t.Fatalf("reflected offer: %+v", sum)
	}
}

// TestOfferTamperedDocumentRejected: a document whose content hash differs
// from the one the sticky policy was signed over is refused, and so is an
// offer with a flipped sealed byte.
func TestOfferTamperedDocumentRejected(t *testing.T) {
	svc, alice, bob, doc, _ := shareFixture(t)
	o := signedOffer(t, alice, doc, nil)
	o.Document = doc.Clone()
	o.Document.ContentHash = crypto.HashString([]byte("another payload"))
	if err := alice.sendPaired("bob-phone", kindShareOffer, o); err != nil {
		t.Fatal(err)
	}
	if err := alice.Share(doc.ID, "bob-phone", ShareOptions{}); err != nil {
		t.Fatal(err)
	}
	msgs, _ := svc.Receive("bob-phone", 0)
	msgs[1].Body[len(msgs[1].Body)/2] ^= 0x01
	for _, m := range msgs {
		_ = svc.Send(m)
	}
	if sum := inbox(t, bob); sum.OffersAccepted != 0 || sum.Rejected != 2 {
		t.Fatalf("tampered documents: %+v", sum)
	}
}

// TestOfferStickyMismatchRejected splices in a sticky policy signed for
// another document, and one naming another originator than the sender.
func TestOfferStickyMismatchRejected(t *testing.T) {
	_, alice, bob, doc, _ := shareFixture(t)
	other, err := alice.Ingest([]byte("another photo"), IngestOptions{Type: "photo", Class: datamodel.ClassAuthored})
	if err != nil {
		t.Fatal(err)
	}
	spliced := signedOffer(t, alice, doc, nil)
	spliced.Sticky = signedOffer(t, alice, other, nil).Sticky
	foreign := signedOffer(t, alice, doc, func(sp *policy.StickyPolicy) { sp.OriginatorID = "carol-tab" })
	for _, o := range []offer{spliced, foreign} {
		if err := alice.sendPaired("bob-phone", kindShareOffer, o); err != nil {
			t.Fatal(err)
		}
	}
	if sum := inbox(t, bob); sum.OffersAccepted != 0 || sum.Rejected != 2 {
		t.Fatalf("mismatched sticky policies: %+v", sum)
	}
}

// TestOfferWrongPairingKeyRefused: Bob holds a different pairing secret for
// Alice than Alice does, so nothing Alice seals opens on Bob's cell.
func TestOfferWrongPairingKeyRefused(t *testing.T) {
	svc := cloud.NewMemory()
	alice := newTestCell(t, "alice-gw", svc)
	bob := newTestCell(t, "bob-phone", svc)
	mine, _ := NewPairingSecret()
	theirs, _ := NewPairingSecret()
	_ = alice.Pair("bob-phone", mine)
	_ = bob.Pair("alice-gw", theirs)
	doc, _ := alice.Ingest([]byte("x"), IngestOptions{Type: "note", Class: datamodel.ClassAuthored})
	if err := alice.Share(doc.ID, "bob-phone", ShareOptions{}); err != nil {
		t.Fatal(err)
	}
	if sum := inbox(t, bob); sum.OffersAccepted != 0 || sum.Rejected != 1 || len(sharedWithMe(bob)) != 0 {
		t.Fatalf("offer under a wrong pairing key: %+v", sum)
	}
}

// TestOfferMissingPartsRejected sends offers lacking the document, the key
// or the sticky policy, and one with a short key; each is refused and leaves
// Bob's cell as it was.
func TestOfferMissingPartsRejected(t *testing.T) {
	_, alice, bob, doc, _ := shareFixture(t)
	before := stateOf(bob, doc.ID)
	whole := signedOffer(t, alice, doc, nil)
	noDoc, noKey, noSticky, shortKey := whole, whole, whole, whole
	noDoc.Document = nil
	noKey.Key = nil
	noSticky.Sticky = nil
	shortKey.Key = whole.Key[:16]
	for _, o := range []offer{noDoc, noKey, noSticky, shortKey} {
		if err := alice.sendPaired("bob-phone", kindShareOffer, o); err != nil {
			t.Fatal(err)
		}
	}
	if sum := inbox(t, bob); sum.OffersAccepted != 0 || sum.Rejected != 4 {
		t.Fatalf("offers with missing parts: %+v", sum)
	}
	if after := stateOf(bob, doc.ID); !reflect.DeepEqual(before, after) {
		t.Fatalf("refused offers changed the recipient: %+v -> %+v", before, after)
	}
}

// TestOfferRulesScopedToSharedDocument: a paired peer is trusted with the
// channel, not with the recipient's own data. An offer whose rule would let
// "mallory" read anything is refused and changes nothing; an offer whose
// read rule names the recipient's note is accepted with the rule rewritten to
// the shared document.
func TestOfferRulesScopedToSharedDocument(t *testing.T) {
	_, alice, bob, doc, note := shareFixture(t)
	mallory := policy.Rule{ID: "mallory", Effect: policy.EffectAllow,
		SubjectIDs: []string{"mallory"}, Actions: []policy.Action{policy.ActionRead}}
	before := stateOf(bob, doc.ID)
	for _, actions := range [][]policy.Action{
		{policy.ActionRead, policy.ActionShare}, // an action beyond read/aggregate
		nil,                                     // every action
	} {
		r := mallory
		r.Actions = actions
		o := signedOffer(t, alice, doc, func(sp *policy.StickyPolicy) { sp.Access.Rules = append(sp.Access.Rules, r) })
		if err := alice.sendPaired("bob-phone", kindShareOffer, o); err != nil {
			t.Fatal(err)
		}
	}
	if sum := inbox(t, bob); sum.OffersAccepted != 0 || sum.Rejected != 2 {
		t.Fatalf("offers with unscoped actions: %+v", sum)
	}
	if after := stateOf(bob, doc.ID); !reflect.DeepEqual(before, after) {
		t.Fatalf("refused offers changed the recipient: %+v -> %+v", before, after)
	}
	if _, err := bob.Read("mallory", note.ID, AccessContext{}); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("mallory reads Bob's note: %v", err)
	}

	r := mallory
	r.Resource = policy.Resource{DocumentID: note.ID}
	o := signedOffer(t, alice, doc, func(sp *policy.StickyPolicy) { sp.Access.Rules = append(sp.Access.Rules, r) })
	if err := alice.sendPaired("bob-phone", kindShareOffer, o); err != nil {
		t.Fatal(err)
	}
	if sum := inbox(t, bob); sum.OffersAccepted != 1 {
		t.Fatalf("read-only offer: %+v", sum)
	}
	if _, err := bob.Read("mallory", note.ID, AccessContext{}); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("mallory reads Bob's note through a scoped rule: %v", err)
	}
	rules := bob.AccessPolicy().Rules
	for _, r := range rules[len(before.rules):] {
		if !reflect.DeepEqual(r.Resource, policy.Resource{DocumentID: doc.ID}) {
			t.Fatalf("installed rule %q not scoped to the shared document: %+v", r.ID, r.Resource)
		}
	}
}

// TestAuditSegmentBoundToPairing pushes an accountability segment from Bob to
// Alice. Moved to another kind or re-addressed it does not open; delivered as
// sent it carries the records Alice is owed.
func TestAuditSegmentBoundToPairing(t *testing.T) {
	svc, alice, bob, doc, _ := shareFixture(t)
	if err := alice.Share(doc.ID, "bob-phone", ShareOptions{NotifyOwner: true}); err != nil {
		t.Fatal(err)
	}
	inbox(t, bob)
	if _, err := bob.Read("bob-phone", doc.ID, AccessContext{}); err != nil {
		t.Fatal(err)
	}
	msgs, _ := svc.Receive("alice-gw", 0)
	if len(msgs) != 1 || msgs[0].Kind != kindAuditSegment {
		t.Fatalf("alice's mailbox: %+v", msgs)
	}
	moved := msgs[0]
	moved.Kind = kindApprovalResponse
	_ = svc.Send(moved)
	if sum := inbox(t, alice); sum.AuditSegments != 0 || sum.Rejected != 1 {
		t.Fatalf("segment moved to another kind: %+v", sum)
	}
	_ = svc.Send(msgs[0])
	sum := inbox(t, alice)
	if sum.AuditSegments != 1 || len(sum.AuditRecords) == 0 {
		t.Fatalf("segment: %+v", sum)
	}
	for _, r := range sum.AuditRecords {
		if r.Originator != "alice-gw" {
			t.Fatalf("record not destined to alice: %+v", r)
		}
	}
}

// TestConcurrentRestoreVaultAndReads restores the vault while other
// goroutines read, search and ingest on the same cell; under -race it pins
// that the restore replaces the catalog's contents, not a field the gate
// reads unlocked.
func TestConcurrentRestoreVaultAndReads(t *testing.T) {
	svc := cloud.NewMemory()
	c := newTestCell(t, "alice-gw", svc)
	if err := c.AddRule(policy.Rule{ID: "owner", Effect: policy.EffectAllow,
		SubjectIDs: []string{"alice-gw"}, Actions: []policy.Action{policy.ActionRead}}); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 8; i++ {
		doc, err := c.Ingest([]byte{byte(i)}, IngestOptions{Type: "note", Class: datamodel.ClassAuthored, Keywords: []string{"k"}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, doc.ID)
	}
	if _, err := c.SyncVault(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	worker := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				fn(i)
			}
		}()
	}
	worker(func(int) {
		for _, r := range c.ReadBatch("alice-gw", ids, AccessContext{}) {
			if r.Err != nil {
				t.Errorf("read during restore: %v", r.Err)
			}
		}
	})
	worker(func(int) {
		if docs, err := c.Search(datamodel.Query{Keyword: "k"}); err != nil || len(docs) < len(ids) {
			t.Errorf("search during restore: %d docs, %v", len(docs), err)
		}
	})
	worker(func(i int) {
		if _, err := c.IngestBatch([]IngestItem{{Payload: []byte{0xFF, byte(i), byte(i >> 8)},
			Opts: IngestOptions{Type: "memo", Class: datamodel.ClassAuthored}}}); err != nil &&
			!errors.Is(err, datamodel.ErrDuplicateID) {
			t.Errorf("ingest during restore: %v", err)
		}
	})
	for i := 0; i < 20; i++ {
		if _, err := c.RestoreVault(); err != nil {
			t.Errorf("restore: %v", err)
		}
	}
	close(done)
	wg.Wait()
}

// TestAccessPolicyIsSnapshot edits the set AccessPolicy returns; no decision
// of the cell changes.
func TestAccessPolicyIsSnapshot(t *testing.T) {
	c := newTestCell(t, "alice-gw", cloud.NewMemory())
	if err := c.AddRule(policy.Rule{ID: "owner", Effect: policy.EffectAllow,
		SubjectIDs: []string{"alice-gw"}, Actions: []policy.Action{policy.ActionRead}}); err != nil {
		t.Fatal(err)
	}
	doc, err := c.Ingest([]byte("note"), IngestOptions{Type: "note", Class: datamodel.ClassAuthored})
	if err != nil {
		t.Fatal(err)
	}
	set := c.AccessPolicy()
	set.Rules[0].SubjectIDs[0] = "mallory"
	if err := set.Add(policy.Rule{ID: "deny-all", Effect: policy.EffectDeny}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read("alice-gw", doc.ID, AccessContext{}); err != nil {
		t.Fatalf("owner read after editing the snapshot: %v", err)
	}
	if _, err := c.Read("mallory", doc.ID, AccessContext{}); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("mallory read after editing the snapshot: %v", err)
	}
	if got := c.AccessPolicy().Rules; len(got) != 1 || got[0].ID != "owner" {
		t.Fatalf("rules after editing the snapshot: %v", got)
	}
}

// providerView is a cloud.Service that records everything the provider
// receives: blob names and bodies, message headers and bodies.
type providerView struct {
	cloud.Service
	mu   sync.Mutex
	seen [][]byte
}

func (p *providerView) record(items ...[]byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, b := range items {
		p.seen = append(p.seen, append([]byte(nil), b...))
	}
}

func (p *providerView) PutBlob(name string, data []byte) (int, error) {
	p.record([]byte(name), data)
	return p.Service.PutBlob(name, data)
}

func (p *providerView) PutBlobs(puts []cloud.BlobPut) ([]int, error) {
	for _, b := range puts {
		p.record([]byte(b.Name), b.Data)
	}
	return p.Service.PutBlobs(puts)
}

func (p *providerView) GetBlob(name string) (cloud.Blob, error) {
	p.record([]byte(name))
	return p.Service.GetBlob(name)
}

func (p *providerView) GetBlobs(names []string) ([]cloud.Blob, error) {
	for _, n := range names {
		p.record([]byte(n))
	}
	return p.Service.GetBlobs(names)
}

func (p *providerView) GetBlobsIf(gets []cloud.CondGet) ([]cloud.Blob, error) {
	for _, g := range gets {
		p.record([]byte(g.Name))
	}
	return p.Service.GetBlobsIf(gets)
}

func (p *providerView) DeleteBlob(name string) error {
	p.record([]byte(name))
	return p.Service.DeleteBlob(name)
}

func (p *providerView) ListBlobs(prefix string) ([]string, error) {
	p.record([]byte(prefix))
	return p.Service.ListBlobs(prefix)
}

func (p *providerView) Send(m cloud.Message) error {
	p.record([]byte(m.From), []byte(m.To), []byte(m.Kind), m.Body)
	return p.Service.Send(m)
}

// TestProviderLearnsNothingShared drives every kind of cell-to-cell message
// — a share with a notify obligation and a read on the recipient, an
// approval request and its response — plus a vault sync and a replica sync,
// and finds none of the shared secrets in anything the provider received.
func TestProviderLearnsNothingShared(t *testing.T) {
	view := &providerView{Service: cloud.NewMemory()}
	alice := newTestCell(t, "alice-gw", view)
	bob := newTestCell(t, "bob-phone", view)
	pairCells(t, alice, bob)
	key, err := crypto.NewSymmetricKey()
	if err != nil {
		t.Fatal(err)
	}
	alice.AttachReplica(syncpkg.NewReplica("alice/gw", "alice", key, view, nil))

	payload := []byte("mosaic of the basilica, third row from the apse")
	doc, err := alice.Ingest(payload, IngestOptions{Type: "photo", Class: datamodel.ClassAuthored,
		Title: "Ravenna holiday", Keywords: []string{"byzantine-mosaics"}, Tags: map[string]string{"album": "summer-secrets"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.Share(doc.ID, "bob-phone", ShareOptions{Recipients: []string{"bob-phone", "bob-daughter"},
		MaxUses: 3, NotifyOwner: true}); err != nil {
		t.Fatal(err)
	}
	if sum := inbox(t, bob); sum.OffersAccepted != 1 {
		t.Fatalf("bob inbox: %+v", sum)
	}
	if _, err := bob.Read("bob-daughter", doc.ID, AccessContext{}); err != nil {
		t.Fatal(err)
	}
	photo := []byte("bob asleep on the beach at Cervia")
	reqID, err := alice.RequestApproval("bob-phone", "bob asleep on the beach", "photo", photo)
	if err != nil {
		t.Fatal(err)
	}
	if sum := inbox(t, bob); sum.ApprovalRequests != 1 {
		t.Fatalf("bob inbox: %+v", sum)
	}
	if err := bob.RespondApproval(reqID, true, "delete it after the holidays"); err != nil {
		t.Fatal(err)
	}
	if sum := inbox(t, alice); sum.AuditSegments != 1 || sum.ApprovalResponses != 1 {
		t.Fatalf("alice inbox: %+v", sum)
	}
	if _, err := alice.SyncVault(); err != nil {
		t.Fatal(err)
	}
	if err := alice.SyncCatalog(); err != nil {
		t.Fatal(err)
	}

	secrets := []string{"Ravenna holiday", "byzantine-mosaics", "summer-secrets", doc.ContentHash,
		"basilica", "bob-daughter", "asleep on the beach", crypto.HashString(photo), "after the holidays"}
	view.mu.Lock()
	defer view.mu.Unlock()
	if len(view.seen) == 0 {
		t.Fatal("the provider saw nothing")
	}
	for _, b := range view.seen {
		for _, s := range secrets {
			if bytes.Contains(b, []byte(s)) {
				t.Errorf("the provider saw %q in %.80q", s, b)
			}
		}
	}
}
