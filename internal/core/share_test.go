package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"trustedcells/internal/audit"
	"trustedcells/internal/cloud"
	"trustedcells/internal/crypto"
	"trustedcells/internal/datamodel"
	"trustedcells/internal/policy"
	"trustedcells/internal/tamper"
	"trustedcells/internal/timeseries"
)

// pairCells installs a fresh pairing secret on both cells.
func pairCells(t testing.TB, a, b *Cell) {
	t.Helper()
	secret, err := NewPairingSecret()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Pair(b.ID(), secret); err != nil {
		t.Fatalf("Pair %s->%s: %v", a.ID(), b.ID(), err)
	}
	if err := b.Pair(a.ID(), secret); err != nil {
		t.Fatalf("Pair %s->%s: %v", b.ID(), a.ID(), err)
	}
}

func TestShareEndToEnd(t *testing.T) {
	svc := cloud.NewMemory()
	alice := newTestCell(t, "alice-gw", svc)
	bob := newTestCell(t, "bob-phone", svc)
	pairCells(t, alice, bob)

	payload := []byte("holiday photo (3 MB of pixels, abridged)")
	doc, err := alice.Ingest(payload, IngestOptions{Type: "photo", Class: datamodel.ClassAuthored,
		Title: "Holiday photo", Keywords: []string{"holiday"}})
	if err != nil {
		t.Fatal(err)
	}
	err = alice.Share(doc.ID, "bob-phone", ShareOptions{
		MaxUses:     2,
		NotAfter:    testTime.Add(30 * 24 * time.Hour),
		NotifyOwner: true,
	})
	if err != nil {
		t.Fatalf("Share: %v", err)
	}
	summary, err := bob.ProcessInbox()
	if err != nil {
		t.Fatalf("ProcessInbox: %v", err)
	}
	if summary.OffersAccepted != 1 || summary.Rejected != 0 {
		t.Fatalf("inbox summary %+v", summary)
	}
	if got := sharedWithMe(bob); len(got) != 1 || got[0] != doc.ID {
		t.Fatalf("SharedWithMe = %v", got)
	}
	// Bob (the recipient cell's owner) reads the shared document; the sticky
	// policy installed the allow rule for subject "bob-phone".
	got, err := bob.Read("bob-phone", doc.ID, AccessContext{})
	if err != nil {
		t.Fatalf("Read shared: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("shared payload differs")
	}
	// Carol, unknown to the sticky policy, is denied on Bob's cell.
	if _, err := bob.Read("carol", doc.ID, AccessContext{}); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("carol read on recipient cell: %v", err)
	}
	// Second read allowed, third exhausts MaxUses=2.
	if _, err := bob.Read("bob-phone", doc.ID, AccessContext{}); err != nil {
		t.Fatalf("second read: %v", err)
	}
	if _, err := bob.Read("bob-phone", doc.ID, AccessContext{}); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("third read should be denied: %v", err)
	}
	// Accountability: Alice receives audit segments describing Bob's usage.
	aliceSummary, err := alice.ProcessInbox()
	if err != nil {
		t.Fatalf("alice ProcessInbox: %v", err)
	}
	if aliceSummary.AuditSegments == 0 || len(aliceSummary.AuditRecords) == 0 {
		t.Fatalf("no accountability records reached the originator: %+v", aliceSummary)
	}
	foundRead := false
	for _, r := range aliceSummary.AuditRecords {
		if r.Resource == doc.ID && r.Outcome == audit.OutcomeAllowed {
			foundRead = true
		}
	}
	if !foundRead {
		t.Fatal("audit segment does not mention the shared document access")
	}
}

func TestShareRequiresPairingAndCloud(t *testing.T) {
	svc := cloud.NewMemory()
	alice := newTestCell(t, "alice-gw", svc)
	doc, _ := alice.Ingest([]byte("x"), IngestOptions{Type: "note", Class: datamodel.ClassAuthored})
	if err := alice.Share(doc.ID, "bob-phone", ShareOptions{}); !errors.Is(err, ErrNotPaired) {
		t.Fatalf("share without pairing: %v", err)
	}
	if err := alice.Share("missing-doc", "bob-phone", ShareOptions{}); !errors.Is(err, ErrUnknownDocument) {
		t.Fatalf("share of unknown doc: %v", err)
	}
	offline, _ := New(Config{ID: "offline", Class: tamper.ClassSecureToken, Seed: []byte("s"), Clock: fixedClock()})
	if err := offline.Share("any", "peer", ShareOptions{}); !errors.Is(err, ErrNoCloud) {
		t.Fatalf("share without cloud: %v", err)
	}
	if _, err := offline.ProcessInbox(); !errors.Is(err, ErrNoCloud) {
		t.Fatalf("inbox without cloud: %v", err)
	}
	alice.TEE().Lock()
	if err := alice.Share(doc.ID, "bob-phone", ShareOptions{}); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("share while locked: %v", err)
	}
}

func TestShareDenyRuleBlocksSharing(t *testing.T) {
	svc := cloud.NewMemory()
	alice := newTestCell(t, "alice-gw", svc)
	bob := newTestCell(t, "bob-phone", svc)
	pairCells(t, alice, bob)
	doc, _ := alice.Ingest([]byte("raw 1Hz feed"), IngestOptions{Type: SeriesDocType,
		Class: datamodel.ClassSensed, Tags: map[string]string{"raw": "true"}})
	_ = alice.AddRule(policy.Rule{ID: "never-share-raw", Effect: policy.EffectDeny,
		Actions:  []policy.Action{policy.ActionShare},
		Resource: policy.Resource{Tags: map[string]string{"raw": "true"}}})
	if err := alice.Share(doc.ID, "bob-phone", ShareOptions{}); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("deny rule did not block sharing: %v", err)
	}
}

// TestTamperedOfferRejected plays the provider against a share offer. It
// flips a sealed byte; it re-signs the offer under its own key with the use
// cap lifted, the notify obligation cleared and a rule letting "mallory" read
// everything, then seals that under a pairing key of its own (an impostor
// cell named alice-gw) and also delivers it unsealed. Every copy is refused
// and leaves Bob's rules, usage limits and catalog unchanged; the genuine
// offer is then accepted with its terms intact.
func TestTamperedOfferRejected(t *testing.T) {
	svc, alice, bob, doc, note := shareFixture(t)
	if err := alice.Share(doc.ID, "bob-phone", ShareOptions{MaxUses: 1, NotifyOwner: true}); err != nil {
		t.Fatal(err)
	}
	msgs, _ := svc.Receive("bob-phone", 0)
	if len(msgs) != 1 {
		t.Fatalf("expected 1 offer in mailbox, got %d", len(msgs))
	}
	genuine := msgs[0]
	flipped := genuine
	flipped.Body = append([]byte(nil), genuine.Body...)
	flipped.Body[len(flipped.Body)-1] ^= 0x01

	forger, err := crypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	o := signedOffer(t, alice, doc, nil)
	weakened := *o.Sticky
	weakened.MaxUses, weakened.ObligationNotify = 0, false
	weakened.Access.Rules = append(weakened.Access.Rules, policy.Rule{ID: "mallory", Effect: policy.EffectAllow,
		SubjectIDs: []string{"mallory"}, Actions: []policy.Action{policy.ActionRead}})
	if o.Sticky, err = policy.SealSticky(weakened, forger.Public(),
		func(m []byte) ([]byte, error) { return forger.Sign(m), nil }); err != nil {
		t.Fatal(err)
	}
	plain, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	impostor := newTestCell(t, "alice-gw", cloud.NewMemory())
	foreignSecret, _ := NewPairingSecret()
	if err := impostor.Pair("bob-phone", foreignSecret); err != nil {
		t.Fatal(err)
	}
	resealed := genuine
	if resealed.Body, err = impostor.sealPaired("bob-phone", kindShareOffer, plain); err != nil {
		t.Fatal(err)
	}
	unsealed := genuine
	unsealed.Body = plain

	before := stateOf(bob, doc.ID)
	for _, m := range []cloud.Message{flipped, resealed, unsealed} {
		if err := svc.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	if sum := inbox(t, bob); sum.OffersAccepted != 0 || sum.Rejected != 3 {
		t.Fatalf("tampered offers: %+v", sum)
	}
	if after := stateOf(bob, doc.ID); !reflect.DeepEqual(before, after) {
		t.Fatalf("tampered offers changed the recipient: %+v -> %+v", before, after)
	}
	if _, err := bob.Read("mallory", note.ID, AccessContext{}); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("mallory reads Bob's note: %v", err)
	}

	_ = svc.Send(genuine)
	if sum := inbox(t, bob); sum.OffersAccepted != 1 {
		t.Fatalf("genuine offer: %+v", sum)
	}
	if _, err := bob.Read("bob-phone", doc.ID, AccessContext{}); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Read("bob-phone", doc.ID, AccessContext{}); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("second read past MaxUses=1: %v", err)
	}
	if sum := inbox(t, alice); sum.AuditSegments != 1 {
		t.Fatalf("notify obligation: %+v", sum)
	}
}

func TestOfferFromUnpairedCellRejected(t *testing.T) {
	svc := cloud.NewMemory()
	alice := newTestCell(t, "alice-gw", svc)
	bob := newTestCell(t, "bob-phone", svc)
	// Only Alice pairs (Bob never did): bob must reject.
	secret, _ := NewPairingSecret()
	_ = alice.Pair("bob-phone", secret)
	doc, _ := alice.Ingest([]byte("x"), IngestOptions{Type: "note", Class: datamodel.ClassAuthored})
	if err := alice.Share(doc.ID, "bob-phone", ShareOptions{}); err != nil {
		t.Fatal(err)
	}
	summary, _ := bob.ProcessInbox()
	if summary.OffersAccepted != 0 || summary.Rejected != 1 {
		t.Fatalf("offer from unpaired cell accepted: %+v", summary)
	}
}

func TestUnknownInboxMessageKind(t *testing.T) {
	svc := cloud.NewMemory()
	bob := newTestCell(t, "bob-phone", svc)
	_ = svc.Send(cloud.Message{From: "x", To: "bob-phone", Kind: "mystery", Body: []byte("?")})
	summary, err := bob.ProcessInbox()
	if err != nil {
		t.Fatal(err)
	}
	if summary.Rejected != 1 {
		t.Fatalf("unexpected summary %+v", summary)
	}
	if len(auditMatching(bob, "x", "mystery", audit.OutcomeError)) != 1 {
		t.Fatal("unknown message kind not audited")
	}
}

// TestShareSeriesAggregateIsUsageControlled proves aggregates of a shared
// series pass the same gate as reads: the shared key opens the series, the
// sticky MaxUses admits one aggregate and then refuses, the notify obligation
// sends the originator one audit segment, and the shared MaxGranularity cap
// holds.
func TestShareSeriesAggregateIsUsageControlled(t *testing.T) {
	svc := cloud.NewMemory()
	alice := newTestCell(t, "alice-gw", svc)
	bob := newTestCell(t, "bob-phone", svc)
	pairCells(t, alice, bob)
	s := timeseries.NewSeries("power", "W")
	for i := 0; i < 4*60; i++ {
		_ = s.AppendValue(testTime.Add(time.Duration(i)*time.Minute), float64(i%60))
	}
	doc, err := alice.IngestSeries(s, "power", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.Share(doc.ID, "bob-phone", ShareOptions{MaxUses: 1, NotifyOwner: true,
		MaxGranularity: 15 * time.Minute}); err != nil {
		t.Fatal(err)
	}
	if sum, err := bob.ProcessInbox(); err != nil || sum.OffersAccepted != 1 {
		t.Fatalf("inbox: %+v %v", sum, err)
	}

	// Finer than the shared cap: refused before any usage session opens.
	if _, err := bob.Aggregate("bob-phone", doc.ID, timeseries.GranularityMinute, timeseries.AggregateMean, AccessContext{}); !errors.Is(err, ErrGranularity) {
		t.Fatalf("fine-grained aggregate of a shared series: %v", err)
	}
	got, err := bob.Aggregate("bob-phone", doc.ID, timeseries.GranularityHour, timeseries.AggregateMean, AccessContext{})
	if err != nil {
		t.Fatalf("aggregate of a shared series: %v", err)
	}
	want, err := s.DownsampleSeries(timeseries.GranularityHour, timeseries.AggregateMean)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 4 || !reflect.DeepEqual(got.Points(), want.Points()) {
		t.Fatalf("shared aggregate = %v, want %v", got.Points(), want.Points())
	}
	if _, err := bob.Aggregate("bob-phone", doc.ID, timeseries.GranularityHour, timeseries.AggregateMean, AccessContext{}); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("second aggregate past MaxUses=1: %v", err)
	}
	if n := bob.usage.UseCount(doc.ID, "bob-phone"); n != 1 {
		t.Fatalf("use count = %d, want 1", n)
	}
	if n := bob.usage.ActiveSessions(); n != 0 {
		t.Fatalf("%d usage sessions left open", n)
	}
	sum, err := alice.ProcessInbox()
	if err != nil {
		t.Fatal(err)
	}
	if sum.AuditSegments != 1 {
		t.Fatalf("originator received %d audit segments, want 1", sum.AuditSegments)
	}
}

// TestConcurrentInboxAndReads accepts 20 share offers on one goroutine while
// another reads on the same cell; under -race it pins that installing an
// offer's rules and received-document entry is ordered with the read gate.
func TestConcurrentInboxAndReads(t *testing.T) {
	svc := cloud.NewMemory()
	alice := newTestCell(t, "alice-gw", svc)
	bob := newTestCell(t, "bob-phone", svc)
	pairCells(t, alice, bob)
	if err := bob.AddRule(policy.Rule{ID: "owner", Effect: policy.EffectAllow,
		SubjectIDs: []string{"bob-phone"}, Actions: []policy.Action{policy.ActionRead}}); err != nil {
		t.Fatal(err)
	}
	own, err := bob.Ingest([]byte("bob's own note"), IngestOptions{Type: "note", Class: datamodel.ClassAuthored})
	if err != nil {
		t.Fatal(err)
	}
	const offers = 20
	shared := make([]string, offers)
	for i := range shared {
		doc, err := alice.Ingest([]byte(fmt.Sprintf("shared photo %02d", i)), IngestOptions{Type: "photo", Class: datamodel.ClassAuthored})
		if err != nil {
			t.Fatal(err)
		}
		if err := alice.Share(doc.ID, "bob-phone", ShareOptions{}); err != nil {
			t.Fatal(err)
		}
		shared[i] = doc.ID
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if _, err := bob.Read("bob-phone", own.ID, AccessContext{}); err != nil {
				t.Errorf("read of own note: %v", err)
				return
			}
			// Shared documents become readable as their offers land; until
			// then the gate refuses them, never opens them with a wrong key.
			for _, r := range bob.ReadBatch("bob-phone", []string{shared[i%offers], own.ID}, AccessContext{}) {
				if errors.Is(r.Err, ErrIntegrity) {
					t.Errorf("read during inbox processing: %v", r.Err)
					return
				}
			}
		}
	}()
	sum, err := bob.ProcessInbox()
	close(done)
	wg.Wait()
	if err != nil || sum.OffersAccepted != offers {
		t.Fatalf("inbox: %+v %v", sum, err)
	}
	for _, r := range bob.ReadBatch("bob-phone", shared, AccessContext{}) {
		if r.Err != nil {
			t.Fatalf("shared %s: %v", r.DocID, r.Err)
		}
	}
}

// TestReshareOfReceivedDocumentRefused pins that a document received from
// another cell cannot be passed on: the offer would carry the recipient's own
// document key, which does not open the originator's sealed payload, and the
// originator's sticky policy would not follow. Share refuses with a typed
// error, audits the refusal, and sends nothing.
func TestReshareOfReceivedDocumentRefused(t *testing.T) {
	svc := cloud.NewMemory()
	alice := newTestCell(t, "alice-gw", svc)
	bob := newTestCell(t, "bob-phone", svc)
	carol := newTestCell(t, "carol-phone", svc)
	pairCells(t, alice, bob)
	pairCells(t, bob, carol)
	doc, err := alice.Ingest([]byte("holiday photo"), IngestOptions{Type: "photo", Class: datamodel.ClassAuthored})
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.Share(doc.ID, "bob-phone", ShareOptions{MaxUses: 1, NotifyOwner: true}); err != nil {
		t.Fatal(err)
	}
	if s, err := bob.ProcessInbox(); err != nil || s.OffersAccepted != 1 {
		t.Fatalf("bob's inbox: %+v, %v", s, err)
	}
	if err := bob.Share(doc.ID, "carol-phone", ShareOptions{}); !errors.Is(err, ErrReshare) {
		t.Fatalf("re-share = %v, want ErrReshare", err)
	}
	if denied := auditMatching(bob, bob.ID(), doc.ID, audit.OutcomeDenied); len(denied) != 1 || denied[0].Action != string(policy.ActionShare) {
		t.Fatalf("refused re-share audited as %+v, want one denied share", denied)
	}
	if s, err := carol.ProcessInbox(); err != nil || s.OffersAccepted != 0 || s.Rejected != 0 {
		t.Fatalf("carol's inbox after a refused re-share: %+v, %v", s, err)
	}
}

// sharedWithMe lists the documents c received from other cells.
func sharedWithMe(c *Cell) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.remoteDocs))
	for id := range c.remoteDocs {
		out = append(out, id)
	}
	return out
}
