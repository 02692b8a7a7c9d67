package core

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"trustedcells/internal/cloud"
	"trustedcells/internal/policy"
)

// FuzzInboxOpen delivers one arbitrary body to Bob's mailbox, under any
// message kind, sealed over the pairing channel or raw, from Alice (paired)
// or from Mallory (who paired with Bob but whom Bob never paired). The inbox
// must not panic or fail, must account for the message exactly once, must
// refuse everything Mallory sends, and an accepted offer must be scoped:
// each rule it installed names the shared document alone, and no allow rule
// grants more than read and aggregate. Mallory never reads Bob's note.
//
//	go test -fuzz=FuzzInboxOpen -fuzztime=10s -run='^$' ./internal/core
func FuzzInboxOpen(f *testing.F) {
	kinds := []string{kindShareOffer, kindAuditSegment, kindApprovalRequest, kindApprovalResponse, "mystery"}
	// Seeds: the genuine body of every kind, an offer whose rule reaches
	// beyond the shared document, and junk.
	seed := func(t testing.TB) [][]byte {
		_, alice, _, doc, note := shareFixture(t)
		unscoped := signedOffer(t, alice, doc, func(sp *policy.StickyPolicy) {
			sp.Access.Rules = append(sp.Access.Rules, policy.Rule{ID: "mallory", Effect: policy.EffectAllow,
				SubjectIDs: []string{"mallory"}, Actions: []policy.Action{policy.ActionRead},
				Resource: policy.Resource{DocumentID: note.ID}})
		})
		var bodies [][]byte
		for _, v := range []any{
			signedOffer(t, alice, doc, nil),
			unscoped,
			alice.AuditLog().Records(),
			ApprovalRequest{ID: "appr-1", From: "alice-gw", To: "bob-phone", Description: "photo"},
			approvalResponse{RequestID: "appr-1", Approved: true},
		} {
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, b)
		}
		return bodies
	}(f)
	for i, b := range seed {
		k := uint8([]int{0, 0, 1, 2, 3}[i])
		f.Add(k, true, true, b)
		f.Add(k, false, true, b)
		f.Add(k, true, false, b)
	}
	f.Add(uint8(4), true, true, []byte("{}"))
	f.Add(uint8(0), true, true, []byte(`{"document":null}`))

	f.Fuzz(func(t *testing.T, kind uint8, sealed, fromPaired bool, body []byte) {
		svc, alice, bob, _, note := shareFixture(t)
		mallory := newTestCell(t, "mallory", svc)
		secret, _ := NewPairingSecret()
		if err := mallory.Pair("bob-phone", secret); err != nil {
			t.Fatal(err)
		}
		sender := mallory
		if fromPaired {
			sender = alice
		}
		k := kinds[int(kind)%len(kinds)]
		if sealed {
			var err error
			if body, err = sender.sealPaired("bob-phone", k, body); err != nil {
				t.Fatal(err)
			}
		}
		if err := svc.Send(cloud.Message{From: sender.ID(), To: "bob-phone", Kind: k, Body: body}); err != nil {
			t.Fatal(err)
		}
		before := len(bob.AccessPolicy().Rules)
		sum, err := bob.ProcessInbox()
		if err != nil {
			t.Fatal(err)
		}
		if n := sum.OffersAccepted + sum.AuditSegments + sum.ApprovalRequests + sum.ApprovalResponses + sum.Rejected; n != 1 {
			t.Fatalf("one message accounted %d times: %+v", n, sum)
		}
		if !fromPaired && sum.Rejected != 1 {
			t.Fatalf("message from an unpaired sender handled: %+v", sum)
		}
		shared := sharedWithMe(bob)
		if len(shared) != sum.OffersAccepted {
			t.Fatalf("%d documents received for %d accepted offers", len(shared), sum.OffersAccepted)
		}
		for _, r := range bob.AccessPolicy().Rules[before:] {
			if !reflect.DeepEqual(r.Resource, policy.Resource{DocumentID: shared[0]}) {
				t.Fatalf("installed rule %q not scoped to the shared document: %+v", r.ID, r.Resource)
			}
			if r.Effect == policy.EffectAllow && !readOnly(r.Actions) {
				t.Fatalf("installed rule %q allows %v", r.ID, r.Actions)
			}
		}
		if _, err := bob.Read("mallory", note.ID, AccessContext{}); !errors.Is(err, ErrAccessDenied) {
			t.Fatalf("mallory reads Bob's note: %v", err)
		}
		if _, err := bob.Catalog().Get(note.ID); err != nil {
			t.Fatalf("Bob's note: %v", err)
		}
	})
}
