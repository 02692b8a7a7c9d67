package core

import (
	"errors"
	"strings"
	"testing"

	"trustedcells/internal/audit"
	"trustedcells/internal/cloud"
	"trustedcells/internal/datamodel"
)

// setupApprovalPeers returns Alice's and Bob's paired cells on a shared cloud.
func setupApprovalPeers(t *testing.T) (*Cell, *Cell) {
	t.Helper()
	svc := cloud.NewMemory()
	alice := newTestCell(t, "alice-phone", svc)
	bob := newTestCell(t, "bob-phone", svc)
	pairCells(t, alice, bob)
	return alice, bob
}

func TestApprovalGrantedFlow(t *testing.T) {
	alice, bob := setupApprovalPeers(t)
	photo := []byte("group photo with Bob in the frame")

	// Alice's camera cell asks Bob's cell before integrating the photo.
	reqID, err := alice.RequestApproval("bob-phone", "photo taken at the park, Bob in frame", "photo", photo)
	if err != nil {
		t.Fatalf("RequestApproval: %v", err)
	}
	if st, _ := alice.ApprovalStatusOf(reqID); st != ApprovalPending {
		t.Fatalf("status = %v", st)
	}
	// Cannot integrate before Bob answers.
	if _, err := alice.IngestReferencing(photo, IngestOptions{Type: "photo", Class: datamodel.ClassAuthored}, reqID); !errors.Is(err, ErrApprovalRequired) {
		t.Fatalf("ingest before approval: %v", err)
	}

	// Bob receives the request and approves it.
	sum, err := bob.ProcessInbox()
	if err != nil || sum.ApprovalRequests != 1 {
		t.Fatalf("bob inbox: %+v %v", sum, err)
	}
	pending := bob.PendingApprovals()
	if len(pending) != 1 || pending[0].From != "alice-phone" || pending[0].DocType != "photo" {
		t.Fatalf("pending approvals %+v", pending)
	}
	if err := bob.RespondApproval(pending[0].ID, true, "fine by me"); err != nil {
		t.Fatalf("RespondApproval: %v", err)
	}

	// Alice learns of the decision and can now integrate the photo.
	sum, err = alice.ProcessInbox()
	if err != nil || sum.ApprovalResponses != 1 {
		t.Fatalf("alice inbox: %+v %v", sum, err)
	}
	if st, _ := alice.ApprovalStatusOf(reqID); st != ApprovalGranted {
		t.Fatalf("status after grant = %v", st)
	}
	doc, err := alice.IngestReferencing(photo, IngestOptions{Type: "photo", Class: datamodel.ClassAuthored, Title: "park"}, reqID)
	if err != nil {
		t.Fatalf("IngestReferencing: %v", err)
	}
	if doc.Owner != "alice-phone" {
		t.Fatalf("doc %+v", doc)
	}
}

func TestApprovalRejectedFlow(t *testing.T) {
	alice, bob := setupApprovalPeers(t)
	payload := []byte("embarrassing karaoke video")
	reqID, err := alice.RequestApproval("bob-phone", "karaoke video", "video", payload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bob.ProcessInbox(); err != nil {
		t.Fatal(err)
	}
	pending := bob.PendingApprovals()
	if err := bob.RespondApproval(pending[0].ID, false, "please delete this"); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.ProcessInbox(); err != nil {
		t.Fatal(err)
	}
	if st, _ := alice.ApprovalStatusOf(reqID); st != ApprovalRejected {
		t.Fatalf("status = %v", st)
	}
	if _, err := alice.IngestReferencing(payload, IngestOptions{Type: "video", Class: datamodel.ClassAuthored}, reqID); !errors.Is(err, ErrApprovalRejected) {
		t.Fatalf("ingest after rejection: %v", err)
	}
	if ApprovalRejected.String() != "rejected" || ApprovalGranted.String() != "granted" || ApprovalPending.String() != "pending" {
		t.Fatal("approval status names wrong")
	}
}

func TestApprovalPayloadSubstitutionBlocked(t *testing.T) {
	alice, bob := setupApprovalPeers(t)
	approved := []byte("innocent photo")
	reqID, _ := alice.RequestApproval("bob-phone", "photo", "photo", approved)
	_, _ = bob.ProcessInbox()
	pending := bob.PendingApprovals()
	_ = bob.RespondApproval(pending[0].ID, true, "ok")
	_, _ = alice.ProcessInbox()
	// Alice tries to integrate a different payload under the same approval.
	if _, err := alice.IngestReferencing([]byte("different content"), IngestOptions{Type: "photo", Class: datamodel.ClassAuthored}, reqID); !errors.Is(err, ErrApprovalRequired) {
		t.Fatalf("substituted payload accepted: %v", err)
	}
}

func TestApprovalErrorsAndGuards(t *testing.T) {
	alice, bob := setupApprovalPeers(t)
	// Unknown request IDs.
	if _, err := alice.ApprovalStatusOf("nope"); !errors.Is(err, ErrUnknownApproval) {
		t.Fatalf("ApprovalStatusOf: %v", err)
	}
	if err := bob.RespondApproval("nope", true, ""); !errors.Is(err, ErrUnknownApproval) {
		t.Fatalf("RespondApproval unknown: %v", err)
	}
	if _, err := alice.IngestReferencing([]byte("x"), IngestOptions{Type: "t", Class: datamodel.ClassAuthored}, "nope"); !errors.Is(err, ErrUnknownApproval) {
		t.Fatalf("IngestReferencing unknown: %v", err)
	}
	// Requests to unpaired parties fail.
	if _, err := alice.RequestApproval("stranger", "d", "t", []byte("x")); !errors.Is(err, ErrNotPaired) {
		t.Fatalf("RequestApproval unpaired: %v", err)
	}
	// Owner operations require an unlocked TEE.
	alice.TEE().Lock()
	if _, err := alice.RequestApproval("bob-phone", "d", "t", []byte("x")); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("RequestApproval locked: %v", err)
	}
	if err := alice.RespondApproval("id", true, ""); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("RespondApproval locked: %v", err)
	}
}

// TestApprovalResponseOnlyFromAddresseeOnce pins who decides an approval
// request and how often: a response from a third paired cell that knows the
// request ID, and any second response from the addressee, are refused with a
// typed error, counted in InboxSummary.Rejected and audited, and leave the
// first decision standing.
func TestApprovalResponseOnlyFromAddresseeOnce(t *testing.T) {
	alice, bob := setupApprovalPeers(t)
	carol := newTestCell(t, "carol-phone", alice.cloud)
	pairCells(t, alice, carol)
	payload := []byte("photo with Bob in the frame")
	reqID, err := alice.RequestApproval("bob-phone", "photo", "photo", payload)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := alice.RequestApproval("bob-phone", "photo", "photo", payload); err != nil || again == reqID {
		t.Fatalf("the same request twice got the ID %s twice (%v): it is derivable", again, err)
	}
	if _, err := bob.ProcessInbox(); err != nil {
		t.Fatal(err)
	}
	respond := func(from *Cell, approved bool) InboxSummary {
		t.Helper()
		if err := from.sendPaired(alice.ID(), kindApprovalResponse, approvalResponse{RequestID: reqID, Approved: approved}); err != nil {
			t.Fatal(err)
		}
		summary, err := alice.ProcessInbox()
		if err != nil {
			t.Fatal(err)
		}
		return summary
	}
	refused := func(what string, want error) {
		t.Helper()
		for _, r := range alice.AuditLog().Records() {
			if r.Action == "inbox" && r.Outcome == audit.OutcomeError && strings.Contains(r.Reason, want.Error()) {
				return
			}
		}
		t.Fatalf("%s: no audit record of the refusal", what)
	}

	if s := respond(carol, true); s.Rejected != 1 {
		t.Fatalf("a third party's approval: inbox summary %+v, want it rejected", s)
	}
	refused("third party", ErrApprovalSender)
	if st, _ := alice.ApprovalStatusOf(reqID); st != ApprovalPending {
		t.Fatalf("a third party decided the request: %v", st)
	}
	if err := alice.handleApprovalResponse(carol.ID(), []byte(`{"request_id":"`+reqID+`","approved":true}`)); !errors.Is(err, ErrApprovalSender) {
		t.Fatalf("third-party response = %v, want ErrApprovalSender", err)
	}

	if s := respond(bob, false); s.Rejected != 0 {
		t.Fatalf("the addressee's decision was refused: %+v", s)
	}
	if s := respond(bob, true); s.Rejected != 1 {
		t.Fatalf("a second response: inbox summary %+v, want it rejected", s)
	}
	refused("second response", ErrApprovalDecided)
	if st, _ := alice.ApprovalStatusOf(reqID); st != ApprovalRejected {
		t.Fatalf("status = %v, want the first decision (rejected) to stand", st)
	}
	if _, err := alice.IngestReferencing(payload, IngestOptions{Type: "photo", Class: datamodel.ClassAuthored}, reqID); !errors.Is(err, ErrApprovalRejected) {
		t.Fatalf("IngestReferencing after an overridden rejection = %v", err)
	}
}
