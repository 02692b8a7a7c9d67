package ucon

import (
	"errors"
	"testing"
	"time"
)

var now = time.Date(2013, 3, 1, 10, 0, 0, 0, time.UTC)

func TestTryAccessDeniedWithoutPolicy(t *testing.T) {
	m := NewMonitor()
	if _, err := m.TryAccess(Request{ObjectID: "photo-1", SubjectID: "bob", Now: now}); !errors.Is(err, ErrDenied) {
		t.Fatalf("expected ErrDenied, got %v", err)
	}
}

func TestAttachValidation(t *testing.T) {
	m := NewMonitor()
	if err := m.Attach(Policy{}); err == nil {
		t.Fatal("policy without object id accepted")
	}
	if err := m.Attach(Policy{ObjectID: "photo-1"}); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if got := m.Policies("photo-1"); len(got) != 1 {
		t.Fatalf("Policies = %d", len(got))
	}
}

func TestMaxUsesMutability(t *testing.T) {
	// The paper's example: "a photo could be accessed ten times".
	m := NewMonitor()
	_ = m.Attach(Policy{ObjectID: "photo-1", MaxUses: 3})
	for i := 0; i < 3; i++ {
		s, err := m.TryAccess(Request{ObjectID: "photo-1", SubjectID: "bob", Now: now})
		if err != nil {
			t.Fatalf("use %d denied: %v", i, err)
		}
		if err := m.EndAccess(s.ID); err != nil {
			t.Fatalf("EndAccess %d: %v", i, err)
		}
	}
	if m.UseCount("photo-1", "bob") != 3 {
		t.Fatalf("UseCount = %d", m.UseCount("photo-1", "bob"))
	}
	if _, err := m.TryAccess(Request{ObjectID: "photo-1", SubjectID: "bob", Now: now}); err != ErrUsesExhausted {
		t.Fatalf("4th use: %v", err)
	}
	// Another subject has its own counter under a subject-agnostic policy.
	if _, err := m.TryAccess(Request{ObjectID: "photo-1", SubjectID: "carol", Now: now}); err != nil {
		t.Fatalf("carol's first use denied: %v", err)
	}
}

func TestRevokedSessionDoesNotCount(t *testing.T) {
	m := NewMonitor()
	_ = m.Attach(Policy{ObjectID: "doc", MaxUses: 1})
	s, err := m.TryAccess(Request{ObjectID: "doc", SubjectID: "bob", Now: now})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Revoke(s.ID); err != nil {
		t.Fatalf("Revoke: %v", err)
	}
	if err := m.EndAccess(s.ID); err != ErrSessionRevoked {
		t.Fatalf("EndAccess after revoke: %v", err)
	}
	if m.UseCount("doc", "bob") != 0 {
		t.Fatal("revoked session counted as a use")
	}
	// The use is still available.
	if _, err := m.TryAccess(Request{ObjectID: "doc", SubjectID: "bob", Now: now}); err != nil {
		t.Fatalf("retry after revoke denied: %v", err)
	}
}

func TestExpiryCondition(t *testing.T) {
	m := NewMonitor()
	_ = m.Attach(Policy{ObjectID: "doc", NotAfter: now.Add(time.Hour)})
	if _, err := m.TryAccess(Request{ObjectID: "doc", SubjectID: "bob", Now: now}); err != nil {
		t.Fatalf("before expiry denied: %v", err)
	}
	if _, err := m.TryAccess(Request{ObjectID: "doc", SubjectID: "bob", Now: now.Add(2 * time.Hour)}); err != ErrExpired {
		t.Fatalf("after expiry: %v", err)
	}
}

func TestAllowedHours(t *testing.T) {
	m := NewMonitor()
	_ = m.Attach(Policy{ObjectID: "doc", AllowedHoursFrom: 8, AllowedHoursTo: 18})
	if _, err := m.TryAccess(Request{ObjectID: "doc", SubjectID: "bob", Now: now}); err != nil {
		t.Fatalf("10h denied: %v", err)
	}
	night := time.Date(2013, 3, 1, 23, 0, 0, 0, time.UTC)
	if _, err := m.TryAccess(Request{ObjectID: "doc", SubjectID: "bob", Now: night}); !errors.Is(err, ErrDenied) {
		t.Fatalf("23h allowed: %v", err)
	}
	// Wrap-around window.
	m2 := NewMonitor()
	_ = m2.Attach(Policy{ObjectID: "doc", AllowedHoursFrom: 22, AllowedHoursTo: 6})
	if _, err := m2.TryAccess(Request{ObjectID: "doc", SubjectID: "bob", Now: night}); err != nil {
		t.Fatalf("23h denied for 22-6 window: %v", err)
	}
}

func TestRequiredAttributeAuthorization(t *testing.T) {
	m := NewMonitor()
	_ = m.Attach(Policy{ObjectID: "medical-record", RequiredAttribute: "role", RequiredAttributeValue: "physician"})
	if _, err := m.TryAccess(Request{ObjectID: "medical-record", SubjectID: "bob", Now: now}); !errors.Is(err, ErrDenied) {
		t.Fatalf("access without attribute: %v", err)
	}
	req := Request{ObjectID: "medical-record", SubjectID: "bob", Now: now,
		Attributes: map[string]string{"role": "physician"}}
	if _, err := m.TryAccess(req); err != nil {
		t.Fatalf("physician denied: %v", err)
	}
}

func TestPreObligation(t *testing.T) {
	m := NewMonitor()
	_ = m.Attach(Policy{ObjectID: "doc", Obligations: []Obligation{{Kind: ObligationKind("display-notice"), Pre: true}}})
	if _, err := m.TryAccess(Request{ObjectID: "doc", SubjectID: "bob", Now: now}); !errors.Is(err, ErrObligationOpen) {
		t.Fatalf("missing pre-obligation: %v", err)
	}
	req := Request{ObjectID: "doc", SubjectID: "bob", Now: now,
		FulfilledPre: []ObligationKind{ObligationKind("display-notice")}}
	if _, err := m.TryAccess(req); err != nil {
		t.Fatalf("fulfilled pre-obligation denied: %v", err)
	}
}

func TestPostObligationBlocksEndAccess(t *testing.T) {
	m := NewMonitor()
	_ = m.Attach(Policy{ObjectID: "doc", Obligations: []Obligation{{Kind: ObligationNotifyOwner}}})
	s, err := m.TryAccess(Request{ObjectID: "doc", SubjectID: "bob", Now: now})
	if err != nil {
		t.Fatal(err)
	}
	pending, err := m.PendingObligations(s.ID)
	if err != nil || len(pending) != 1 || pending[0] != ObligationNotifyOwner {
		t.Fatalf("pending obligations = %v, %v", pending, err)
	}
	if err := m.EndAccess(s.ID); !errors.Is(err, ErrObligationOpen) {
		t.Fatalf("EndAccess with open obligation: %v", err)
	}
	if err := m.FulfillObligation(s.ID, ObligationKind("delete-after-use")); err == nil {
		t.Fatal("fulfilling an obligation that is not pending succeeded")
	}
	if err := m.FulfillObligation(s.ID, ObligationNotifyOwner); err != nil {
		t.Fatalf("FulfillObligation: %v", err)
	}
	if err := m.EndAccess(s.ID); err != nil {
		t.Fatalf("EndAccess after fulfilment: %v", err)
	}
	if err := m.EndAccess(s.ID); err != ErrSessionFinished {
		t.Fatalf("double EndAccess: %v", err)
	}
}

func TestUnknownSessionErrors(t *testing.T) {
	m := NewMonitor()
	if err := m.EndAccess("nope"); err != ErrUnknownSession {
		t.Fatalf("EndAccess unknown: %v", err)
	}
	if err := m.Revoke("nope"); err != ErrUnknownSession {
		t.Fatalf("Revoke unknown: %v", err)
	}
	if _, err := m.PendingObligations("nope"); err != ErrUnknownSession {
		t.Fatalf("PendingObligations unknown: %v", err)
	}
	if err := m.FulfillObligation("nope", ObligationNotifyOwner); err != ErrUnknownSession {
		t.Fatalf("FulfillObligation unknown: %v", err)
	}
}

func TestSubjectSpecificPolicy(t *testing.T) {
	m := NewMonitor()
	_ = m.Attach(Policy{ObjectID: "doc", SubjectID: "bob", MaxUses: 1})
	// Carol has no applicable policy → denied.
	if _, err := m.TryAccess(Request{ObjectID: "doc", SubjectID: "carol", Now: now}); !errors.Is(err, ErrDenied) {
		t.Fatalf("carol: %v", err)
	}
	s, err := m.TryAccess(Request{ObjectID: "doc", SubjectID: "bob", Now: now})
	if err != nil {
		t.Fatalf("bob denied: %v", err)
	}
	_ = m.EndAccess(s.ID)
	if _, err := m.TryAccess(Request{ObjectID: "doc", SubjectID: "bob", Now: now}); err != ErrUsesExhausted {
		t.Fatalf("bob second use: %v", err)
	}
}

func TestRevokeEndedSession(t *testing.T) {
	m := NewMonitor()
	_ = m.Attach(Policy{ObjectID: "doc"})
	s, _ := m.TryAccess(Request{ObjectID: "doc", SubjectID: "bob", Now: now})
	_ = m.EndAccess(s.ID)
	if err := m.Revoke(s.ID); err != ErrSessionFinished {
		t.Fatalf("Revoke ended session: %v", err)
	}
}

func BenchmarkTryEndAccess(b *testing.B) {
	m := NewMonitor()
	_ = m.Attach(Policy{ObjectID: "doc"})
	req := Request{ObjectID: "doc", SubjectID: "bob", Now: now}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := m.TryAccess(req)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.EndAccess(s.ID); err != nil {
			b.Fatal(err)
		}
	}
}
