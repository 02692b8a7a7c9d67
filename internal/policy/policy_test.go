package policy

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"trustedcells/internal/crypto"
)

var now = time.Date(2013, 2, 1, 14, 0, 0, 0, time.UTC)

func household() Subject {
	return Subject{ID: "bob", Groups: []string{"household"}}
}

func basicSet(t *testing.T) *Set {
	t.Helper()
	s := NewSet("alice")
	rules := []Rule{
		{
			ID:             "household-aggregates",
			Effect:         EffectAllow,
			SubjectGroups:  []string{"household"},
			Actions:        []Action{ActionRead, ActionAggregate},
			Resource:       Resource{Type: "power-series"},
			MaxGranularity: 15 * time.Minute,
		},
		{
			ID:             "utility-monthly",
			Effect:         EffectAllow,
			SubjectIDs:     []string{"utility"},
			Actions:        []Action{ActionAggregate},
			Resource:       Resource{Type: "power-series"},
			MaxGranularity: 30 * 24 * time.Hour,
		},
		{
			ID:       "no-raw-export",
			Effect:   EffectDeny,
			Actions:  []Action{ActionRead},
			Resource: Resource{Type: "power-series", Tags: map[string]string{"raw": "true"}},
		},
	}
	for _, r := range rules {
		if err := s.Add(r); err != nil {
			t.Fatalf("Add(%s): %v", r.ID, err)
		}
	}
	return s
}

func TestRuleValidate(t *testing.T) {
	if err := (Rule{ID: "x", Effect: EffectAllow}).Validate(); err != nil {
		t.Fatalf("valid rule rejected: %v", err)
	}
	if err := (Rule{Effect: EffectAllow}).Validate(); err == nil {
		t.Fatal("rule without id accepted")
	}
	if err := (Rule{ID: "x", Effect: "maybe"}).Validate(); err == nil {
		t.Fatal("rule with bad effect accepted")
	}
	s := NewSet("alice")
	if err := s.Add(Rule{ID: "", Effect: EffectAllow}); err == nil {
		t.Fatal("Set.Add accepted invalid rule")
	}
}

func TestEvaluateClosedByDefault(t *testing.T) {
	s := NewSet("alice")
	d := s.Evaluate(Request{Subject: household(), Action: ActionRead, Context: Context{Time: now}})
	if d.Allowed {
		t.Fatal("empty policy allowed access")
	}
	s = basicSet(t)
	d = s.Evaluate(Request{
		Subject:  Subject{ID: "stranger"},
		Action:   ActionRead,
		Resource: Resource{Type: "power-series"},
		Context:  Context{Time: now},
	})
	if d.Allowed {
		t.Fatal("stranger allowed by default")
	}
}

func TestEvaluateAllowWithGranularityCap(t *testing.T) {
	s := basicSet(t)
	d := s.Evaluate(Request{
		Subject:  household(),
		Action:   ActionAggregate,
		Resource: Resource{Type: "power-series"},
		Context:  Context{Time: now},
	})
	if !d.Allowed || d.RuleID != "household-aggregates" {
		t.Fatalf("household aggregate denied: %+v", d)
	}
	if d.MaxGranularity != 15*time.Minute {
		t.Fatalf("granularity cap = %v", d.MaxGranularity)
	}
	d = s.Evaluate(Request{
		Subject:  Subject{ID: "utility"},
		Action:   ActionAggregate,
		Resource: Resource{Type: "power-series"},
		Context:  Context{Time: now},
	})
	if !d.Allowed || d.MaxGranularity != 30*24*time.Hour {
		t.Fatalf("utility decision: %+v", d)
	}
	// Utility cannot read, only aggregate.
	d = s.Evaluate(Request{
		Subject:  Subject{ID: "utility"},
		Action:   ActionRead,
		Resource: Resource{Type: "power-series"},
		Context:  Context{Time: now},
	})
	if d.Allowed {
		t.Fatal("utility raw read allowed")
	}
}

func TestEvaluateDenyOverrides(t *testing.T) {
	s := basicSet(t)
	d := s.Evaluate(Request{
		Subject:  household(),
		Action:   ActionRead,
		Resource: Resource{Type: "power-series", Tags: map[string]string{"raw": "true"}},
		Context:  Context{Time: now},
	})
	if d.Allowed {
		t.Fatal("deny rule did not override allow")
	}
	if d.RuleID != "no-raw-export" {
		t.Fatalf("deny attributed to %q", d.RuleID)
	}
}

func TestConditionTimeWindow(t *testing.T) {
	c := Condition{NotBefore: now.Add(-time.Hour), NotAfter: now.Add(time.Hour)}
	req := Request{Context: Context{Time: now}}
	if err := c.Satisfied(req); err != nil {
		t.Fatalf("inside window rejected: %v", err)
	}
	req.Context.Time = now.Add(2 * time.Hour)
	if err := c.Satisfied(req); err == nil {
		t.Fatal("after window accepted")
	}
	req.Context.Time = now.Add(-2 * time.Hour)
	if err := c.Satisfied(req); err == nil {
		t.Fatal("before window accepted")
	}
}

func TestConditionHourOfDay(t *testing.T) {
	c := Condition{HourFrom: 8, HourTo: 20}
	ok := Request{Context: Context{Time: time.Date(2013, 2, 1, 12, 0, 0, 0, time.UTC)}}
	if err := c.Satisfied(ok); err != nil {
		t.Fatalf("noon rejected: %v", err)
	}
	night := Request{Context: Context{Time: time.Date(2013, 2, 1, 23, 0, 0, 0, time.UTC)}}
	if err := c.Satisfied(night); err == nil {
		t.Fatal("23h accepted for 8-20h window")
	}
	// Wrap-around window 22-6.
	c = Condition{HourFrom: 22, HourTo: 6}
	if err := c.Satisfied(night); err != nil {
		t.Fatalf("23h rejected for 22-6h window: %v", err)
	}
	if err := c.Satisfied(ok); err == nil {
		t.Fatal("noon accepted for 22-6h window")
	}
}

func TestConditionLocationPurposeAttributes(t *testing.T) {
	c := Condition{
		Locations:          []string{"home", "office"},
		Purposes:           []string{"billing"},
		RequiredAttributes: map[string]string{"role": "physician"},
	}
	req := Request{
		Subject: Subject{ID: "d", Attributes: map[string]string{"role": "physician"}},
		Context: Context{Time: now, Location: "HOME", Purpose: "billing"},
	}
	if err := c.Satisfied(req); err != nil {
		t.Fatalf("satisfying request rejected: %v", err)
	}
	bad := req
	bad.Context.Location = "cafe"
	if err := c.Satisfied(bad); err == nil {
		t.Fatal("wrong location accepted")
	}
	bad = req
	bad.Context.Purpose = "marketing"
	if err := c.Satisfied(bad); err == nil {
		t.Fatal("wrong purpose accepted")
	}
	bad = req
	bad.Subject.Attributes = nil
	if err := c.Satisfied(bad); err == nil {
		t.Fatal("missing attribute accepted")
	}
}

func TestEvaluateConditionFailureReason(t *testing.T) {
	s := NewSet("alice")
	_ = s.Add(Rule{
		ID:        "office-only",
		Effect:    EffectAllow,
		Actions:   []Action{ActionRead},
		Condition: Condition{Locations: []string{"office"}},
	})
	d := s.Evaluate(Request{Subject: household(), Action: ActionRead,
		Context: Context{Time: now, Location: "beach"}})
	if d.Allowed {
		t.Fatal("condition failure still allowed")
	}
	if !strings.Contains(d.Reason, "location") {
		t.Fatalf("reason does not mention the failed condition: %q", d.Reason)
	}
}

func TestResourceMatching(t *testing.T) {
	sel := Resource{Type: "photo", Tags: map[string]string{"album": "2013"}}
	if !resourceMatches(sel, Resource{Type: "photo", Tags: map[string]string{"album": "2013", "x": "y"}}) {
		t.Fatal("matching resource rejected")
	}
	if resourceMatches(sel, Resource{Type: "photo"}) {
		t.Fatal("resource without required tag matched")
	}
	if resourceMatches(Resource{DocumentID: "a"}, Resource{DocumentID: "b"}) {
		t.Fatal("different document IDs matched")
	}
	if !resourceMatches(Resource{}, Resource{DocumentID: "anything", Type: "photo"}) {
		t.Fatal("empty selector should match anything")
	}
	if resourceMatches(Resource{Class: "sensed"}, Resource{Class: "authored"}) {
		t.Fatal("class mismatch matched")
	}
}

func TestCredentialIssueVerify(t *testing.T) {
	issuer, _ := crypto.NewSigningKey()
	trusted := map[string]crypto.VerifyKey{"hospital": issuer.Public()}
	cred := IssueCredential("hospital", issuer, "bob", "role", "physician", now, now.Add(24*time.Hour))
	if err := cred.Verify(now, trusted); err != nil {
		t.Fatalf("valid credential rejected: %v", err)
	}
	// Expired.
	if err := cred.Verify(now.Add(48*time.Hour), trusted); err == nil {
		t.Fatal("expired credential accepted")
	}
	// Untrusted issuer.
	if err := cred.Verify(now, map[string]crypto.VerifyKey{}); err == nil {
		t.Fatal("credential from unknown issuer accepted")
	}
	// Issuer impersonation: same name, different key.
	other, _ := crypto.NewSigningKey()
	if err := cred.Verify(now, map[string]crypto.VerifyKey{"hospital": other.Public()}); err == nil {
		t.Fatal("issuer key substitution accepted")
	}
	// Tampered value.
	cred.Value = "janitor"
	if err := cred.Verify(now, trusted); err == nil {
		t.Fatal("tampered credential accepted")
	}
}

func TestSubjectFromCredentials(t *testing.T) {
	hospital, _ := crypto.NewSigningKey()
	quack, _ := crypto.NewSigningKey()
	trusted := map[string]crypto.VerifyKey{"hospital": hospital.Public()}
	creds := []*Credential{
		IssueCredential("hospital", hospital, "bob", "role", "physician", now, now.Add(time.Hour)),
		IssueCredential("quack-authority", quack, "bob", "role", "surgeon", now, now.Add(time.Hour)),
		IssueCredential("hospital", hospital, "carol", "role", "nurse", now, now.Add(time.Hour)),
	}
	subj := SubjectFromCredentials("bob", []string{"staff"}, creds, now, trusted)
	if subj.Attributes["role"] != "physician" {
		t.Fatalf("attributes = %v", subj.Attributes)
	}
	if len(subj.Attributes) != 1 {
		t.Fatalf("untrusted or foreign credentials leaked into attributes: %v", subj.Attributes)
	}
	if !subj.HasGroup("staff") || subj.HasGroup("household") {
		t.Fatal("groups wrong")
	}
}

func TestStickyPolicySealVerify(t *testing.T) {
	originator, _ := crypto.NewSigningKey()
	access := *basicSet(t)
	sticky, err := SealSticky(StickyPolicy{
		DocumentID:       "doc-1",
		ContentHash:      "abc123",
		OriginatorID:     "alice",
		Access:           access,
		MaxUses:          10,
		NotAfter:         now.Add(365 * 24 * time.Hour),
		ObligationNotify: true,
	}, originator.Public(), func(m []byte) ([]byte, error) { return originator.Sign(m), nil })
	if err != nil {
		t.Fatalf("SealSticky: %v", err)
	}
	if err := sticky.Verify("abc123"); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if err := sticky.Verify(""); err != nil {
		t.Fatalf("Verify without hash: %v", err)
	}
	// Binding to different content fails.
	if err := sticky.Verify("otherhash"); err == nil {
		t.Fatal("sticky policy accepted for different content")
	}
	// Weakening the policy after sealing fails.
	sticky.MaxUses = 1000000
	if err := sticky.Verify("abc123"); err == nil {
		t.Fatal("tampered sticky policy accepted")
	}
}

// TestStickyPolicyEncodeDecode: a sticky policy travels as JSON inside a
// share offer and still verifies after the round trip.
func TestStickyPolicyEncodeDecode(t *testing.T) {
	originator, _ := crypto.NewSigningKey()
	sticky, _ := SealSticky(StickyPolicy{DocumentID: "d", ContentHash: "h", OriginatorID: "alice"},
		originator.Public(), func(m []byte) ([]byte, error) { return originator.Sign(m), nil })
	enc, err := json.Marshal(sticky)
	if err != nil {
		t.Fatal(err)
	}
	var dec StickyPolicy
	if err := json.Unmarshal(enc, &dec); err != nil {
		t.Fatal(err)
	}
	if err := dec.Verify("h"); err != nil {
		t.Fatalf("decoded sticky fails verification: %v", err)
	}
}

func BenchmarkEvaluate(b *testing.B) {
	s := NewSet("alice")
	for i := 0; i < 50; i++ {
		_ = s.Add(Rule{ID: fmt.Sprintf("rule-%02d", i), Effect: EffectAllow,
			SubjectGroups: []string{"household"},
			Actions:       []Action{ActionAggregate},
			Resource:      Resource{Type: "power-series"}})
	}
	req := Request{Subject: household(), Action: ActionAggregate,
		Resource: Resource{Type: "power-series"}, Context: Context{Time: now}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := s.Evaluate(req); !d.Allowed {
			b.Fatal("unexpected deny")
		}
	}
}
