// Package policy implements the access-control side of a trusted cell's
// reference monitor: subjects and their certified credentials, access rules
// with contextual conditions, policy sets, and sticky policies that travel
// with shared data so the recipient cell enforces the originator's rules.
package policy

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"trustedcells/internal/crypto"
)

// Action is an operation a subject may perform on a resource.
type Action string

// The actions distinguished by the reference monitor. ActionAggregate is
// weaker than ActionRead: it grants access only to aggregate query results,
// never to raw data (the paper's "predefined set of aggregate queries").
const (
	ActionRead      Action = "read"
	ActionAggregate Action = "aggregate"
	ActionShare     Action = "share"
)

// Effect is the outcome of a rule.
type Effect string

// Rule effects. Deny rules take precedence over allow rules.
const (
	EffectAllow Effect = "allow"
	EffectDeny  Effect = "deny"
)

// Decision is the result of evaluating a request against a policy set.
type Decision struct {
	Allowed bool
	// RuleID identifies the rule that determined the outcome ("" when no
	// rule matched).
	RuleID string
	// Reason is a human-readable explanation, used in audit records.
	Reason string
	// MaxGranularity, when non-zero, caps the time-series granularity the
	// subject may receive (e.g. 15 minutes for household members).
	MaxGranularity time.Duration
}

// Errors returned by the package.
var (
	ErrBadRule          = errors.New("policy: invalid rule")
	ErrCredentialProof  = errors.New("policy: credential proof invalid")
	ErrStickyTampered   = errors.New("policy: sticky policy does not match the protected data")
	ErrConditionFailure = errors.New("policy: contextual condition not satisfied")
)

// Subject identifies a requesting principal together with its certified
// attributes. Attributes arrive as Credentials issued by parties the policy
// owner trusts (an employer, a hospital, a citizen association).
type Subject struct {
	// ID is the requesting cell/user identifier.
	ID string
	// Groups are coarse-grained roles ("household", "friends", "utility").
	Groups []string
	// Attributes are certified name/value pairs extracted from verified
	// credentials.
	Attributes map[string]string
}

// HasGroup reports whether the subject belongs to the group.
func (s Subject) HasGroup(g string) bool {
	for _, x := range s.Groups {
		if x == g {
			return true
		}
	}
	return false
}

// Request is one access request evaluated by the reference monitor.
type Request struct {
	Subject  Subject
	Action   Action
	Resource Resource
	// Context carries environmental facts: current time, requester location,
	// purpose of access, connectivity, etc.
	Context Context
}

// Resource designates the data the request targets.
type Resource struct {
	// DocumentID targets a specific document ("" = any).
	DocumentID string
	// Type targets a document type, e.g. "power-series" ("" = any).
	Type string
	// Class targets a data class name as produced by datamodel.DataClass
	// ("" = any).
	Class string
	// Tags targets documents carrying all the given tag values.
	Tags map[string]string
}

// Context carries request-time environmental facts.
type Context struct {
	Time     time.Time
	Location string
	Purpose  string
}

// Condition restricts when a rule applies. Zero values mean "no constraint".
type Condition struct {
	// NotBefore/NotAfter bound the validity window of the rule.
	NotBefore time.Time `json:"not_before,omitempty"`
	NotAfter  time.Time `json:"not_after,omitempty"`
	// HourFrom/HourTo restrict the local hour of day (e.g. only 8-20h).
	// Both zero means unrestricted; HourFrom may exceed HourTo to wrap
	// around midnight.
	HourFrom int `json:"hour_from,omitempty"`
	HourTo   int `json:"hour_to,omitempty"`
	// Locations restricts the requester's declared location.
	Locations []string `json:"locations,omitempty"`
	// Purposes restricts the declared purpose of access.
	Purposes []string `json:"purposes,omitempty"`
	// RequiredAttributes must all be present (and equal) among the subject's
	// certified attributes, e.g. {"role": "physician"}.
	RequiredAttributes map[string]string `json:"required_attributes,omitempty"`
}

// Satisfied reports whether the condition holds for the request.
func (c Condition) Satisfied(r Request) error {
	now := r.Context.Time
	if !c.NotBefore.IsZero() && now.Before(c.NotBefore) {
		return fmt.Errorf("%w: before validity window", ErrConditionFailure)
	}
	if !c.NotAfter.IsZero() && now.After(c.NotAfter) {
		return fmt.Errorf("%w: after validity window", ErrConditionFailure)
	}
	if c.HourFrom != 0 || c.HourTo != 0 {
		h := now.Hour()
		if c.HourFrom <= c.HourTo {
			if h < c.HourFrom || h >= c.HourTo {
				return fmt.Errorf("%w: outside allowed hours", ErrConditionFailure)
			}
		} else { // wraps midnight
			if h < c.HourFrom && h >= c.HourTo {
				return fmt.Errorf("%w: outside allowed hours", ErrConditionFailure)
			}
		}
	}
	if len(c.Locations) > 0 && !containsFold(c.Locations, r.Context.Location) {
		return fmt.Errorf("%w: location %q not allowed", ErrConditionFailure, r.Context.Location)
	}
	if len(c.Purposes) > 0 && !containsFold(c.Purposes, r.Context.Purpose) {
		return fmt.Errorf("%w: purpose %q not allowed", ErrConditionFailure, r.Context.Purpose)
	}
	for k, v := range c.RequiredAttributes {
		if r.Subject.Attributes[k] != v {
			return fmt.Errorf("%w: missing certified attribute %s=%s", ErrConditionFailure, k, v)
		}
	}
	return nil
}

func containsFold(list []string, v string) bool {
	for _, x := range list {
		if strings.EqualFold(x, v) {
			return true
		}
	}
	return false
}

// Rule grants or denies actions on resources to subjects under a condition.
type Rule struct {
	ID     string `json:"id"`
	Effect Effect `json:"effect"`
	// SubjectIDs and SubjectGroups select whom the rule applies to. Empty
	// lists mean "any subject".
	SubjectIDs    []string `json:"subject_ids,omitempty"`
	SubjectGroups []string `json:"subject_groups,omitempty"`
	// Actions the rule covers. Empty means "all actions".
	Actions []Action `json:"actions,omitempty"`
	// Resource selector. Zero value means "any resource".
	Resource Resource `json:"resource"`
	// Condition further restricts applicability.
	Condition Condition `json:"condition"`
	// MaxGranularity caps the granularity of time-series data released under
	// this rule (0 = no cap). Only meaningful for allow rules.
	MaxGranularity time.Duration `json:"max_granularity,omitempty"`
}

// Validate checks structural invariants.
func (r Rule) Validate() error {
	if r.ID == "" {
		return fmt.Errorf("%w: empty rule id", ErrBadRule)
	}
	if r.Effect != EffectAllow && r.Effect != EffectDeny {
		return fmt.Errorf("%w: effect %q", ErrBadRule, r.Effect)
	}
	return nil
}

// appliesTo reports whether the rule matches the request's subject, action
// and resource (conditions are evaluated separately so that a failed
// condition can be reported distinctly).
func (r Rule) appliesTo(req Request) bool {
	if len(r.SubjectIDs) > 0 || len(r.SubjectGroups) > 0 {
		match := false
		for _, id := range r.SubjectIDs {
			if id == req.Subject.ID {
				match = true
				break
			}
		}
		if !match {
			for _, g := range r.SubjectGroups {
				if req.Subject.HasGroup(g) {
					match = true
					break
				}
			}
		}
		if !match {
			return false
		}
	}
	if len(r.Actions) > 0 {
		match := false
		for _, a := range r.Actions {
			if a == req.Action {
				match = true
				break
			}
		}
		if !match {
			return false
		}
	}
	return resourceMatches(r.Resource, req.Resource)
}

func resourceMatches(sel, target Resource) bool {
	if sel.DocumentID != "" && sel.DocumentID != target.DocumentID {
		return false
	}
	if sel.Type != "" && sel.Type != target.Type {
		return false
	}
	if sel.Class != "" && sel.Class != target.Class {
		return false
	}
	for k, v := range sel.Tags {
		if target.Tags[k] != v {
			return false
		}
	}
	return true
}

// Set is an ordered collection of rules forming a policy. Evaluation follows
// deny-overrides: if any applicable deny rule's condition holds, the request
// is denied; otherwise the first applicable allow rule whose condition holds
// grants access; otherwise the request is denied by default (closed policy).
type Set struct {
	Owner string `json:"owner"`
	Rules []Rule `json:"rules"`
}

// NewSet creates a policy set for an owner.
func NewSet(owner string) *Set { return &Set{Owner: owner} }

// Add appends a rule after validation.
func (s *Set) Add(r Rule) error {
	if err := r.Validate(); err != nil {
		return err
	}
	s.Rules = append(s.Rules, r)
	return nil
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	out := &Set{Owner: s.Owner, Rules: make([]Rule, len(s.Rules))}
	for i, r := range s.Rules {
		r.SubjectIDs = slices.Clone(r.SubjectIDs)
		r.SubjectGroups = slices.Clone(r.SubjectGroups)
		r.Actions = slices.Clone(r.Actions)
		r.Resource.Tags = maps.Clone(r.Resource.Tags)
		r.Condition.Locations = slices.Clone(r.Condition.Locations)
		r.Condition.Purposes = slices.Clone(r.Condition.Purposes)
		r.Condition.RequiredAttributes = maps.Clone(r.Condition.RequiredAttributes)
		out.Rules[i] = r
	}
	return out
}

// Evaluate applies the policy to a request.
func (s *Set) Evaluate(req Request) Decision {
	if len(s.Rules) == 0 {
		return Decision{Allowed: false, Reason: "closed policy: no rules"}
	}
	// Deny overrides.
	for _, r := range s.Rules {
		if r.Effect != EffectDeny || !r.appliesTo(req) {
			continue
		}
		if err := r.Condition.Satisfied(req); err == nil {
			return Decision{Allowed: false, RuleID: r.ID, Reason: "explicit deny"}
		}
	}
	var firstCondErr error
	for _, r := range s.Rules {
		if r.Effect != EffectAllow || !r.appliesTo(req) {
			continue
		}
		if err := r.Condition.Satisfied(req); err != nil {
			if firstCondErr == nil {
				firstCondErr = err
			}
			continue
		}
		return Decision{Allowed: true, RuleID: r.ID, Reason: "allowed", MaxGranularity: r.MaxGranularity}
	}
	reason := "no applicable allow rule"
	if firstCondErr != nil {
		reason = firstCondErr.Error()
	}
	return Decision{Allowed: false, Reason: reason}
}

// Credential is a signed statement by an issuer that a subject holds an
// attribute ("Bob is a physician at hospital H", "Charlie is a member of the
// household"). The paper requires "a proof of legitimacy for the credentials
// exposed by the participants of a data exchange": that proof is the issuer
// signature, verified against the set of issuers the policy owner trusts.
type Credential struct {
	SubjectID string    `json:"subject_id"`
	Attribute string    `json:"attribute"`
	Value     string    `json:"value"`
	IssuerID  string    `json:"issuer_id"`
	IssuedAt  time.Time `json:"issued_at"`
	ExpiresAt time.Time `json:"expires_at"`
	IssuerKey []byte    `json:"issuer_key"`
	Signature []byte    `json:"signature"`
}

func (c *Credential) message() []byte {
	clone := *c
	clone.Signature = nil
	b, _ := json.Marshal(&clone)
	return b
}

// IssueCredential creates and signs a credential.
func IssueCredential(issuerID string, issuer *crypto.SigningKey, subjectID, attribute, value string,
	issuedAt, expiresAt time.Time) *Credential {
	c := &Credential{
		SubjectID: subjectID,
		Attribute: attribute,
		Value:     value,
		IssuerID:  issuerID,
		IssuedAt:  issuedAt,
		ExpiresAt: expiresAt,
		IssuerKey: issuer.Public().Bytes(),
	}
	c.Signature = issuer.Sign(c.message())
	return c
}

// Verify checks the credential signature, expiry (against now) and that the
// issuer key belongs to trustedIssuers[c.IssuerID] when that map is non-nil.
func (c *Credential) Verify(now time.Time, trustedIssuers map[string]crypto.VerifyKey) error {
	vk, err := crypto.VerifyKeyFromBytes(c.IssuerKey)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCredentialProof, err)
	}
	if trustedIssuers != nil {
		trusted, ok := trustedIssuers[c.IssuerID]
		if !ok || !trusted.Equal(vk) {
			return fmt.Errorf("%w: issuer %q not trusted", ErrCredentialProof, c.IssuerID)
		}
	}
	if !c.ExpiresAt.IsZero() && now.After(c.ExpiresAt) {
		return fmt.Errorf("%w: credential expired", ErrCredentialProof)
	}
	if err := vk.Verify(c.message(), c.Signature); err != nil {
		return fmt.Errorf("%w: bad signature", ErrCredentialProof)
	}
	return nil
}

// SubjectFromCredentials builds a Subject whose attributes come only from
// credentials that verify against the trusted issuers.
func SubjectFromCredentials(id string, groups []string, creds []*Credential,
	now time.Time, trustedIssuers map[string]crypto.VerifyKey) Subject {
	attrs := make(map[string]string)
	for _, c := range creds {
		if c.SubjectID != id {
			continue
		}
		if err := c.Verify(now, trustedIssuers); err != nil {
			continue
		}
		attrs[c.Attribute] = c.Value
	}
	return Subject{ID: id, Groups: groups, Attributes: attrs}
}
