// Package ucon implements the usage-control monitor of a trusted cell,
// following the UCON_ABC model the paper references: Authorizations (rights
// that depend on subject/object attributes), oBligations (actions the subject
// must perform before or while holding a right) and Conditions
// (environmental factors), plus attribute mutability (decisions based on
// previous usage, e.g. "this photo may be accessed ten times").
//
// The monitor manages usage sessions: TryAccess evaluates pre-authorizations
// and pre-obligations, ongoing usage can be revoked when ongoing conditions
// stop holding, and EndAccess applies post-updates (mutability) such as
// incrementing the usage counter.
package ucon

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Errors returned by the monitor.
var (
	ErrDenied          = errors.New("ucon: usage denied")
	ErrUsesExhausted   = errors.New("ucon: maximum number of uses reached")
	ErrExpired         = errors.New("ucon: usage right expired")
	ErrObligationOpen  = errors.New("ucon: pending obligation not fulfilled")
	ErrUnknownSession  = errors.New("ucon: unknown usage session")
	ErrSessionRevoked  = errors.New("ucon: usage session was revoked")
	ErrSessionFinished = errors.New("ucon: usage session already ended")
)

// ObligationKind enumerates the obligations the monitor can track.
type ObligationKind string

// ObligationNotifyOwner is the paper's accountability hook: the recipient
// cell must push an audit record to the originator.
const ObligationNotifyOwner ObligationKind = "notify-owner"

// Obligation describes one required action and whether it must be fulfilled
// before (pre) or after (post) the usage.
type Obligation struct {
	Kind ObligationKind `json:"kind"`
	Pre  bool           `json:"pre"`
}

// Policy is a usage-control policy attached to one object (document) for one
// or all subjects.
type Policy struct {
	// ObjectID identifies the protected object.
	ObjectID string `json:"object_id"`
	// SubjectID restricts the policy to one subject ("" = any subject).
	SubjectID string `json:"subject_id,omitempty"`
	// MaxUses caps the total number of completed usage sessions
	// (mutability); 0 means unlimited.
	MaxUses int `json:"max_uses,omitempty"`
	// NotAfter is an absolute expiry (condition); zero means no expiry.
	NotAfter time.Time `json:"not_after,omitempty"`
	// AllowedHoursFrom/To restrict usage to a window of the day (condition);
	// both zero means unrestricted.
	AllowedHoursFrom int `json:"allowed_hours_from,omitempty"`
	AllowedHoursTo   int `json:"allowed_hours_to,omitempty"`
	// RequiredAttribute, when set, must be present among the subject's
	// attributes with the given value (authorization).
	RequiredAttribute      string `json:"required_attribute,omitempty"`
	RequiredAttributeValue string `json:"required_attribute_value,omitempty"`
	// Obligations the subject must fulfil.
	Obligations []Obligation `json:"obligations,omitempty"`
}

// key identifies the attribute record the monitor mutates (per object and
// subject when the policy is subject-specific).
func (p Policy) key(subjectID string) string {
	if p.SubjectID != "" {
		return p.ObjectID + "\x00" + p.SubjectID
	}
	return p.ObjectID + "\x00" + subjectID
}

// SessionState is the lifecycle state of a usage session.
type SessionState int

// Session states.
const (
	StateActive SessionState = iota
	StateEnded
	StateRevoked
)

// Session is one ongoing or finished usage of an object by a subject.
type Session struct {
	ID        string
	ObjectID  string
	SubjectID string
	StartedAt time.Time
	State     SessionState
	// pendingPost are post-obligations to fulfil at EndAccess.
	pendingPost []ObligationKind
}

// Request describes a usage attempt.
type Request struct {
	ObjectID   string
	SubjectID  string
	Attributes map[string]string
	Now        time.Time
	// FulfilledPre lists the pre-obligations the subject claims (and the
	// caller has verified) to have fulfilled.
	FulfilledPre []ObligationKind
}

// Monitor is the usage-control decision point and attribute store of a cell.
type Monitor struct {
	mu        sync.Mutex
	policies  map[string][]Policy // objectID -> policies
	useCounts map[string]int      // policy key -> completed uses
	sessions  map[string]*Session
	nextID    int
}

// NewMonitor creates an empty usage-control monitor.
func NewMonitor() *Monitor {
	return &Monitor{
		policies:  make(map[string][]Policy),
		useCounts: make(map[string]int),
		sessions:  make(map[string]*Session),
	}
}

// Attach registers a usage policy for an object. Several policies can be
// attached to the same object (e.g. one per subject); all applicable policies
// must allow the usage.
func (m *Monitor) Attach(p Policy) error {
	if p.ObjectID == "" {
		return fmt.Errorf("ucon: policy without object id")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.policies[p.ObjectID] = append(m.policies[p.ObjectID], p)
	return nil
}

// Policies returns the policies attached to an object.
func (m *Monitor) Policies(objectID string) []Policy {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Policy, len(m.policies[objectID]))
	copy(out, m.policies[objectID])
	return out
}

// UseCount returns the number of completed uses of an object by a subject.
func (m *Monitor) UseCount(objectID, subjectID string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.useCounts[objectID+"\x00"+subjectID]
}

// applicable returns the policies applying to the request's subject.
func applicable(policies []Policy, subjectID string) []Policy {
	var out []Policy
	for _, p := range policies {
		if p.SubjectID == "" || p.SubjectID == subjectID {
			out = append(out, p)
		}
	}
	return out
}

func hourAllowed(p Policy, now time.Time) bool {
	if p.AllowedHoursFrom == 0 && p.AllowedHoursTo == 0 {
		return true
	}
	h := now.Hour()
	if p.AllowedHoursFrom <= p.AllowedHoursTo {
		return h >= p.AllowedHoursFrom && h < p.AllowedHoursTo
	}
	return h >= p.AllowedHoursFrom || h < p.AllowedHoursTo
}

func fulfilled(kind ObligationKind, list []ObligationKind) bool {
	for _, k := range list {
		if k == kind {
			return true
		}
	}
	return false
}

// TryAccess evaluates pre-authorizations, pre-obligations and conditions. On
// success it opens a usage session and returns it; the caller performs the
// usage, then calls EndAccess.
//
// An object with no attached policy is denied by default: usage rights must
// be explicit (closed world), mirroring the access-control side.
func (m *Monitor) TryAccess(req Request) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	pols := applicable(m.policies[req.ObjectID], req.SubjectID)
	if len(pols) == 0 {
		return nil, fmt.Errorf("%w: no usage right for object %q", ErrDenied, req.ObjectID)
	}
	var post []ObligationKind
	for _, p := range pols {
		// Conditions.
		if !p.NotAfter.IsZero() && req.Now.After(p.NotAfter) {
			return nil, ErrExpired
		}
		if !hourAllowed(p, req.Now) {
			return nil, fmt.Errorf("%w: outside allowed hours", ErrDenied)
		}
		// Authorizations.
		if p.RequiredAttribute != "" && req.Attributes[p.RequiredAttribute] != p.RequiredAttributeValue {
			return nil, fmt.Errorf("%w: missing attribute %s", ErrDenied, p.RequiredAttribute)
		}
		// Mutability: check the use counter before granting.
		if p.MaxUses > 0 && m.useCounts[p.key(req.SubjectID)] >= p.MaxUses {
			return nil, ErrUsesExhausted
		}
		// Obligations.
		for _, ob := range p.Obligations {
			if ob.Pre {
				if !fulfilled(ob.Kind, req.FulfilledPre) {
					return nil, fmt.Errorf("%w: %s", ErrObligationOpen, ob.Kind)
				}
			} else {
				post = append(post, ob.Kind)
			}
		}
	}
	m.nextID++
	s := &Session{
		ID:          fmt.Sprintf("usage-%06d", m.nextID),
		ObjectID:    req.ObjectID,
		SubjectID:   req.SubjectID,
		StartedAt:   req.Now,
		State:       StateActive,
		pendingPost: post,
	}
	m.sessions[s.ID] = s
	return s, nil
}

// PendingObligations lists the post-obligations that must be fulfilled before
// EndAccess succeeds.
func (m *Monitor) PendingObligations(sessionID string) ([]ObligationKind, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[sessionID]
	if !ok {
		return nil, ErrUnknownSession
	}
	out := make([]ObligationKind, len(s.pendingPost))
	copy(out, s.pendingPost)
	return out, nil
}

// FulfillObligation records that a post-obligation of the session has been
// carried out (e.g. the audit record was pushed to the originator).
func (m *Monitor) FulfillObligation(sessionID string, kind ObligationKind) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[sessionID]
	if !ok {
		return ErrUnknownSession
	}
	for i, k := range s.pendingPost {
		if k == kind {
			s.pendingPost = append(s.pendingPost[:i], s.pendingPost[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("ucon: obligation %q is not pending for session %s", kind, sessionID)
}

// EndAccess terminates a usage session: all post-obligations must have been
// fulfilled, and the mutability update (use counter) is applied.
func (m *Monitor) EndAccess(sessionID string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[sessionID]
	if !ok {
		return ErrUnknownSession
	}
	switch s.State {
	case StateRevoked:
		return ErrSessionRevoked
	case StateEnded:
		return ErrSessionFinished
	}
	if len(s.pendingPost) > 0 {
		return fmt.Errorf("%w: %v", ErrObligationOpen, s.pendingPost)
	}
	s.State = StateEnded
	m.useCounts[s.ObjectID+"\x00"+s.SubjectID]++
	return nil
}

// Revoke terminates an active session without counting it as a completed use
// (ongoing control: e.g. the condition stopped holding, or the owner
// withdrew the right).
func (m *Monitor) Revoke(sessionID string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[sessionID]
	if !ok {
		return ErrUnknownSession
	}
	if s.State == StateEnded {
		return ErrSessionFinished
	}
	s.State = StateRevoked
	return nil
}

// ActiveSessions returns the number of sessions currently active.
func (m *Monitor) ActiveSessions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, s := range m.sessions {
		if s.State == StateActive {
			n++
		}
	}
	return n
}
