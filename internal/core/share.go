package core

// Sharing a document means sharing three things (per the paper): the
// metadata, so the recipient can locate the referenced data in the cloud; the
// cryptographic key, so the recipient cell can decrypt it; and the sticky
// policy, so the recipient cell enforces the expected access and usage
// control rules. A share offer carries the three to a paired cell, sealed by
// the pairing channel (pairing.go): the infrastructure relaying it learns
// none of them and cannot alter them. The sticky policy is also signed by the
// originator and bound to the document's ID and content hash.

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"trustedcells/internal/audit"
	"trustedcells/internal/crypto"
	"trustedcells/internal/datamodel"
	"trustedcells/internal/policy"
	"trustedcells/internal/ucon"
)

// errBadOffer reports a share offer that opened but cannot be installed.
var errBadOffer = errors.New("core: share offer refused")

// ErrReshare refuses to share a document received from another cell: the
// offer would carry this cell's key, not the originator's, and the
// originator's sticky policy would not follow the copy.
var ErrReshare = errors.New("core: a document received from another cell cannot be re-shared")

// ShareOptions describe the terms under which a document is shared.
type ShareOptions struct {
	// Recipients lists the subject IDs allowed to read the shared copy on the
	// recipient cell (empty = only the recipient cell's owner, i.e. peerID).
	Recipients []string
	// MaxUses caps the number of accesses on the recipient side (0 = unlimited).
	MaxUses int
	// NotAfter is an absolute expiry for the shared right.
	NotAfter time.Time
	// NotifyOwner requires the recipient cell to push audit records back.
	NotifyOwner bool
	// MaxGranularity caps time-series granularity on the recipient side.
	MaxGranularity time.Duration
}

// Share builds a signed share offer for a document and sends it to the peer
// cell's mailbox through the cloud. Sharing is an owner operation and is
// audited.
func (c *Cell) Share(docID, peerID string, opts ShareOptions) error {
	if c.tee.Locked() {
		return ErrNotOwner
	}
	if c.cloud == nil {
		return ErrNoCloud
	}
	doc, err := c.catalog.Get(docID)
	if err != nil {
		return ErrUnknownDocument
	}
	c.mu.RLock()
	_, received := c.remoteDocs[docID]
	c.mu.RUnlock()
	if received {
		c.appendAudit(c.id, string(policy.ActionShare), docID, audit.OutcomeDenied, ErrReshare.Error(), "")
		return ErrReshare
	}
	// Policy check: the owner shares, but an explicit deny rule on sharing
	// (e.g. "never share raw data") still applies.
	req := policy.Request{
		Subject:  policy.Subject{ID: c.id, Groups: []string{"owner"}},
		Action:   policy.ActionShare,
		Resource: policy.Resource{DocumentID: doc.ID, Type: doc.Type, Class: doc.Class.String(), Tags: doc.Tags},
		Context:  policy.Context{Time: c.clock()},
	}
	c.mu.RLock()
	decision := c.access.Evaluate(req)
	c.mu.RUnlock()
	// The owner is implicitly allowed unless an explicit deny matched.
	if !decision.Allowed && decision.RuleID != "" {
		c.appendAudit(c.id, string(policy.ActionShare), docID, audit.OutcomeDenied, decision.Reason, "")
		return fmt.Errorf("%w: %s", ErrAccessDenied, decision.Reason)
	}

	recipients := opts.Recipients
	if len(recipients) == 0 {
		recipients = []string{peerID}
	}
	accessSet := policy.Set{Owner: c.id}
	accessSet.Rules = append(accessSet.Rules, policy.Rule{
		ID:             "shared-read",
		Effect:         policy.EffectAllow,
		SubjectIDs:     recipients,
		Actions:        []policy.Action{policy.ActionRead, policy.ActionAggregate},
		Resource:       policy.Resource{DocumentID: doc.ID},
		Condition:      policy.Condition{NotAfter: opts.NotAfter},
		MaxGranularity: opts.MaxGranularity,
	})
	identity, err := c.Identity()
	if err != nil {
		return err
	}
	sticky, err := policy.SealSticky(policy.StickyPolicy{
		DocumentID:       doc.ID,
		ContentHash:      doc.ContentHash,
		OriginatorID:     c.id,
		Access:           accessSet,
		MaxUses:          opts.MaxUses,
		NotAfter:         opts.NotAfter,
		ObligationNotify: opts.NotifyOwner,
	}, identity, c.tee.Sign)
	if err != nil {
		return fmt.Errorf("core: share: sealing sticky policy: %w", err)
	}

	docKey := c.keys.DocumentKey(doc.ID)
	if err := c.sendPaired(peerID, kindShareOffer, offer{Document: doc, Key: docKey[:], Sticky: sticky}); err != nil {
		c.appendAudit(c.id, string(policy.ActionShare), docID, audit.OutcomeError, err.Error(), "")
		return fmt.Errorf("core: share: %w", err)
	}
	c.appendAudit(c.id, string(policy.ActionShare), docID, audit.OutcomeAllowed,
		fmt.Sprintf("shared with %s", peerID), "")
	return nil
}

// offer is the body of a share-offer message.
type offer struct {
	Document *datamodel.Document  `json:"document"`
	Key      []byte               `json:"key"`
	Sticky   *policy.StickyPolicy `json:"sticky"`
}

// acceptOffer verifies a share offer from a paired cell and installs the
// shared document. The sticky rules are installed scoped to the shared
// document, and an offer whose rules allow anything beyond read and
// aggregate is refused: a paired peer can share its own data, never open the
// recipient's.
func (c *Cell) acceptOffer(from string, body []byte) error {
	var o offer
	if err := json.Unmarshal(body, &o); err != nil {
		return fmt.Errorf("%w: %v", errBadOffer, err)
	}
	if o.Document == nil || o.Sticky == nil {
		return fmt.Errorf("%w: missing document or sticky policy", errBadOffer)
	}
	doc, sticky := o.Document, o.Sticky
	docKey, err := crypto.SymmetricKeyFromBytes(o.Key)
	if err != nil {
		return fmt.Errorf("%w: document key: %v", errBadOffer, err)
	}
	if err := doc.Validate(); err != nil {
		return fmt.Errorf("%w: %v", errBadOffer, err)
	}
	if err := sticky.Verify(doc.ContentHash); err != nil {
		return fmt.Errorf("%w: %v", errBadOffer, err)
	}
	if sticky.DocumentID != doc.ID || sticky.OriginatorID != from {
		return fmt.Errorf("%w: sticky policy bound to another document or originator", errBadOffer)
	}
	rules := make([]policy.Rule, len(sticky.Access.Rules))
	for i, r := range sticky.Access.Rules {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("%w: %v", errBadOffer, err)
		}
		if r.Effect == policy.EffectAllow && !readOnly(r.Actions) {
			return fmt.Errorf("%w: rule %q allows more than read and aggregate", errBadOffer, r.ID)
		}
		r.Resource = policy.Resource{DocumentID: doc.ID}
		rules[i] = r
	}
	if _, err := c.catalog.Get(doc.ID); err == nil {
		return fmt.Errorf("core: accept offer: %w", datamodel.ErrDuplicateID)
	}
	// Seal the received document key in the TEE under a per-document slot.
	if err := c.tee.SealSecret("dockey/"+doc.ID, docKey); err != nil {
		return err
	}
	// Install the originator's usage limits, then its access rules and the
	// document's originator, so this cell enforces them; the document enters
	// the catalog last, so no read finds it without all three.
	up := ucon.Policy{ObjectID: doc.ID, MaxUses: sticky.MaxUses, NotAfter: sticky.NotAfter}
	if sticky.ObligationNotify {
		up.Obligations = append(up.Obligations, ucon.Obligation{Kind: ucon.ObligationNotifyOwner})
	}
	if err := c.usage.Attach(up); err != nil {
		return err
	}
	c.mu.Lock()
	c.remoteDocs[doc.ID] = sticky
	c.access.Rules = append(c.access.Rules, rules...)
	c.mu.Unlock()
	if err := c.catalog.Add(doc); err != nil {
		return fmt.Errorf("core: accept offer: %w", err)
	}
	c.appendAudit(from, "accept-share", doc.ID, audit.OutcomeAllowed, "offer verified", from)
	return nil
}

// readOnly reports whether an allow rule over actions grants only reads and
// aggregates (no actions at all means every action).
func readOnly(actions []policy.Action) bool {
	for _, a := range actions {
		if a != policy.ActionRead && a != policy.ActionAggregate {
			return false
		}
	}
	return len(actions) > 0
}

// remoteKey returns the sealed key of a shared document.
func (c *Cell) remoteKey(docID string) (crypto.SymmetricKey, error) {
	var key crypto.SymmetricKey
	err := c.tee.UseSecret("dockey/"+docID, func(k crypto.SymmetricKey) error {
		key = k
		return nil
	})
	if err != nil {
		return crypto.SymmetricKey{}, fmt.Errorf("core: key of shared document %s: %w", docID, err)
	}
	return key, nil
}
