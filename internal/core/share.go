package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"trustedcells/internal/audit"
	"trustedcells/internal/cloud"
	"trustedcells/internal/crypto"
	"trustedcells/internal/datamodel"
	"trustedcells/internal/policy"
	"trustedcells/internal/sharing"
	"trustedcells/internal/ucon"
)

// Errors specific to sharing.
var (
	ErrNotPaired = errors.New("core: cells are not paired")
	ErrNoCloud   = errors.New("core: cell has no cloud service attached")
)

// pairingSecretName is the TEE secret slot used for the pairing key with a
// given peer.
func pairingSecretName(peerID string) string { return "pairing/" + peerID }

// Pair establishes a shared pairing secret with a peer cell. The secret is
// produced by one side (typically during a physical pairing ceremony, QR code
// or NFC touch — the "proof of legitimacy" step) and installed on both cells
// with this method. It is sealed inside the TEE; only its existence is
// tracked outside.
func (c *Cell) Pair(peerID string, secret crypto.SymmetricKey) error {
	if c.tee.Locked() {
		return ErrNotOwner
	}
	if err := c.tee.SealSecret(pairingSecretName(peerID), secret); err != nil {
		return fmt.Errorf("core: pairing with %s: %w", peerID, err)
	}
	c.mu.Lock()
	c.pairings[peerID] = true
	c.mu.Unlock()
	c.appendAudit(c.id, "pair", peerID, audit.OutcomeAllowed, "pairing established", "")
	return nil
}

// NewPairingSecret generates a pairing secret to be installed on this cell
// and handed to the peer (out of band).
func NewPairingSecret() (crypto.SymmetricKey, error) { return crypto.NewSymmetricKey() }

// Paired reports whether a pairing exists with the peer.
func (c *Cell) Paired(peerID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pairings[peerID]
}

// pairingKey runs fn with the pairing key for peerID inside the TEE boundary.
func (c *Cell) pairingKey(peerID string, fn func(crypto.SymmetricKey) error) error {
	if !c.Paired(peerID) {
		return ErrNotPaired
	}
	return c.tee.UseSecret(pairingSecretName(peerID), fn)
}

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

	var offer *sharing.Offer
	err = c.pairingKey(peerID, func(pk crypto.SymmetricKey) error {
		var berr error
		offer, berr = sharing.BuildOffer(c.id, peerID, doc, c.keys.DocumentKey(doc.ID), pk,
			sticky, c.clock(), identity, c.tee.Sign)
		return berr
	})
	if err != nil {
		c.appendAudit(c.id, string(policy.ActionShare), docID, audit.OutcomeError, err.Error(), "")
		return err
	}
	body, err := offer.Encode()
	if err != nil {
		return err
	}
	if err := c.cloud.Send(cloud.Message{From: c.id, To: peerID, Kind: "share-offer", Body: body}); err != nil {
		c.appendAudit(c.id, string(policy.ActionShare), docID, audit.OutcomeError, err.Error(), "")
		return fmt.Errorf("core: share: %w", err)
	}
	c.appendAudit(c.id, string(policy.ActionShare), docID, audit.OutcomeAllowed,
		fmt.Sprintf("shared with %s", peerID), "")
	return nil
}

// InboxSummary reports what ProcessInbox handled.
type InboxSummary struct {
	OffersAccepted    int
	OffersRejected    int
	AuditSegments     int
	AuditRecords      []audit.Record
	ApprovalRequests  int
	ApprovalResponses int
}

// ProcessInbox fetches pending messages from the cloud mailbox and handles
// them: share offers are verified and installed, audit segments from
// recipient cells are decrypted and returned for the owner's inspection.
func (c *Cell) ProcessInbox() (InboxSummary, error) {
	var summary InboxSummary
	if c.cloud == nil {
		return summary, ErrNoCloud
	}
	msgs, err := c.cloud.Receive(c.id, 0)
	if err != nil {
		return summary, fmt.Errorf("core: inbox: %w", err)
	}
	for _, m := range msgs {
		switch m.Kind {
		case "share-offer":
			if err := c.acceptOffer(m.Body); err != nil {
				summary.OffersRejected++
				c.appendAudit(m.From, "accept-share", "", audit.OutcomeDenied, err.Error(), "")
			} else {
				summary.OffersAccepted++
			}
		case "audit-segment":
			records, err := c.openAuditSegment(m.From, m.Body)
			if err != nil {
				c.appendAudit(m.From, "audit-segment", "", audit.OutcomeError, err.Error(), "")
				continue
			}
			summary.AuditSegments++
			summary.AuditRecords = append(summary.AuditRecords, records...)
		case "approval-request":
			if err := c.handleApprovalRequest(m.From, m.Body); err != nil {
				c.appendAudit(m.From, "approval-request", "", audit.OutcomeError, err.Error(), "")
				continue
			}
			summary.ApprovalRequests++
		case "approval-response":
			if err := c.handleApprovalResponse(m.From, m.Body); err != nil {
				c.appendAudit(m.From, "approval-response", "", audit.OutcomeError, err.Error(), "")
				continue
			}
			summary.ApprovalResponses++
		default:
			c.appendAudit(m.From, "inbox", m.Kind, audit.OutcomeError, "unknown message kind", "")
		}
	}
	return summary, nil
}

// acceptOffer verifies a share offer and installs the shared document.
func (c *Cell) acceptOffer(body []byte) error {
	offer, err := sharing.DecodeOffer(body)
	if err != nil {
		return err
	}
	if err := offer.Verify(c.id, nil); err != nil {
		return err
	}
	if !c.Paired(offer.From) {
		return ErrNotPaired
	}
	if _, err := c.catalog.Get(offer.Document.ID); err == nil {
		return fmt.Errorf("core: accept offer: %w", datamodel.ErrDuplicateID)
	}
	var docKey crypto.SymmetricKey
	err = c.pairingKey(offer.From, func(pk crypto.SymmetricKey) error {
		var uerr error
		docKey, uerr = offer.UnwrapKey(pk)
		return uerr
	})
	if err != nil {
		return fmt.Errorf("core: accept offer: unwrapping key: %w", err)
	}
	// Seal the received document key in the TEE under a per-document slot.
	if err := c.tee.SealSecret("dockey/"+offer.Document.ID, docKey); err != nil {
		return err
	}
	// Install the originator's usage limits, then its access rules and the
	// document's originator, so this cell enforces them; the document enters
	// the catalog last, so no read finds it without all three.
	doc := offer.Document.Clone()
	up := ucon.Policy{ObjectID: doc.ID, MaxUses: offer.Sticky.MaxUses, NotAfter: offer.Sticky.NotAfter}
	if offer.Sticky.ObligationNotify {
		up.Obligations = append(up.Obligations, ucon.Obligation{Kind: ucon.ObligationNotifyOwner})
	}
	if err := c.usage.Attach(up); err != nil {
		return err
	}
	c.mu.Lock()
	c.remoteDocs[doc.ID] = offer.Sticky
	for _, r := range offer.Sticky.Access.Rules {
		if err = c.access.Add(r); err != nil {
			break
		}
	}
	c.mu.Unlock()
	if err != nil {
		return err
	}
	if err := c.catalog.Add(doc); err != nil {
		return fmt.Errorf("core: accept offer: %w", err)
	}
	c.appendAudit(offer.From, "accept-share", doc.ID, audit.OutcomeAllowed, "offer verified", offer.From)
	return nil
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

// openAuditSegment decrypts an accountability segment pushed by a recipient
// cell.
func (c *Cell) openAuditSegment(from string, body []byte) ([]audit.Record, error) {
	var seg audit.Segment
	if err := json.Unmarshal(body, &seg); err != nil {
		return nil, fmt.Errorf("core: audit segment: %w", err)
	}
	// The recipient sealed the segment under its sharing key for us; we
	// derive the mirror key from our pairing with that cell. The recipient
	// derives SharingKey(originator) from *its* hierarchy, so the key must be
	// communicated: by convention it is wrapped under the pairing key at
	// share time. For simplicity the segment key is the recipient's
	// SharingKey; we recover it via the pairing-derived convention below.
	var records []audit.Record
	err := c.pairingKey(from, func(pk crypto.SymmetricKey) error {
		segKey := crypto.DeriveKey(pk, "audit-segment", from+"->"+c.id)
		var oerr error
		records, oerr = audit.OpenSegment(&seg, segKey)
		return oerr
	})
	if err != nil {
		return nil, err
	}
	return records, nil
}

// SharedWithMe lists the documents this cell received from other cells.
func (c *Cell) SharedWithMe() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.remoteDocs))
	for id := range c.remoteDocs {
		out = append(out, id)
	}
	return out
}
