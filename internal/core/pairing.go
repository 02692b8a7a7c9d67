package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"trustedcells/internal/audit"
	"trustedcells/internal/cloud"
	"trustedcells/internal/crypto"
)

// Paired cells talk through the untrusted cloud's mailboxes over one sealed
// channel. Every message body — share offer, audit segment, approval request
// or response — is sealed by sendPaired and opened by openPaired, under a key
// derived from the pairing secret for one direction (from->to), with the
// kind, sender and recipient as associated data. The provider sees the
// mailbox header (sender, recipient, kind), the timing and the size, and
// nothing else; it can neither forge nor alter a body, move it to another
// kind, reflect it to its sender or relabel its sender.

// Errors of the pairing channel.
var (
	ErrNotPaired = errors.New("core: cells are not paired")
	ErrNoCloud   = errors.New("core: cell has no cloud service attached")
	// errChannelBinding reports a body sealed for another kind, sender or
	// recipient than its mailbox header names.
	errChannelBinding = errors.New("core: message bound to another kind, sender or recipient")
)

// The kinds of message paired cells exchange.
const (
	kindShareOffer       = "share-offer"
	kindAuditSegment     = "audit-segment"
	kindApprovalRequest  = "approval-request"
	kindApprovalResponse = "approval-response"
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

// channelKey derives the key of the channel direction from->to, one end of
// which is this cell and the other the paired peer. It is the only key this
// package derives from a pairing secret.
func (c *Cell) channelKey(peer, from, to string) (crypto.SymmetricKey, error) {
	if !c.Paired(peer) {
		return crypto.SymmetricKey{}, ErrNotPaired
	}
	var key crypto.SymmetricKey
	err := c.tee.UseSecret(pairingSecretName(peer), func(secret crypto.SymmetricKey) error {
		key = crypto.DeriveKey(secret, "pairing-channel", from+"->"+to)
		return nil
	})
	return key, err
}

// channelAD is the associated data binding a body to its mailbox header.
func channelAD(kind, from, to string) []byte {
	return []byte(kind + "\x00" + from + "\x00" + to)
}

// sealPaired seals plain as a message of the given kind from this cell to
// peer.
func (c *Cell) sealPaired(peer, kind string, plain []byte) ([]byte, error) {
	key, err := c.channelKey(peer, c.id, peer)
	if err != nil {
		return nil, err
	}
	return crypto.Seal(key, plain, channelAD(kind, c.id, peer))
}

// sendPaired sends v, JSON-encoded and sealed, to the paired peer's mailbox.
func (c *Cell) sendPaired(peer, kind string, v any) error {
	if c.cloud == nil {
		return ErrNoCloud
	}
	plain, err := json.Marshal(v)
	if err != nil {
		return err
	}
	body, err := c.sealPaired(peer, kind, plain)
	if err != nil {
		return err
	}
	return c.cloud.Send(cloud.Message{From: c.id, To: peer, Kind: kind, Body: body})
}

// openPaired opens a mailbox message: m.From must be a paired peer, and the
// body must have been sealed by that peer for this cell under m.Kind.
func (c *Cell) openPaired(m cloud.Message) ([]byte, error) {
	key, err := c.channelKey(m.From, m.From, c.id)
	if err != nil {
		return nil, err
	}
	plain, ad, err := crypto.Open(key, m.Body)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(ad, channelAD(m.Kind, m.From, c.id)) {
		return nil, errChannelBinding
	}
	return plain, nil
}

// InboxSummary reports what ProcessInbox handled.
type InboxSummary struct {
	OffersAccepted    int
	AuditSegments     int
	AuditRecords      []audit.Record
	ApprovalRequests  int
	ApprovalResponses int
	// Rejected counts the messages refused: unopenable (unpaired sender,
	// bad seal, wrong binding), of an unknown kind, or refused by their
	// handler. Each refusal is audited.
	Rejected int
}

// ProcessInbox fetches pending messages from the cloud mailbox, opens each
// one over the pairing channel and hands it to its kind's handler: share
// offers are verified and installed, audit segments from recipient cells are
// returned for the owner's inspection, approval traffic updates the
// approbation workflow.
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
		if err := c.handleMessage(m, &summary); err != nil {
			summary.Rejected++
			c.appendAudit(m.From, "inbox", m.Kind, audit.OutcomeError, err.Error(), "")
		}
	}
	return summary, nil
}

// handleMessage opens one mailbox message and dispatches it by kind.
func (c *Cell) handleMessage(m cloud.Message, summary *InboxSummary) error {
	plain, err := c.openPaired(m)
	if err != nil {
		return err
	}
	switch m.Kind {
	case kindShareOffer:
		if err := c.acceptOffer(m.From, plain); err != nil {
			return err
		}
		summary.OffersAccepted++
	case kindAuditSegment:
		var records []audit.Record
		if err := json.Unmarshal(plain, &records); err != nil {
			return fmt.Errorf("core: audit segment: %w", err)
		}
		summary.AuditSegments++
		summary.AuditRecords = append(summary.AuditRecords, records...)
	case kindApprovalRequest:
		if err := c.handleApprovalRequest(m.From, plain); err != nil {
			return err
		}
		summary.ApprovalRequests++
	case kindApprovalResponse:
		if err := c.handleApprovalResponse(m.From, plain); err != nil {
			return err
		}
		summary.ApprovalResponses++
	default:
		return fmt.Errorf("core: unknown message kind %q", m.Kind)
	}
	return nil
}
