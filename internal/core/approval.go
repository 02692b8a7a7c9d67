package core

import (
	"encoding/json"
	"errors"
	"fmt"

	"trustedcells/internal/audit"
	"trustedcells/internal/crypto"
	"trustedcells/internal/datamodel"
)

// The usage-control challenges of the paper sketch a distinctive inter-cell
// workflow: "trusted cells could be parameterized so that any personal data
// produced by a trusted source linked to an individual A and referencing
// individual B be submitted for approbation to B's trusted cell before being
// integrated to A's digital space" (the photo-blurring scenario of the
// introduction is the same mechanism). This file implements that approbation
// protocol: A's cell sends an approval request describing the data to B's
// cell through the cloud; B's owner (or an automatic policy on B's cell)
// answers; A's cell refuses to integrate the data until the approval arrived.

// Errors returned by the approval workflow.
var (
	ErrApprovalRequired = errors.New("core: referenced party has not approved this data")
	ErrApprovalRejected = errors.New("core: referenced party rejected this data")
	ErrUnknownApproval  = errors.New("core: unknown approval request")
	// ErrApprovalSender refuses a response from a party the request was
	// not sent to, and ErrApprovalDecided a second response: the first
	// decision of the referenced party is final.
	ErrApprovalSender  = errors.New("core: approval response from a party the request was not sent to")
	ErrApprovalDecided = errors.New("core: approval request already decided")
)

// ApprovalStatus is the state of an approval request.
type ApprovalStatus int

// Approval states.
const (
	ApprovalPending ApprovalStatus = iota
	ApprovalGranted
	ApprovalRejected
)

// String names the status.
func (s ApprovalStatus) String() string {
	switch s {
	case ApprovalPending:
		return "pending"
	case ApprovalGranted:
		return "granted"
	case ApprovalRejected:
		return "rejected"
	default:
		return fmt.Sprintf("approval(%d)", int(s))
	}
}

// ApprovalRequest describes data referencing another individual, awaiting
// that individual's approbation.
type ApprovalRequest struct {
	ID          string `json:"id"`
	From        string `json:"from"`
	To          string `json:"to"`
	Description string `json:"description"`
	DocType     string `json:"doc_type"`
	ContentHash string `json:"content_hash"`
}

// outgoingApproval is one request this cell sent: the party it went to, the
// content hash it describes, and the decision once it arrived.
type outgoingApproval struct {
	to, contentHash string
	status          ApprovalStatus
}

// approvalResponse is the wire answer.
type approvalResponse struct {
	RequestID string `json:"request_id"`
	Approved  bool   `json:"approved"`
	Reason    string `json:"reason"`
}

// RequestApproval asks the referenced party's cell to approve data described
// by (description, docType, contentHash) before it is integrated. The request
// travels over the pairing channel. It returns the request ID to pass to
// IngestReferencing later; a random nonce in the ID keeps a third party from
// deriving it from the parties and the content.
func (c *Cell) RequestApproval(referencedParty, description, docType string, payload []byte) (string, error) {
	if c.tee.Locked() {
		return "", ErrNotOwner
	}
	contentHash := crypto.HashString(payload)
	nonce, err := crypto.RandomBytes(16)
	if err != nil {
		return "", fmt.Errorf("core: approval request: %w", err)
	}
	req := ApprovalRequest{
		ID:          "appr-" + crypto.HashString(append([]byte(c.id+referencedParty+contentHash), nonce...))[:16],
		From:        c.id,
		To:          referencedParty,
		Description: description,
		DocType:     docType,
		ContentHash: contentHash,
	}
	if err := c.sendPaired(referencedParty, kindApprovalRequest, req); err != nil {
		return "", fmt.Errorf("core: approval request: %w", err)
	}
	c.mu.Lock()
	c.approvals[req.ID] = &outgoingApproval{to: referencedParty, contentHash: contentHash}
	c.mu.Unlock()
	c.appendAudit(c.id, "request-approval", req.ID, audit.OutcomeAllowed,
		fmt.Sprintf("awaiting approbation from %s", referencedParty), referencedParty)
	return req.ID, nil
}

// handleApprovalRequest processes an incoming approbation request on the
// referenced party's cell.
func (c *Cell) handleApprovalRequest(from string, body []byte) error {
	var req ApprovalRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return fmt.Errorf("core: approval request: %w", err)
	}
	if req.From != from || req.To != c.id {
		return fmt.Errorf("core: approval request from %s names %s->%s", from, req.From, req.To)
	}
	c.mu.Lock()
	c.incomingApprovals[req.ID] = req
	c.mu.Unlock()
	c.appendAudit(from, "approval-request", req.ID, audit.OutcomeAllowed, req.Description, "")
	return nil
}

// PendingApprovals lists approbation requests awaiting this owner's decision.
func (c *Cell) PendingApprovals() []ApprovalRequest {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ApprovalRequest, 0, len(c.incomingApprovals))
	for _, r := range c.incomingApprovals {
		out = append(out, r)
	}
	return out
}

// RespondApproval answers an incoming approbation request (owner operation on
// the referenced party's cell) and notifies the requesting cell.
func (c *Cell) RespondApproval(requestID string, approve bool, reason string) error {
	if c.tee.Locked() {
		return ErrNotOwner
	}
	if c.cloud == nil {
		return ErrNoCloud
	}
	c.mu.Lock()
	req, ok := c.incomingApprovals[requestID]
	if ok {
		delete(c.incomingApprovals, requestID)
	}
	c.mu.Unlock()
	if !ok {
		return ErrUnknownApproval
	}
	resp := approvalResponse{RequestID: requestID, Approved: approve, Reason: reason}
	if err := c.sendPaired(req.From, kindApprovalResponse, resp); err != nil {
		return fmt.Errorf("core: approval response: %w", err)
	}
	outcome := audit.OutcomeAllowed
	if !approve {
		outcome = audit.OutcomeDenied
	}
	c.appendAudit(c.id, "respond-approval", requestID, outcome, reason, req.From)
	return nil
}

// handleApprovalResponse records the referenced party's decision on the
// requesting cell. Only the party the request went to decides, and only once:
// ProcessInbox audits and counts any other response as rejected.
func (c *Cell) handleApprovalResponse(from string, body []byte) error {
	var resp approvalResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("core: approval response: %w", err)
	}
	c.mu.Lock()
	req, known := c.approvals[resp.RequestID]
	var err error
	switch {
	case !known:
		err = ErrUnknownApproval
	case from != req.to:
		err = fmt.Errorf("%w: %s answered %s, sent to %s", ErrApprovalSender, from, resp.RequestID, req.to)
	case req.status != ApprovalPending:
		err = fmt.Errorf("%w: %s is %v", ErrApprovalDecided, resp.RequestID, req.status)
	case resp.Approved:
		req.status = ApprovalGranted
	default:
		req.status = ApprovalRejected
	}
	c.mu.Unlock()
	if err != nil {
		return err
	}
	outcome := audit.OutcomeAllowed
	if !resp.Approved {
		outcome = audit.OutcomeDenied
	}
	c.appendAudit(from, "approval-response", resp.RequestID, outcome, resp.Reason, "")
	return nil
}

// ApprovalStatusOf reports the current state of an outgoing approval request.
func (c *Cell) ApprovalStatusOf(requestID string) (ApprovalStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	req, ok := c.approvals[requestID]
	if !ok {
		return ApprovalPending, ErrUnknownApproval
	}
	return req.status, nil
}

// IngestReferencing integrates data that references another individual. It
// refuses to do so until that individual's cell granted the corresponding
// approval request (matched by request ID and content hash).
func (c *Cell) IngestReferencing(payload []byte, opts IngestOptions, approvalID string) (*datamodel.Document, error) {
	c.mu.Lock()
	req, known := c.approvals[approvalID]
	var status ApprovalStatus
	var expectedHash string
	if known {
		status, expectedHash = req.status, req.contentHash
	}
	c.mu.Unlock()
	if !known {
		return nil, ErrUnknownApproval
	}
	if expectedHash != crypto.HashString(payload) {
		return nil, fmt.Errorf("%w: payload differs from the approved content", ErrApprovalRequired)
	}
	switch status {
	case ApprovalGranted:
		return c.Ingest(payload, opts)
	case ApprovalRejected:
		return nil, ErrApprovalRejected
	default:
		return nil, ErrApprovalRequired
	}
}
