package core

// Every read-side operation of the cell runs one pipeline: Read and Aggregate
// are ReadBatch and AggregateBatch of one document. Each document passes the
// reference-monitor gate in argument order, the sealed payloads missing from
// the local cache are fetched in ONE batched cloud exchange
// (cloud.Service.GetBlobs), decryption fans out over the shared bounded
// worker pool, and obligations, session close and audit settle in argument
// order. A read and an aggregate differ only in what the open step makes of
// the plaintext and in the audit text.

import (
	"fmt"
	"time"

	"trustedcells/internal/audit"
	"trustedcells/internal/cloud"
	"trustedcells/internal/crypto"
	"trustedcells/internal/datamodel"
	"trustedcells/internal/policy"
	"trustedcells/internal/timeseries"
	"trustedcells/internal/ucon"
)

// ReadResult is the outcome for one document of a ReadBatch call.
type ReadResult struct {
	DocID   string
	Payload []byte
	// Err mirrors what the equivalent Cell.Read call would have returned
	// (access denial, integrity failure, missing payload, ...).
	Err error
}

// AggregateResult is the outcome for one document of an AggregateBatch call.
type AggregateResult struct {
	DocID  string
	Series *timeseries.Series
	Err    error
}

// readOp is what the pipeline does with each document: a read, or an
// aggregate at granularity g of the given kind.
type readOp struct {
	action policy.Action
	g      timeseries.Granularity
	kind   timeseries.AggregateKind
}

// access is one document's passage through the read pipeline. doc is set
// once the gate admits the document; from then on settle closes what the gate
// opened, and err carries the first failure of key selection, fetch, open or
// decode. A refused document keeps doc nil and its refusal in err.
type access struct {
	doc        *datamodel.Document
	key        crypto.SymmetricKey
	owner      string // the cell whose key sealed the payload
	originator string // the cell that shared the document, "" for own data
	session    *ucon.Session
	decision   policy.Decision
	sealed     []byte
	fromCloud  bool
	payload    []byte             // a read's plaintext
	series     *timeseries.Series // an aggregate's result
	err        error
}

// ReadBatch reads many documents for one subject: policy and usage control
// are evaluated per document, every attempt audited, the sealed payloads
// missing from the local cache are fetched from the cloud in a single batched
// round-trip, and decryption fans out across the bounded worker pool. Results
// come back in argument order, one per requested document; a per-document
// failure never aborts its siblings.
func (c *Cell) ReadBatch(subjectID string, docIDs []string, ctx AccessContext) []ReadResult {
	acc := c.readPipeline(subjectID, readOp{action: policy.ActionRead}, docIDs, ctx)
	results := make([]ReadResult, len(docIDs))
	for i := range acc {
		results[i] = ReadResult{DocID: docIDs[i], Err: acc[i].err}
		if acc[i].err == nil {
			results[i].Payload = acc[i].payload
		}
	}
	return results
}

// AggregateBatch evaluates the same aggregate over many series documents:
// per-document policy, granularity-cap and usage-control checks, one batched
// cloud exchange for every payload missing from the cache, then decrypt +
// decode + downsample across the worker pool. The policy's MaxGranularity cap
// holds: a requester entitled to 15-minute aggregates cannot obtain 1-second
// data. Results come back in argument order.
func (c *Cell) AggregateBatch(subjectID string, docIDs []string, g timeseries.Granularity, kind timeseries.AggregateKind, ctx AccessContext) []AggregateResult {
	acc := c.readPipeline(subjectID, readOp{action: policy.ActionAggregate, g: g, kind: kind}, docIDs, ctx)
	results := make([]AggregateResult, len(docIDs))
	for i := range acc {
		results[i] = AggregateResult{DocID: docIDs[i], Err: acc[i].err}
		if acc[i].err == nil {
			results[i].Series = acc[i].series
		}
	}
	return results
}

// readPipeline runs gate → fetch → open → settle over docIDs.
//
// A repeated ID waits until the batch settles and then runs as a batch of
// one: gating it before the first occurrence's session closed would let it
// slip past usage caps like MaxUses. The batch warms the cache, so the
// deferred reads cost no extra round-trip.
func (c *Cell) readPipeline(subjectID string, op readOp, docIDs []string, ctx AccessContext) []access {
	acc := make([]access, len(docIDs))
	var dups []int
	var seen map[string]bool
	if len(docIDs) > 1 {
		seen = make(map[string]bool, len(docIDs))
	}
	for i, id := range docIDs {
		if seen[id] {
			dups = append(dups, i)
			continue
		}
		if seen != nil {
			seen[id] = true
		}
		c.gate(subjectID, op, id, ctx, &acc[i])
	}
	c.fetchPayloads(acc)
	parallelDo(len(acc), maxCryptoWorkers, func(i int) {
		if a := &acc[i]; a.doc != nil && a.err == nil {
			c.open(op, a)
		}
	})
	for i := range acc {
		if acc[i].doc != nil {
			acc[i].err = c.settle(subjectID, op, &acc[i])
		}
	}
	for _, i := range dups {
		acc[i] = c.readPipeline(subjectID, op, docIDs[i:i+1], ctx)[0]
	}
	return acc
}

// gate is the reference monitor's check of one read or aggregate, in order:
// catalog lookup, access-control evaluation, originator lookup, for
// aggregates the series type and the MaxGranularity cap, usage-control
// session admission, and key selection (a document received from another
// cell opens under the key it was shared with). Every refusal is audited.
// It performs no payload I/O, so a batch is gated before a byte moves.
func (c *Cell) gate(subjectID string, op readOp, docID string, ctx AccessContext, a *access) {
	refuse := func(outcome audit.Outcome, reason string, err error) {
		c.appendAudit(subjectID, string(op.action), docID, outcome, reason, a.originator)
		a.err = err
	}
	doc, err := c.catalog.Get(docID)
	if err != nil {
		refuse(audit.OutcomeError, "unknown document", ErrUnknownDocument)
		return
	}
	subj := c.subject(subjectID, ctx)
	req := policy.Request{
		Subject: subj,
		Action:  op.action,
		Resource: policy.Resource{
			DocumentID: doc.ID, Type: doc.Type, Class: doc.Class.String(), Tags: doc.Tags,
		},
		Context: policy.Context{Time: c.clock(), Location: ctx.Location, Purpose: ctx.Purpose},
	}
	// Rules and received documents change under c.mu when an offer is
	// accepted, possibly while another goroutine reads.
	c.mu.RLock()
	decision := c.access.Evaluate(req)
	sticky := c.remoteDocs[docID]
	c.mu.RUnlock()
	if sticky != nil {
		a.originator = sticky.OriginatorID
	}
	if !decision.Allowed {
		refuse(audit.OutcomeDenied, decision.Reason, fmt.Errorf("%w: %s", ErrAccessDenied, decision.Reason))
		return
	}
	if op.action == policy.ActionAggregate {
		if doc.Type != SeriesDocType {
			refuse(audit.OutcomeDenied, "not a time series", ErrNotSeries)
			return
		}
		if decision.MaxGranularity > 0 && time.Duration(op.g) < decision.MaxGranularity {
			refuse(audit.OutcomeDenied, fmt.Sprintf("requested %v finer than allowed %v",
				time.Duration(op.g), decision.MaxGranularity), ErrGranularity)
			return
		}
	}
	// Usage control (sessions opened only when a usage policy is attached).
	if len(c.usage.Policies(docID)) > 0 {
		a.session, err = c.usage.TryAccess(ucon.Request{
			ObjectID:     docID,
			SubjectID:    subjectID,
			Attributes:   subj.Attributes,
			Now:          c.clock(),
			FulfilledPre: ctx.FulfilledObligations,
		})
		if err != nil {
			refuse(audit.OutcomeDenied, err.Error(), fmt.Errorf("%w: %v", ErrAccessDenied, err))
			return
		}
	}
	a.doc, a.decision = doc, decision
	a.key, a.owner = c.keys.DocumentKey(docID), c.id
	if sticky != nil {
		a.owner = sticky.OriginatorID
		a.key, a.err = c.remoteKey(docID)
	}
}

// fetchPayloads fills in the sealed payload of every admitted document, from
// the local cache first and every miss from the cloud in a single batched
// round-trip; fromCloud marks the payloads the open step should cache once
// they verify.
func (c *Cell) fetchPayloads(acc []access) {
	var missing []int
	kb := keyBufs.Get()
	for i := range acc {
		a := &acc[i]
		if a.doc == nil || a.err != nil {
			continue
		}
		if b, err := c.cache.Get(appendPayloadKey((*kb)[:0], a.doc.ID)); err == nil {
			a.sealed = b
			continue
		}
		missing = append(missing, i)
	}
	keyBufs.Put(kb)
	if len(missing) == 0 {
		return
	}
	if c.cloud == nil {
		for _, i := range missing {
			acc[i].err = fmt.Errorf("core: payload of %s unavailable: no cloud and no cache", acc[i].doc.ID)
		}
		return
	}
	names := make([]string, len(missing))
	for j, i := range missing {
		names[j] = acc[i].doc.BlobRef
	}
	blobs, err := c.cloud.GetBlobs(names)
	for j, i := range missing {
		a := &acc[i]
		switch {
		case err != nil:
			a.err = fmt.Errorf("core: fetching %s: %w", a.doc.ID, err)
		case blobs[j].Version == 0:
			a.err = fmt.Errorf("core: fetching %s: %w", a.doc.ID, cloud.ErrBlobNotFound)
		default:
			a.sealed, a.fromCloud = blobs[j].Data, true
		}
	}
}

// open decrypts and verifies one admitted document's payload, warms the
// cache with a verified cloud fetch (never an unverified one, so a tampering
// provider cannot poison the local copy), and for an aggregate decodes and
// downsamples the series. It only reads immutable cell state, so it runs on
// the worker pool.
func (c *Cell) open(op readOp, a *access) {
	var pb *[]byte
	var dst []byte
	if op.action == policy.ActionAggregate {
		// The plaintext only lives until decodeSeries copies the points out,
		// so it decrypts into a pooled buffer.
		pb = sealBufs.Get()
		defer sealBufs.Put(pb)
		dst = *pb
	}
	plain, err := c.openSealedTo(dst, a.doc, a.key, a.owner, a.sealed)
	if err != nil {
		a.err = err
		return
	}
	if a.fromCloud {
		c.warmCache(a.doc.ID, a.sealed)
	}
	if pb == nil {
		a.payload = plain
		return
	}
	*pb = plain
	series, err := decodeSeries(plain)
	if err != nil {
		a.err = err
		return
	}
	if a.series, err = series.DownsampleSeries(op.g, op.kind); err != nil {
		a.err = fmt.Errorf("core: aggregate: %w", err)
	}
}

// settle finishes an admitted document: a failure revokes the usage session
// (the subject never saw the data, so no use is counted) and is audited;
// a success fulfils the notify-owner obligation by exporting an audit segment
// to the originator's mailbox, closes the session and audits the access.
func (c *Cell) settle(subjectID string, op readOp, a *access) error {
	if a.err != nil {
		if a.session != nil {
			_ = c.usage.Revoke(a.session.ID)
		}
		c.appendAudit(subjectID, string(op.action), a.doc.ID, audit.OutcomeError, a.err.Error(), a.originator)
		return a.err
	}
	if a.session != nil {
		pending, _ := c.usage.PendingObligations(a.session.ID)
		for _, ob := range pending {
			if ob == ucon.ObligationNotifyOwner && c.notifyOriginator(a.originator, a.doc.ID, subjectID) == nil {
				_ = c.usage.FulfillObligation(a.session.ID, ucon.ObligationNotifyOwner)
			}
		}
		if err := c.usage.EndAccess(a.session.ID); err != nil {
			c.appendAudit(subjectID, string(op.action), a.doc.ID, audit.OutcomeError, err.Error(), a.originator)
			return fmt.Errorf("%w: %v", ErrAccessDenied, err)
		}
	}
	reason := a.decision.Reason + " rule=" + a.decision.RuleID
	if op.action == policy.ActionAggregate {
		reason = fmt.Sprintf("granularity=%v rule=%s", time.Duration(op.g), a.decision.RuleID)
	}
	c.appendAudit(subjectID, string(op.action), a.doc.ID, audit.OutcomeAllowed, reason, a.originator)
	return nil
}
