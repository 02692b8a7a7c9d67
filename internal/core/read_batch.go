package core

// This file is the read-side counterpart of ingest_batch.go. The seed read
// path paid one cloud round-trip per document whose payload was not cached
// locally — the exact asymmetry IngestBatch removed from the write side.
// ReadBatch and AggregateBatch gate every document through the reference
// monitor individually, fetch all missing sealed payloads in ONE batched
// cloud exchange (cloud.Service.GetBlobs), warm the local cache with what came
// back, and spread decryption over the shared bounded worker pool.

import (
	"fmt"
	"time"

	"trustedcells/internal/audit"
	"trustedcells/internal/cloud"
	"trustedcells/internal/datamodel"
	"trustedcells/internal/policy"
	"trustedcells/internal/timeseries"
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

// ReadBatch reads many documents for one subject through a staged pipeline:
// policy and usage control are evaluated per document (exactly as Cell.Read,
// every attempt audited), the sealed payloads missing from the local cache
// are fetched from the cloud in a single batched round-trip, and decryption
// fans out across the bounded worker pool. Results come back in argument
// order, one per requested document; a per-document failure never aborts its
// siblings.
func (c *Cell) ReadBatch(subjectID string, docIDs []string, ctx AccessContext) []ReadResult {
	results := make([]ReadResult, len(docIDs))
	gates := make([]*readGate, len(docIDs))
	fetch := make([]*datamodel.Document, 0, len(docIDs))
	// Repeated IDs are deferred to the sequential path after the batch
	// settles: gating a duplicate before the first occurrence's session has
	// closed would let it slip past usage caps like MaxUses. The batch warms
	// the cache, so the deferred reads cost no extra round-trip.
	var dups []int
	seen := make(map[string]bool, len(docIDs))
	for i, id := range docIDs {
		results[i].DocID = id
		if seen[id] {
			dups = append(dups, i)
			continue
		}
		seen[id] = true
		g, err := c.gateRead(subjectID, id, ctx)
		if err != nil {
			results[i].Err = err
			continue
		}
		gates[i] = g
		fetch = append(fetch, g.doc)
	}

	sealed, fromCloud, fetchErrs := c.fetchSealedBatch(fetch)

	plains := make([][]byte, len(docIDs))
	openErrs := make([]error, len(docIDs))
	parallelDo(len(docIDs), maxCryptoWorkers, func(i int) {
		g := gates[i]
		if g == nil {
			return
		}
		if err := fetchErrs[g.doc.ID]; err != nil {
			openErrs[i] = err
			return
		}
		plains[i], openErrs[i] = c.openSealed(g.doc, g.key, g.owner, sealed[g.doc.ID])
		if openErrs[i] == nil && fromCloud[g.doc.ID] {
			c.warmCache(g.doc.ID, sealed[g.doc.ID])
		}
	})

	// Settle in argument order so obligations and audit records appear as if
	// the documents had been read one after the other.
	for i := range docIDs {
		if gates[i] == nil {
			continue
		}
		results[i].Payload, results[i].Err = c.settleRead(subjectID, gates[i], plains[i], openErrs[i])
	}
	for _, i := range dups {
		results[i].Payload, results[i].Err = c.Read(subjectID, docIDs[i], ctx)
	}
	return results
}

// AggregateBatch evaluates the same aggregate over many series documents:
// per-document policy and granularity-cap checks (exactly as Cell.Aggregate),
// one batched cloud exchange for every payload missing from the cache, then
// decrypt + decode + downsample across the worker pool. Results come back in
// argument order.
func (c *Cell) AggregateBatch(subjectID string, docIDs []string, g timeseries.Granularity, kind timeseries.AggregateKind, ctx AccessContext) []AggregateResult {
	results := make([]AggregateResult, len(docIDs))
	gates := make([]*readGate, len(docIDs))
	fetch := make([]*datamodel.Document, 0, len(docIDs))
	for i, id := range docIDs {
		results[i].DocID = id
		gate, err := c.gateAggregate(subjectID, id, g, ctx)
		if err != nil {
			results[i].Err = err
			continue
		}
		gates[i] = gate
		fetch = append(fetch, gate.doc)
	}

	sealed, fromCloud, fetchErrs := c.fetchSealedBatch(fetch)

	type outcome struct {
		series  *timeseries.Series
		openErr error // fetch/decrypt failures, audited as errors
		err     error // decode/downsample failures, returned unaudited as in Aggregate
	}
	outs := make([]outcome, len(docIDs))
	parallelDo(len(docIDs), maxCryptoWorkers, func(i int) {
		gate := gates[i]
		if gate == nil {
			return
		}
		if err := fetchErrs[gate.doc.ID]; err != nil {
			outs[i].openErr = err
			return
		}
		// The plaintext only lives until decodeSeries copies the points out,
		// so it decrypts into a pooled buffer and costs no allocation.
		pb := sealBufs.Get()
		defer sealBufs.Put(pb)
		plain, err := c.openSealedTo(*pb, gate.doc, gate.key, gate.owner, sealed[gate.doc.ID])
		if err != nil {
			outs[i].openErr = err
			return
		}
		*pb = plain
		if fromCloud[gate.doc.ID] {
			c.warmCache(gate.doc.ID, sealed[gate.doc.ID])
		}
		series, err := decodeSeries(plain)
		if err != nil {
			outs[i].err = err
			return
		}
		down, err := series.DownsampleSeries(g, kind)
		if err != nil {
			outs[i].err = fmt.Errorf("core: aggregate: %w", err)
			return
		}
		outs[i].series = down
	})

	for i := range docIDs {
		gate := gates[i]
		if gate == nil {
			continue
		}
		switch {
		case outs[i].openErr != nil:
			c.appendAudit(subjectID, string(policy.ActionAggregate), gate.doc.ID, audit.OutcomeError,
				outs[i].openErr.Error(), gate.originator)
			results[i].Err = outs[i].openErr
		case outs[i].err != nil:
			results[i].Err = outs[i].err
		default:
			c.appendAudit(subjectID, string(policy.ActionAggregate), gate.doc.ID, audit.OutcomeAllowed,
				fmt.Sprintf("granularity=%v rule=%s", time.Duration(g), gate.decision.RuleID), gate.originator)
			results[i].Series = outs[i].series
		}
	}
	return results
}

// fetchSealedBatch returns the sealed payloads of docs keyed by document ID,
// looking in the local cache first and fetching every miss from the cloud in
// a single batched round-trip. fromCloud marks the IDs the cloud served, so
// the open stage can warm the cache once each envelope verifies — an
// unverified payload is never cached, keeping a tampering provider from
// poisoning the local copy. Per-document failures land in the errs map; a
// document appears in exactly one of sealed and errs.
func (c *Cell) fetchSealedBatch(docs []*datamodel.Document) (sealed map[string][]byte, fromCloud map[string]bool, errs map[string]error) {
	sealed = make(map[string][]byte, len(docs))
	fromCloud = make(map[string]bool)
	errs = make(map[string]error)
	var missing []*datamodel.Document
	queued := make(map[string]bool)
	kb := keyBufs.Get()
	defer keyBufs.Put(kb)
	for _, d := range docs {
		if _, done := sealed[d.ID]; done || queued[d.ID] {
			continue
		}
		if b, err := c.cache.Get(appendPayloadKey((*kb)[:0], d.ID)); err == nil {
			sealed[d.ID] = b
			continue
		}
		queued[d.ID] = true
		missing = append(missing, d)
	}
	if len(missing) == 0 {
		return sealed, fromCloud, errs
	}
	if c.cloud == nil {
		for _, d := range missing {
			errs[d.ID] = fmt.Errorf("core: payload of %s unavailable: no cloud and no cache", d.ID)
		}
		return sealed, fromCloud, errs
	}
	names := make([]string, len(missing))
	for i, d := range missing {
		names[i] = d.BlobRef
	}
	blobs, err := c.cloud.GetBlobs(names)
	if err != nil {
		for _, d := range missing {
			errs[d.ID] = fmt.Errorf("core: fetching %s: %w", d.ID, err)
		}
		return sealed, fromCloud, errs
	}
	for i, d := range missing {
		if blobs[i].Version == 0 {
			errs[d.ID] = fmt.Errorf("core: fetching %s: %w", d.ID, cloud.ErrBlobNotFound)
			continue
		}
		sealed[d.ID] = blobs[i].Data
		fromCloud[d.ID] = true
	}
	return sealed, fromCloud, errs
}
