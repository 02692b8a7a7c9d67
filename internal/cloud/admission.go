package cloud

// This file is the provider's backpressure valve. The durable backend's
// write path funnels every mutation through the commit journal's group
// committer (journal.go): one goroutine batches appends and pays one fsync
// per batch. That design gives group commit its throughput, but it also
// means that past the fsync budget the only thing an unprotected server can
// do is queue — latency grows without bound while every client keeps
// waiting. Admission caps the damage: it tracks the weighted number of
// in-flight mutations and, when a new one would exceed the budget, sheds it
// immediately with a typed OverloadError carrying a retry-after hint. A
// shed request costs microseconds instead of a queue slot, so the requests
// that are admitted keep their latency, and clients get an explicit signal
// to back off instead of a timeout. DESIGN.md §11.4 documents the policy;
// bench/'s frontdoor_ingest loads it, TestFrameShedsAtSaturation pins it.

import (
	"sync/atomic"
	"time"
)

// AdmissionOptions tunes the controller. The zero value gets sensible
// defaults from NewAdmission.
type AdmissionOptions struct {
	// MaxInFlight is the weighted budget of concurrently executing
	// mutations: a single put, delete, send or receive weighs 1, a batch
	// weighs its length. Default 1024.
	MaxInFlight int64
	// RetryAfter is the backoff hint attached to shed requests.
	// Default 25ms — about the time a saturated group committer needs to
	// drain one fsync batch.
	RetryAfter time.Duration
}

// Admission wraps a Service with load shedding on the mutation path. Reads
// (GetBlob, ListBlobs, batched and conditional gets, Stats) pass through
// unthrottled — the durable read path runs outside the journal. Admission
// is safe for concurrent use; wrap it around the backend once and share it
// between all connections. cmd/tccloud wires backend → Admission → Tenants,
// keeping the controller global — overload protection is about the
// provider's health, not any one tenant's budget — while quota checks run
// first, so an over-quota tenant cannot consume admission slots.
type Admission struct {
	layer // every Service method runs through serve

	inner      Service
	maxInFly   int64
	retryAfter time.Duration

	inFlight atomic.Int64
	admitted atomic.Int64
	shed     atomic.Int64
}

// AdmissionStats is a point-in-time snapshot of the controller.
type AdmissionStats struct {
	// Admitted and Shed count weighted mutation units (batch items count
	// individually) accepted or rejected since construction.
	Admitted, Shed int64
	// InFlight is the weighted mutation load currently executing.
	InFlight int64
}

// NewAdmission wraps inner with an admission controller.
func NewAdmission(inner Service, opts AdmissionOptions) *Admission {
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = 1024
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = 25 * time.Millisecond
	}
	a := &Admission{inner: inner, maxInFly: opts.MaxInFlight, retryAfter: opts.RetryAfter}
	a.layer = layer{a.serve}
	return a
}

// AdmissionStats returns the controller's counters.
func (a *Admission) AdmissionStats() AdmissionStats {
	return AdmissionStats{
		Admitted: a.admitted.Load(),
		Shed:     a.shed.Load(),
		InFlight: a.inFlight.Load(),
	}
}

// acquire reserves weight w of the in-flight budget, or sheds. It never
// blocks: a request that does not fit right now is rejected, not queued.
func (a *Admission) acquire(w int64) error {
	for {
		cur := a.inFlight.Load()
		if cur+w > a.maxInFly {
			a.shed.Add(w)
			return &OverloadError{RetryAfter: a.retryAfter}
		}
		if a.inFlight.CompareAndSwap(cur, cur+w) {
			a.admitted.Add(w)
			return nil
		}
	}
}

func (a *Admission) release(w int64) { a.inFlight.Add(-w) }

// serve is the controller's hook: a mutation holds its weight of the budget
// while the inner call runs; a read passes through.
func (a *Admission) serve(req rpcRequest) (rpcResponse, error) {
	if w := weight(req); w > 0 {
		if err := a.acquire(w); err != nil {
			return rpcResponse{}, err
		}
		defer a.release(w)
	}
	return dispatch(a.inner, req)
}

// weight is what a request costs the mutation budget. A batch put weighs its
// length (at least 1), so one huge batch cannot slip under a budget that N
// singles would have tripped; a delete, a send and a receive weigh 1 —
// mailbox appends and pops commit through the journal like any write; reads
// and Stats weigh nothing and are never shed.
func weight(req rpcRequest) int64 {
	switch req.Op {
	case "putb":
		return int64(max(1, len(req.Puts)))
	case "delete", "send", "receive":
		return 1
	}
	return 0
}
