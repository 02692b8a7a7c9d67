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
// experiment E14 measures it under open-loop overload.

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
	return &Admission{inner: inner, maxInFly: opts.MaxInFlight, retryAfter: opts.RetryAfter}
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

// PutBlob implements Service: a batch of one, weight 1.
func (a *Admission) PutBlob(name string, data []byte) (int, error) { return putOne(a, name, data) }

// GetBlob implements Service: a batch of one; reads are never shed.
func (a *Admission) GetBlob(name string) (Blob, error) { return getOne(a, name) }

// DeleteBlob implements Service with weight 1.
func (a *Admission) DeleteBlob(name string) error {
	if err := a.acquire(1); err != nil {
		return err
	}
	defer a.release(1)
	return a.inner.DeleteBlob(name)
}

// ListBlobs implements Service; reads are never shed.
func (a *Admission) ListBlobs(prefix string) ([]string, error) { return a.inner.ListBlobs(prefix) }

// Send implements Service with weight 1 (mailbox appends ride the journal).
func (a *Admission) Send(msg Message) error {
	if err := a.acquire(1); err != nil {
		return err
	}
	defer a.release(1)
	return a.inner.Send(msg)
}

// Receive implements Service with weight 1: popping messages mutates the
// mailbox and commits through the journal like any write.
func (a *Admission) Receive(recipient string, max int) ([]Message, error) {
	if err := a.acquire(1); err != nil {
		return nil, err
	}
	defer a.release(1)
	return a.inner.Receive(recipient, max)
}

// Stats implements Service; pass-through.
func (a *Admission) Stats() Stats { return a.inner.Stats() }

// PutBlobs implements Service with weight len(puts), so one huge batch
// cannot slip under a budget that N singles would have tripped.
func (a *Admission) PutBlobs(puts []BlobPut) ([]int, error) {
	w := int64(len(puts))
	if w == 0 {
		w = 1
	}
	if err := a.acquire(w); err != nil {
		return nil, err
	}
	defer a.release(w)
	return a.inner.PutBlobs(puts)
}

// GetBlobs implements Service; reads are never shed.
func (a *Admission) GetBlobs(names []string) ([]Blob, error) {
	return a.inner.GetBlobs(names)
}

// GetBlobsIf implements Service; reads are never shed.
func (a *Admission) GetBlobsIf(gets []CondGet) ([]Blob, error) {
	return a.inner.GetBlobsIf(gets)
}
