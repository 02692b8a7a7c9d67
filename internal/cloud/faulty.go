package cloud

// This file implements cloud.Faulty, a fault-injection wrapper around any
// Service. The replicated provider (see replicated.go) exists to survive
// member failures; Faulty exists so those failures can be produced on demand
// and *deterministically* — a seeded error rate, an op-counter-driven flap
// schedule, a full-outage switch and a partition mask — instead of being
// observed by luck. Every experiment and test that drills availability
// (E15, the quorum edge-case tables, the conformance battery's degraded
// variant) builds its failure scenario out of this wrapper.
//
// Determinism: random decisions come from a seeded generator behind a mutex,
// and the flap schedule is driven by an atomic operation counter, not by wall
// clock. A single-goroutine workload therefore sees exactly the same fault
// sequence on every run; concurrent workloads see the same fault *density*.

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the error returned for faults drawn from the seeded
// error-rate generator, so tests can tell injected failures from organic ones.
var ErrInjected = errors.New("cloud: injected fault")

// OpClass partitions the Service surface for the partition mask: a masked
// class fails with ErrUnavailable as if a network partition separated the
// caller from that capability.
type OpClass int

// Operation classes of the partition mask. Combine with bitwise or.
const (
	// MaskWrites covers PutBlob, PutBlobs and DeleteBlob.
	MaskWrites OpClass = 1 << iota
	// MaskReads covers GetBlob, GetBlobs, GetBlobsIf and ListBlobs.
	MaskReads
	// MaskMail covers Send and Receive.
	MaskMail
)

// FaultyOptions parameterise the injected misbehaviour. The zero value
// injects nothing: a Faulty built from it is a transparent pass-through until
// SetDown / SetFlap / SetMask flip it at runtime.
type FaultyOptions struct {
	// Seed makes the error-rate draws deterministic.
	Seed int64
	// ErrorRate is the per-operation probability of failing with ErrInjected
	// before the inner service is consulted.
	ErrorRate float64
	// Latency is added to every operation: one sleep per call, so a batch
	// pays one simulated round trip for its whole argument list — the
	// economics that make the batch calls worthwhile for a fleet of edge
	// cells talking to a remote provider.
	Latency time.Duration
	// SpikeRate is the per-operation probability of a latency spike of
	// SpikeLatency on top of Latency.
	SpikeRate    float64
	SpikeLatency time.Duration
	// CorruptRate is the per-blob probability that a read returns the stored
	// bytes with one seeded bit flipped — the silent-corruption adversary
	// (disk rot, a provider truncating or patching ciphertext). The flip is
	// applied to a copy; the inner store is never mutated. Sealed blobs fail
	// closed at the AEAD layer, which is exactly what the corruption drills
	// assert.
	CorruptRate float64
}

// FaultStats counts what the wrapper injected, so tests can assert the fault
// schedule actually fired (and at the expected rate).
type FaultStats struct {
	Ops           int64 // operations that entered the wrapper
	Injected      int64 // failures from the seeded error rate
	OutageRejects int64 // failures while SetDown(true) was in effect
	FlapRejects   int64 // failures from the flap schedule
	MaskRejects   int64 // failures from the partition mask
	LatencySpikes int64 // operations that paid SpikeLatency
	PassedThrough int64 // operations forwarded to the inner service
	Corrupted     int64 // blobs served with a flipped bit
}

// Faulty wraps a Service (and its batch extensions) with deterministic fault
// injection. All methods are safe for concurrent use.
type Faulty struct {
	layer // every Service method runs through serve

	inner Service
	opts  FaultyOptions

	ops  atomic.Int64
	down atomic.Bool
	mask atomic.Int32
	// flap packs the schedule as period<<32|downFor; zero disables it.
	flap atomic.Uint64
	// corrupt holds math.Float64bits of the live corruption rate, so
	// SetCorrupt can flip it mid-run like the other switches.
	corrupt atomic.Uint64

	rngMu sync.Mutex
	rng   *rand.Rand

	injected      atomic.Int64
	outageRejects atomic.Int64
	flapRejects   atomic.Int64
	maskRejects   atomic.Int64
	spikes        atomic.Int64
	passed        atomic.Int64
	corrupted     atomic.Int64
}

// NewFaulty wraps inner with the given fault schedule.
func NewFaulty(inner Service, opts FaultyOptions) *Faulty {
	f := &Faulty{
		inner: inner,
		opts:  opts,
		rng:   rand.New(rand.NewSource(opts.Seed)),
	}
	f.layer = layer{f.serve}
	f.corrupt.Store(math.Float64bits(opts.CorruptRate))
	return f
}

// Inner returns the wrapped service (tests inspect member state through it).
func (f *Faulty) Inner() Service { return f.inner }

// SetDown switches the full outage on or off: while down, every operation
// fails with ErrUnavailable without reaching the inner service. This is the
// "kill -9 the provider" switch of the availability drills.
func (f *Faulty) SetDown(down bool) { f.down.Store(down) }

// Down reports whether the full outage is in effect.
func (f *Faulty) Down() bool { return f.down.Load() }

// SetFlap installs an op-counter-driven flap schedule: within every window of
// period operations, the first downFor fail with ErrUnavailable. period <= 0
// disables flapping. The schedule is deterministic in the operation count, so
// a sequential workload always hits the same ops.
func (f *Faulty) SetFlap(period, downFor int) {
	if period <= 0 || downFor <= 0 {
		f.flap.Store(0)
		return
	}
	if downFor > period {
		downFor = period
	}
	f.flap.Store(uint64(period)<<32 | uint64(downFor))
}

// SetMask installs a partition mask: operations in the masked classes fail
// with ErrUnavailable. Zero clears the mask.
func (f *Faulty) SetMask(mask OpClass) { f.mask.Store(int32(mask)) }

// SetCorrupt sets the live per-blob corruption rate (see
// FaultyOptions.CorruptRate); zero turns silent corruption off.
func (f *Faulty) SetCorrupt(rate float64) { f.corrupt.Store(math.Float64bits(rate)) }

// FaultStats returns a snapshot of the injection counters.
func (f *Faulty) FaultStats() FaultStats {
	return FaultStats{
		Ops:           f.ops.Load(),
		Injected:      f.injected.Load(),
		OutageRejects: f.outageRejects.Load(),
		FlapRejects:   f.flapRejects.Load(),
		MaskRejects:   f.maskRejects.Load(),
		LatencySpikes: f.spikes.Load(),
		PassedThrough: f.passed.Load(),
		Corrupted:     f.corrupted.Load(),
	}
}

// corruptBlob applies the seeded bit-flip schedule to one served blob. The
// flip lands on a copy — the inner store keeps the true bytes, exactly like a
// provider whose disk rots under an object it still holds.
func (f *Faulty) corruptBlob(b Blob) Blob {
	rate := math.Float64frombits(f.corrupt.Load())
	if rate <= 0 || len(b.Data) == 0 || !f.chance(rate) {
		return b
	}
	data := make([]byte, len(b.Data))
	copy(data, b.Data)
	f.rngMu.Lock()
	bit := f.rng.Intn(len(data) * 8)
	f.rngMu.Unlock()
	data[bit/8] ^= 1 << (bit % 8)
	b.Data = data
	f.corrupted.Add(1)
	return b
}

// chance draws a seeded coin.
func (f *Faulty) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	f.rngMu.Lock()
	ok := f.rng.Float64() < p
	f.rngMu.Unlock()
	return ok
}

// checkIn runs the fault schedule for one operation of the given class. The
// order is fixed — latency, outage, flap, mask, error rate — so schedules
// compose predictably.
func (f *Faulty) checkIn(class OpClass) error {
	n := f.ops.Add(1)
	if f.opts.Latency > 0 {
		time.Sleep(f.opts.Latency)
	}
	if f.opts.SpikeLatency > 0 && f.chance(f.opts.SpikeRate) {
		f.spikes.Add(1)
		time.Sleep(f.opts.SpikeLatency)
	}
	if f.down.Load() {
		f.outageRejects.Add(1)
		return ErrUnavailable
	}
	if packed := f.flap.Load(); packed != 0 {
		period, downFor := int64(packed>>32), int64(packed&0xFFFFFFFF)
		if (n-1)%period < downFor {
			f.flapRejects.Add(1)
			return ErrUnavailable
		}
	}
	if OpClass(f.mask.Load())&class != 0 {
		f.maskRejects.Add(1)
		return ErrUnavailable
	}
	if f.chance(f.opts.ErrorRate) {
		f.injected.Add(1)
		return ErrInjected
	}
	f.passed.Add(1)
	return nil
}

// serve is the wrapper's hook: one fault decision per call — a batch is one
// round trip, so it is one decision for its whole argument list — then the
// corruption schedule over every served blob, drawn per blob, since bit rot
// strikes objects, not round trips. Stats passes through uncounted;
// FaultStats holds the wrapper's own counters.
func (f *Faulty) serve(req rpcRequest) (rpcResponse, error) {
	if req.Op != "stats" {
		if err := f.checkIn(opClass(req.Op)); err != nil {
			return rpcResponse{}, err
		}
	}
	resp, err := dispatch(f.inner, req)
	if err != nil {
		return rpcResponse{}, err
	}
	for i := range resp.Blobs {
		resp.Blobs[i] = f.corruptBlob(resp.Blobs[i])
	}
	return resp, nil
}

// opClass is the partition-mask class of a request.
func opClass(op string) OpClass {
	switch op {
	case "putb", "delete":
		return MaskWrites
	case "send", "receive":
		return MaskMail
	}
	return MaskReads
}
