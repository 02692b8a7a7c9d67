package sim

// This file makes a fleet a first-class object of the harness. Earlier
// experiments built a full core.Cell per simulated user — catalog, planner,
// sync state, goroutines — which tops out around dozens of cells. A million
// personal data servers sharing one cloud need the opposite shape: almost
// no state per cell at rest, with all heavy machinery (sealing keys, AEAD
// cache, cloud connections, load workers) shared across the fleet. Here a
// cell at rest is exactly one 4-byte document sequence counter; everything
// else is computed on demand by whichever load worker is currently acting
// as that cell. Experiment E14 drives this against the multi-tenant framed
// front door; DESIGN.md §11.1 documents the object.

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"trustedcells/internal/cloud"
	"trustedcells/internal/crypto"
)

// ---------------------------------------------------------------------------
// HDR-style latency recorder
// ---------------------------------------------------------------------------

// lrSubBits sets the histogram resolution: 2^lrSubBits sub-buckets per
// power-of-two group, i.e. a worst-case relative error of 2^-lrSubBits
// (~3%) — the classic HDR-histogram trade of tiny fixed memory for bounded
// relative error at any magnitude.
const (
	lrSubBits = 5
	lrSub     = 1 << lrSubBits
)

// LatencyRecorder is a fixed-size log-linear histogram of durations, safe
// for concurrent recording without locks: every bucket is an atomic
// counter, so load workers record with one atomic increment and no
// allocation. Quantiles are read off the bucket boundaries with ≤ ~3%
// relative error. Reading (Quantile, Mean, Max) while recording is safe and
// returns a slightly stale but consistent-enough snapshot for progress
// reporting; final numbers should be read after the workers stop.
type LatencyRecorder struct {
	buckets [(64-lrSubBits)*lrSub + lrSub]atomic.Uint64
	count   atomic.Uint64
	max     atomic.Uint64 // nanoseconds
}

// lrIndex maps a nanosecond value to its bucket.
func lrIndex(v uint64) int {
	if v < lrSub {
		return int(v)
	}
	g := uint(bits.Len64(v)) - 1 // position of the leading bit, ≥ lrSubBits
	sub := (v >> (g - lrSubBits)) & (lrSub - 1)
	return int(g-lrSubBits+1)*lrSub + int(sub)
}

// lrValue returns the midpoint duration represented by bucket i.
func lrValue(i int) uint64 {
	if i < lrSub {
		return uint64(i)
	}
	g := uint(i/lrSub) + lrSubBits - 1
	sub := uint64(i % lrSub)
	low := uint64(1)<<g | sub<<(g-lrSubBits)
	return low + uint64(1)<<(g-lrSubBits)/2
}

// Record adds one latency observation.
func (r *LatencyRecorder) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	v := uint64(d)
	r.buckets[lrIndex(v)].Add(1)
	r.count.Add(1)
	for {
		old := r.max.Load()
		if v <= old || r.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// Max returns the largest recorded latency (exact, not bucketed).
func (r *LatencyRecorder) Max() time.Duration {
	return time.Duration(r.max.Load())
}

// Quantile returns the latency at quantile q in [0,1], e.g. 0.999 for p999.
func (r *LatencyRecorder) Quantile(q float64) time.Duration {
	total := r.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(total))
	if target >= total {
		target = total - 1
	}
	var seen uint64
	for i := range r.buckets {
		c := r.buckets[i].Load()
		if c == 0 {
			continue
		}
		seen += c
		if seen > target {
			v := lrValue(i)
			if m := r.max.Load(); v > m {
				v = m // the top bucket midpoint can overshoot the true max
			}
			return time.Duration(v)
		}
	}
	return r.Max()
}

// ---------------------------------------------------------------------------
// Fleet
// ---------------------------------------------------------------------------

// Fleet is a population of simulated cells cheap enough to scale to
// millions: the only at-rest state per cell is one atomic 4-byte document
// sequence counter (a 1M-cell fleet idles at ~4 MB). The sealing key
// hierarchy, AEAD cache and payload buffers are shared fleet-wide —
// per-cell confidentiality still holds because every envelope binds the
// cell's document name as associated data, the same envelope discipline
// real cells use. All methods are safe for concurrent use by any number of
// load workers.
type Fleet struct {
	seqs  []atomic.Uint32
	key   crypto.SymmetricKey
	aeads *crypto.AEADCache
}

// NewFleet builds a fleet of n cells with a sealing key derived
// deterministically from seed.
func NewFleet(n int, seed []byte) (*Fleet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sim: fleet size %d", n)
	}
	sum := sha256.Sum256(seed)
	master, err := crypto.SymmetricKeyFromBytes(sum[:])
	if err != nil {
		return nil, err
	}
	return &Fleet{
		seqs:  make([]atomic.Uint32, n),
		key:   crypto.DeriveKey(master, "fleet-seal", "v1"),
		aeads: crypto.NewAEADCache(64),
	}, nil
}

// Size returns the number of cells.
func (f *Fleet) Size() int { return len(f.seqs) }

// DocName returns the blob name of cell i's document seq.
func (f *Fleet) DocName(i int, seq uint32) string {
	return fmt.Sprintf("fleet/c%07d/d%07d", i, seq)
}

// NextSeq reserves and returns the next document sequence of cell i.
func (f *Fleet) NextSeq(i int) uint32 { return f.seqs[i].Add(1) - 1 }

// Seq returns the number of documents cell i has produced so far.
func (f *Fleet) Seq(i int) uint32 { return f.seqs[i].Load() }

// Seal seals payload as the named document, appending to dst (pass a
// per-worker buffer's [:0] to recycle allocations across requests). The
// document name is bound as associated data, so a provider that swaps two
// cells' blobs is caught at open time.
func (f *Fleet) Seal(dst []byte, name string, payload []byte) ([]byte, error) {
	return crypto.SealTo(dst, f.key, payload, []byte(name))
}

// Open opens a sealed document and verifies it is bound to the given name.
func (f *Fleet) Open(dst []byte, name string, sealed []byte) ([]byte, error) {
	plain, ad, err := crypto.OpenTo(dst, f.key, sealed)
	if err != nil {
		return nil, err
	}
	if string(ad) != name {
		return nil, fmt.Errorf("sim: document %q sealed as %q", name, ad)
	}
	return plain, nil
}

// ---------------------------------------------------------------------------
// Open-loop load generation
// ---------------------------------------------------------------------------

// FleetLoad parameterises one open-loop run against a fleet. Open-loop
// means requests are scheduled on a fixed clock — request i fires at
// start + i/RatePerSec — and latency is measured from that scheduled
// arrival, not from when a worker got around to sending. A slow server
// therefore cannot slow the arrival rate down and hide its own queueing
// delay (the coordinated-omission mistake closed-loop harnesses make).
type FleetLoad struct {
	// Requests is the total number of requests to issue.
	Requests int
	// RatePerSec is the offered arrival rate.
	RatePerSec float64
	// Workers is the number of load-generating goroutines.
	Workers int
	// BatchSize is the documents per write batch (and the recent-window
	// size of read requests).
	BatchSize int
	// PayloadSize is the plaintext bytes per document.
	PayloadSize int
	// ReadFraction is the probability a request reads the picked cell's
	// recent documents instead of writing a new batch.
	ReadFraction float64
	// ZipfS is the zipf skew exponent (>1; larger = more skew toward a few
	// hot cells).
	ZipfS float64
	// Seed makes cell picks and payloads deterministic.
	Seed int64

	// stride assigns cells to clients: worker w uses clients[w%stride] and
	// picks only cells congruent to that index mod stride, so a cell's
	// documents always travel through one tenant namespace. Set by RunLoad.
	stride int
}

// FleetLoadResult is the outcome of one open-loop run.
type FleetLoadResult struct {
	// Completed counts requests that finished successfully; Shed counts
	// requests the provider rejected with a typed overload or quota error
	// (their latency is not recorded — they are backpressure working as
	// designed, not service).
	Completed, Shed int64
	// DocsWritten and DocsRead count documents moved by completed requests.
	DocsWritten, DocsRead int64
	// Elapsed is the wall-clock span from the first scheduled arrival to
	// the last completion.
	Elapsed time.Duration
	// Latency is measured from each request's scheduled arrival to its
	// completion.
	Latency LatencyRecorder
}

// OfferedOpsPerSec returns the document rate the load schedule offered.
func (l FleetLoad) OfferedOpsPerSec() float64 {
	return l.RatePerSec * float64(l.BatchSize)
}

// SustainedOpsPerSec returns the document rate actually completed.
func (r *FleetLoadResult) SustainedOpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.DocsWritten+r.DocsRead) / r.Elapsed.Seconds()
}

// RunLoad drives the fleet against one or more cloud clients with an
// open-loop schedule. Each worker is pinned to clients[w%len(clients)] and
// to the cell subset congruent to that client index, so when clients are
// per-tenant framed connections every cell's documents stay inside one
// tenant namespace. Requests rejected with a typed OverloadError or
// QuotaError count as Shed; any other error aborts the run.
func RunLoad(f *Fleet, clients []cloud.Service, load FleetLoad) (*FleetLoadResult, error) {
	if len(clients) == 0 {
		return nil, errors.New("sim: RunLoad needs at least one client")
	}
	if load.Requests <= 0 || load.RatePerSec <= 0 || load.BatchSize <= 0 {
		return nil, fmt.Errorf("sim: bad load %+v", load)
	}
	if load.Workers <= 0 {
		load.Workers = 16
	}
	if load.ZipfS <= 1 {
		load.ZipfS = 1.2
	}
	load.stride = len(clients)
	cellsPerClient := f.Size() / load.stride
	if cellsPerClient == 0 {
		return nil, fmt.Errorf("sim: fleet of %d smaller than client count %d", f.Size(), load.stride)
	}

	res := &FleetLoadResult{}
	var next atomic.Int64
	var errMu sync.Mutex
	var firstErr error
	failed := func(err error) { // record the first fatal error, stop the run
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	aborted := func() bool {
		errMu.Lock()
		defer errMu.Unlock()
		return firstErr != nil
	}
	interval := time.Duration(float64(time.Second) / load.RatePerSec)
	start := time.Now()

	var wg sync.WaitGroup
	for w := 0; w < load.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := clients[w%load.stride]
			clientIdx := w % load.stride
			rng := rand.New(rand.NewSource(load.Seed + int64(w)))
			zipf := rand.NewZipf(rng, load.ZipfS, 1, uint64(cellsPerClient-1))
			payload := make([]byte, load.PayloadSize)
			sealBufs := make([][]byte, load.BatchSize)
			var openBuf []byte

			for {
				if aborted() {
					return
				}
				i := next.Add(1) - 1
				if i >= int64(load.Requests) {
					return
				}
				scheduled := start.Add(time.Duration(i) * interval)
				if d := time.Until(scheduled); d > 0 {
					time.Sleep(d)
				}
				// The cell acting now: zipf-skewed within this client's
				// congruence class, so a few cells are hot and most are cold.
				cell := int(zipf.Uint64())*load.stride + clientIdx
				read := rng.Float64() < load.ReadFraction && f.Seq(cell) > 0

				var err error
				var docs int
				if read {
					docs, err = fleetReadRecent(f, client, cell, load.BatchSize, &openBuf)
					if err == nil {
						atomic.AddInt64(&res.DocsRead, int64(docs))
					}
				} else {
					docs, err = fleetWriteBatch(f, client, cell, load.BatchSize, rng, payload, sealBufs)
					if err == nil {
						atomic.AddInt64(&res.DocsWritten, int64(docs))
					}
				}
				switch {
				case err == nil:
					atomic.AddInt64(&res.Completed, 1)
					res.Latency.Record(time.Since(scheduled))
				case errors.Is(err, cloud.ErrOverloaded) || errors.Is(err, cloud.ErrQuotaExceeded):
					atomic.AddInt64(&res.Shed, 1)
				default:
					failed(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	if firstErr != nil {
		return nil, fmt.Errorf("sim: fleet load: %w", firstErr)
	}
	return res, nil
}

// fleetWriteBatch seals and uploads one batch of fresh documents for cell.
func fleetWriteBatch(f *Fleet, client cloud.Service, cell, batch int, rng *rand.Rand, payload []byte, sealBufs [][]byte) (int, error) {
	puts := make([]cloud.BlobPut, batch)
	for b := 0; b < batch; b++ {
		rng.Read(payload)
		name := f.DocName(cell, f.NextSeq(cell))
		sealed, err := f.Seal(sealBufs[b][:0], name, payload)
		if err != nil {
			return 0, err
		}
		sealBufs[b] = sealed
		puts[b] = cloud.BlobPut{Name: name, Data: sealed}
	}
	if _, err := client.PutBlobs(puts); err != nil {
		return 0, err
	}
	return batch, nil
}

// fleetReadRecent fetches and opens cell's most recent window of documents.
func fleetReadRecent(f *Fleet, client cloud.Service, cell, window int, openBuf *[]byte) (int, error) {
	seq := int(f.Seq(cell))
	lo := seq - window
	if lo < 0 {
		lo = 0
	}
	names := make([]string, 0, seq-lo)
	for s := lo; s < seq; s++ {
		names = append(names, f.DocName(cell, uint32(s)))
	}
	blobs, err := client.GetBlobs(names)
	if err != nil {
		return 0, err
	}
	read := 0
	for i, b := range blobs {
		if b.Version == 0 {
			continue // another worker reserved the seq but has not landed yet
		}
		plain, err := f.Open((*openBuf)[:0], names[i], b.Data)
		if err != nil {
			return 0, fmt.Errorf("open %s: %w", names[i], err)
		}
		*openBuf = plain
		read++
	}
	return read, nil
}
