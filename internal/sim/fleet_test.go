package sim

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"trustedcells/internal/cloud"
)

// TestLatencyRecorderQuantiles feeds a known distribution and checks the
// quantiles come back within the histogram's documented ~3% relative error.
func TestLatencyRecorderQuantiles(t *testing.T) {
	var r LatencyRecorder
	// 10000 observations: i microseconds for i in [1,10000].
	for i := 1; i <= 10000; i++ {
		r.Record(time.Duration(i) * time.Microsecond)
	}
	if r.count.Load() != 10000 {
		t.Fatalf("count = %d", r.count.Load())
	}
	checks := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 5000 * time.Microsecond},
		{0.99, 9900 * time.Microsecond},
		{0.999, 9990 * time.Microsecond},
	}
	for _, c := range checks {
		got := r.Quantile(c.q)
		lo := time.Duration(float64(c.want) * 0.95)
		hi := time.Duration(float64(c.want) * 1.05)
		if got < lo || got > hi {
			t.Fatalf("Quantile(%g) = %v, want within 5%% of %v", c.q, got, c.want)
		}
	}
	if r.Max() != 10000*time.Microsecond {
		t.Fatalf("Max = %v (must be exact)", r.Max())
	}
	// Degenerate cases must not panic or divide by zero.
	var empty LatencyRecorder
	if empty.Quantile(0.5) != 0 || empty.Max() != 0 {
		t.Fatal("empty recorder not zero-valued")
	}
	empty.Record(-time.Second) // clamped, not panicking
	if empty.count.Load() != 1 {
		t.Fatal("negative observation dropped")
	}
}

// TestLatencyRecorderBuckets checks the log-linear index round trip: every
// bucket's reconstructed midpoint must land back in the same bucket, and
// indexes must be monotone.
func TestLatencyRecorderBuckets(t *testing.T) {
	last := -1
	for _, v := range []uint64{0, 1, 31, 32, 33, 63, 64, 1000, 1 << 20, 1<<40 + 12345, 1 << 62} {
		idx := lrIndex(v)
		if idx <= last && v != 0 {
			t.Fatalf("lrIndex not monotone at %d: %d <= %d", v, idx, last)
		}
		last = idx
		mid := lrValue(idx)
		if lrIndex(mid) != idx {
			t.Fatalf("midpoint of bucket %d (value %d) maps to bucket %d", idx, mid, lrIndex(mid))
		}
	}
}

// TestLatencyRecorderConcurrent hammers the recorder from many goroutines
// under the race detector; the total count must be exact.
func TestLatencyRecorderConcurrent(t *testing.T) {
	var r LatencyRecorder
	var wg sync.WaitGroup
	const per = 1000
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < per; i++ {
				r.Record(time.Duration(rng.Intn(1_000_000)) * time.Nanosecond)
			}
		}(g)
	}
	wg.Wait()
	if r.count.Load() != 8*per {
		t.Fatalf("count = %d, want %d", r.count.Load(), 8*per)
	}
}

// TestFleetSealOpen checks the fleet's envelope discipline: documents round
// trip, and a blob swapped between cells is rejected at open time because
// the name is bound as associated data.
func TestFleetSealOpen(t *testing.T) {
	f, err := NewFleet(10, []byte("test"))
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	if f.Size() != 10 {
		t.Fatalf("Size = %d", f.Size())
	}
	if s0, s1 := f.NextSeq(3), f.NextSeq(3); s0 != 0 || s1 != 1 {
		t.Fatalf("seqs = %d, %d", s0, s1)
	}
	nameA := f.DocName(3, 0)
	nameB := f.DocName(4, 0)
	sealed, err := f.Seal(nil, nameA, []byte("reading-1"))
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	plain, err := f.Open(nil, nameA, sealed)
	if err != nil || string(plain) != "reading-1" {
		t.Fatalf("Open: %q %v", plain, err)
	}
	if _, err := f.Open(nil, nameB, sealed); err == nil {
		t.Fatal("document accepted under another cell's name")
	}
	if _, err := NewFleet(0, nil); err == nil {
		t.Fatal("empty fleet accepted")
	}
}

// TestRunLoadSmall drives a small open-loop run against two in-process
// clients and checks the accounting: every request lands somewhere
// (completed, no shed against an unlimited backend), latency is recorded
// per completion, and documents stay inside their client's congruence
// class.
func TestRunLoadSmall(t *testing.T) {
	f, err := NewFleet(100, []byte("load"))
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	mem := cloud.NewMemory()
	clients := []cloud.Service{mem, mem}
	res, err := RunLoad(f, clients, FleetLoad{
		Requests:     60,
		RatePerSec:   600,
		Workers:      4,
		BatchSize:    4,
		PayloadSize:  64,
		ReadFraction: 0.3,
		Seed:         1,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if res.Completed != 60 || res.Shed != 0 {
		t.Fatalf("completed=%d shed=%d", res.Completed, res.Shed)
	}
	if res.Latency.count.Load() != 60 {
		t.Fatalf("latency observations = %d", res.Latency.count.Load())
	}
	if res.DocsWritten == 0 {
		t.Fatal("no documents written")
	}
	if res.SustainedOpsPerSec() <= 0 {
		t.Fatalf("sustained rate = %f", res.SustainedOpsPerSec())
	}
	// Bad configurations are rejected, not run.
	if _, err := RunLoad(f, nil, FleetLoad{Requests: 1, RatePerSec: 1, BatchSize: 1}); err == nil {
		t.Fatal("no clients accepted")
	}
	if _, err := RunLoad(f, clients, FleetLoad{}); err == nil {
		t.Fatal("zero load accepted")
	}
}

// TestRunLoadSheds points the generator at an always-overloaded backend:
// every write must count as shed (typed backpressure), not as a failure,
// and the run must finish without error.
func TestRunLoadSheds(t *testing.T) {
	f, err := NewFleet(50, []byte("shed"))
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	// A batch of 8 weighs 8 against a 1-slot budget, so every write sheds.
	adm := cloud.NewAdmission(cloud.NewMemory(), cloud.AdmissionOptions{MaxInFlight: 1})
	res, err := RunLoad(f, []cloud.Service{adm}, FleetLoad{
		Requests:    200,
		RatePerSec:  20_000, // far past the backend, forcing concurrent arrivals
		Workers:     16,
		BatchSize:   8,
		PayloadSize: 32,
		Seed:        2,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if res.Completed+res.Shed != 200 {
		t.Fatalf("completed %d + shed %d != 200", res.Completed, res.Shed)
	}
	if res.Latency.count.Load() != uint64(res.Completed) {
		t.Fatalf("latency must only record completions: %d vs %d", res.Latency.count.Load(), res.Completed)
	}
}

// TestRunE14Shape runs the full front-door experiment at a reduced scale:
// the steady phase must complete its schedule with latency distributions
// recorded, and the overload phase must actually shed.
func TestRunE14Shape(t *testing.T) {
	cfg := E14Config{
		FleetSizes:          []int{5_000},
		Requests:            150,
		RatePerSec:          300,
		Workers:             8,
		Tenants:             2,
		BatchSize:           8,
		PayloadSize:         128,
		ReadFraction:        0.25,
		ZipfS:               1.2,
		Shards:              4,
		MemtableBytes:       256 << 10,
		MaxInFlight:         256,
		OverloadFactor:      10,
		OverloadMaxInFlight: 1,
	}
	table, err := RunE14(cfg)
	if err != nil {
		t.Fatalf("RunE14: %v", err)
	}
	// One steady row per fleet size plus the overload row.
	if len(table.Rows) != len(cfg.FleetSizes)+1 {
		t.Fatalf("rows = %d\n%s", len(table.Rows), table)
	}
	if table.Metrics["ops_per_sec"] <= 0 {
		t.Fatalf("ops_per_sec missing: %v\n%s", table.Metrics, table)
	}
	p50, p99, p999 := table.Metrics["p50_ms"], table.Metrics["p99_ms"], table.Metrics["p999_ms"]
	if p50 <= 0 || p99 < p50 || p999 < p99 {
		t.Fatalf("latency quantiles not ordered: p50=%.2f p99=%.2f p999=%.2f\n%s", p50, p99, p999, table)
	}
	if table.Metrics["overload_shed_pct"] <= 0 {
		t.Fatalf("overload phase did not shed: %v\n%s", table.Metrics, table)
	}
}
