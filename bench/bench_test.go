package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload, traced, at sizes and durations that prove
// only that it runs and that it verifies its own outputs. The workloads run
// side by side: most of what is left at this size is waiting for the disk.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			cfg := &config{
				seed: 11, dir: filepath.Join(dir, "data-"+w.name), results: filepath.Join(dir, "results"), trace: true,
				conns: runtime.GOMAXPROCS(0), plan: planFor(0, true, true), size: smokeSizes,
			}
			res, err := runWorkload(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct %v, %d of %d failed: %v", res.Correct, res.Failed, res.Attempted, res.Failures)
			}
			for _, m := range endToEnd {
				if v, ok := res.EndToEnd[m.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want a positive value", m.Name, v)
				}
			}
			if _, err := os.Stat(filepath.Join(cfg.results, "trace-"+w.name+".json")); err != nil {
				t.Errorf("no trace file: %v", err)
			}
			if res.PerLayer["cloud.replicated.stale_after_drain"] != 0 {
				t.Errorf("stale documents after the drain")
			}
		})
	}
}

// A request that becomes due while the service stalls is late through no
// fault of its own; its latency must still count from its due time.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const stall = 80 * time.Millisecond
	calls := 0
	w := &worker{do: func() (kind, int, error) {
		if calls++; calls == 1 {
			time.Sleep(stall)
		}
		return kindWrite, 1, nil
	}}
	// 100 requests/s, one worker: requests 1..7 come due during the stall.
	tl := runOpen([]*worker{w}, 100, 200*time.Millisecond)
	if tl.attempted != 20 || tl.failed != 0 {
		t.Fatalf("attempted %d, failed %d; want 20, 0", tl.attempted, tl.failed)
	}
	if got := tl.ordered[1]; got < stall-15*time.Millisecond {
		t.Errorf("request due 10 ms into an 80 ms stall has latency %v; want about 70 ms, counted from its due time", got)
	}
	if got := tl.ordered[19]; got > 20*time.Millisecond {
		t.Errorf("request due long after the stall has latency %v; the backlog should have drained", got)
	}
	if late := tl.late.quantile(1); late < stall-15*time.Millisecond {
		t.Errorf("largest generator lateness %v; the stalled worker sent requests late and that must be reported", late)
	}
}

func TestSelfTimes(t *testing.T) {
	us := func(n int64) int64 { return n * 1000 }
	spans := []span{
		// A request that spends 10 us before a 70 us call, inside which a
		// fan-out of three overlapping children covers 20..60 and one
		// straggler outlives the call.
		{ID: "a", Layer: "request", Start: us(0), End: us(100)},
		{ID: "a", Layer: "call", Parent: "request", Start: us(10), End: us(80)},
		{ID: "a", Layer: "member", Parent: "call", Start: us(20), End: us(40)},
		{ID: "a", Layer: "member", Parent: "call", Start: us(30), End: us(60)},
		{ID: "a", Layer: "member", Parent: "call", Start: us(25), End: us(120)},
		// A later request under the same id: its child must not be charged
		// to the first one.
		{ID: "a", Layer: "request", Start: us(200), End: us(230)},
		{ID: "a", Layer: "call", Parent: "request", Start: us(205), End: us(225)},
	}
	self := selfTimes(spans)
	check := func(layer string, q float64, want time.Duration) {
		t.Helper()
		if got := self[layer].quantile(q); got != want {
			t.Errorf("self time of %s at q=%v: %v, want %v", layer, q, got, want)
		}
	}
	check("request", 1, 30*time.Microsecond) // 100 - 70
	check("request", 0, 10*time.Microsecond) // 30 - 20
	check("call", 1, 20*time.Microsecond)    // the second call has no children
	check("call", 0, 10*time.Microsecond)    // the first: 70 - the 60 its members cover before it ends
	check("member", 1, 95*time.Microsecond)  // leaves keep their whole duration
	if n := self["member"].n(); n != 3 {
		t.Errorf("%d member spans, want 3", n)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(docs ...float64) *side {
		s := &side{values: map[string]map[string][]float64{fi: {"docs_per_s": docs}},
			attempted: map[string]int64{fi: 100}, failed: map[string]int64{}}
		return s
	}
	if code := compareSides(mk(100, 101, 99, 100, 100), mk(85, 86, 84, 85, 85)); code != 0 {
		t.Errorf("15 %% lower under a 25 %% bound must not be worse")
	}
	if code := compareSides(mk(100, 101, 99, 100, 100), mk(60, 61, 59, 60, 60)); code != 1 {
		t.Errorf("40 %% lower under a 25 %% bound must be worse")
	}
	if code := compareSides(mk(100, 160, 40, 100, 100), mk(60, 61, 59, 60, 60)); code != 0 {
		t.Errorf("a side whose own spread exceeds the bound is unresolved, not worse")
	}
	failing := mk(100, 100, 100)
	failing.failed[fi] = 1
	if code := compareSides(mk(100, 100, 100), failing); code != 1 {
		t.Errorf("a larger failed share must fail the comparison")
	}
}

// The benchmark must not lean on what the roadmap is about to delete, or on
// another harness's generator and histogram.
func TestSourceAvoidsDenylist(t *testing.T) {
	deny := []string{
		"internal/" + "sim", `"trusted` + `cells"`, "cloud.New" + "Server", "cloud.Di" + "al(", "cloud.New" + "Redialer",
		"cloud.Cl" + "ient", "Blobs" + "Via(", "Blobs" + "IfVia(", "Seal" + "Legacy", "Open" + "Legacy", "SetFast" + "Path",
		"Search" + "Scan", "Sync" + "Full", "Push" + "Full", "Pull" + "Full", "RunSeriesAggregate" + "Sequential",
		"Latency" + "Recorder", "SetAttest" + "ation",
	}
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no sources: %v", err)
	}
	ctors := []string{"cloud.New", "cloud.Open", "cloud.Dial", "core.New(", "query.New", "syncpkg.New", "audit.New"}
	stats := []string{"Stats()", "IndexStats()", "RecoveryStats()"}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src := string(b)
		for _, d := range deny {
			if strings.Contains(src, d) {
				t.Errorf("%s mentions %q", f, d)
			}
		}
		for _, c := range ctors {
			if f != "stack.go" && strings.Contains(src, c) {
				t.Errorf("%s calls a constructor (%s); constructors belong in stack.go", f, c)
			}
		}
		for _, s := range stats {
			if f != "counters.go" && f != "null.go" && f != "trace.go" && strings.Contains(src, "."+s) {
				t.Errorf("%s reads a stats struct (%s); those reads belong in counters.go", f, s)
			}
		}
	}
}

// BENCHMARK.json and the registry in metrics.go must describe the same
// benchmark.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, spec.Workloads[i].Name, w.name)
		}
		if n := len(spec.Workloads[i].Why); n == 0 || n > 200 {
			t.Errorf("workload %s: why has %d characters", w.name, n)
		}
	}
	same := func(kind string, got, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in metrics.go", len(got), kind, len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, metrics.go has %+v", kind, i, g, w)
			}
		}
	}
	same("end-to-end", spec.EndToEnd, endToEnd)
	same("per-layer", spec.PerLayer, perLayer)
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
}
