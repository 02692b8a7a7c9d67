package main

import (
	"encoding/json"
	"fmt"
	"time"
)

// metric describes one reported number. BENCHMARK.json carries name, unit,
// better and (end to end) bound; moves says, for a per-layer metric, which
// end-to-end metric it should move on which workload, and is printed by
// -list into bench/README.md.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	moves  string
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd is what a user of the system sees. Every workload reports every
// one of them; the split by operation is in the per-layer list under "op.".
// The bounds of the timed metrics are as wide as the contract allows because
// the sandbox's processors are shared: ten seeds spread 3–5 % on a quiet host
// and 10–18 % on a busy one (bench/README.md, "Run-to-run spread").
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "docs_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "cpu_ms_per_kdoc", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "stored_bytes_per_user_byte", Unit: "B/B", Better: lower, Bound: 0.05},
}

const (
	fi = "frontdoor_ingest"
	fr = "frontdoor_read"
	rm = "replicated_mixed"
	cv = "cell_vault"
)

var perLayer = []metric{
	{Name: "load.knee_docs_per_s", Unit: "1/s", Better: higher, moves: "context for docs_per_s @ frontdoor_*, replicated_mixed"},
	{Name: "load.p99_ms", Unit: "ms", Better: lower, moves: "tail of p50_ms @ frontdoor_*, replicated_mixed"},
	{Name: "load.p999_ms", Unit: "ms", Better: lower, moves: "tail of p50_ms @ frontdoor_*, replicated_mixed"},
	{Name: "load.lateness_p99_ms", Unit: "ms", Better: lower, moves: "none: the generator's own delay"},
	{Name: "load.shed_pct", Unit: "%", Better: lower, moves: "failed share @ frontdoor_*"},

	{Name: "op.write_docs_per_s", Unit: "1/s", Better: higher, moves: "write share of docs_per_s @ " + fi + ", " + rm + ", " + cv},
	{Name: "op.read_docs_per_s", Unit: "1/s", Better: higher, moves: "read share of docs_per_s @ " + fr + ", " + rm + ", " + cv},
	{Name: "op.write_p50_ms", Unit: "ms", Better: lower, moves: "write share of p50_ms @ " + fi + ", " + rm + ", " + cv},
	{Name: "op.read_p50_ms", Unit: "ms", Better: lower, moves: "read share of p50_ms @ " + fr + ", " + rm + ", " + cv},
	{Name: "op.degraded_write_docs_per_s", Unit: "1/s", Better: higher, moves: "docs_per_s with a member down @ " + rm},
	{Name: "op.query_per_s", Unit: "1/s", Better: higher, moves: "query share of p50_ms @ " + cv},
	{Name: "op.query_p50_ms", Unit: "ms", Better: lower, moves: "query share of p50_ms @ " + cv},
	{Name: "op.sync_round_p50_ms", Unit: "ms", Better: lower, moves: "sync share of p50_ms @ " + cv},
	{Name: "op.sync_bytes_per_change", Unit: "B", Better: lower, moves: "sealed bytes moved per changed document @ " + cv},

	{Name: "crypto.seal_us_per_doc", Unit: "us", Better: lower, moves: "docs_per_s, cpu_ms_per_kdoc @ " + cv + " (large share), " + fi + " (small share)"},
	{Name: "crypto.open_us_per_doc", Unit: "us", Better: lower, moves: "docs_per_s, cpu_ms_per_kdoc @ " + cv + " (large share), " + fr + " (small share)"},
	{Name: "crypto.mallocs_per_seal", Unit: "count", Better: lower, moves: "cpu_ms_per_kdoc @ " + cv + ", " + fi},

	{Name: "cloud.frame.self_us_per_req", Unit: "us", Better: lower, moves: "p50_ms, docs_per_s, cpu_ms_per_kdoc @ frontdoor_*; no change @ " + rm + ", " + cv},
	{Name: "cloud.frame.null_rtt_us", Unit: "us", Better: lower, moves: "p50_ms @ " + fi},
	{Name: "cloud.frame.null_rtt_read_us", Unit: "us", Better: lower, moves: "p50_ms @ " + fr},
	{Name: "cloud.frame.wire_bytes_per_doc", Unit: "B", Better: lower, moves: "cpu_ms_per_kdoc @ frontdoor_*"},
	{Name: "cloud.frame.mallocs_per_req", Unit: "count", Better: lower, moves: "cpu_ms_per_kdoc, docs_per_s @ frontdoor_*"},
	{Name: "cloud.tenant.null_us_per_req", Unit: "us", Better: lower, moves: "p50_ms @ frontdoor_* (small share)"},
	{Name: "cloud.admission.self_us_per_req", Unit: "us", Better: lower, moves: "p50_ms @ " + fi + " (small share)"},
	{Name: "cloud.admission.shed_units", Unit: "count", Better: lower, moves: "failed share @ " + fi},

	{Name: "cloud.durable.put_us_per_req", Unit: "us", Better: lower, moves: "p50_ms, docs_per_s @ " + fi + ", " + rm},
	{Name: "cloud.durable.put_nosync_us_per_req", Unit: "us", Better: lower, moves: "p50_ms @ " + fi + ": the put without the barrier"},
	{Name: "cloud.durable.sync_wait_us_per_req", Unit: "us", Better: lower, moves: "p50_ms @ " + fi + ", " + rm + ": the barrier and the wait for the group commit"},
	{Name: "cloud.durable.get_us_per_req", Unit: "us", Better: lower, moves: "p50_ms, docs_per_s @ " + fr},
	{Name: "cloud.durable.open_ms", Unit: "ms", Better: lower, moves: "setup_s @ all disk workloads"},
	{Name: "cloud.durable.recovery_ms", Unit: "ms", Better: lower, moves: "none end to end yet: restart time @ " + fi},
	{Name: "cloud.durable.replayed_ops", Unit: "count", Better: lower, moves: "cloud.durable.recovery_ms @ " + fi},

	{Name: "storage.flushes", Unit: "count", Better: lower, moves: "load.p99_ms, stored_bytes_per_user_byte @ " + fi},
	{Name: "storage.compactions", Unit: "count", Better: lower, moves: "load.p99_ms, cpu_ms_per_kdoc @ " + fi},
	{Name: "storage.bloom_skip_pct", Unit: "%", Better: higher, moves: "p50_ms, docs_per_s @ " + fr},
	{Name: "storage.cache_hit_pct", Unit: "%", Better: higher, moves: "p50_ms, docs_per_s @ " + fr},
	{Name: "storage.run_reads_per_get", Unit: "count", Better: lower, moves: "p50_ms, docs_per_s @ " + fr},
	{Name: "storage.runs_final", Unit: "count", Better: lower, moves: "stored_bytes_per_user_byte @ disk workloads"},

	{Name: "cloud.replicated.self_us_per_req", Unit: "us", Better: lower, moves: "p50_ms, docs_per_s @ " + rm + " only"},
	{Name: "cloud.replicated.member_us_per_req", Unit: "us", Better: lower, moves: "p50_ms @ " + rm + " only"},
	{Name: "cloud.replicated.hints_queued", Unit: "count", Better: lower, moves: "op.degraded_write_docs_per_s @ " + rm},
	{Name: "cloud.replicated.hints_drained", Unit: "count", Better: higher, moves: "cloud.replicated.drain_s @ " + rm},
	{Name: "cloud.replicated.drain_s", Unit: "s", Better: lower, moves: "none end to end yet: time to converge @ " + rm},
	{Name: "cloud.replicated.read_repairs", Unit: "count", Better: lower, moves: "op.read_p50_ms @ " + rm},
	{Name: "cloud.replicated.quorum_failures", Unit: "count", Better: lower, moves: "failed share @ " + rm},
	{Name: "cloud.replicated.stale_after_drain", Unit: "count", Better: lower, moves: "correctness @ " + rm + ": must be 0"},

	{Name: "core.ingest_self_us_per_doc", Unit: "us", Better: lower, moves: "op.write_docs_per_s, docs_per_s @ " + cv + " only"},
	{Name: "core.read_self_us_per_doc", Unit: "us", Better: lower, moves: "op.read_docs_per_s, docs_per_s @ " + cv + " only"},
	{Name: "core.cache_hit_pct", Unit: "%", Better: higher, moves: "op.read_docs_per_s @ " + cv},
	{Name: "datamodel.search_us", Unit: "us", Better: lower, moves: "op.query_p50_ms @ " + cv},
	{Name: "datamodel.scanned_per_result", Unit: "count", Better: lower, moves: "op.query_p50_ms @ " + cv},
	{Name: "policy.decide_ns", Unit: "ns", Better: lower, moves: "op.read_docs_per_s @ " + cv},
	{Name: "audit.append_ns", Unit: "ns", Better: lower, moves: "op.read_docs_per_s, op.write_docs_per_s @ " + cv},
	{Name: "query.self_us_per_query", Unit: "us", Better: lower, moves: "op.query_per_s, op.query_p50_ms @ " + cv},
	{Name: "sync.push_ms", Unit: "ms", Better: lower, moves: "op.sync_round_p50_ms @ " + cv},
	{Name: "sync.pull_ms", Unit: "ms", Better: lower, moves: "op.sync_round_p50_ms @ " + cv},
	{Name: "sync.shard_blobs_per_round", Unit: "count", Better: lower, moves: "op.sync_bytes_per_change @ " + cv},

	{Name: "proc.alloc_bytes_per_doc", Unit: "B", Better: lower, moves: "cpu_ms_per_kdoc @ all"},
	{Name: "proc.mallocs_per_doc", Unit: "count", Better: lower, moves: "cpu_ms_per_kdoc @ all"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: lower, moves: "load.p99_ms @ all"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: lower, moves: "none end to end: memory @ all"},
	{Name: "trace.overhead_pct", Unit: "%", Better: lower, moves: "none: cost of the span wrappers on p50_ms"},
	{Name: "trace.ledger_sum_pct", Unit: "%", Better: higher, moves: "none: layer self times along the blocking path over traced p50_ms"},
}

func findMetric(list []metric, name string) *metric {
	for i := range list {
		if list[i].Name == name {
			return &list[i]
		}
	}
	return nil
}

// result is what one workload run produced.
type result struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"ops_attempted"`
	Failed    int64              `json:"ops_failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
	Notes     []string           `json:"notes,omitempty"`
	Failures  []string           `json:"failures,omitempty"`
	Ladder    []rung             `json:"ladder,omitempty"`
	Ledger    []ledgerRow        `json:"ledger,omitempty"`
	WallS     float64            `json:"wall_s"`
}

// ledgerRow is one layer's self time along the path a request blocks on.
type ledgerRow struct {
	Layer string  `json:"layer"`
	P50us float64 `json:"self_p50_us"`
}

func newResult(workload string) *result {
	return &result{Workload: workload, EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}}
}

func (r *result) e2e(name string, v float64) {
	if findMetric(endToEnd, name) == nil {
		panic("bench: unregistered end-to-end metric " + name)
	}
	r.EndToEnd[name] = v
}

func (r *result) layer(name string, v float64) {
	if findMetric(perLayer, name) == nil {
		panic("bench: unregistered per-layer metric " + name)
	}
	r.PerLayer[name] = v
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail records why the run is not correct; only the first few are kept.
func (r *result) fail(format string, args ...any) {
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// count adds a phase's requests to the run's attempted and failed totals.
func (r *result) count(t *tally) {
	r.Attempted += t.attempted
	r.Failed += t.failed
	if t.firstErr != nil {
		r.fail("request failed: %v", t.firstErr)
	}
}

// opSplit reports the per-operation split of the end-to-end numbers.
func (r *result) opSplit(capT, refT *tally) {
	if capT.docs[kindWrite] > 0 {
		r.layer("op.write_docs_per_s", capT.docsPerSec(kindWrite))
		r.layer("op.write_p50_ms", refT.lat[kindWrite].ms(0.5))
	}
	if capT.docs[kindRead] > 0 {
		r.layer("op.read_docs_per_s", capT.docsPerSec(kindRead))
		r.layer("op.read_p50_ms", refT.lat[kindRead].ms(0.5))
	}
}

// loadTail reports the tail of the reference load. A percentile is quoted
// only when at least ten samples lie beyond it.
func (r *result) loadTail(refT *tally) {
	for _, q := range []struct {
		name string
		q    float64
	}{{"load.p99_ms", 0.99}, {"load.p999_ms", 0.999}} {
		if refT.all.supports(q.q) {
			r.layer(q.name, refT.all.ms(q.q))
		} else {
			r.note("%s not quoted: %d samples leave fewer than ten beyond it", q.name, refT.all.n())
		}
	}
	r.layer("load.lateness_p99_ms", refT.late.ms(0.99))
	r.layer("load.shed_pct", pct(refT.shed, refT.attempted))
}

// cost reports what the closed loop's documents cost the process: CPU as
// the median over the loop's slices, the allocator's counters over all of it.
func (r *result) cost(cpuPerKdoc float64, used procSnap, docs int64) {
	r.e2e("cpu_ms_per_kdoc", cpuPerKdoc)
	r.layer("proc.alloc_bytes_per_doc", perUnit(float64(used.allocBytes), docs))
	r.layer("proc.mallocs_per_doc", perUnit(float64(used.mallocs), docs))
	r.layer("proc.gc_pause_ms", ms(used.gcPause))
}

// storage reports the durable stores' engine activity over the measured
// phases.
func (r *result) storage(st storeCounters) {
	r.layer("storage.flushes", float64(st.flushes))
	r.layer("storage.compactions", float64(st.compactions))
	r.layer("storage.bloom_skip_pct", st.bloomSkipPct())
	r.layer("storage.cache_hit_pct", st.cacheHitPct())
	r.layer("storage.run_reads_per_get", perUnit(float64(st.runReads), st.gets))
}

// ladder climbs the rate ladder and reports the knee.
func (r *result) ladder(ws []*worker, ref float64, per time.Duration) {
	rungs, knee := runLadder(ws, ref, batchDocs, per)
	for _, rg := range rungs {
		r.Attempted += int64(rg.Samples) + rg.Failed
		r.Failed += rg.Failed
	}
	r.Ladder = rungs
	r.layer("load.knee_docs_per_s", knee)
}

func (r *result) finish() {
	r.Correct = r.Failed == 0 && len(r.Failures) == 0
}

// print writes every metric the run produced, by name, with its unit.
func (r *result) print(trace bool) {
	fmt.Printf("== %s: ops_attempted %d, ops_failed %d, correct %v (%.1f s)\n",
		r.Workload, r.Attempted, r.Failed, r.Correct, r.WallS)
	for _, m := range endToEnd {
		if v, ok := r.EndToEnd[m.Name]; ok {
			fmt.Printf("%-18s %-36s %14.4f %s\n", r.Workload, m.Name, v, m.Unit)
		}
	}
	if trace {
		for _, m := range perLayer {
			if v, ok := r.PerLayer[m.Name]; ok {
				fmt.Printf("%-18s %-36s %14.4f %s\n", r.Workload, m.Name, v, m.Unit)
			}
		}
		for _, rg := range r.Ladder {
			fmt.Printf("%-18s ladder %6.0f req/s (%7.0f docs/s): p50 %.3f ms, p99 %.3f ms, n=%d, failed %d, quarters %.3f→%.3f ms, sustained %v\n",
				r.Workload, rg.Rate, rg.DocsPerS, rg.P50ms, rg.P99ms, rg.Samples, rg.Failed, rg.FirstQms, rg.LastQms, rg.Sustained)
		}
		for _, row := range r.Ledger {
			fmt.Printf("%-18s ledger %-22s %10.1f us\n", r.Workload, row.Layer, row.P50us)
		}
	}
	for _, n := range r.Notes {
		fmt.Printf("%-18s note: %s\n", r.Workload, n)
	}
	for _, f := range r.Failures {
		fmt.Printf("%-18s FAILURE: %s\n", r.Workload, f)
	}
}

// printSpec prints BENCHMARK.json: the contract the driver runs the
// benchmark under, generated from the same tables the benchmark reports
// from, so the two cannot drift apart.
func printSpec() {
	type entry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerMetric struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []entry       `json:"workloads"`
		EndToEnd   []metric      `json:"end_to_end"`
		PerLayer   []layerMetric `json:"per_layer"`
	}{
		Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds,
		EndToEnd: endToEnd,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, entry{w.name, w.why})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layerMetric{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		panic(err)
	}
	fmt.Println(string(b))
}

// listMetrics prints the metric → layer → workload table as markdown.
func listMetrics() {
	fmt.Println("| metric | unit | better | moves |")
	fmt.Println("|---|---|---|---|")
	for _, m := range endToEnd {
		fmt.Printf("| `%s` | %s | %s | end to end, bound %.0f %% |\n", m.Name, m.Unit, m.Better, 100*m.Bound)
	}
	for _, m := range perLayer {
		fmt.Printf("| `%s` | %s | %s | %s |\n", m.Name, m.Unit, m.Better, m.moves)
	}
}
