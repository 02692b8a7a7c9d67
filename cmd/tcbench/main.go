// Command tcbench regenerates the evaluation suite defined in DESIGN.md: one
// table per experiment (E1–E18) plus the Figure 1 architecture walk-through.
//
//	tcbench -experiment all                  # run everything
//	tcbench -experiment e4                   # one experiment
//	tcbench -run e15                         # filter flag: just the availability drill
//	tcbench -run e14                         # fleet-scale tail latency at the front door
//	tcbench -run e17                         # the Byzantine-provider drill
//	tcbench -run e18                         # the durable read fast path
//	tcbench -run e4,e9,e10,e11,e12,e13,e14,e15,e16,e17,e18 -quick   # CI-sized configurations
//	tcbench -run e14 -quick -json -out BENCH_E14.json
//	tcbench -run e17 -quick -json -out BENCH_E17.json
//	tcbench -gate ci/bench_baseline.json -in BENCH_E15.json
//	tcbench -gate ci/bench_baseline.json -in BENCH_E13.json,BENCH_E17.json
//	tcbench -experiment fig1 -out report.txt
//
// The -json flag emits the same tables machine-readably, including each
// experiment's headline Metrics; CI and humans consume the same output path.
// The -gate mode compares previously emitted JSON reports (-in accepts a
// comma-separated list, merged) against a committed baseline and exits
// non-zero on regression — the bench-trend gate CI runs on every pull
// request. The baseline carries two kinds of bounds: "metrics" are floors for
// higher-is-better numbers (throughput), "ceilings" are upper
// bounds for lower-is-better numbers (durability overhead, recovery time) —
// each in a tolerant flavour for timing-dependent numbers and a strict,
// no-tolerance flavour for deterministic ones (recovery percentages,
// acknowledged-write loss, allocation counts).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"

	"trustedcells/internal/sim"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id (e1..e18, fig1) or 'all'")
		run        = flag.String("run", "", "comma-separated experiment filter (e.g. 'e11' or 'e9,e10,e11'); overrides -experiment")
		out        = flag.String("out", "", "write the report to this file instead of stdout")
		jsonOut    = flag.Bool("json", false, "emit JSON (tables + metrics) instead of rendered text")
		quick      = flag.Bool("quick", false, "CI-sized configurations (headline scale point only)")
		gate       = flag.String("gate", "", "baseline file: compare -json reports (see -in) against committed metric floors/ceilings and fail on regression")
		in         = flag.String("in", "", "with -gate: comma-separated -json report(s) to check, merged (default: run the experiments fresh)")
	)
	flag.Parse()

	if *gate != "" {
		if err := runGate(*gate, *in, *run, *quick); err != nil {
			log.Fatalf("tcbench: %v", err)
		}
		return
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("tcbench: %v", err)
		}
		defer f.Close()
		w = f
	}

	tables, err := runExperiments(*experiment, *run, *quick)
	if err != nil {
		log.Fatalf("tcbench: %v", err)
	}
	if *jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tables); err != nil {
			log.Fatalf("tcbench: encoding JSON: %v", err)
		}
	} else {
		for _, table := range tables {
			if err := table.Render(w); err != nil {
				log.Fatalf("tcbench: rendering %s: %v", table.ID, err)
			}
		}
	}
	if *out != "" {
		fmt.Printf("tcbench: wrote %d experiment(s) to %s\n", len(tables), *out)
	}
}

// runExperiments resolves the selection flags and runs every selected
// experiment, quick-sized when asked.
func runExperiments(experiment, run string, quick bool) ([]*sim.Table, error) {
	ids, err := selectExperiments(experiment, run)
	if err != nil {
		return nil, err
	}
	tables := make([]*sim.Table, 0, len(ids))
	for _, id := range ids {
		var table *sim.Table
		if quick {
			table, err = sim.RunQuick(id)
		} else {
			table, err = sim.Run(id)
		}
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", id, err)
		}
		tables = append(tables, table)
	}
	return tables, nil
}

// selectExperiments resolves the -experiment / -run flags into the list of
// experiment IDs to regenerate. -run wins when both are given, so a single
// experiment can be rendered without running the whole suite.
func selectExperiments(experiment, run string) ([]string, error) {
	known := make(map[string]bool)
	for _, id := range sim.ExperimentIDs() {
		known[id] = true
	}
	pick := func(raw string) ([]string, error) {
		var ids []string
		for _, part := range strings.Split(raw, ",") {
			id := strings.ToLower(strings.TrimSpace(part))
			if id == "" {
				continue
			}
			if !known[id] {
				return nil, fmt.Errorf("unknown experiment %q (have %s)", id, strings.Join(sim.ExperimentIDs(), ", "))
			}
			ids = append(ids, id)
		}
		if len(ids) == 0 {
			return nil, fmt.Errorf("empty experiment filter")
		}
		return ids, nil
	}
	if run != "" {
		return pick(run)
	}
	if strings.ToLower(experiment) == "all" {
		return sim.ExperimentIDs(), nil
	}
	return pick(experiment)
}

// baseline is the committed bench-trend bounds file. Bounds are deliberately
// conservative — they exist to catch order-of-magnitude regressions on shared
// CI runners, not to benchmark the runner. A floored metric fails when it
// drops more than Tolerance below its floor; a ceilinged metric fails when it
// rises more than Tolerance above its ceiling.
type baseline struct {
	// Tolerance is the fraction a metric may cross its bound before the gate
	// fails (0.25 = fail when regressed >25% against the baseline).
	Tolerance float64 `json:"tolerance"`
	// Metrics maps "<experiment>.<metric>" (e.g. "e10.batched_qps") to its
	// floor; these metrics are higher-is-better.
	Metrics map[string]float64 `json:"metrics"`
	// Ceilings maps "<experiment>.<metric>" (e.g. "e13.durable_overhead") to
	// its upper bound; these metrics are lower-is-better.
	Ceilings map[string]float64 `json:"ceilings,omitempty"`
	// StrictMetrics are floors with NO tolerance, for metrics that are
	// deterministic rather than timing-dependent (allocation counts,
	// recovery percentages): any value below the floor fails.
	StrictMetrics map[string]float64 `json:"strict_metrics,omitempty"`
	// StrictCeilings are upper bounds with NO tolerance, for lower-is-better
	// metrics that must be exact (e.g. "e15.acked_loss": 0 — the kill drill
	// may never lose an acknowledged write).
	StrictCeilings map[string]float64 `json:"strict_ceilings,omitempty"`
}

// loadReports reads and merges one or more -json report files (a
// comma-separated -in list), so the gate can check metrics produced by
// separate tcbench invocations — e.g. the main suite and the durability
// suite — in one pass.
func loadReports(inFiles string) ([]*sim.Table, error) {
	var tables []*sim.Table
	for _, file := range strings.Split(inFiles, ",") {
		file = strings.TrimSpace(file)
		if file == "" {
			continue
		}
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		var part []*sim.Table
		if err := json.Unmarshal(data, &part); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", file, err)
		}
		tables = append(tables, part...)
	}
	return tables, nil
}

// runGate loads the baseline and the JSON reports (from -in, or freshly run)
// and fails on any gated metric crossing its bound beyond the tolerance.
func runGate(gateFile, inFiles, run string, quick bool) error {
	raw, err := os.ReadFile(gateFile)
	if err != nil {
		return fmt.Errorf("gate: %w", err)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("gate: parsing %s: %w", gateFile, err)
	}
	if base.Tolerance <= 0 || base.Tolerance >= 1 {
		return fmt.Errorf("gate: %s: tolerance %v out of (0,1)", gateFile, base.Tolerance)
	}

	var tables []*sim.Table
	if inFiles != "" {
		if tables, err = loadReports(inFiles); err != nil {
			return fmt.Errorf("gate: %w", err)
		}
	} else {
		if run == "" {
			run = "e4,e9,e10,e11,e12,e13,e14,e15,e16,e17,e18"
		}
		if tables, err = runExperiments("", run, quick); err != nil {
			return fmt.Errorf("gate: %w", err)
		}
	}
	current := make(map[string]float64)
	for _, t := range tables {
		for name, v := range t.Metrics {
			current[strings.ToLower(t.ID)+"."+name] = v
		}
	}

	failed := 0
	check := func(key, kind string, bound, tolerance float64) {
		got, ok := current[key]
		limit := bound * (1 - tolerance)
		breached := func() bool { return got < limit }
		cmp := "<"
		if strings.HasSuffix(kind, "ceiling") {
			limit = bound * (1 + tolerance)
			breached = func() bool { return got > limit }
			cmp = ">"
		}
		switch {
		case !ok:
			failed++
			fmt.Printf("FAIL %-28s missing from report (%s %.2f)\n", key, kind, bound)
		case breached():
			failed++
			fmt.Printf("FAIL %-28s %.2f %s %.2f (%s %.2f ± %.0f%%)\n",
				key, got, cmp, limit, kind, bound, tolerance*100)
		default:
			fmt.Printf("ok   %-28s %.2f (%s %.2f, tolerance %.0f%%)\n",
				key, got, kind, bound, tolerance*100)
		}
	}
	for _, key := range sortedKeys(base.Metrics) {
		check(key, "floor", base.Metrics[key], base.Tolerance)
	}
	for _, key := range sortedKeys(base.Ceilings) {
		check(key, "ceiling", base.Ceilings[key], base.Tolerance)
	}
	for _, key := range sortedKeys(base.StrictMetrics) {
		check(key, "strict floor", base.StrictMetrics[key], 0)
	}
	for _, key := range sortedKeys(base.StrictCeilings) {
		check(key, "strict ceiling", base.StrictCeilings[key], 0)
	}
	total := len(base.Metrics) + len(base.Ceilings) + len(base.StrictMetrics) + len(base.StrictCeilings)
	if failed > 0 {
		return fmt.Errorf("bench-trend gate: %d of %d metric(s) regressed >%.0f%% against %s",
			failed, total, base.Tolerance*100, gateFile)
	}
	fmt.Printf("bench-trend gate: %d metric(s) within tolerance\n", total)
	return nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
