// Command bench is the repository's benchmark: four workloads over the
// public functions of the layers the earlier changes built, end-to-end
// metrics from an untraced run, per-layer metrics from a traced one, and a
// check of its own outputs. bench/README.md says why each workload and
// metric is there; BENCHMARK.json is the contract the driver runs it under.
//
//	bash bench/run.sh                          all four workloads, untraced
//	bash bench/run.sh -trace 1                 ... and the traced phases
//	bash bench/run.sh -workload cell_vault     one workload; the last line is the driver's JSON
//	bash bench/run.sh -compare a.json b.json   two reports, metric by metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name    string
	refRate float64 // requests per second of the open-loop reference load; 0 for a closed loop
	run     func(cfg *config) (*result, error)
	why     string // one line, for BENCHMARK.json; bench/README.md has the long form
}

var workloads = []workload{
	{fi, 600, func(cfg *config) (*result, error) { return runFrontdoor(cfg, fi, false) },
		"100% writes of 16x256B sealed docs from a 100k-cell zipf fleet through tccloud's framed stack, ref 600 req/s: per-request cost rules; journal, fsync, frame codec, admission work; read path idle"},
	{fr, 600, func(cfg *config) (*result, error) { return runFrontdoor(cfg, fr, true) },
		"100% batched reads of 16x1KiB docs, same stack, 64MiB preloaded = 4x the block cache, half zipf half uniform, ref 600 req/s: blooms, cache, run reads and big responses work; journal idle"},
	{rm, 200, runReplicatedMixed,
		"75% write batches, 25% recent reads, no wire, into Replicated W=2/R=2 over three durable members, ref 200 req/s: fan-out, quorum and 3x write amplification work, with writes beside reads"},
	{cv, 0, runCellVault,
		"closed loop, one cell per core over an in-memory cloud: IngestBatch, gated ReadBatch on a cold twin, series queries, two-device sync: cell-side layers work, cloud layers idle; the control"},
}

// runSeconds is BENCHMARK.json's run_seconds: what the driver passes as
// -seconds. A third of it is the capacity phase, two thirds the reference
// load, which must not drop below 15 s.
const runSeconds = 24

// sizes are the data-set sizes; smoke shrinks them.
type sizes struct {
	fleetCells  int
	readCells   int
	catalogDocs int
	microLoops  int // iterations of a single-call micro measurement
}

var (
	fullSizes  = sizes{fleetCells: fleetCells, readCells: readCells, catalogDocs: catalogDocs, microLoops: 20000}
	smokeSizes = sizes{fleetCells: 2000, readCells: 64, catalogDocs: 256, microLoops: 200}
)

// plan is how long each phase lasts.
type plan struct {
	setups   int           // most times set-up is repeated; the median is reported
	warm     time.Duration // closed-loop warm-up, not counted
	capacity time.Duration // closed loop
	settle   time.Duration // reference load, not counted: lets the flushes and compactions the closed loop queued finish
	ref      time.Duration // open loop at the reference rate
	sub      time.Duration // each cell_vault sub-phase
	// traced runs only
	rung     time.Duration // each rung of the rate ladder
	traced   time.Duration // reference load on the traced stack
	peel     time.Duration // reference load without the journal barrier
	null     time.Duration // frame layer over the null service
	degraded time.Duration // closed loop with one member down
}

// planFor splits the seconds one run may measure over its phases. Zero
// seconds is the stand-alone default of 30 s (capacity 10 s, reference
// 20 s); a traced run spends the same budget on shorter untraced phases
// plus the traced ones.
func planFor(seconds float64, trace, smoke bool) plan {
	if smoke {
		short := 150 * time.Millisecond
		return plan{setups: 1, warm: short / 3, capacity: short, settle: short / 3, ref: short, sub: short,
			rung: short / 3, traced: short, peel: short / 2, null: short / 3, degraded: short / 4}
	}
	if seconds <= 0 {
		seconds = 30
	}
	s := func(share float64) time.Duration { return time.Duration(seconds * share * float64(time.Second)) }
	if !trace {
		return plan{setups: 9, warm: 1500 * time.Millisecond, capacity: s(1. / 3), settle: time.Second, ref: s(2. / 3), sub: s(1. / 4)}
	}
	return plan{setups: 1, warm: time.Second, capacity: s(1. / 8), settle: time.Second, ref: s(1. / 5), sub: s(1. / 8),
		rung: s(1. / 15), traced: s(1. / 5), peel: s(1. / 12), null: s(1. / 12), degraded: s(1. / 24)}
}

// config is one invocation's settings.
type config struct {
	seed    int64
	dir     string // data directory: stores are built under it and removed
	results string // where trace files go
	trace   bool
	conns   int     // framed connections, tenants and, without a wire, driver groups: one per core
	ref     float64 // the running workload's reference rate, requests per second
	plan    plan
	size    sizes
}

func main() {
	var (
		name     = flag.String("workload", "", "run only this workload and end with the driver's one-line JSON result")
		seed     = flag.Int64("seed", 11, "seed of every generator")
		seconds  = flag.Float64("seconds", 0, "seconds one workload measures (0 = 30)")
		trace    = flag.Int("trace", 0, "1 = also run the traced phases and print the per-layer metrics")
		smoke    = flag.Bool("smoke", false, "tiny sizes and phases; proves the workloads run and verify, numbers are meaningless")
		dir      = flag.String("dir", filepath.Join(".bench_build", "data"), "data directory for the stores the workloads build")
		results  = flag.String("results", filepath.Join("bench", "results"), "directory for trace files")
		report   = flag.String("report", "", "write the JSON report to this file")
		runs     = flag.Int("runs", 1, "repeat the whole set this many times into one report")
		compare  = flag.Bool("compare", false, "compare two reports: -compare a.json[,a2.json...] b.json[,...]")
		list     = flag.Bool("list", false, "print the metric table as markdown and exit")
		spec     = flag.Bool("spec", false, "print BENCHMARK.json as the benchmark defines it and exit")
		commitID = flag.String("commit", "", "commit to record in the report (default: ask git)")
		child    = flag.Bool("child", false, "internal: this process is one workload of a run of several")
	)
	flag.Parse()
	switch {
	case *list:
		listMetrics()
		return
	case *spec:
		printSpec()
		return
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two reports")
			os.Exit(2)
		}
		os.Exit(compareReports(flag.Arg(0), flag.Arg(1)))
	}

	cfg := &config{
		seed: *seed, dir: *dir, results: *results, trace: *trace != 0,
		conns: runtime.GOMAXPROCS(0),
		plan:  planFor(*seconds, *trace != 0, *smoke),
		size:  fullSizes,
	}
	if *smoke {
		cfg.size = smokeSizes
	}
	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
	}

	rep := newReport(cfg, *commitID)
	if !*child {
		rep.print()
	}
	ok := true
	for i := 0; i < *runs; i++ {
		for _, w := range selected {
			var res *result
			var err error
			if *name == "" {
				res, err = runInChild(w.name, rep.Host.Commit)
			} else if res, err = runWorkload(cfg, w); err == nil {
				res.print(cfg.trace)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				os.Exit(1)
			}
			rep.Runs = append(rep.Runs, res)
			ok = ok && res.Correct
		}
	}
	if *report != "" {
		if err := rep.write(*report); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
	if *name != "" {
		if !*child {
			printDriverLine(rep.Runs[len(rep.Runs)-1], cfg.trace)
		}
		return
	}
	if !ok {
		os.Exit(1)
	}
}

// runInChild runs one workload in a process of its own, started with this
// process's flags, and returns what it reported. A run of several workloads
// works this way so that none inherits another's heap, collector state or
// resident-set high-water mark: cell_vault leaves the process near 2 GB, and
// proc.peak_rss_mb of whatever ran after it would read that. The child has
// ended when this returns.
func runInChild(workload, commit string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(filepath.Dir(flag.Lookup("dir").Value.String()), fmt.Sprintf("bench-child-%d.json", os.Getpid()))
	defer os.Remove(out)
	args := []string{"-child", "-workload", workload, "-report", out, "-runs", "1", "-commit", commit}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed", "seconds", "trace", "smoke", "dir", "results":
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return nil, err
	}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child process: %w", err)
	}
	rep, err := readReport(out)
	if err != nil {
		return nil, err
	}
	if len(rep.Runs) != 1 {
		return nil, fmt.Errorf("child process reported %d runs", len(rep.Runs))
	}
	return rep.Runs[0], nil
}

// runWorkload runs one workload on an empty data directory and removes what
// it built.
func runWorkload(cfg *config, w workload) (*result, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := os.MkdirAll(cfg.results, 0o755); err != nil {
			return nil, err
		}
	}
	defer os.RemoveAll(cfg.dir)
	cfg.ref = w.refRate
	start := time.Now()
	res, err := w.run(cfg)
	if err != nil {
		return nil, err
	}
	res.WallS = time.Since(start).Seconds()
	res.finish()
	return res, nil
}

// printDriverLine prints the one JSON object the driver reads: every
// end-to-end metric of an untraced run, every per-layer metric of a traced
// one. A per-layer metric the workload has no part in reads 0.
func printDriverLine(res *result, trace bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	list, got := endToEnd, res.EndToEnd
	if trace {
		list, got = perLayer, res.PerLayer
	}
	for _, m := range list {
		metrics[m.Name] = value{got[m.Name], m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
