package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"trustedcells/internal/cloud"
	"trustedcells/internal/commons"
	"trustedcells/internal/crypto"
	"trustedcells/internal/timeseries"
)

// ---------------------------------------------------------------------------
// E16 — distributed shared commons: scatter/gather aggregate queries
// ---------------------------------------------------------------------------

// E16Config parameterises the fleet-wide commons query experiment: a census
// coordinator scatters a sealed query spec into every cell's mailbox, cells
// answer with additive secret shares, and a three-member aggregator
// committee produces the sum no party ever saw in the clear. Per fleet size
// a healthy run measures latency and bytes/cell; at the headline size a
// straggler drill kills 10% of the fleet and checks the deadline still
// releases an honest aggregate, and a dropping-provider drill checks a lossy
// cloud only reduces coverage, never corrupts the sum.
type E16Config struct {
	// FleetSizes are the responder populations of the healthy sweep.
	FleetSizes []int
	// Aggregators is the committee size the shares are split across.
	Aggregators int
	// K is the k-anonymity release threshold of the query spec.
	K int
	// Epsilon is the differential-privacy budget per released query.
	Epsilon float64
	// MaxContribution clamps per-cell values (the DP sensitivity).
	MaxContribution uint64
	// Deadline is the healthy-run response window (generous: the gather
	// exits early once every cell answered).
	Deadline time.Duration
	// DrillDeadline is the straggler drill's response window, which must
	// actually expire: the drill's logical clock passes it once every alive
	// cell has answered.
	DrillDeadline time.Duration
	// DeadFraction is the share of the fleet that never polls its mailbox
	// in the straggler drill.
	DeadFraction float64
	// DropRate is the dropping provider's per-message loss probability.
	DropRate float64
	// Workers bounds responder-pump concurrency; 0 picks NumCPU.
	Workers int
	// Seed drives the adversary and the release-noise source.
	Seed int64
}

// DefaultE16Config sweeps fleets of 1k, 10k and 100k cells.
func DefaultE16Config() E16Config {
	return E16Config{
		FleetSizes:      []int{1_000, 10_000, 100_000},
		Aggregators:     3,
		K:               10,
		Epsilon:         1.0,
		MaxContribution: 100_000,
		Deadline:        60 * time.Second,
		DrillDeadline:   300 * time.Millisecond,
		DeadFraction:    0.10,
		DropRate:        0.25,
		Seed:            16,
	}
}

// e16Value is cell i's deterministic contribution (a daily consumption in
// watt-hours), so every drill can recompute the exact expected sum.
func e16Value(i int) uint64 { return uint64(50 + (i*37)%450) }

// e16CellID names cell i with a fixed width so wire sizes are deterministic.
func e16CellID(i int) string { return fmt.Sprintf("c%06d", i) }

// e16Run is the outcome of one query run plus its phase timings.
type e16Run struct {
	Res       *commons.Result
	ScatterMS float64
	RespondMS float64
	GatherMS  float64
}

// e16Clock is a drill's one logical clock: the cloud stamps messages with it
// and the coordinator checks its deadline against it. It stands still until
// the drill moves it, so whether a response beats the deadline is decided by
// the drill, not by how the scheduler happened to run the fleet.
type e16Clock struct{ unixNano atomic.Int64 }

func newE16Clock() *e16Clock {
	c := &e16Clock{}
	c.unixNano.Store(simStart.UnixNano())
	return c
}

// Now is the clock's current time.
func (c *e16Clock) Now() time.Time { return time.Unix(0, c.unixNano.Load()) }

// Advance moves the clock forward by d.
func (c *e16Clock) Advance(d time.Duration) { c.unixNano.Add(int64(d)) }

// e16Query runs one full scatter/respond/gather cycle over n responders on
// svc. alive(i) selects which cells poll their mailbox; nil means all. clock,
// when non-nil, is the coordinator's clock and must be svc's too: it is
// advanced past the deadline once every alive cell has answered, so exactly
// the cells that never polled miss it. nil runs on the wall clock.
func e16Query(cfg E16Config, svc cloud.Service, n int, queryID string, deadline time.Duration, alive func(int) bool, clock *e16Clock) (*e16Run, error) {
	comm := commons.NewCommunity("e16", crypto.DeriveKey(crypto.SymmetricKey{16}, "commons", "e16"))
	responders := make([]*commons.Responder, n)
	cells := make([]string, n)
	for i := range responders {
		v := e16Value(i)
		cells[i] = e16CellID(i)
		responders[i] = commons.NewResponder(cells[i], comm, svc,
			func(*commons.Spec) (uint64, bool, error) { return v, true, nil })
	}
	aggIDs := make([]string, cfg.Aggregators)
	aggs := make([]*commons.Aggregator, cfg.Aggregators)
	for i := range aggs {
		aggIDs[i] = fmt.Sprintf("agg-%d", i)
		aggs[i] = commons.NewAggregator(aggIDs[i], comm, svc)
	}
	var now func() time.Time
	if clock != nil {
		now = clock.Now
	}
	co, err := commons.NewCoordinator(commons.CoordinatorConfig{
		ID:        "census",
		Community: comm,
		Cloud:     svc,
		Clock:     now,
		Rand:      rand.New(rand.NewSource(cfg.Seed)),
		Workers:   cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	spec := commons.Spec{
		ID:              queryID,
		Filter:          commons.Filter{Type: "power-series"},
		Granularity:     timeseries.GranularityDay,
		Kind:            timeseries.AggregateSum,
		K:               cfg.K,
		Epsilon:         cfg.Epsilon,
		MaxContribution: cfg.MaxContribution,
		Deadline:        deadline,
		Aggregators:     aggIDs,
	}

	start := time.Now()
	p, err := co.Scatter(spec, cells)
	if err != nil {
		return nil, err
	}
	scatterDone := time.Now()

	// Alive cells drain their mailboxes across a worker pool — the batched
	// delivery path a real fleet's gateways would follow.
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	var wg sync.WaitGroup
	next := make(chan int, workers)
	var pollErr error
	var errOnce sync.Once
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if _, err := responders[i].Poll(4); err != nil {
					errOnce.Do(func() { pollErr = err })
				}
			}
		}()
	}
	for i := range responders {
		if alive == nil || alive(i) {
			next <- i
		}
	}
	close(next)
	wg.Wait()
	if pollErr != nil {
		return nil, pollErr
	}
	if clock != nil {
		clock.Advance(deadline + time.Nanosecond)
	}
	respondDone := time.Now()

	res, err := co.Gather(p, aggs)
	if err != nil {
		return nil, err
	}
	return &e16Run{
		Res:       res,
		ScatterMS: float64(scatterDone.Sub(start).Microseconds()) / 1e3,
		RespondMS: float64(respondDone.Sub(scatterDone).Microseconds()) / 1e3,
		GatherMS:  float64(time.Since(respondDone).Microseconds()) / 1e3,
	}, nil
}

// e16ExpectedSum recomputes the exact sum the contributors should produce;
// a release that disagrees means the protocol corrupted the aggregate.
func e16ExpectedSum(contributors []string) (uint64, error) {
	var want uint64
	for _, id := range contributors {
		idx, err := strconv.Atoi(id[1:])
		if err != nil {
			return 0, fmt.Errorf("sim: bad contributor id %q: %v", id, err)
		}
		want += e16Value(idx)
	}
	return want, nil
}

// RunE16 measures the distributed commons query plane: latency and bytes per
// cell across fleet sizes, deadline behaviour under dead cells, and sum
// integrity under a dropping provider.
func RunE16(cfg E16Config) (*Table, error) {
	table := &Table{
		ID: "E16",
		Title: fmt.Sprintf("Distributed commons queries: scatter/gather over cell mailboxes (%d aggregators, k=%d, eps=%.1f)",
			cfg.Aggregators, cfg.K, cfg.Epsilon),
		Headers: []string{"cells", "drill", "responded", "coverage %", "released", "scatter ms", "respond ms", "gather ms", "bytes/cell", "cells/s", "sum exact"},
		Notes: []string{
			"one query = a sealed spec into every cell's mailbox, additive secret shares back (one per aggregator), committee intersection, then k-anonymity + Laplace noise on the release (commons/distributed.go)",
			"coverage % is responded/total; 'sum exact' recomputes the expected sum over the actual contributors — any mismatch counts as a corrupted release",
			"straggler drill: 10% of cells never poll; the deadline fires and the aggregate still releases with honest (responded, total, suppressed) counts",
			"dropping provider: every mailbox send is lost with the configured probability; committee traffic retries through it, cell losses only shrink coverage",
		},
	}
	corrupted := 0
	headline := headlineScale(cfg.FleetSizes)

	addRow := func(n int, drill string, run *e16Run) error {
		res := run.Res
		want, err := e16ExpectedSum(res.Contributors)
		if err != nil {
			return err
		}
		exact := res.Sum == want
		if !exact {
			corrupted++
		}
		coverage := 100 * float64(res.Responded) / float64(res.Total)
		total := run.ScatterMS + run.RespondMS + run.GatherMS
		cellsPerSec := float64(n) / (total / 1e3)
		table.AddRow(
			fmt.Sprintf("%d", n), drill,
			fmt.Sprintf("%d/%d", res.Responded, res.Total),
			fmt.Sprintf("%.1f", coverage),
			fmt.Sprintf("%v", res.Released),
			fmt.Sprintf("%.1f", run.ScatterMS),
			fmt.Sprintf("%.1f", run.RespondMS),
			fmt.Sprintf("%.1f", run.GatherMS),
			fmt.Sprintf("%.0f", float64(res.BytesScattered+res.BytesGathered)/float64(n)),
			fmt.Sprintf("%.0f", cellsPerSec),
			fmt.Sprintf("%v", exact),
		)
		if n == headline && drill == "healthy" {
			table.SetMetric("bytes_per_cell", float64(res.BytesScattered+res.BytesGathered)/float64(n))
			table.SetMetric("commons_cells_per_sec", cellsPerSec)
		}
		return nil
	}

	for _, n := range cfg.FleetSizes {
		run, err := e16Query(cfg, cloud.NewMemory(), n, fmt.Sprintf("census-%d", n), cfg.Deadline, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("healthy run at %d cells: %w", n, err)
		}
		if run.Res.Responded != n {
			return nil, fmt.Errorf("healthy run at %d cells: responded %d", n, run.Res.Responded)
		}
		if err := addRow(n, "healthy", run); err != nil {
			return nil, err
		}
	}

	// Straggler drill: a deterministic 10% of the fleet is dead, the
	// deadline fires, and the release must still clear k with honest
	// accounting. The cloud and the coordinator share one logical clock, so
	// the deadline passes only after every alive cell has answered.
	deadEvery := int(1 / cfg.DeadFraction)
	clock := newE16Clock()
	drillCloud := cloud.NewMemory()
	drillCloud.SetClock(clock.Now)
	drill, err := e16Query(cfg, drillCloud, headline, "census-straggler", cfg.DrillDeadline,
		func(i int) bool { return i%deadEvery != deadEvery-1 }, clock)
	if err != nil {
		return nil, fmt.Errorf("straggler drill: %w", err)
	}
	if err := addRow(headline, "straggler (10% dead)", drill); err != nil {
		return nil, err
	}
	if !drill.Res.Released {
		return nil, fmt.Errorf("straggler drill: aggregate not released at %d/%d responders",
			drill.Res.Responded, drill.Res.Total)
	}
	table.SetMetric("responded_pct", 100*float64(drill.Res.Responded)/float64(drill.Res.Total))

	// Adversary drill: a dropping provider loses mailbox messages; the
	// release may cover fewer cells but must equal the exact sum of exactly
	// the cells it claims covered.
	adv := cloud.NewAdversary(cloud.NewMemory(), cloud.AdversaryConfig{
		Mode: cloud.Dropping, DropRate: cfg.DropRate, Seed: cfg.Seed,
	})
	advRun, err := e16Query(cfg, adv, headline, "census-dropping", 2*time.Second, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("dropping-provider drill: %w", err)
	}
	if err := addRow(headline, fmt.Sprintf("dropping provider (%.0f%%)", 100*cfg.DropRate), advRun); err != nil {
		return nil, err
	}
	if advRun.Res.Responded >= advRun.Res.Total {
		return nil, fmt.Errorf("dropping-provider drill: no coverage loss at drop rate %.2f", cfg.DropRate)
	}
	table.SetMetric("corrupted", float64(corrupted))
	table.Notes = append(table.Notes, fmt.Sprintf(
		"corrupted releases across all runs: %d; straggler release at %.1f%% coverage; dropping provider covered %d/%d cells",
		corrupted, 100*float64(drill.Res.Responded)/float64(drill.Res.Total),
		advRun.Res.Responded, advRun.Res.Total))
	return table, nil
}
