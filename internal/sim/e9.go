package sim

import (
	"fmt"
	"sync"
	"time"

	"trustedcells/internal/cloud"
	"trustedcells/internal/core"
	"trustedcells/internal/datamodel"
	"trustedcells/internal/tamper"
)

// ---------------------------------------------------------------------------
// E9 — fleet ingest throughput against the shared cloud
// ---------------------------------------------------------------------------

// E9Config parameterises the fleet-throughput experiment.
type E9Config struct {
	// Fleets are the concurrent-cell counts to measure, one pair of rows
	// (sequential and sharded/batched) per count.
	Fleets []int
	// DocsPerCell is how many documents each cell ingests.
	DocsPerCell int
	// PayloadSize is the plaintext size of each document.
	PayloadSize int
	// BatchSize is the IngestBatch chunk of the sharded/batched path.
	BatchSize int
	// Shards is the shard count of the sharded path's cloud store. The
	// sequential baseline always runs against a single-shard store, which
	// reproduces the original one-big-lock Memory.
	Shards int
	// RTT is the simulated network round-trip to the shared provider,
	// charged once per service call (so once per blob on the sequential
	// path, once per batch on the batched path). Zero measures the raw
	// in-process store.
	RTT time.Duration
}

// DefaultE9Config measures fleets of 1→64 cells ingesting 32 one-KiB
// documents each over a 1 ms simulated round-trip.
func DefaultE9Config() E9Config {
	return E9Config{
		Fleets:      []int{1, 4, 16, 64},
		DocsPerCell: 32,
		PayloadSize: 1 << 10,
		BatchSize:   16,
		Shards:      cloud.DefaultShards,
		RTT:         time.Millisecond,
	}
}

// E9Result is the outcome of one fleet measurement, kept structured so the
// Go benchmark can assert on it without re-parsing the rendered table.
type E9Result struct {
	Cells         int
	SequentialOps float64 // ingest ops/sec, per-document Ingest on 1-shard store
	BatchedOps    float64 // ingest ops/sec, IngestBatch on sharded store
	Speedup       float64
	// SequentialCallsPerDoc and BatchedCallsPerDoc are the service calls
	// the fleet made per ingested document on each path: the round trips
	// batching saves, independent of how loaded the host is.
	SequentialCallsPerDoc float64
	BatchedCallsPerDoc    float64
}

// RunE9Fleet measures one fleet size and returns both paths' throughput.
func RunE9Fleet(cfg E9Config, cells int) (E9Result, error) {
	seq, seqCalls, err := runE9Path(cfg, cells, false)
	if err != nil {
		return E9Result{}, err
	}
	bat, batCalls, err := runE9Path(cfg, cells, true)
	if err != nil {
		return E9Result{}, err
	}
	res := E9Result{Cells: cells, SequentialOps: seq, BatchedOps: bat,
		SequentialCallsPerDoc: seqCalls, BatchedCallsPerDoc: batCalls}
	if seq > 0 {
		res.Speedup = bat / seq
	}
	return res, nil
}

// runE9Path builds a fleet of cells against a fresh cloud store and measures
// wall-clock ingest throughput and service calls per document. batched
// selects the IngestBatch + sharded store path; otherwise each cell ingests
// one document per call against the single-shard (historical single-mutex)
// store.
func runE9Path(cfg E9Config, cells int, batched bool) (float64, float64, error) {
	shards := 1
	if batched {
		shards = cfg.Shards
	}
	mem := cloud.NewMemoryShards(shards)
	// Faulty charges the round trip and counts every call that pays it.
	svc := cloud.NewFaulty(mem, cloud.FaultyOptions{Latency: cfg.RTT})

	fleet := make([]*core.Cell, cells)
	for i := range fleet {
		c, err := core.New(core.Config{
			ID:    fmt.Sprintf("e9-cell-%03d", i),
			Class: tamper.ClassHomeGateway,
			Cloud: svc,
			Seed:  []byte(fmt.Sprintf("e9-seed-%03d", i)),
		})
		if err != nil {
			return 0, 0, err
		}
		fleet[i] = c
	}

	errs := make([]error, cells)
	var wg sync.WaitGroup
	calls0 := svc.FaultStats().Ops
	start := time.Now()
	for ci, c := range fleet {
		wg.Add(1)
		go func(ci int, c *core.Cell) {
			defer wg.Done()
			errs[ci] = e9Ingest(c, ci, cfg, batched)
		}(ci, c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	total := float64(cells * cfg.DocsPerCell)
	return total / elapsed.Seconds(), float64(svc.FaultStats().Ops-calls0) / total, nil
}

// e9Ingest runs one cell's share of the workload. Payloads carry the cell
// and document indices so every document hashes to a distinct ID; a
// PayloadSize smaller than that header is padded up rather than letting
// truncation collapse the batch onto one document ID.
func e9Ingest(c *core.Cell, ci int, cfg E9Config, batched bool) error {
	mkPayload := func(di int) []byte {
		header := fmt.Sprintf("cell-%03d/doc-%05d", ci, di)
		size := cfg.PayloadSize
		if size < len(header) {
			size = len(header)
		}
		p := make([]byte, size)
		copy(p, header)
		return p
	}
	opts := core.IngestOptions{Class: datamodel.ClassSensed, Type: "reading", Title: "e9"}
	if !batched {
		for di := 0; di < cfg.DocsPerCell; di++ {
			if _, err := c.Ingest(mkPayload(di), opts); err != nil {
				return err
			}
		}
		return nil
	}
	for lo := 0; lo < cfg.DocsPerCell; lo += cfg.BatchSize {
		hi := lo + cfg.BatchSize
		if hi > cfg.DocsPerCell {
			hi = cfg.DocsPerCell
		}
		items := make([]core.IngestItem, 0, hi-lo)
		for di := lo; di < hi; di++ {
			items = append(items, core.IngestItem{Payload: mkPayload(di), Opts: opts})
		}
		if _, err := c.IngestBatch(items); err != nil {
			return err
		}
	}
	return nil
}

// RunE9 measures ingest throughput for growing fleets of concurrent cells on
// the two storage/ingest paths: the sequential baseline (per-document Ingest
// against the historical single-mutex store) and the sharded/batched path
// (IngestBatch flushing through the batch API against the sharded store).
func RunE9(cfg E9Config) (*Table, error) {
	table := &Table{
		ID:      "E9",
		Title:   "Fleet ingest throughput: sequential vs sharded/batched cloud path",
		Headers: []string{"cells", "path", "cloud shards", "ingest ops/sec", "speedup"},
		Notes: []string{
			fmt.Sprintf("each cell ingests %d documents of %d B; simulated provider round-trip %v charged per service call",
				cfg.DocsPerCell, cfg.PayloadSize, cfg.RTT),
			fmt.Sprintf("sequential = one PutBlob round-trip per document on a 1-shard store; batched = IngestBatch(%d) flushing one PutBlobs round-trip per batch on a %d-shard store",
				cfg.BatchSize, cfg.Shards),
		},
	}
	for _, cells := range cfg.Fleets {
		res, err := RunE9Fleet(cfg, cells)
		if err != nil {
			return nil, err
		}
		table.AddRow(fmt.Sprintf("%d", cells), "sequential", "1",
			fmt.Sprintf("%.0f", res.SequentialOps), "1.0x")
		table.AddRow(fmt.Sprintf("%d", cells), "sharded/batched", fmt.Sprintf("%d", cfg.Shards),
			fmt.Sprintf("%.0f", res.BatchedOps), fmt.Sprintf("%.1fx", res.Speedup))
		// The largest measured fleet provides the headline gate metrics.
		table.SetMetric("batched_ops_per_sec", res.BatchedOps)
		table.SetMetric("speedup", res.Speedup)
	}
	return table, nil
}
