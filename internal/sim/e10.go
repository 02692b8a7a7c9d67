package sim

import (
	"fmt"
	"sync"
	"time"

	"trustedcells/internal/cloud"
	"trustedcells/internal/core"
	"trustedcells/internal/datamodel"
	"trustedcells/internal/policy"
	"trustedcells/internal/query"
	"trustedcells/internal/tamper"
	"trustedcells/internal/timeseries"
)

// ---------------------------------------------------------------------------
// E10 — query throughput: indexed plan + batched fetch
// ---------------------------------------------------------------------------

// E10Config parameterises the read/query-pipeline experiment.
type E10Config struct {
	// CatalogSizes are the total catalog sizes (series documents plus filler
	// notes) to measure, one row per size.
	CatalogSizes []int
	// Readers is the number of concurrent reader goroutines sharing the cell.
	Readers int
	// Partitions is how many distinct tag partitions the workload queries;
	// each partition is queried exactly once, so no result is served from a
	// cache warmed by an earlier query of the same partition.
	Partitions int
	// DocsPerPartition is how many series documents carry each partition tag.
	DocsPerPartition int
	// PointsPerSeries is the length of each stored series.
	PointsPerSeries int
	// RTT is the simulated network round-trip to the shared provider, charged
	// once per service call — so once per query.
	RTT time.Duration
	// Shards is the cloud store's shard count.
	Shards int
}

// DefaultE10Config queries 64 partitions of 8 series documents with 16
// concurrent readers over catalogs of 1k, 10k and 100k documents and a 1 ms
// provider round-trip.
func DefaultE10Config() E10Config {
	return E10Config{
		CatalogSizes:     []int{1_000, 10_000, 100_000},
		Readers:          16,
		Partitions:       64,
		DocsPerPartition: 8,
		PointsPerSeries:  24,
		RTT:              time.Millisecond,
		Shards:           cloud.DefaultShards,
	}
}

// E10Result is the outcome of one catalog-size measurement, kept structured
// so the Go benchmark can assert on it without re-parsing the rendered table.
type E10Result struct {
	CatalogDocs int
	Readers     int
	Queries     int
	// BatchedQPS is the pipeline: indexed plan + one batched cloud exchange
	// per query + parallel open + streaming merge.
	BatchedQPS float64
	// ScannedPerQuery is catalog documents tested per query (the
	// index-selectivity half of the story).
	ScannedPerQuery float64
}

// buildE10Cell populates a library cell (series documents tagged by
// partition plus filler notes up to catalogDocs), syncs its vault, and
// returns a restored twin: full catalog, cold payload cache — the Charlie-at-
// the-internet-café scenario under which every payload must come from the
// cloud.
func buildE10Cell(cfg E10Config, catalogDocs int, svc *cloud.Memory) (*core.Cell, error) {
	builder, err := core.New(core.Config{
		ID: "e10-lib", Class: tamper.ClassHomeGateway, Cloud: svc,
		Seed: []byte("e10-seed"), Clock: fixedClock(),
	})
	if err != nil {
		return nil, err
	}
	nSeries := cfg.Partitions * cfg.DocsPerPartition
	if nSeries > catalogDocs {
		return nil, fmt.Errorf("E10: catalog size %d smaller than %d series docs", catalogDocs, nSeries)
	}
	for p := 0; p < cfg.Partitions; p++ {
		for d := 0; d < cfg.DocsPerPartition; d++ {
			s := timeseries.NewSeries(fmt.Sprintf("power-p%03d-d%02d", p, d), "W")
			for i := 0; i < cfg.PointsPerSeries; i++ {
				if err := s.AppendValue(simStart.Add(time.Duration(i)*time.Hour), float64(100+p+d)); err != nil {
					return nil, err
				}
			}
			if _, err := builder.IngestSeries(s, "day", []string{"energy"},
				map[string]string{"home": fmt.Sprintf("h%03d", p)}); err != nil {
				return nil, err
			}
		}
	}
	const chunk = 2048
	for lo := nSeries; lo < catalogDocs; lo += chunk {
		hi := lo + chunk
		if hi > catalogDocs {
			hi = catalogDocs
		}
		items := make([]core.IngestItem, 0, hi-lo)
		for i := lo; i < hi; i++ {
			items = append(items, core.IngestItem{
				Payload: []byte(fmt.Sprintf("note-%07d", i)),
				Opts:    core.IngestOptions{Class: datamodel.ClassAuthored, Type: "note"},
			})
		}
		if _, err := builder.IngestBatch(items); err != nil {
			return nil, err
		}
	}
	if _, err := builder.SyncVault(); err != nil {
		return nil, err
	}
	reader, err := core.New(core.Config{
		ID: "e10-lib", Class: tamper.ClassHomeGateway, Cloud: svc,
		Seed: []byte("e10-seed"), Clock: fixedClock(),
	})
	if err != nil {
		return nil, err
	}
	if _, err := reader.RestoreVault(); err != nil {
		return nil, err
	}
	if err := reader.AddRule(policy.Rule{
		ID: "analyst-agg", Effect: policy.EffectAllow,
		SubjectGroups:  []string{"analyst"},
		Actions:        []policy.Action{policy.ActionAggregate},
		Resource:       policy.Resource{Type: core.SeriesDocType},
		MaxGranularity: time.Hour,
	}); err != nil {
		return nil, err
	}
	return reader, nil
}

// RunE10Size builds a cold cell of catalogDocs documents and runs the
// partition workload on it.
func RunE10Size(cfg E10Config, catalogDocs int) (E10Result, error) {
	svc := cloud.NewMemoryShards(cfg.Shards)
	cell, err := buildE10Cell(cfg, catalogDocs, svc)
	if err != nil {
		return E10Result{}, err
	}
	// The provider round-trip only starts mattering once the fleet queries.
	svc.SetLatency(cfg.RTT)
	cell.Catalog().ResetIndexStats()

	errs := make([]error, cfg.Readers)
	var wg sync.WaitGroup
	start := time.Now()
	for r := 0; r < cfg.Readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			eng := query.NewEngine(cell, fmt.Sprintf("analyst-%02d", r),
				core.AccessContext{Groups: []string{"analyst"}})
			for p := r; p < cfg.Partitions; p += cfg.Readers {
				q := query.SeriesAggregate{
					Filter:      datamodel.Query{TagKey: "home", TagValue: fmt.Sprintf("h%03d", p)},
					Granularity: timeseries.GranularityHour,
					Kind:        timeseries.AggregateMean,
				}
				res, err := eng.RunSeriesAggregate(q)
				if err != nil {
					errs[r] = err
					return
				}
				if len(res.Documents) != cfg.DocsPerPartition {
					errs[r] = fmt.Errorf("E10: partition %d returned %d docs, want %d",
						p, len(res.Documents), cfg.DocsPerPartition)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return E10Result{}, err
		}
	}
	st := cell.Catalog().IndexStats()
	return E10Result{
		CatalogDocs:     catalogDocs,
		Readers:         cfg.Readers,
		Queries:         cfg.Partitions,
		BatchedQPS:      float64(cfg.Partitions) / elapsed.Seconds(),
		ScannedPerQuery: float64(st.DocsScanned) / float64(cfg.Partitions),
	}, nil
}

// RunE10 measures series-aggregate query throughput for fleets of concurrent
// readers on the indexed+batched pipeline: planned index scan, one batched
// cloud exchange per query, parallel decryption, streaming merge.
func RunE10(cfg E10Config) (*Table, error) {
	table := &Table{
		ID:      "E10",
		Title:   "Query throughput: indexed plan + batched fetch pipeline",
		Headers: []string{"catalog docs", "readers", "queries/sec", "docs scanned/query"},
		Notes: []string{
			fmt.Sprintf("%d concurrent readers aggregate %d tag partitions of %d series documents each over a restored (cold-cache) cell; provider round-trip %v charged per service call",
				cfg.Readers, cfg.Partitions, cfg.DocsPerPartition, cfg.RTT),
			"each query = indexed SearchPlan + one GetBlobs exchange + parallel open + streaming merge",
		},
	}
	for _, n := range cfg.CatalogSizes {
		res, err := RunE10Size(cfg, n)
		if err != nil {
			return nil, err
		}
		table.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", res.Readers),
			fmt.Sprintf("%.0f", res.BatchedQPS), fmt.Sprintf("%.0f", res.ScannedPerQuery))
		// The largest measured catalog provides the headline gate metric.
		table.SetMetric("batched_qps", res.BatchedQPS)
	}
	return table, nil
}
