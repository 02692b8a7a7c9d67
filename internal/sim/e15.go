package sim

import (
	"fmt"
	"time"

	"trustedcells/internal/cloud"
)

// ---------------------------------------------------------------------------
// E15 — replicated multi-provider cloud: availability under provider failure
// ---------------------------------------------------------------------------

// E15Config parameterises the availability drill. Per catalog size it has
// three parts: a throughput comparison (the same batched cell ingest against
// one in-memory provider and against a replicated fleet, where the quorum
// path pays the fan-out), the kill drill (one of the members goes dark
// mid-workload; the workload must keep acknowledging), and the recovery
// check (the returning member converges through the hinted-handoff drain,
// and every acknowledged write is readable at quorum throughout).
type E15Config struct {
	// CatalogSizes are the document counts of the ingest workload.
	CatalogSizes []int
	// PayloadSize is the plaintext size of each document.
	PayloadSize int
	// BatchSize is the IngestBatch chunk (one PutBlobs exchange per chunk).
	BatchSize int
	// Members is the replica count N of the fleet.
	Members int
	// WriteQuorum / ReadQuorum are the W / R of the replication layer.
	WriteQuorum int
	ReadQuorum  int
	// KillFrac is the fraction of the workload ingested before one member is
	// killed.
	KillFrac float64
}

// DefaultE15Config drills a three-member fleet at W=2/R=2 — the classic
// majority configuration where any single provider can die — killing one
// member halfway through catalogs of 1k, 10k and 50k one-KiB documents.
func DefaultE15Config() E15Config {
	return E15Config{
		CatalogSizes: []int{1_000, 10_000, 50_000},
		PayloadSize:  1 << 10,
		BatchSize:    256,
		Members:      3,
		WriteQuorum:  2,
		ReadQuorum:   2,
		KillFrac:     0.5,
	}
}

// E15Result is the outcome of one catalog size.
type E15Result struct {
	Docs          int
	MemoryOps     float64 // ingest docs/sec against a single in-memory provider
	ReplicatedOps float64 // ingest docs/sec against the healthy fleet
	ReplOverhead  float64 // MemoryOps / ReplicatedOps (what the fan-out costs)

	// Kill-drill outcomes.
	DegradedOps      float64 // docs/sec for the post-kill rest of the workload
	DegradedOverhead float64 // ReplicatedOps / DegradedOps (1.0 = free failover)
	AckedBlobs       int     // blobs acknowledged across the whole drill
	ReadableBlobs    int     // acked blobs readable at quorum, victim still dead
	AckedLoss        int     // AckedBlobs - ReadableBlobs (must be zero)
	AckedReadablePct float64 // 100 * ReadableBlobs / AckedBlobs

	// Recovery outcomes.
	HintsDrained   int     // hints replayed to the returning member
	ConvergedBlobs int     // acked blobs present on the returned member itself
	ConvergedPct   float64 // 100 * ConvergedBlobs / AckedBlobs
	AntiEntropyPut int     // stale copies anti-entropy still had to rewrite
}

// e15Fleet builds the replicated layer over Members in-memory providers, each
// behind a cloud.Faulty so the drill can kill and revive them on demand.
func e15Fleet(cfg E15Config, docs int) (*cloud.Replicated, []*cloud.Faulty, error) {
	wrappers := make([]*cloud.Faulty, cfg.Members)
	services := make([]cloud.Service, cfg.Members)
	for i := range wrappers {
		wrappers[i] = cloud.NewFaulty(cloud.NewMemory(), cloud.FaultyOptions{})
		services[i] = wrappers[i]
	}
	// The hint queue is sized to the drill so convergence is pure handoff
	// drain; the overflow policy has its own unit tests.
	capacity := 2 * docs
	if capacity < 1024 {
		capacity = 1024
	}
	r, err := cloud.NewReplicated(services, cloud.ReplicatedOptions{
		WriteQuorum:  cfg.WriteQuorum,
		ReadQuorum:   cfg.ReadQuorum,
		HintCapacity: capacity,
	})
	if err != nil {
		return nil, nil, err
	}
	return r, wrappers, nil
}

// e15Config reuses the E13 ingest helpers, which only consume these fields.
func (c E15Config) ingestConfig() E13Config {
	return E13Config{PayloadSize: c.PayloadSize, BatchSize: c.BatchSize}
}

// RunE15Size measures one catalog size: healthy throughput against both
// providers, then the kill drill on a fresh fleet.
func RunE15Size(cfg E15Config, docs int) (E15Result, error) {
	res := E15Result{Docs: docs}
	icfg := cfg.ingestConfig()

	memOps, err := e13MeasureIngest(cloud.NewMemory(), "e15-cell", docs, icfg)
	if err != nil {
		return res, err
	}
	res.MemoryOps = memOps

	healthy, _, err := e15Fleet(cfg, docs)
	if err != nil {
		return res, err
	}
	replOps, err := e13MeasureIngest(healthy, "e15-cell", docs, icfg)
	if err != nil {
		return res, err
	}
	_ = healthy.Close()
	res.ReplicatedOps = replOps
	if replOps > 0 {
		res.ReplOverhead = memOps / replOps
	}

	// Kill drill: ingest KillFrac of the workload, take one member dark with
	// no warning, and finish the workload against the degraded fleet. Every
	// IngestBatch must keep acknowledging.
	fleet, wrappers, err := e15Fleet(cfg, docs)
	if err != nil {
		return res, err
	}
	defer fleet.Close()
	victim := cfg.Members - 1
	cell, err := e13Cell("e15-cell", fleet)
	if err != nil {
		return res, err
	}
	kill := int(float64(docs) * cfg.KillFrac)
	if kill < 1 {
		kill = 1
	}
	if err := e13Ingest(cell, 0, kill, icfg); err != nil {
		return res, err
	}
	wrappers[victim].SetDown(true)
	degradedStart := time.Now()
	if err := e13Ingest(cell, kill, docs, icfg); err != nil {
		return res, fmt.Errorf("E15 ingest with dead member: %w", err)
	}
	if degraded := time.Since(degradedStart).Seconds(); degraded > 0 {
		res.DegradedOps = float64(docs-kill) / degraded
	}
	if res.DegradedOps > 0 {
		res.DegradedOverhead = res.ReplicatedOps / res.DegradedOps
	}

	// Availability check, victim still dead: every blob the fleet ever
	// acknowledged must be readable at quorum. Zero tolerance.
	acked, err := fleet.ListBlobs("")
	if err != nil {
		return res, err
	}
	res.AckedBlobs = len(acked)
	for start := 0; start < len(acked); start += cfg.BatchSize {
		end := start + cfg.BatchSize
		if end > len(acked) {
			end = len(acked)
		}
		blobs, err := fleet.GetBlobs(acked[start:end])
		if err != nil {
			return res, fmt.Errorf("E15 quorum read with dead member: %w", err)
		}
		for _, b := range blobs {
			if b.Version > 0 && len(b.Data) > 0 {
				res.ReadableBlobs++
			}
		}
	}
	res.AckedLoss = res.AckedBlobs - res.ReadableBlobs
	if res.AckedBlobs > 0 {
		res.AckedReadablePct = 100 * float64(res.ReadableBlobs) / float64(res.AckedBlobs)
	}

	// Recovery: the member returns, the hint drain replays what it missed,
	// and its own store — read directly, not at quorum — must converge.
	wrappers[victim].SetDown(false)
	res.HintsDrained = fleet.DrainHints()
	inner := wrappers[victim].Inner()
	for _, name := range acked {
		if _, err := inner.GetBlob(name); err == nil {
			res.ConvergedBlobs++
		}
	}
	if res.AckedBlobs > 0 {
		res.ConvergedPct = 100 * float64(res.ConvergedBlobs) / float64(res.AckedBlobs)
	}
	report, err := fleet.AntiEntropy()
	if err != nil {
		return res, err
	}
	res.AntiEntropyPut = report.StalePuts
	return res, nil
}

// RunE15 drills the replicated fleet end to end: what the quorum fan-out
// costs against a single provider, how much throughput degrades while a
// member is dead, that no acknowledged write is ever lost, and that the
// returning member converges through the hinted-handoff drain — the paper's
// "the cloud never stops" premise made testable.
func RunE15(cfg E15Config) (*Table, error) {
	table := &Table{
		ID: "E15",
		Title: fmt.Sprintf("Replicated cloud (%d members, W=%d/R=%d): availability under provider failure",
			cfg.Members, cfg.WriteQuorum, cfg.ReadQuorum),
		Headers: []string{"docs", "backend", "ingest docs/sec", "overhead",
			"degraded x", "acked blobs", "acked loss", "drained hints", "converged %"},
		Notes: []string{
			fmt.Sprintf("same batched cell ingest (IngestBatch(%d), %d B sealed payloads) against one in-memory provider and a replicated fleet of %d",
				cfg.BatchSize, cfg.PayloadSize, cfg.Members),
			fmt.Sprintf("kill drill: one member goes dark after %.0f%% of the workload; the rest runs degraded (W=%d still reachable), then every acknowledged blob is read back at quorum with the member still dead",
				cfg.KillFrac*100, cfg.WriteQuorum),
			"recovery: the member returns, the hinted-handoff drain replays its missed writes in order, and its own store is checked blob by blob; anti-entropy then confirms the drain left nothing stale",
		},
	}
	headlineDocs := headlineScale(cfg.CatalogSizes)
	for _, docs := range cfg.CatalogSizes {
		res, err := RunE15Size(cfg, docs)
		if err != nil {
			return nil, err
		}
		table.AddRow(fmt.Sprintf("%d", docs), "memory",
			fmt.Sprintf("%.0f", res.MemoryOps), "1.0x", "-", "-", "-", "-", "-")
		table.AddRow(fmt.Sprintf("%d", docs), "replicated",
			fmt.Sprintf("%.0f", res.ReplicatedOps),
			fmt.Sprintf("%.2fx", res.ReplOverhead),
			fmt.Sprintf("%.2fx", res.DegradedOverhead),
			fmt.Sprintf("%d", res.AckedBlobs),
			fmt.Sprintf("%d", res.AckedLoss),
			fmt.Sprintf("%d", res.HintsDrained),
			fmt.Sprintf("%.0f%%", res.ConvergedPct))
		if docs != headlineDocs {
			continue
		}
		table.SetMetric("replicated_ingest_docs_per_sec", res.ReplicatedOps)
		table.SetMetric("replication_overhead", res.ReplOverhead)
		table.SetMetric("degraded_overhead", res.DegradedOverhead)
		table.SetMetric("acked_loss", float64(res.AckedLoss))
		table.SetMetric("acked_readable_pct", res.AckedReadablePct)
		table.SetMetric("converged_pct", res.ConvergedPct)
	}
	return table, nil
}
