package sim

import (
	"fmt"
	"os"
	"time"

	"trustedcells/internal/cloud"
	"trustedcells/internal/core"
	"trustedcells/internal/datamodel"
	"trustedcells/internal/tamper"
)

// ---------------------------------------------------------------------------
// E13 — durable provider: durability overhead and crash recovery
// ---------------------------------------------------------------------------

// E13Config parameterises the durable-cloud experiment. It has two parts per
// catalog size: a throughput comparison (the same batched cell ingest against
// the in-memory provider and the disk-backed provider, where the durable path
// pays journal encoding plus group-committed fsyncs) and a crash drill (kill the
// durable provider mid-workload, reopen it, and verify every acknowledged
// blob is replayed).
type E13Config struct {
	// CatalogSizes are the document counts of the ingest workload.
	CatalogSizes []int
	// PayloadSize is the plaintext size of each document.
	PayloadSize int
	// BatchSize is the IngestBatch chunk (one PutBlobs exchange per chunk;
	// on the durable backend, one commit-journal record + fsync).
	BatchSize int
	// Shards is the stripe count of both providers.
	Shards int
	// MemtableBytes / MaxRuns size each durable shard's LSM engine.
	MemtableBytes int
	MaxRuns       int
	// KillFrac is the fraction of the workload ingested before the simulated
	// process kill of the crash drill.
	KillFrac float64
}

// DefaultE13Config ingests catalogs of 1k, 10k and 100k one-KiB documents and
// kills the durable provider 60% of the way through.
func DefaultE13Config() E13Config {
	return E13Config{
		CatalogSizes:  []int{1_000, 10_000, 100_000},
		PayloadSize:   1 << 10,
		BatchSize:     256,
		Shards:        cloud.DefaultShards,
		MemtableBytes: 512 << 10,
		MaxRuns:       8,
		KillFrac:      0.6,
	}
}

// E13Result is the outcome of one catalog size.
type E13Result struct {
	Docs       int
	MemoryOps  float64 // ingest docs/sec against the in-memory provider
	DurableOps float64 // ingest docs/sec against the disk-backed provider
	Overhead   float64 // MemoryOps / DurableOps (1.0 = free durability)

	// Crash drill outcomes.
	AckedBlobs     int     // blobs acknowledged before the kill
	RecoveryMS     float64 // wall-clock OpenDurable time after the kill
	ReplayedBlobs  int     // acked blobs present again after recovery
	RecoveredPct   float64 // 100 * ReplayedBlobs / AckedBlobs
	JournalRecords int     // commit-journal records replayed by recovery
	RecoveredRuns  int     // run descriptors rebuilt by recovery
}

func (c E13Config) durableOptions() cloud.DurableOptions {
	return cloud.DurableOptions{
		Shards:        c.Shards,
		MemtableBytes: c.MemtableBytes,
		MaxRuns:       c.MaxRuns,
	}
}

// e13Payload stamps the document index into the payload so every document
// hashes to a distinct ID.
func e13Payload(di, size int) []byte {
	header := fmt.Sprintf("e13-doc-%07d", di)
	if size < len(header) {
		size = len(header)
	}
	p := make([]byte, size)
	copy(p, header)
	return p
}

// e13Cell builds a cell over the given provider.
func e13Cell(id string, svc cloud.Service) (*core.Cell, error) {
	return core.New(core.Config{
		ID:    id,
		Class: tamper.ClassHomeGateway,
		Cloud: svc,
		Seed:  []byte(id),
		Clock: fixedClock(),
	})
}

// e13Ingest pushes documents [lo, hi) through IngestBatch.
func e13Ingest(c *core.Cell, lo, hi int, cfg E13Config) error {
	opts := core.IngestOptions{Class: datamodel.ClassSensed, Type: "reading", Title: "e13"}
	for start := lo; start < hi; start += cfg.BatchSize {
		end := start + cfg.BatchSize
		if end > hi {
			end = hi
		}
		items := make([]core.IngestItem, 0, end-start)
		for di := start; di < end; di++ {
			items = append(items, core.IngestItem{Payload: e13Payload(di, cfg.PayloadSize), Opts: opts})
		}
		if _, err := c.IngestBatch(items); err != nil {
			return fmt.Errorf("E13 ingest [%d,%d): %w", start, end, err)
		}
	}
	return nil
}

// e13MeasureIngest times a full catalog ingest against one provider.
func e13MeasureIngest(svc cloud.Service, cellID string, docs int, cfg E13Config) (float64, error) {
	cell, err := e13Cell(cellID, svc)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := e13Ingest(cell, 0, docs, cfg); err != nil {
		return 0, err
	}
	return float64(docs) / time.Since(start).Seconds(), nil
}

// RunE13Size measures one catalog size: memory vs durable throughput, then
// the kill-and-reopen drill on a fresh durable store.
func RunE13Size(cfg E13Config, docs int) (E13Result, error) {
	res := E13Result{Docs: docs}

	memOps, err := e13MeasureIngest(cloud.NewMemoryShards(cfg.Shards), "e13-cell", docs, cfg)
	if err != nil {
		return res, err
	}
	res.MemoryOps = memOps

	durDir, err := os.MkdirTemp("", "tc-e13-durable-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(durDir)
	dur, err := cloud.OpenDurable(durDir, cfg.durableOptions())
	if err != nil {
		return res, err
	}
	durOps, err := e13MeasureIngest(dur, "e13-cell", docs, cfg)
	if err != nil {
		dur.Crash()
		return res, err
	}
	if err := dur.Close(); err != nil {
		return res, err
	}
	res.DurableOps = durOps
	if durOps > 0 {
		res.Overhead = memOps / durOps
	}

	// Crash drill: ingest KillFrac of the workload, kill the provider with
	// no warning, reopen it under the clock, and verify the acknowledged
	// blobs — every IngestBatch that returned — are all served again.
	crashDir, err := os.MkdirTemp("", "tc-e13-crash-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(crashDir)
	d1, err := cloud.OpenDurable(crashDir, cfg.durableOptions())
	if err != nil {
		return res, err
	}
	cell, err := e13Cell("e13-cell", d1)
	if err != nil {
		return res, err
	}
	kill := int(float64(docs) * cfg.KillFrac)
	if kill < 1 {
		kill = 1
	}
	if err := e13Ingest(cell, 0, kill, cfg); err != nil {
		return res, err
	}
	acked, err := d1.ListBlobs("")
	if err != nil {
		return res, err
	}
	res.AckedBlobs = len(acked)
	d1.Crash()

	recoverStart := time.Now()
	d2, err := cloud.OpenDurable(crashDir, cfg.durableOptions())
	if err != nil {
		return res, fmt.Errorf("E13 reopen after kill: %w", err)
	}
	res.RecoveryMS = float64(time.Since(recoverStart).Microseconds()) / 1000
	rec := d2.RecoveryStats()
	res.JournalRecords = rec.JournalRecords
	res.RecoveredRuns = rec.RecoveredRuns
	after, err := d2.ListBlobs("")
	if err != nil {
		return res, err
	}
	present := make(map[string]bool, len(after))
	for _, name := range after {
		present[name] = true
	}
	for _, name := range acked {
		if present[name] {
			res.ReplayedBlobs++
		}
	}
	if res.AckedBlobs > 0 {
		res.RecoveredPct = 100 * float64(res.ReplayedBlobs) / float64(res.AckedBlobs)
	}

	// The reopened provider must be immediately usable: finish the workload
	// on it (a fresh cell, as after a real restart) and close gracefully.
	cell2, err := e13Cell("e13-cell-resume", d2)
	if err != nil {
		return res, err
	}
	if err := e13Ingest(cell2, kill, docs, cfg); err != nil {
		return res, fmt.Errorf("E13 resume after recovery: %w", err)
	}
	if err := d2.Close(); err != nil {
		return res, err
	}
	return res, nil
}

// RunE13 measures the durable provider end to end: what durability costs on
// the batched ingest path (group-committed journal + LSM checkpoints vs a RAM
// map) and what a provider restart costs (recovery time, and whether every
// acknowledged blob survives — the paper's availability premise made
// testable).
func RunE13(cfg E13Config) (*Table, error) {
	table := &Table{
		ID:    "E13",
		Title: "Durable disk-backed provider: durability overhead and crash recovery",
		Headers: []string{"docs", "backend", "ingest docs/sec", "overhead",
			"recovery ms", "acked blobs", "replayed", "recovered %"},
		Notes: []string{
			fmt.Sprintf("same batched cell ingest (IngestBatch(%d), %d B sealed payloads) against both providers, %d FNV shards each",
				cfg.BatchSize, cfg.PayloadSize, cfg.Shards),
			"durable = cross-shard commit journal with group-committed fsync + memtable checkpoints into CRC'd runs + background compaction; overhead = memory ops/sec ÷ durable ops/sec",
			fmt.Sprintf("crash drill: kill the provider (no flush, no fsync beyond acknowledged commits) after %.0f%% of the workload, reopen, verify every acknowledged blob is served, then finish the workload on the recovered store",
				cfg.KillFrac*100),
		},
	}
	headlineDocs := headlineScale(cfg.CatalogSizes)
	for _, docs := range cfg.CatalogSizes {
		res, err := RunE13Size(cfg, docs)
		if err != nil {
			return nil, err
		}
		table.AddRow(fmt.Sprintf("%d", docs), "memory",
			fmt.Sprintf("%.0f", res.MemoryOps), "1.0x", "-", "-", "-", "-")
		table.AddRow(fmt.Sprintf("%d", docs), "durable",
			fmt.Sprintf("%.0f", res.DurableOps),
			fmt.Sprintf("%.2fx", res.Overhead),
			fmt.Sprintf("%.1f", res.RecoveryMS),
			fmt.Sprintf("%d", res.AckedBlobs),
			fmt.Sprintf("%d", res.ReplayedBlobs),
			fmt.Sprintf("%.0f%%", res.RecoveredPct))
		if docs != headlineDocs {
			continue
		}
		table.SetMetric("durable_overhead", res.Overhead)
		table.SetMetric("durable_ingest_docs_per_sec", res.DurableOps)
		table.SetMetric("recovery_ms", res.RecoveryMS)
		table.SetMetric("replayed_blobs", float64(res.ReplayedBlobs))
		table.SetMetric("recovered_pct", res.RecoveredPct)
	}
	return table, nil
}
