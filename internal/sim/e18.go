package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"time"

	"trustedcells/internal/cloud"
)

// ---------------------------------------------------------------------------
// E18 — durable read fast path: bloom filters, block cache, footer recovery
// ---------------------------------------------------------------------------

// E18Config parameterises the read-path micro-experiment. Unlike E13 (which
// drives the full cell ingest pipeline), E18 talks to the providers directly
// with raw blobs: the point is to isolate the storage read path — per-run
// bloom filters, the shared block cache, and the run-footer recovery — from
// the crypto above it, and to compare three backends: the in-memory provider,
// the durable provider with the fast path disabled (no blooms, no cache), and
// the durable provider as shipped.
type E18Config struct {
	// CatalogSizes are the blob counts of the populated store.
	CatalogSizes []int
	// PayloadSize is the size of each blob.
	PayloadSize int
	// BatchSize is the PutBlobs chunk used to populate.
	BatchSize int
	// Shards is the stripe count of both providers.
	Shards int
	// MemtableBytes / MaxRuns size each durable shard's LSM engine. The
	// memtable is kept small so even the 1k catalog lands in on-device runs
	// — a big memtable would serve every read from RAM and measure nothing.
	MemtableBytes int
	MaxRuns       int
	// PointReads is the number of GetBlob calls per read phase.
	PointReads int
	// HotSetSize is the working set of the hot-read phase: a set this size is
	// read repeatedly, so with the cache enabled all but the first pass are
	// served from RAM.
	HotSetSize int
}

// DefaultE18Config populates catalogs of 1k, 10k and 100k one-KiB blobs.
func DefaultE18Config() E18Config {
	return E18Config{
		CatalogSizes:  []int{1_000, 10_000, 100_000},
		PayloadSize:   1 << 10,
		BatchSize:     256,
		Shards:        cloud.DefaultShards,
		MemtableBytes: 64 << 10,
		MaxRuns:       8,
		PointReads:    5_000,
		HotSetSize:    512,
	}
}

// E18Result is the outcome of one catalog size.
type E18Result struct {
	Docs int
	Runs int // resident runs of the fast store after populate+flush

	MemoryPointOps float64 // uniform point reads, in-memory provider
	BasePointOps   float64 // uniform point reads, durable without bloom/cache
	FastPointOps   float64 // uniform point reads, durable as shipped

	BaseHotOps float64 // hot-set reads without the cache
	FastHotOps float64 // hot-set reads served by the cache
	HotSpeedup float64 // FastHotOps / BaseHotOps

	BaseNegOps float64 // negative lookups without bloom filters
	FastNegOps float64 // negative lookups skipped by bloom filters

	FastMixedOps float64 // alternating present/missing reads, fast store

	BloomSkipPct       float64 // % of run lookups the filters answered
	DeviceReadsPerMiss float64 // device reads per negative GetBlob
	CacheHitPct        float64 // block-cache hit rate during the hot phase
	BytesPerDeviceRead float64 // bytes one device read moved in the point phase

	RecoveryMS float64 // reopen time after a kill (footer-based descriptors)
}

// durableOptions builds the store options; fastPath toggles blooms + cache.
// The stores run NoSync: E18 measures the read path and recovery scan, not
// commit durability (E13 owns that), and an unsynced populate keeps the 100k
// catalog cheap enough for CI.
func (c E18Config) durableOptions(fastPath bool) cloud.DurableOptions {
	opts := cloud.DurableOptions{
		Shards:        c.Shards,
		MemtableBytes: c.MemtableBytes,
		MaxRuns:       c.MaxRuns,
		NoSync:        true,
	}
	if !fastPath {
		opts.CacheBytes = -1
		opts.BloomBitsPerKey = -1
	}
	return opts
}

func e18Name(i int) string { return fmt.Sprintf("e18/blob-%07d", i) }

// e18MissName names a blob that is never stored but sorts between two stored
// names ('.' < '0'): a miss that lands inside every run's key range, so it is
// the bloom filter — not the run's first/last bounds — that must reject it.
func e18MissName(i int) string { return fmt.Sprintf("e18/blob-%07d.miss", i) }

func e18Payload(i, size int) []byte {
	header := fmt.Sprintf("e18-doc-%07d", i)
	if size < len(header) {
		size = len(header)
	}
	p := make([]byte, size)
	copy(p, header)
	return p
}

// e18Populate uploads the catalog in PutBlobs batches.
func e18Populate(svc cloud.Service, docs int, cfg E18Config) error {
	for start := 0; start < docs; start += cfg.BatchSize {
		end := start + cfg.BatchSize
		if end > docs {
			end = docs
		}
		puts := make([]cloud.BlobPut, 0, end-start)
		for i := start; i < end; i++ {
			puts = append(puts, cloud.BlobPut{Name: e18Name(i), Data: e18Payload(i, cfg.PayloadSize)})
		}
		if _, err := svc.PutBlobs(puts); err != nil {
			return fmt.Errorf("E18 populate [%d,%d): %w", start, end, err)
		}
	}
	return nil
}

// e18ReadOps times n GetBlob calls named by pick and returns docs/sec.
// missOK tolerates ErrBlobNotFound (the negative phase wants it).
func e18ReadOps(svc cloud.Service, n int, missOK bool, pick func(i int) string) (float64, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		name := pick(i)
		if _, err := svc.GetBlob(name); err != nil {
			if missOK && errors.Is(err, cloud.ErrBlobNotFound) {
				continue
			}
			return 0, fmt.Errorf("E18 read %s: %w", name, err)
		}
	}
	return float64(n) / time.Since(start).Seconds(), nil
}

// e18Phases is the outcome of the four read phases against one provider.
type e18Phases struct {
	point, hot, neg, mixed float64 // docs/sec

	// Fast-path rates, from engine-counter deltas around single phases (zero
	// when the provider is not durable or the fast path is disabled).
	negSkipPct      float64 // negative phase: % of run lookups a filter absorbed
	hotHitPct       float64 // hot phase: block-cache hit rate
	negReadsPerMiss float64 // negative phase: device reads per missing GetBlob
	bytesPerRead    float64 // point phase: bytes per device read (one run block)
}

// e18Counters is the engine-counter snapshot the phase rates are deltas of.
type e18Counters struct{ skips, hits, misses, reads, readBytes int64 }

func e18Snap(d *cloud.Durable) e18Counters {
	if d == nil {
		return e18Counters{}
	}
	s := d.EngineStats()
	return e18Counters{skips: s.BloomSkips, hits: s.CacheHits, misses: s.CacheMisses,
		reads: s.RunReads, readBytes: s.RunReadBytes}
}

func e18Pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// e18ReadPhases drives the four read phases — uniform point reads, hot-set
// reads, negative lookups, mixed — against one provider. d is the same
// provider as svc when it is durable (for counter snapshots), nil otherwise.
func e18ReadPhases(svc cloud.Service, d *cloud.Durable, docs int, cfg E18Config) (e18Phases, error) {
	var p e18Phases
	var err error
	rng := rand.New(rand.NewSource(1))
	uniform := make([]int, cfg.PointReads)
	for i := range uniform {
		uniform[i] = rng.Intn(docs)
	}
	before := e18Snap(d)
	if p.point, err = e18ReadOps(svc, cfg.PointReads, false, func(i int) string {
		return e18Name(uniform[i])
	}); err != nil {
		return p, err
	}
	after := e18Snap(d)
	if reads := after.reads - before.reads; reads > 0 {
		p.bytesPerRead = float64(after.readBytes-before.readBytes) / float64(reads)
	}
	hotSet := cfg.HotSetSize
	if hotSet > docs {
		hotSet = docs
	}
	// Warm pass over the hot set, then the measured passes: with the cache
	// enabled every measured read is a RAM hit.
	if _, err = e18ReadOps(svc, hotSet, false, func(i int) string {
		return e18Name(i)
	}); err != nil {
		return p, err
	}
	before = e18Snap(d)
	if p.hot, err = e18ReadOps(svc, cfg.PointReads, false, func(i int) string {
		return e18Name(i % hotSet)
	}); err != nil {
		return p, err
	}
	after = e18Snap(d)
	p.hotHitPct = e18Pct(after.hits-before.hits, (after.hits-before.hits)+(after.misses-before.misses))

	before = e18Snap(d)
	if p.neg, err = e18ReadOps(svc, cfg.PointReads, true, func(i int) string {
		return e18MissName(i % docs)
	}); err != nil {
		return p, err
	}
	after = e18Snap(d)
	// A run lookup ends one of three ways — skipped by a bloom filter, served
	// by the cache, or a device read — so the skip rate is the share the
	// filters absorbed. Every lookup of this phase is for a missing name.
	skips := after.skips - before.skips
	p.negSkipPct = e18Pct(skips, skips+(after.hits-before.hits)+(after.reads-before.reads))
	p.negReadsPerMiss = float64(after.reads-before.reads) / float64(cfg.PointReads)

	p.mixed, err = e18ReadOps(svc, cfg.PointReads, true, func(i int) string {
		if i%2 == 0 {
			return e18Name(uniform[i])
		}
		return e18MissName(i % docs)
	})
	return p, err
}

// RunE18Size measures one catalog size across the three backends.
func RunE18Size(cfg E18Config, docs int) (E18Result, error) {
	res := E18Result{Docs: docs}

	// In-memory reference: point reads only — the other phases exist to
	// exercise machinery the RAM map does not have.
	mem := cloud.NewMemoryShards(cfg.Shards)
	if err := e18Populate(mem, docs, cfg); err != nil {
		return res, err
	}
	memPhases, err := e18ReadPhases(mem, nil, docs, cfg)
	if err != nil {
		return res, err
	}
	res.MemoryPointOps = memPhases.point

	// Durable baseline: same engine, blooms and cache disabled.
	baseDir, err := os.MkdirTemp("", "tc-e18-base-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(baseDir)
	base, err := cloud.OpenDurable(baseDir, cfg.durableOptions(false))
	if err != nil {
		return res, err
	}
	defer base.Close()
	if err := e18Populate(base, docs, cfg); err != nil {
		return res, err
	}
	if err := base.Flush(); err != nil {
		return res, err
	}
	basePhases, err := e18ReadPhases(base, base, docs, cfg)
	if err != nil {
		return res, err
	}
	res.BasePointOps, res.BaseHotOps, res.BaseNegOps = basePhases.point, basePhases.hot, basePhases.neg

	// Durable as shipped: per-run bloom filters + shared block cache.
	fastDir, err := os.MkdirTemp("", "tc-e18-fast-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(fastDir)
	fast, err := cloud.OpenDurable(fastDir, cfg.durableOptions(true))
	if err != nil {
		return res, err
	}
	if err := e18Populate(fast, docs, cfg); err != nil {
		fast.Crash()
		return res, err
	}
	if err := fast.Flush(); err != nil {
		fast.Crash()
		return res, err
	}
	res.Runs = fast.EngineStats().Runs
	fastPhases, err := e18ReadPhases(fast, fast, docs, cfg)
	if err != nil {
		fast.Crash()
		return res, err
	}
	res.FastPointOps, res.FastHotOps = fastPhases.point, fastPhases.hot
	res.FastNegOps, res.FastMixedOps = fastPhases.neg, fastPhases.mixed
	res.BloomSkipPct = fastPhases.negSkipPct
	res.CacheHitPct = fastPhases.hotHitPct
	res.DeviceReadsPerMiss = fastPhases.negReadsPerMiss
	res.BytesPerDeviceRead = fastPhases.bytesPerRead
	if res.BaseHotOps > 0 {
		res.HotSpeedup = res.FastHotOps / res.BaseHotOps
	}

	// Recovery drill: kill the store and time the reopen — with footered
	// runs the descriptors (sparse index, bloom filter, key range) come back
	// from the footers without decoding a single body entry.
	fast.Crash()
	recoverStart := time.Now()
	reopened, err := cloud.OpenDurable(fastDir, cfg.durableOptions(true))
	if err != nil {
		return res, fmt.Errorf("E18 reopen after kill: %w", err)
	}
	res.RecoveryMS = float64(time.Since(recoverStart).Microseconds()) / 1000
	if _, err := reopened.GetBlob(e18Name(0)); err != nil {
		reopened.Close()
		return res, fmt.Errorf("E18 read after recovery: %w", err)
	}
	if err := reopened.Close(); err != nil {
		return res, err
	}
	return res, nil
}

// RunE18 measures what makes the durable cloud the fast path: bloom filters
// that answer negative lookups with zero device reads, a block cache that
// serves hot reads from RAM, and run footers that let recovery rebuild its
// descriptors without scanning run bodies.
func RunE18(cfg E18Config) (*Table, error) {
	table := &Table{
		ID:    "E18",
		Title: "Durable read fast path: bloom filters, block cache, footer recovery",
		Headers: []string{"docs", "backend", "point /s", "hot /s", "neg /s", "mixed /s",
			"bloom skip %", "cache hit %", "dev reads/miss", "bytes/read", "recovery ms"},
		Notes: []string{
			fmt.Sprintf("raw %d B blobs via PutBlobs(%d), no cell crypto: the storage read path in isolation, %d FNV shards, %d KiB memtables (small, so reads hit the on-device runs)",
				cfg.PayloadSize, cfg.BatchSize, cfg.Shards, cfg.MemtableBytes>>10),
			"durable = fast path disabled (no bloom filters, no block cache); durable-fastpath = as shipped",
			fmt.Sprintf("phases: %d uniform point reads, %d reads over a %d-blob hot set (cache-resident after one warm pass), %d negative lookups, %d mixed",
				cfg.PointReads, cfg.PointReads, cfg.HotSetSize, cfg.PointReads, cfg.PointReads),
			"recovery ms = reopen after a kill: run descriptors come back from run footers without decoding body entries",
			"bytes/read = bytes one device read moved during the uniform point phase: one run block, at most 4 KiB plus one entry",
		},
	}
	headlineDocs := headlineScale(cfg.CatalogSizes)
	for _, docs := range cfg.CatalogSizes {
		res, err := RunE18Size(cfg, docs)
		if err != nil {
			return nil, err
		}
		table.AddRow(fmt.Sprintf("%d", docs), "memory",
			fmt.Sprintf("%.0f", res.MemoryPointOps), "-", "-", "-", "-", "-", "-", "-", "-")
		table.AddRow(fmt.Sprintf("%d", docs), "durable",
			fmt.Sprintf("%.0f", res.BasePointOps),
			fmt.Sprintf("%.0f", res.BaseHotOps),
			fmt.Sprintf("%.0f", res.BaseNegOps), "-", "-", "-", "-", "-", "-")
		table.AddRow(fmt.Sprintf("%d", docs), "durable-fastpath",
			fmt.Sprintf("%.0f", res.FastPointOps),
			fmt.Sprintf("%.0f", res.FastHotOps),
			fmt.Sprintf("%.0f", res.FastNegOps),
			fmt.Sprintf("%.0f", res.FastMixedOps),
			fmt.Sprintf("%.1f%%", res.BloomSkipPct),
			fmt.Sprintf("%.1f%%", res.CacheHitPct),
			fmt.Sprintf("%.3f", res.DeviceReadsPerMiss),
			fmt.Sprintf("%.0f", res.BytesPerDeviceRead),
			fmt.Sprintf("%.1f", res.RecoveryMS))
		if docs == headlineDocs {
			table.SetMetric("fastpath_docs_per_sec", res.FastPointOps)
			table.SetMetric("hot_docs_per_sec", res.FastHotOps)
			table.SetMetric("neg_docs_per_sec", res.FastNegOps)
			table.SetMetric("bloom_skip_pct", res.BloomSkipPct)
			table.SetMetric("cache_hit_pct", res.CacheHitPct)
			table.SetMetric("device_reads_per_miss", res.DeviceReadsPerMiss)
			table.SetMetric("bytes_per_device_read", res.BytesPerDeviceRead)
			table.SetMetric("hot_speedup", res.HotSpeedup)
		}
		if docs == 100_000 {
			table.SetMetric("recovery_ms_100k", res.RecoveryMS)
		}
	}
	return table, nil
}
