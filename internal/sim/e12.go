package sim

import (
	"fmt"
	"runtime"
	"time"

	"trustedcells/internal/cloud"
	"trustedcells/internal/core"
	"trustedcells/internal/crypto"
	"trustedcells/internal/datamodel"
	"trustedcells/internal/policy"
	"trustedcells/internal/tamper"
)

// ---------------------------------------------------------------------------
// E12 — the sealing fast path: cached AEADs, pooled buffers, binary codec
// ---------------------------------------------------------------------------

// E12Config parameterises the envelope fast-path experiment. It has two
// parts: a single-threaded envelope microbenchmark (seal+open throughput and
// allocations per operation), and a whole-cell workload (ingest then read a
// catalog of 1k/10k/100k documents through the reference monitor).
type E12Config struct {
	// MicroOps is how many seal+open pairs each microbenchmark path runs.
	MicroOps int
	// MicroPayload is the plaintext size of the microbenchmark envelopes.
	MicroPayload int
	// MicroADLen is the associated-data length of the microbenchmark.
	MicroADLen int
	// MicroKeys is how many distinct per-document keys the microbenchmark
	// cycles through — mirroring a cell re-sealing and re-opening documents
	// whose keys recur, the access pattern the AEAD cache exploits.
	MicroKeys int
	// CatalogSizes are the document counts of the whole-cell workload.
	CatalogSizes []int
	// PayloadSize is the plaintext size of each cell document.
	PayloadSize int
	// BatchSize is the IngestBatch chunk of the cell workload.
	BatchSize int
	// ReadChunk is the ReadBatch chunk of the cell workload.
	ReadChunk int
}

// DefaultE12Config measures 20k envelope pairs over 256 keys and cell
// catalogs of 1k, 10k and 100k one-KiB documents.
func DefaultE12Config() E12Config {
	return E12Config{
		MicroOps:     20_000,
		MicroPayload: 1 << 10,
		MicroADLen:   32,
		MicroKeys:    256,
		CatalogSizes: []int{1_000, 10_000, 100_000},
		PayloadSize:  1 << 10,
		BatchSize:    256,
		ReadChunk:    256,
	}
}

// E12MicroResult is the envelope microbenchmark outcome.
type E12MicroResult struct {
	OpsPerSec   float64 // seal+open pairs per second, single-threaded
	AllocsPerOp float64 // heap allocations per seal+open pair
}

// E12CellResult is the whole-cell workload outcome at one catalog size.
type E12CellResult struct {
	Docs            int
	IngestPerSec    float64
	IngestAllocsDoc float64
	ReadPerSec      float64
	ReadAllocsDoc   float64
}

// measureOps runs fn and returns its throughput plus the heap allocations it
// performed per operation, via the runtime's global malloc counter (the
// workload is the only thing running, so the counter is attributable).
func measureOps(ops int, fn func() error) (opsPerSec, allocsPerOp float64, err error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if err := fn(); err != nil {
		return 0, 0, err
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(ops) / elapsed.Seconds(),
		float64(m1.Mallocs-m0.Mallocs) / float64(ops), nil
}

// RunE12Micro measures seal+open cost through SealTo/OpenTo into recycled
// buffers.
func RunE12Micro(cfg E12Config) (E12MicroResult, error) {
	master, err := crypto.NewSymmetricKey()
	if err != nil {
		return E12MicroResult{}, err
	}
	keys := make([]crypto.SymmetricKey, cfg.MicroKeys)
	for i := range keys {
		keys[i] = crypto.DeriveKeyN(master, "e12-doc", uint64(i))
	}
	payload := make([]byte, cfg.MicroPayload)
	for i := range payload {
		payload[i] = byte(i)
	}
	ad := make([]byte, cfg.MicroADLen)

	sealBuf := make([]byte, 0, cfg.MicroPayload+crypto.EnvelopeOverhead(cfg.MicroADLen))
	ptBuf := make([]byte, 0, cfg.MicroPayload)
	pair := func(k crypto.SymmetricKey) error {
		sealed, err := crypto.SealTo(sealBuf, k, payload, ad)
		if err != nil {
			return fmt.Errorf("E12: seal: %w", err)
		}
		pt, _, err := crypto.OpenTo(ptBuf, k, sealed)
		if err != nil {
			return fmt.Errorf("E12: open: %w", err)
		}
		if len(pt) != len(payload) || pt[1] != payload[1] {
			return fmt.Errorf("E12: round trip corrupted")
		}
		return nil
	}
	// Warm-up pass (not measured): touch every key once so the measurement
	// sees the steady state the AEAD cache is built for.
	for _, k := range keys {
		if err := pair(k); err != nil {
			return E12MicroResult{}, err
		}
	}
	var res E12MicroResult
	res.OpsPerSec, res.AllocsPerOp, err = measureOps(cfg.MicroOps, func() error {
		for i := 0; i < cfg.MicroOps; i++ {
			if err := pair(keys[i%len(keys)]); err != nil {
				return err
			}
		}
		return nil
	})
	return res, err
}

// RunE12Cell runs the whole-cell workload at one catalog size: ingest docs
// documents through IngestBatch, then read every one back through ReadBatch
// (policy gate, batched fetch, parallel open), measuring throughput and
// allocations per document on both phases.
func RunE12Cell(cfg E12Config, docs int) (E12CellResult, error) {
	res := E12CellResult{Docs: docs}
	svc := cloud.NewMemoryShards(cloud.DefaultShards)
	cell, err := core.New(core.Config{
		ID:    "e12-cell",
		Class: tamper.ClassHomeGateway,
		Cloud: svc,
		Seed:  []byte("e12-seed"),
		Clock: fixedClock(),
	})
	if err != nil {
		return res, err
	}
	if err := cell.AddRule(policy.Rule{ID: "reader", Effect: policy.EffectAllow,
		SubjectIDs: []string{"e12-reader"}, Actions: []policy.Action{policy.ActionRead}}); err != nil {
		return res, err
	}

	// Payloads are stamped with the document index so every document hashes
	// to a distinct ID.
	mkPayload := func(di int) []byte {
		header := fmt.Sprintf("e12-doc-%07d", di)
		size := cfg.PayloadSize
		if size < len(header) {
			size = len(header)
		}
		p := make([]byte, size)
		copy(p, header)
		return p
	}
	opts := core.IngestOptions{Class: datamodel.ClassSensed, Type: "reading", Title: "e12"}

	ids := make([]string, 0, docs)
	ingest := func() error {
		for lo := 0; lo < docs; lo += cfg.BatchSize {
			hi := lo + cfg.BatchSize
			if hi > docs {
				hi = docs
			}
			items := make([]core.IngestItem, 0, hi-lo)
			for di := lo; di < hi; di++ {
				items = append(items, core.IngestItem{Payload: mkPayload(di), Opts: opts})
			}
			batch, err := cell.IngestBatch(items)
			if err != nil {
				return fmt.Errorf("E12: ingest: %w", err)
			}
			for _, d := range batch {
				ids = append(ids, d.ID)
			}
		}
		return nil
	}
	if res.IngestPerSec, res.IngestAllocsDoc, err = measureOps(docs, ingest); err != nil {
		return res, err
	}

	read := func() error {
		for lo := 0; lo < len(ids); lo += cfg.ReadChunk {
			hi := lo + cfg.ReadChunk
			if hi > len(ids) {
				hi = len(ids)
			}
			for _, r := range cell.ReadBatch("e12-reader", ids[lo:hi], core.AccessContext{}) {
				if r.Err != nil {
					return fmt.Errorf("E12: read %s: %w", r.DocID, r.Err)
				}
			}
		}
		return nil
	}
	if res.ReadPerSec, res.ReadAllocsDoc, err = measureOps(docs, read); err != nil {
		return res, err
	}
	return res, nil
}

// RunE12 measures the envelope fast path end to end. The microbenchmark
// isolates the per-envelope constant factor (cached AEADs + bulk nonces +
// pooled single-allocation builds); the cell workload shows what it costs
// once the whole reference monitor — catalog, policy gate, audit, local
// cache, cloud batch API — wraps around it.
func RunE12(cfg E12Config) (*Table, error) {
	table := &Table{
		ID:      "E12",
		Title:   "Zero-allocation sealing fast path: envelope micro-cost and whole-cell throughput",
		Headers: []string{"workload", "ops/sec", "allocs/op", "read ops/sec", "read allocs/op"},
		Notes: []string{
			fmt.Sprintf("micro: %d seal+open pairs of %d B payloads under %d distinct per-document keys, single-threaded; cached AEADs, bulk nonces, pooled buffers, in-place open",
				cfg.MicroOps, cfg.MicroPayload, cfg.MicroKeys),
			fmt.Sprintf("cell: ingest via IngestBatch(%d) then read back via ReadBatch(%d) as a policy-gated subject, %d B payloads, in-memory sharded provider",
				cfg.BatchSize, cfg.ReadChunk, cfg.PayloadSize),
			"cell allocs/op count the whole reference monitor (metadata, policy gate, audit, cache, provider), not just the envelope",
		},
	}

	micro, err := RunE12Micro(cfg)
	if err != nil {
		return nil, err
	}
	table.AddRow("envelope micro",
		fmt.Sprintf("%.0f", micro.OpsPerSec),
		fmt.Sprintf("%.1f", micro.AllocsPerOp),
		"-", "-")
	table.SetMetric("fast_allocs_per_op", micro.AllocsPerOp)

	headlineDocs := headlineScale(cfg.CatalogSizes)
	for _, docs := range cfg.CatalogSizes {
		r, err := RunE12Cell(cfg, docs)
		if err != nil {
			return nil, err
		}
		table.AddRow(fmt.Sprintf("cell %dk docs", docs/1000),
			fmt.Sprintf("%.0f", r.IngestPerSec),
			fmt.Sprintf("%.1f", r.IngestAllocsDoc),
			fmt.Sprintf("%.0f", r.ReadPerSec),
			fmt.Sprintf("%.1f", r.ReadAllocsDoc))
		if docs != headlineDocs {
			continue
		}
		table.SetMetric("fast_ingest_docs_per_sec", r.IngestPerSec)
		table.SetMetric("fast_read_docs_per_sec", r.ReadPerSec)
	}
	return table, nil
}
