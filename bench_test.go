package trustedcells

// This file holds one benchmark per experiment of the evaluation suite
// defined in DESIGN.md (the paper itself, a vision paper, has no tables or
// figures; E1–E13 and E15–E18 plus the Figure 1 walk-through are the synthetic
// suite that substantiates each architectural claim). The same code paths
// back cmd/tcbench, which prints the full tables; the benchmarks here measure
// the cost of regenerating each experiment and keep them exercised by
// `go test -bench`.

import (
	"fmt"
	"net"
	"testing"
	"time"

	"trustedcells/internal/cloud"
	"trustedcells/internal/sim"
	"trustedcells/internal/storage"
	"trustedcells/internal/tamper"
	"trustedcells/internal/timeseries"
)

// benchE1Config is a reduced E1 configuration so the benchmark stays short.
func benchE1Config() sim.E1Config {
	cfg := sim.DefaultE1Config()
	cfg.Duration = 2 * time.Hour
	cfg.Granularities = []timeseries.Granularity{
		timeseries.GranularitySecond, timeseries.Granularity15Min,
	}
	return cfg
}

// BenchmarkE1GranularityPrivacy regenerates experiment E1 (appliance
// inference vs reporting granularity).
func BenchmarkE1GranularityPrivacy(b *testing.B) {
	cfg := benchE1Config()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunE1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2EmbeddedEngine regenerates experiment E2 (embedded storage
// engine across hardware profiles).
func BenchmarkE2EmbeddedEngine(b *testing.B) {
	cfg := sim.E2Config{Records: 2000, ValueLen: 64, Lookups: 500,
		Classes: []tamper.HardwareClass{tamper.ClassSecureToken, tamper.ClassTrustZonePhone}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunE2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3SharingLatency regenerates experiment E3 (secure sharing cost).
func BenchmarkE3SharingLatency(b *testing.B) {
	cfg := sim.E3Config{PayloadSizes: []int{1 << 10, 64 << 10}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunE3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4CommonsScale regenerates experiment E4 (shared commons secure
// aggregation at increasing population sizes).
func BenchmarkE4CommonsScale(b *testing.B) {
	cfg := sim.E4Config{Populations: []int{10, 100, 200}, Aggregators: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunE4(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5TamperDetection regenerates experiment E5 (integrity attack
// detection against the weakly-malicious cloud).
func BenchmarkE5TamperDetection(b *testing.B) {
	cfg := sim.E5Config{Blobs: 200, BlobSize: 1 << 10, TamperRates: []float64{0.01, 0.1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunE5(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6Exposure regenerates experiment E6 (centralized vault vs trusted
// cells: breach exposure, policy change, read overhead).
func BenchmarkE6Exposure(b *testing.B) {
	cfg := sim.E6Config{Users: 100, DocsPerUser: 3, Reads: 100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunE6(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7WeakSync regenerates experiment E7 (catalog synchronization
// under weak connectivity).
func BenchmarkE7WeakSync(b *testing.B) {
	cfg := sim.E7Config{Updates: 100, DisconnectRates: []float64{0, 0.6}, Seed: 11, MaxRecoverRounds: 20}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunE7(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8CommonsUtility regenerates experiment E8 (k-anonymity
// information loss and differential-privacy error).
func BenchmarkE8CommonsUtility(b *testing.B) {
	cfg := sim.E8Config{Records: 1000, Seed: 17, Ks: []int{2, 10}, Epsilons: []float64{0.5, 2}, Trials: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunE8(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9FleetThroughput measures experiment E9 at 16 concurrent cells:
// ingest throughput of the sequential path (per-document Ingest against the
// historical single-mutex store, one round-trip per blob) versus the
// sharded/batched path (IngestBatch flushing through cloud.Service.PutBlobs
// against the sharded store). The measured ops/sec of both paths and their
// ratio are attached as benchmark metrics; EXPERIMENTS.md records the
// reference numbers. The sharded/batched path is expected to sustain at
// least 2x the sequential throughput.
func BenchmarkE9FleetThroughput(b *testing.B) {
	cfg := sim.DefaultE9Config()
	const cells = 16
	var seqOps, batOps float64
	for i := 0; i < b.N; i++ {
		res, err := sim.RunE9Fleet(cfg, cells)
		if err != nil {
			b.Fatal(err)
		}
		seqOps += res.SequentialOps
		batOps += res.BatchedOps
	}
	seqOps /= float64(b.N)
	batOps /= float64(b.N)
	b.ReportMetric(seqOps, "seq-ops/sec")
	b.ReportMetric(batOps, "batched-ops/sec")
	if seqOps > 0 {
		b.ReportMetric(batOps/seqOps, "speedup")
	}
}

// BenchmarkE10QueryThroughput measures experiment E10 at 10k catalog
// documents with 16 concurrent readers: series-aggregate query throughput of
// the indexed+batched pipeline (planned index scan + one GetBlobs exchange
// per query + parallel open + streaming merge). EXPERIMENTS.md records the
// reference numbers.
func BenchmarkE10QueryThroughput(b *testing.B) {
	cfg := sim.DefaultE10Config()
	const catalogDocs = 10_000
	var qps float64
	for i := 0; i < b.N; i++ {
		res, err := sim.RunE10Size(cfg, catalogDocs)
		if err != nil {
			b.Fatal(err)
		}
		qps += res.BatchedQPS
	}
	b.ReportMetric(qps/float64(b.N), "queries/sec")
}

// BenchmarkE11DeltaSync measures experiment E11 at its default scale — 8
// replicas of a 10k-document catalog under a seeded intermittent-connectivity
// schedule — and attaches the sealed bytes moved and the recovery rounds as
// benchmark metrics. The byte counts are deterministic for the seed;
// EXPERIMENTS.md records the reference numbers.
func BenchmarkE11DeltaSync(b *testing.B) {
	cfg := sim.DefaultE11Config()
	var deltaBytes, rounds float64
	for i := 0; i < b.N; i++ {
		res, err := sim.RunE11Sync(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatalf("replicas did not converge: %+v", res)
		}
		deltaBytes += float64(res.SyncBytes)
		rounds += float64(res.Rounds)
	}
	b.ReportMetric(deltaBytes/float64(b.N)/(1<<20), "delta-sync-MB")
	b.ReportMetric(rounds/float64(b.N), "recovery-rounds")
}

// BenchmarkE12SealFastPath measures experiment E12's envelope
// microbenchmark: seal+open throughput and allocations per operation of the
// fast path (cached AEADs, bulk nonces, pooled buffers, in-place open).
// EXPERIMENTS.md records the reference numbers.
func BenchmarkE12SealFastPath(b *testing.B) {
	cfg := sim.DefaultE12Config()
	cfg.MicroOps = 5_000
	var ops, allocs float64
	for i := 0; i < b.N; i++ {
		res, err := sim.RunE12Micro(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ops += res.OpsPerSec
		allocs += res.AllocsPerOp
	}
	n := float64(b.N)
	b.ReportMetric(ops/n, "ops/sec")
	b.ReportMetric(allocs/n, "allocs/op")
}

// BenchmarkE12CellThroughput measures experiment E12's whole-cell workload at
// 10k documents: policy-gated ingest and read throughput.
func BenchmarkE12CellThroughput(b *testing.B) {
	cfg := sim.DefaultE12Config()
	const docs = 10_000
	var ingest, read float64
	for i := 0; i < b.N; i++ {
		res, err := sim.RunE12Cell(cfg, docs)
		if err != nil {
			b.Fatal(err)
		}
		ingest += res.IngestPerSec
		read += res.ReadPerSec
	}
	b.ReportMetric(ingest/float64(b.N), "ingest-docs/sec")
	b.ReportMetric(read/float64(b.N), "read-docs/sec")
}

// BenchmarkE13DurableCloud measures experiment E13 at 10k documents: batched
// cell ingest against the in-memory provider vs the disk-backed provider
// (group-committed journal + LSM checkpoints), plus the crash drill — kill the
// durable provider mid-workload, reopen, verify 100% of acknowledged blobs
// replay. The durability overhead is expected to stay under 3x and recovery
// to replay everything; EXPERIMENTS.md records the reference numbers.
func BenchmarkE13DurableCloud(b *testing.B) {
	cfg := sim.DefaultE13Config()
	const docs = 10_000
	var memOps, durOps, recoveryMS float64
	for i := 0; i < b.N; i++ {
		res, err := sim.RunE13Size(cfg, docs)
		if err != nil {
			b.Fatal(err)
		}
		if res.RecoveredPct != 100 {
			b.Fatalf("recovery replayed %.1f%% of acknowledged blobs", res.RecoveredPct)
		}
		memOps += res.MemoryOps
		durOps += res.DurableOps
		recoveryMS += res.RecoveryMS
	}
	n := float64(b.N)
	b.ReportMetric(memOps/n, "memory-docs/sec")
	b.ReportMetric(durOps/n, "durable-docs/sec")
	b.ReportMetric(recoveryMS/n, "recovery-ms")
	if durOps > 0 {
		b.ReportMetric(memOps/durOps, "durable-overhead")
	}
}

// BenchmarkE15ReplicatedCloud measures experiment E15 at 10k documents:
// batched cell ingest against a single in-memory provider vs a replicated
// three-member fleet at W=2/R=2, plus the kill drill — one member dies
// mid-workload, the workload keeps acknowledging, zero acknowledged writes
// are lost, and the returning member converges through the hinted-handoff
// drain. EXPERIMENTS.md records the reference numbers.
func BenchmarkE15ReplicatedCloud(b *testing.B) {
	cfg := sim.DefaultE15Config()
	const docs = 10_000
	var memOps, replOps, degradedX float64
	for i := 0; i < b.N; i++ {
		res, err := sim.RunE15Size(cfg, docs)
		if err != nil {
			b.Fatal(err)
		}
		if res.AckedLoss != 0 {
			b.Fatalf("kill drill lost %d acknowledged writes", res.AckedLoss)
		}
		if res.ConvergedPct != 100 {
			b.Fatalf("returning member converged %.1f%%, want 100%%", res.ConvergedPct)
		}
		memOps += res.MemoryOps
		replOps += res.ReplicatedOps
		degradedX += res.DegradedOverhead
	}
	n := float64(b.N)
	b.ReportMetric(memOps/n, "memory-docs/sec")
	b.ReportMetric(replOps/n, "replicated-docs/sec")
	b.ReportMetric(degradedX/n, "degraded-x")
	if replOps > 0 {
		b.ReportMetric(memOps/replOps, "replication-overhead")
	}
}

// BenchmarkE16CommonsQuery measures experiment E16 at 10k cells: one
// scatter/gather aggregate query plus the straggler and dropping-provider
// drills. Coverage and integrity are protocol properties, not machine-speed
// numbers, so the benchmark enforces them; the reported metrics track the
// per-cell traffic and the fleet rate.
func BenchmarkE16CommonsQuery(b *testing.B) {
	cfg := sim.DefaultE16Config()
	cfg.FleetSizes = []int{10_000}
	var bytesPerCell, cellsPerSec float64
	for i := 0; i < b.N; i++ {
		table, err := sim.RunE16(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if pct := table.Metrics["responded_pct"]; pct != 90 {
			b.Fatalf("straggler drill must release at exactly 90%% coverage, got %.1f%%", pct)
		}
		if c := table.Metrics["corrupted"]; c != 0 {
			b.Fatalf("corrupted releases: %.0f", c)
		}
		bytesPerCell += table.Metrics["bytes_per_cell"]
		cellsPerSec += table.Metrics["commons_cells_per_sec"]
	}
	n := float64(b.N)
	b.ReportMetric(bytesPerCell/n, "bytes/cell")
	b.ReportMetric(cellsPerSec/n, "cells/s")
}

// BenchmarkE17ByzantineQuarantine measures experiment E17 at 10k documents:
// drop/rollback/fork attacks against the durable provider and the replicated
// fleet. Detection within one exchange, zero false positives and quorum
// availability during quarantine are protocol properties, not machine-speed
// numbers, so the benchmark enforces them; the reported metrics track the
// detection latency and quorum readability during quarantine.
func BenchmarkE17ByzantineQuarantine(b *testing.B) {
	cfg := sim.DefaultE17Config()
	const docs = 10_000
	var detectMS, readablePct float64
	for i := 0; i < b.N; i++ {
		res, err := sim.RunE17Size(cfg, docs)
		if err != nil {
			b.Fatal(err)
		}
		if res.FalsePositives != 0 {
			b.Fatalf("honest runs convicted: %d false positives", res.FalsePositives)
		}
		worstMS, worstReadable := 0.0, 100.0
		for attack, d := range res.Durable {
			if !d.Detected || d.Rounds != 1 {
				b.Fatalf("durable %s attack: detected=%t rounds=%d, want one-exchange detection", attack, d.Detected, d.Rounds)
			}
			if d.DetectMS > worstMS {
				worstMS = d.DetectMS
			}
		}
		for attack, r := range res.Replicated {
			if !r.Detected || r.Rounds != 1 || !r.Readmitted {
				b.Fatalf("replicated %s attack: detected=%t rounds=%d readmitted=%t", attack, r.Detected, r.Rounds, r.Readmitted)
			}
			if r.ReadablePct < worstReadable {
				worstReadable = r.ReadablePct
			}
			if r.DetectMS > worstMS {
				worstMS = r.DetectMS
			}
		}
		detectMS += worstMS
		readablePct += worstReadable
	}
	n := float64(b.N)
	b.ReportMetric(detectMS/n, "detect-ms")
	b.ReportMetric(readablePct/n, "quarantine-readable-%")
}

// BenchmarkE18ReadFastPath measures experiment E18 at 10k documents: point,
// hot-set, negative and mixed reads against the durable provider with the
// fast path on (per-run bloom filters + shared block cache) vs off. The bloom
// filters are expected to absorb ≥95% of negative run lookups — that is a
// correctness property of the filter math, not a machine-speed number, so the
// benchmark enforces it. EXPERIMENTS.md records the reference numbers.
func BenchmarkE18ReadFastPath(b *testing.B) {
	cfg := sim.DefaultE18Config()
	const docs = 10_000
	var fastOps, hotOps, negOps, skipPct float64
	for i := 0; i < b.N; i++ {
		res, err := sim.RunE18Size(cfg, docs)
		if err != nil {
			b.Fatal(err)
		}
		if res.BloomSkipPct < 95 {
			b.Fatalf("bloom filters absorbed %.1f%% of negative lookups, want >=95%%", res.BloomSkipPct)
		}
		fastOps += res.FastPointOps
		hotOps += res.FastHotOps
		negOps += res.FastNegOps
		skipPct += res.BloomSkipPct
	}
	n := float64(b.N)
	b.ReportMetric(fastOps/n, "point-docs/sec")
	b.ReportMetric(hotOps/n, "hot-docs/sec")
	b.ReportMetric(negOps/n, "neg-docs/sec")
	b.ReportMetric(skipPct/n, "bloom-skip-%")
}

// BenchmarkFig1Walkthrough runs the Figure 1 end-to-end architecture
// walk-through (all flows of the paper's only figure).
func BenchmarkFig1Walkthrough(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunFig1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMetadataFirst and BenchmarkAblationFetchEverything compare
// the metadata-first query strategy (the catalog answers keyword queries
// inside the cell) against the naive alternative of fetching and decrypting
// every payload to decide whether it matches — the ablation called out in
// DESIGN.md for the "metadata kept locally" design decision.
func BenchmarkAblationMetadataFirst(b *testing.B) {
	cell, docIDs := ablationCell(b)
	_ = docIDs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		docs, err := cell.Search(Query{Keyword: "rare"})
		if err != nil || len(docs) != 10 {
			b.Fatalf("search: %d docs, %v", len(docs), err)
		}
	}
}

func BenchmarkAblationFetchEverything(b *testing.B) {
	cell, docIDs := ablationCell(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matches := 0
		for _, id := range docIDs {
			payload, err := cell.Read("owner", id, AccessContext{})
			if err != nil {
				b.Fatal(err)
			}
			if len(payload) > 0 && payload[0] == 'R' { // marker of "rare" documents
				matches++
			}
		}
		if matches != 10 {
			b.Fatalf("fetch-everything found %d matches", matches)
		}
	}
}

func ablationCell(b *testing.B) (*Cell, []string) {
	b.Helper()
	cell, err := NewCell(CellConfig{ID: "ablation", Class: ClassHomeGateway,
		Cloud: NewMemoryCloud(), Seed: []byte("ablation")})
	if err != nil {
		b.Fatal(err)
	}
	if err := cell.AddRule(Rule{ID: "owner", Effect: EffectAllow, SubjectIDs: []string{"owner"},
		Actions: []Action{ActionRead}}); err != nil {
		b.Fatal(err)
	}
	var ids []string
	for i := 0; i < 200; i++ {
		keywords := []string{"common"}
		payload := make([]byte, 512)
		if i%20 == 0 {
			keywords = append(keywords, "rare")
			payload[0] = 'R'
		}
		payload[1] = byte(i)
		doc, err := cell.Ingest(payload, IngestOptions{Class: ClassAuthored, Type: "note",
			Title: "n", Keywords: keywords})
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, doc.ID)
	}
	return cell, ids
}

// BenchmarkCellIngestRead measures the steady-state cost of the reference
// monitor itself: one sealed ingest plus one policy-checked read.
func BenchmarkCellIngestRead(b *testing.B) {
	svc := NewMemoryCloud()
	cell, err := NewCell(CellConfig{ID: "bench-cell", Class: ClassHomeGateway, Cloud: svc, Seed: []byte("bench")})
	if err != nil {
		b.Fatal(err)
	}
	if err := cell.AddRule(Rule{ID: "owner", Effect: EffectAllow, SubjectIDs: []string{"owner"},
		Actions: []Action{ActionRead}}); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 4096)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload[0] = byte(i)
		payload[1] = byte(i >> 8)
		payload[2] = byte(i >> 16)
		doc, err := cell.Ingest(payload, IngestOptions{Class: ClassAuthored, Type: "note", Title: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cell.Read("owner", doc.ID, AccessContext{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPersistentKV opens an LSM engine in a fresh directory, loads n keys
// through a small memtable (so the data lands in on-device runs, not RAM) and
// flushes. The returned keys are the stored ones; missing() derives names
// inside the stored key range that were never written.
func benchPersistentKV(b *testing.B, n int) (*storage.PersistentKV, [][]byte) {
	b.Helper()
	kv, err := storage.OpenPersistentKV(b.TempDir(), storage.PersistentOptions{
		MemtableBytes: 64 << 10,
		MaxRuns:       64,
		Cache:         storage.NewBlockCache(8 << 20),
	})
	if err != nil {
		b.Fatal(err)
	}
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("bench/key-%07d", i))
	}
	const batch = 256
	for start := 0; start < n; start += batch {
		end := start + batch
		if end > n {
			end = n
		}
		ops := make([]storage.Op, 0, batch)
		for _, k := range keys[start:end] {
			ops = append(ops, storage.Op{Key: k, Value: make([]byte, 256)})
		}
		if err := kv.Apply(ops); err != nil {
			b.Fatal(err)
		}
	}
	if err := kv.Flush(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { kv.Crash() })
	return kv, keys
}

// BenchmarkPersistentKVGet measures point lookups of present keys against the
// on-device runs (bloom filters pass, block cache admits on read — steady
// state is RAM-served for a working set within the cache budget).
func BenchmarkPersistentKVGet(b *testing.B) {
	kv, keys := benchPersistentKV(b, 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := kv.Get(keys[i%len(keys)])
		if err != nil {
			b.Fatal(err)
		}
		if len(v) == 0 {
			b.Fatal("empty value")
		}
	}
}

// BenchmarkPersistentKVGetMiss measures point lookups of absent keys that
// fall inside every run's key range, so the per-run bloom filters — not the
// run bounds — must reject them. The steady state is zero device reads.
func BenchmarkPersistentKVGetMiss(b *testing.B) {
	kv, _ := benchPersistentKV(b, 10_000)
	miss := make([][]byte, 4096)
	for i := range miss {
		miss[i] = []byte(fmt.Sprintf("bench/key-%07d.miss", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kv.Get(miss[i%len(miss)]); err != storage.ErrNotFound {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := kv.Stats()
	if total := st.BloomSkips + st.CacheHits + st.RunReads; total > 0 {
		b.ReportMetric(100*float64(st.BloomSkips)/float64(total), "bloom-skip-%")
	}
}

// BenchmarkFrameRoundTrip measures one batched call through the framed front
// door — FrameClient, loopback socket, FrameServer, in-memory backend — in
// the two shapes the repository's benchmark (bench/) loads it with: a write
// of 16 sealed 256-byte documents (the request carries the bytes) and a read
// of 16 sealed 1 KiB documents (the response does). One call in flight, so
// ns/op and allocs/op are the frame layer's own cost plus a memory store;
// a codec regression shows here without the full benchmark run.
func BenchmarkFrameRoundTrip(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := cloud.NewFrameServer(cloud.NewMemory(), cloud.FrameServerOptions{})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	client, err := cloud.DialFramed(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		_ = client.Close()
		_ = srv.Close()
		<-served
	})

	const batch = 16
	batchOf := func(docBytes int) ([]string, []cloud.BlobPut) {
		names := make([]string, batch)
		puts := make([]cloud.BlobPut, batch)
		for i := range puts {
			names[i] = fmt.Sprintf("fleet/c%07d/d%07d", docBytes, i)
			puts[i] = cloud.BlobPut{Name: names[i], Data: make([]byte, docBytes)}
		}
		return names, puts
	}

	b.Run("write", func(b *testing.B) {
		_, puts := batchOf(256 + 64) // payload plus envelope overhead
		b.ReportAllocs()
		b.SetBytes(batch * int64(len(puts[0].Data)))
		for i := 0; i < b.N; i++ {
			if _, err := client.PutBlobs(puts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		names, puts := batchOf(1024 + 64)
		if _, err := client.PutBlobs(puts); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.SetBytes(batch * int64(len(puts[0].Data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			blobs, err := client.GetBlobs(names)
			if err != nil || len(blobs[batch-1].Data) != len(puts[0].Data) {
				b.Fatalf("read: %d blobs, %v", len(blobs), err)
			}
		}
	})
}
