package sim

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestTableRender(t *testing.T) {
	table := &Table{ID: "X", Title: "demo", Headers: []string{"a", "bb"}, Notes: []string{"a note"}}
	table.AddRow("1", "2")
	table.AddRow("longer", "4")
	out := table.String()
	for _, want := range []string{"X — demo", "a", "bb", "longer", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestRunDispatchUnknown(t *testing.T) {
	// e14 is bench/'s frontdoor_ingest workload, not a harness experiment.
	for _, id := range []string{"e99", "e14"} {
		if _, err := Run(id); err == nil {
			t.Fatalf("unknown experiment %s accepted", id)
		}
	}
	seen := make(map[string]bool)
	for _, id := range ExperimentIDs() {
		if seen[id] {
			t.Fatalf("experiment %s listed twice", id)
		}
		seen[id] = true
	}
}

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cannot parse %q as float: %v", s, err)
	}
	return v
}

func TestRunE1Shape(t *testing.T) {
	cfg := DefaultE1Config()
	table, err := RunE1(cfg)
	if err != nil {
		t.Fatalf("RunE1: %v", err)
	}
	if len(table.Rows) != len(cfg.Granularities) {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	// F1 at 1 s must clearly exceed F1 at 15 min — the paper's core privacy
	// claim — and coarse aggregates must lose most of the appliance signal.
	f1Fine := parseFloat(t, table.Rows[0][1])
	f1Coarse := parseFloat(t, table.Rows[2][1])
	if f1Fine <= f1Coarse {
		t.Fatalf("appliance inference did not degrade: 1s=%.2f 15min=%.2f\n%s", f1Fine, f1Coarse, table)
	}
	if f1Coarse > 0.75*f1Fine {
		t.Fatalf("15-minute aggregates barely degrade inference (1s=%.2f, 15min=%.2f)", f1Fine, f1Coarse)
	}
}

func TestRunE2Shape(t *testing.T) {
	cfg := DefaultE2Config()
	cfg.Records = 1500
	cfg.Lookups = 300
	table, err := RunE2(cfg)
	if err != nil {
		t.Fatalf("RunE2: %v", err)
	}
	if len(table.Rows) != len(cfg.Classes) {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	// The secure token must be slower than the TrustZone phone for inserts.
	tokenInsert, err1 := time.ParseDuration(table.Rows[0][2])
	phoneInsert, err2 := time.ParseDuration(table.Rows[2][2])
	if err1 != nil || err2 != nil {
		t.Fatalf("cannot parse durations: %v %v\n%s", err1, err2, table)
	}
	if tokenInsert <= phoneInsert {
		t.Fatalf("token (%v) should be slower than phone (%v)\n%s", tokenInsert, phoneInsert, table)
	}
}

func TestRunE3Shape(t *testing.T) {
	cfg := E3Config{PayloadSizes: []int{1 << 10, 64 << 10}}
	table, err := RunE3(cfg)
	if err != nil {
		t.Fatalf("RunE3: %v", err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	for _, row := range table.Rows {
		if row[5] == "0" {
			t.Fatalf("no cloud messages recorded: %v", row)
		}
	}
}

func TestRunE4Shape(t *testing.T) {
	cfg := E4Config{Populations: []int{10, 100}, Aggregators: 3}
	table, err := RunE4(cfg)
	if err != nil {
		t.Fatalf("RunE4: %v", err)
	}
	if len(table.Rows) != 4 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	// Every row moves 2n + 4c messages; bytes per cell stay flat for the
	// cloud-assisted committee and grow with n for pure SMC.
	bytesPerCell := map[string]float64{}
	for _, row := range table.Rows {
		n, committee := int(parseFloat(t, row[0])), int(parseFloat(t, row[2]))
		if got := int(parseFloat(t, row[3])); got != 2*n+4*committee {
			t.Fatalf("%s at %d cells: %d messages, want %d\n%s", row[1], n, got, 2*n+4*committee, table)
		}
		bytesPerCell[row[1]+"/"+row[0]] = parseFloat(t, row[4])
	}
	if smc10, smc100 := bytesPerCell["pure-smc/10"], bytesPerCell["pure-smc/100"]; smc100 < 5*smc10 {
		t.Fatalf("pure SMC per-cell bytes should grow with population\n%s", table)
	}
	if c10, c100 := bytesPerCell["cloud-assisted/10"], bytesPerCell["cloud-assisted/100"]; math.Abs(c100-c10) > 0.2*c10 {
		t.Fatalf("cloud-assisted per-cell bytes should stay within 20%%\n%s", table)
	}
	if got := table.Metrics["cloud_assisted_sends_per_cell"]; got != 2.12 {
		t.Fatalf("cloud-assisted sends per cell at 100 = %v, want 2.12", got)
	}
}

func TestRunE5DetectsEverything(t *testing.T) {
	cfg := E5Config{Blobs: 100, BlobSize: 512, TamperRates: []float64{0.05, 0.2}}
	table, err := RunE5(cfg)
	if err != nil {
		t.Fatalf("RunE5: %v", err)
	}
	for _, row := range table.Rows {
		if row[4] != "n/a" && row[4] != "100%" {
			t.Fatalf("detection rate below 100%%: %v", row)
		}
	}
}

func TestRunE6Shape(t *testing.T) {
	cfg := E6Config{Users: 50, DocsPerUser: 3, Reads: 50}
	table, err := RunE6(cfg)
	if err != nil {
		t.Fatalf("RunE6: %v", err)
	}
	if len(table.Rows) != 3 {
		t.Fatalf("rows = %d\n%s", len(table.Rows), table)
	}
	if !strings.Contains(table.Rows[0][1], "150") {
		t.Fatalf("central breach should expose all 150 records: %v", table.Rows[0])
	}
	if !strings.Contains(table.Rows[0][2], "3 ") && !strings.HasPrefix(table.Rows[0][2], "3") {
		t.Fatalf("cell breach should expose 3 records: %v", table.Rows[0])
	}
	if !strings.Contains(table.Rows[1][1], "50 of 50") {
		t.Fatalf("policy change should affect every central user: %v", table.Rows[1])
	}
	if !strings.HasPrefix(table.Rows[1][2], "0") {
		t.Fatalf("policy change should not leak from cells: %v", table.Rows[1])
	}
}

func TestRunE7Converges(t *testing.T) {
	cfg := E7Config{Updates: 100, DisconnectRates: []float64{0, 0.5}, Seed: 3, MaxRecoverRounds: 20}
	table, err := RunE7(cfg)
	if err != nil {
		t.Fatalf("RunE7: %v", err)
	}
	for _, row := range table.Rows {
		if row[len(row)-1] != "true" {
			t.Fatalf("replicas did not converge: %v", row)
		}
	}
}

func TestRunE8Shape(t *testing.T) {
	cfg := E8Config{Records: 500, Seed: 17, Ks: []int{2, 50}, Epsilons: []float64{0.1, 2}, Trials: 10}
	table, err := RunE8(cfg)
	if err != nil {
		t.Fatalf("RunE8: %v", err)
	}
	if len(table.Rows) != 4 {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	lossK2 := parseFloat(t, table.Rows[0][2])
	lossK50 := parseFloat(t, table.Rows[1][2])
	if lossK50 < lossK2 {
		t.Fatalf("information loss should not shrink with k: %v vs %v", lossK2, lossK50)
	}
	maeLoose := parseFloat(t, table.Rows[2][3])
	maeTight := parseFloat(t, table.Rows[3][3])
	if maeTight >= maeLoose {
		t.Fatalf("DP error should shrink as epsilon grows: %v vs %v", maeLoose, maeTight)
	}
}

// TestRunE9Shape verifies the fleet experiment's shape by what batching
// saves — service round trips — rather than by a ratio of wall-clock rates,
// which a loaded host can invert: the sequential path makes exactly one call
// per document, the batched path at most one per batch. The rate itself is
// gated by e9.speedup in ci/bench_baseline.json.
func TestRunE9Shape(t *testing.T) {
	cfg := DefaultE9Config()
	cfg.DocsPerCell = 20 // two batches of the default 16, the second partial
	for _, cells := range []int{2, 8} {
		res, err := RunE9Fleet(cfg, cells)
		if err != nil {
			t.Fatalf("RunE9Fleet(%d): %v", cells, err)
		}
		if res.SequentialOps <= 0 || res.BatchedOps <= 0 {
			t.Fatalf("%d cells: throughput must be positive: %+v", cells, res)
		}
		if res.SequentialCallsPerDoc != 1 {
			t.Fatalf("%d cells: sequential path made %.3f service calls per document, want 1", cells, res.SequentialCallsPerDoc)
		}
		batches := (cfg.DocsPerCell + cfg.BatchSize - 1) / cfg.BatchSize
		if limit := float64(batches) / float64(cfg.DocsPerCell); res.BatchedCallsPerDoc > limit {
			t.Fatalf("%d cells: batched path made %.3f service calls per document, want <= %.3f", cells, res.BatchedCallsPerDoc, limit)
		}
	}
}

// TestRunE10Shape verifies the query experiment at a reduced scale: every
// partition query returns its documents (RunE10Size checks the count), and
// the (tag key, value) index hands the planner only the partition's own
// documents, whatever the catalog size.
func TestRunE10Shape(t *testing.T) {
	cfg := DefaultE10Config()
	cfg.CatalogSizes = []int{2000}
	cfg.Partitions = 16
	res, err := RunE10Size(cfg, 2000)
	if err != nil {
		t.Fatalf("RunE10Size: %v", err)
	}
	if res.BatchedQPS <= 0 {
		t.Fatalf("throughput must be positive: %+v", res)
	}
	if res.ScannedPerQuery > float64(cfg.DocsPerPartition) {
		t.Fatalf("planner scans more than a partition of %d documents: %+v", cfg.DocsPerPartition, res)
	}
	table, err := RunE10(E10Config{CatalogSizes: []int{1000}, Readers: 4, Partitions: 8,
		DocsPerPartition: 4, PointsPerSeries: 12, RTT: cfg.RTT, Shards: cfg.Shards})
	if err != nil {
		t.Fatalf("RunE10: %v", err)
	}
	if len(table.Rows) != 1 || table.Metrics["batched_qps"] <= 0 {
		t.Fatalf("rows = %d, metrics %v\n%s", len(table.Rows), table.Metrics, table)
	}
}

// TestRunE11Shape verifies the replication experiment at a reduced scale:
// the fleet must converge (state and conflict counts) and report its sync
// bytes. The byte counts are seed-driven, not timing-driven, so two runs of
// the same configuration must move exactly the same bytes on any machine.
func TestRunE11Shape(t *testing.T) {
	cfg := E11Config{
		Replicas:         4,
		Docs:             2_000,
		SyncShards:       64,
		ChurnRounds:      4,
		UpdatesPerRound:  16,
		ConnectProb:      0.5,
		Seed:             19,
		MaxRecoverRounds: 30,
	}
	first, err := RunE11Sync(cfg)
	if err != nil {
		t.Fatalf("RunE11Sync: %v", err)
	}
	if !first.Converged {
		t.Fatalf("did not converge: %+v", first)
	}
	if first.SyncBytes <= 0 || first.ShardsMoved <= 0 {
		t.Fatalf("no sync traffic measured: %+v", first)
	}
	again, err := RunE11Sync(cfg)
	if err != nil {
		t.Fatalf("RunE11Sync: %v", err)
	}
	if again.SyncBytes != first.SyncBytes || again.Rounds != first.Rounds || again.Conflicts != first.Conflicts {
		t.Fatalf("same seed, different run:\n first %+v\n again %+v", first, again)
	}
	table, err := RunE11(E11Config{
		Replicas: 3, Docs: 500, SyncShards: 32, ChurnRounds: 2,
		UpdatesPerRound: 8, ConnectProb: 0.6, Seed: 7, MaxRecoverRounds: 20,
	})
	if err != nil {
		t.Fatalf("RunE11: %v", err)
	}
	if len(table.Rows) != 1 || table.Metrics["delta_sync_mb"] <= 0 {
		t.Fatalf("rows = %d, metrics %v\n%s", len(table.Rows), table.Metrics, table)
	}
}

// TestRunE12Shape verifies the fast-path experiment at a reduced scale. The
// allocation count is deterministic (it counts mallocs, not time), so the
// zero-allocation claim is asserted even here.
func TestRunE12Shape(t *testing.T) {
	cfg := E12Config{
		MicroOps: 2_000, MicroPayload: 1 << 10, MicroADLen: 32, MicroKeys: 64,
		CatalogSizes: []int{500}, PayloadSize: 512, BatchSize: 128, ReadChunk: 128,
	}
	table, err := RunE12(cfg)
	if err != nil {
		t.Fatalf("RunE12: %v", err)
	}
	// 1 micro row + 1 row per catalog size.
	if len(table.Rows) != 1+len(cfg.CatalogSizes) {
		t.Fatalf("rows = %d\n%s", len(table.Rows), table)
	}
	if table.Metrics["fast_allocs_per_op"] > 0.5 {
		t.Fatalf("fast path allocates %.1f times per seal+open, want 0\n%s",
			table.Metrics["fast_allocs_per_op"], table)
	}
	if table.Metrics["fast_ingest_docs_per_sec"] <= 0 || table.Metrics["fast_read_docs_per_sec"] <= 0 {
		t.Fatalf("cell throughput missing: %v", table.Metrics)
	}
}

// TestRunE13Shape verifies the durable-provider experiment at a reduced
// scale. Throughput numbers are machine-dependent, but the durability claims
// are not: the crash drill must replay 100% of the acknowledged blobs, and
// recovery must actually have replayed journal state.
func TestRunE13Shape(t *testing.T) {
	cfg := E13Config{
		CatalogSizes:  []int{800},
		PayloadSize:   512,
		BatchSize:     128,
		Shards:        4,
		MemtableBytes: 32 << 10,
		MaxRuns:       4,
		KillFrac:      0.5,
	}
	table, err := RunE13(cfg)
	if err != nil {
		t.Fatalf("RunE13: %v", err)
	}
	// Two rows (memory, durable) per catalog size.
	if len(table.Rows) != 2*len(cfg.CatalogSizes) {
		t.Fatalf("rows = %d\n%s", len(table.Rows), table)
	}
	if table.Metrics["durable_ingest_docs_per_sec"] <= 0 {
		t.Fatalf("durable throughput missing: %v\n%s", table.Metrics, table)
	}
	if pct := table.Metrics["recovered_pct"]; pct != 100 {
		t.Fatalf("recovery must replay 100%% of acknowledged blobs, got %.1f%%\n%s", pct, table)
	}
	if table.Metrics["replayed_blobs"] <= 0 {
		t.Fatalf("no blobs replayed: %v\n%s", table.Metrics, table)
	}
	if table.Metrics["recovery_ms"] < 0 {
		t.Fatalf("recovery time missing: %v", table.Metrics)
	}
	if table.Metrics["durable_overhead"] <= 0 {
		t.Fatalf("overhead metric missing: %v", table.Metrics)
	}
}

// TestRunE15Shape is the acceptance gate of the availability drill: one of
// three providers dies mid-workload, no acknowledged write may be lost, and
// the returning member must converge through the hinted-handoff drain.
func TestRunE15Shape(t *testing.T) {
	cfg := E15Config{
		CatalogSizes: []int{800},
		PayloadSize:  512,
		BatchSize:    128,
		Members:      3,
		WriteQuorum:  2,
		ReadQuorum:   2,
		KillFrac:     0.5,
	}
	table, err := RunE15(cfg)
	if err != nil {
		t.Fatalf("RunE15: %v", err)
	}
	// Two rows (memory, replicated) per catalog size.
	if len(table.Rows) != 2*len(cfg.CatalogSizes) {
		t.Fatalf("rows = %d\n%s", len(table.Rows), table)
	}
	if table.Metrics["replicated_ingest_docs_per_sec"] <= 0 {
		t.Fatalf("replicated throughput missing: %v\n%s", table.Metrics, table)
	}
	if loss := table.Metrics["acked_loss"]; loss != 0 {
		t.Fatalf("acked writes lost during the kill drill: %.0f\n%s", loss, table)
	}
	if pct := table.Metrics["acked_readable_pct"]; pct != 100 {
		t.Fatalf("every acked write must be readable at quorum, got %.1f%%\n%s", pct, table)
	}
	if pct := table.Metrics["converged_pct"]; pct != 100 {
		t.Fatalf("returning member must converge via handoff drain, got %.1f%%\n%s", pct, table)
	}
	if table.Metrics["replication_overhead"] <= 0 || table.Metrics["degraded_overhead"] <= 0 {
		t.Fatalf("overhead metrics missing: %v", table.Metrics)
	}
}

// TestRunE16Shape verifies the distributed commons query experiment at a
// reduced scale. Timing is machine-dependent but the protocol properties are
// not: the healthy run covers the whole fleet, the straggler drill releases
// at exactly 90% coverage, and no drill — the dropping provider included —
// may release a sum differing from the exact sum over its contributors.
func TestRunE16Shape(t *testing.T) {
	cfg := DefaultE16Config()
	cfg.FleetSizes = []int{2_000}
	table, err := RunE16(cfg)
	if err != nil {
		t.Fatalf("RunE16: %v", err)
	}
	// One healthy row per size, plus the straggler and dropping drills.
	if want := len(cfg.FleetSizes) + 2; len(table.Rows) != want {
		t.Fatalf("rows = %d, want %d\n%s", len(table.Rows), want, table)
	}
	if pct := table.Metrics["responded_pct"]; pct != 90 {
		t.Fatalf("straggler drill must release at exactly 90%% coverage, got %.1f%%\n%s", pct, table)
	}
	if c := table.Metrics["corrupted"]; c != 0 {
		t.Fatalf("corrupted releases: %.0f\n%s", c, table)
	}
	if bpc := table.Metrics["bytes_per_cell"]; bpc <= 0 || bpc > 2000 {
		t.Fatalf("bytes/cell out of range: %.0f\n%s", bpc, table)
	}
	if cps := table.Metrics["commons_cells_per_sec"]; cps <= 0 {
		t.Fatalf("cells/s must be positive, got %.0f\n%s", cps, table)
	}
}

// TestRunE17Shape verifies the Byzantine-provider drill at a reduced scale.
// Detection is a protocol property, not a performance one, so even the tiny
// configuration must convict every attack in one round with zero false
// positives, keep the fleet quorum-readable during the quarantine, and
// re-admit every healed member.
func TestRunE17Shape(t *testing.T) {
	cfg := DefaultE17Config()
	cfg.CatalogSizes = []int{500}
	cfg.SyncShards = 8
	cfg.HonestRounds = 3
	table, err := RunE17(cfg)
	if err != nil {
		t.Fatalf("RunE17: %v", err)
	}
	// One honest row plus durable+replicated rows per attack, per size.
	wantRows := (1 + 2*len(e17Attacks)) * len(cfg.CatalogSizes)
	if len(table.Rows) != wantRows {
		t.Fatalf("rows = %d, want %d\n%s", len(table.Rows), wantRows, table)
	}
	if pct := table.Metrics["detection_pct"]; pct != 100 {
		t.Fatalf("every attack must be detected, got %.1f%%\n%s", pct, table)
	}
	if fp := table.Metrics["false_positives"]; fp != 0 {
		t.Fatalf("honest runs convicted: %.0f false positives\n%s", fp, table)
	}
	if rounds := table.Metrics["detect_rounds_max"]; rounds != 1 {
		t.Fatalf("detection must take one exchange, took %.0f\n%s", rounds, table)
	}
	if pct := table.Metrics["quarantine_readable_pct"]; pct < 99 {
		t.Fatalf("fleet must stay readable during quarantine, got %.1f%%\n%s", pct, table)
	}
	if pct := table.Metrics["readmitted_pct"]; pct != 100 {
		t.Fatalf("healed members must be readmitted, got %.1f%%\n%s", pct, table)
	}
}

// TestRunE18Shape verifies the read fast-path experiment at a reduced scale.
// Throughput is machine-dependent, but the fast-path mechanics are not: the
// bloom filters must absorb nearly every negative lookup (the filter math
// puts false positives around 1%), the warmed block cache must serve the hot
// set, and the store must come back readable after the recovery kill.
func TestRunE18Shape(t *testing.T) {
	cfg := DefaultE18Config()
	cfg.CatalogSizes = []int{2_000}
	cfg.PointReads = 1_500
	cfg.Shards = 8
	table, err := RunE18(cfg)
	if err != nil {
		t.Fatalf("RunE18: %v", err)
	}
	// Three rows (memory, durable, durable-fastpath) per catalog size.
	if len(table.Rows) != 3*len(cfg.CatalogSizes) {
		t.Fatalf("rows = %d\n%s", len(table.Rows), table)
	}
	if table.Metrics["fastpath_docs_per_sec"] <= 0 || table.Metrics["neg_docs_per_sec"] <= 0 {
		t.Fatalf("throughput metrics missing: %v\n%s", table.Metrics, table)
	}
	if pct := table.Metrics["bloom_skip_pct"]; pct < 95 {
		t.Fatalf("bloom filters must absorb negative lookups, got %.1f%%\n%s", pct, table)
	}
	if pct := table.Metrics["cache_hit_pct"]; pct < 90 {
		t.Fatalf("warmed cache must serve the hot set, got %.1f%%\n%s", pct, table)
	}
	if rpm := table.Metrics["device_reads_per_miss"]; rpm > 0.2 {
		t.Fatalf("negative lookups still reach the device: %.3f reads/miss\n%s", rpm, table)
	}
	// A cold point read moves one run block: 4 KiB plus at most one ~1 KiB
	// entry, never a 16-entry (~17 KB) segment.
	if b := table.Metrics["bytes_per_device_read"]; b <= 0 || b > 6144 {
		t.Fatalf("bytes per device read = %.0f, want (0, 6144]\n%s", b, table)
	}
}

func TestRunFig1AllFlowsSucceed(t *testing.T) {
	table, err := RunFig1()
	if err != nil {
		t.Fatalf("RunFig1: %v", err)
	}
	if len(table.Rows) != 7 {
		t.Fatalf("expected 7 flows, got %d\n%s", len(table.Rows), table)
	}
	out := table.String()
	for _, want := range []string{"raw read denied: true", "provider verification: true", "recipient read ok: true", "k=10 cleared: true"} {
		if !strings.Contains(out, want) {
			t.Fatalf("walk-through missing %q:\n%s", want, out)
		}
	}
}
