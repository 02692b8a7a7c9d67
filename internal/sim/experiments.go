package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"trustedcells/internal/baseline"
	"trustedcells/internal/cloud"
	"trustedcells/internal/commons"
	"trustedcells/internal/core"
	"trustedcells/internal/crypto"
	"trustedcells/internal/datamodel"
	"trustedcells/internal/policy"
	"trustedcells/internal/sensor"
	"trustedcells/internal/storage"
	syncpkg "trustedcells/internal/sync"
	"trustedcells/internal/tamper"
	"trustedcells/internal/timeseries"
)

// simStart is the fixed simulated wall-clock origin of all experiments.
var simStart = time.Date(2013, 1, 7, 0, 0, 0, 0, time.UTC)

func fixedClock() func() time.Time { return func() time.Time { return simStart } }

// ---------------------------------------------------------------------------
// E1 — privacy vs reporting granularity
// ---------------------------------------------------------------------------

// E1Config parameterises the granularity-privacy experiment.
type E1Config struct {
	Duration      time.Duration
	Seed          int64
	Granularities []timeseries.Granularity
}

// DefaultE1Config uses a 6-hour 1 Hz trace to keep the run short while
// preserving the qualitative shape of the full-day experiment.
func DefaultE1Config() E1Config {
	return E1Config{
		Duration: 6 * time.Hour,
		Seed:     3,
		Granularities: []timeseries.Granularity{
			timeseries.GranularitySecond,
			timeseries.GranularityMinute,
			timeseries.Granularity15Min,
			timeseries.GranularityHour,
		},
	}
}

// RunE1 measures NILM appliance-detection quality and routine detectability
// at each reporting granularity.
func RunE1(cfg E1Config) (*Table, error) {
	hcfg := sensor.DefaultHouseholdConfig(simStart, cfg.Seed)
	hcfg.Duration = cfg.Duration
	trace, err := sensor.GenerateHousehold(hcfg)
	if err != nil {
		return nil, err
	}
	det := sensor.NewNILMDetector(sensor.DefaultAppliances())
	table := &Table{
		ID:      "E1",
		Title:   "Appliance inference vs reporting granularity (synthetic household, 1 Hz source)",
		Headers: []string{"granularity", "appliance F1", "precision", "recall", "routine detectability"},
		Notes: []string{
			"substantiates the motivation claim: raw 1 Hz feeds reveal appliance activity, 15-minute aggregates do not, but daily routines remain visible",
		},
	}
	for _, g := range cfg.Granularities {
		series := trace.Power
		if g != timeseries.GranularitySecond {
			series, err = trace.Power.DownsampleSeries(g, timeseries.AggregateMean)
			if err != nil {
				return nil, err
			}
		}
		score := sensor.Score(trace.GroundTruth, det.Detect(series))
		routine := sensor.RoutineDetectability(series)
		table.AddRow(g.String(),
			fmt.Sprintf("%.2f", score.F1),
			fmt.Sprintf("%.2f", score.Precision),
			fmt.Sprintf("%.2f", score.Recall),
			fmt.Sprintf("%.2f", routine))
	}
	return table, nil
}

// ---------------------------------------------------------------------------
// E2 — embedded engine across hardware profiles
// ---------------------------------------------------------------------------

// E2Config parameterises the embedded-engine experiment.
type E2Config struct {
	Records  int
	ValueLen int
	Lookups  int
	Classes  []tamper.HardwareClass
}

// DefaultE2Config inserts 5000 records and performs 1000 lookups.
func DefaultE2Config() E2Config {
	return E2Config{
		Records:  5000,
		ValueLen: 64,
		Lookups:  1000,
		Classes:  []tamper.HardwareClass{tamper.ClassSecureToken, tamper.ClassSecureMCU, tamper.ClassTrustZonePhone},
	}
}

// RunE2 runs the same insert/lookup/scan workload on each hardware profile
// and converts the metered page traffic into simulated device time.
func RunE2(cfg E2Config) (*Table, error) {
	table := &Table{
		ID:      "E2",
		Title:   "Embedded storage engine on constrained secure hardware",
		Headers: []string{"device", "RAM budget", "insert time (sim)", "lookup time (sim)", "scan time (sim)", "flash writes", "energy units"},
		Notes: []string{
			"same LSM workload, resource envelope from the hardware profile; simulated time = metered page I/O and CPU converted through the profile",
		},
	}
	value := make([]byte, cfg.ValueLen)
	for _, class := range cfg.Classes {
		profile := tamper.DefaultProfile(class)
		meter := &tamper.CostMeter{}
		mem := profile.RAMBudget / 4
		if mem > 256<<10 {
			mem = 256 << 10
		}
		// No background compaction: its page charges would land in whichever
		// phase happened to be running. The insert phase ends with one
		// explicit compaction instead, so every row is deterministic.
		kv := storage.NewMemoryKV(func() storage.Device { return storage.NewMeteredDevice(storage.NewMemDevice(0), meter) },
			storage.PersistentOptions{MemtableBytes: mem, MaxRuns: -1})

		for i := 0; i < cfg.Records; i++ {
			if err := kv.Apply([]storage.Op{{Key: []byte(fmt.Sprintf("doc/%08d", i)), Value: value}}); err != nil {
				return nil, err
			}
		}
		if err := kv.Flush(); err != nil {
			return nil, err
		}
		if err := kv.Compact(); err != nil {
			return nil, err
		}
		insertTime := meter.SimulatedTime(profile)
		_, _, writes := meter.Snapshot()
		energy := meter.Energy(profile)

		meter.Reset()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < cfg.Lookups; i++ {
			key := []byte(fmt.Sprintf("doc/%08d", rng.Intn(cfg.Records)))
			if _, err := kv.Get(key); err != nil {
				return nil, fmt.Errorf("lookup: %w", err)
			}
		}
		lookupTime := meter.SimulatedTime(profile)

		meter.Reset()
		n := 0
		if err := kv.Scan(nil, nil, func(_, _ []byte) bool { n++; return true }); err != nil {
			return nil, err
		}
		scanTime := meter.SimulatedTime(profile)

		table.AddRow(class.String(),
			fmt.Sprintf("%d KiB", profile.RAMBudget>>10),
			insertTime.Round(time.Millisecond).String(),
			lookupTime.Round(time.Millisecond).String(),
			scanTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", writes),
			fmt.Sprintf("%.0f", energy))
	}
	return table, nil
}

// ---------------------------------------------------------------------------
// E3 — secure sharing cost
// ---------------------------------------------------------------------------

// E3Config parameterises the sharing experiment.
type E3Config struct {
	PayloadSizes []int
}

// DefaultE3Config shares 1 KiB, 64 KiB and 1 MiB documents.
func DefaultE3Config() E3Config {
	return E3Config{PayloadSizes: []int{1 << 10, 64 << 10, 1 << 20}}
}

// RunE3 measures the end-to-end cost of sharing a document between two cells
// through the cloud: offer construction and send, offer acceptance, first
// policy-checked read on the recipient, and the accountability push back.
func RunE3(cfg E3Config) (*Table, error) {
	table := &Table{
		ID:      "E3",
		Title:   "Secure sharing between two cells through the untrusted cloud",
		Headers: []string{"payload", "ingest+share", "accept offer", "recipient read", "cloud bytes stored", "cloud messages"},
		Notes: []string{
			"sharing = one sealed offer (metadata, key, sticky policy) over the pairing channel; all cryptographic work happens inside the cells",
		},
	}
	for _, size := range cfg.PayloadSizes {
		svc := cloud.NewMemory()
		alice, err := core.New(core.Config{ID: "alice-gw", Class: tamper.ClassHomeGateway,
			Cloud: svc, Seed: []byte("alice"), Clock: fixedClock()})
		if err != nil {
			return nil, err
		}
		bob, err := core.New(core.Config{ID: "bob-phone", Class: tamper.ClassTrustZonePhone,
			Cloud: svc, Seed: []byte("bob"), Clock: fixedClock()})
		if err != nil {
			return nil, err
		}
		secret, err := core.NewPairingSecret()
		if err != nil {
			return nil, err
		}
		if err := alice.Pair("bob-phone", secret); err != nil {
			return nil, err
		}
		if err := bob.Pair("alice-gw", secret); err != nil {
			return nil, err
		}
		payload := make([]byte, size)

		start := time.Now()
		doc, err := alice.Ingest(payload, core.IngestOptions{Type: "photo",
			Class: datamodel.ClassAuthored, Title: "shared payload"})
		if err != nil {
			return nil, err
		}
		if err := alice.Share(doc.ID, "bob-phone", core.ShareOptions{MaxUses: 10, NotifyOwner: true}); err != nil {
			return nil, err
		}
		shareTime := time.Since(start)

		start = time.Now()
		if _, err := bob.ProcessInbox(); err != nil {
			return nil, err
		}
		acceptTime := time.Since(start)

		start = time.Now()
		if _, err := bob.Read("bob-phone", doc.ID, core.AccessContext{}); err != nil {
			return nil, err
		}
		readTime := time.Since(start)

		st := svc.Stats()
		table.AddRow(formatBytes(size),
			shareTime.Round(10*time.Microsecond).String(),
			acceptTime.Round(10*time.Microsecond).String(),
			readTime.Round(10*time.Microsecond).String(),
			formatBytes(int(st.BytesStored)),
			fmt.Sprintf("%d", st.Sends))
	}
	return table, nil
}

func formatBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/float64(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/float64(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// ---------------------------------------------------------------------------
// E4 — shared commons at scale
// ---------------------------------------------------------------------------

// E4Config parameterises the secure-aggregation experiment.
type E4Config struct {
	Populations []int
	// Aggregators is the committee size of the cloud-assisted rows.
	Aggregators int
}

// DefaultE4Config compares populations of 10, 100 and 1000 cells.
func DefaultE4Config() E4Config {
	return E4Config{Populations: []int{10, 100, 1000}, Aggregators: 3}
}

// e4MaxPureSMC is the largest population E4 runs with a committee as large
// as the population: its traffic grows quadratically, so larger rows are
// skipped, which is itself the result.
const e4MaxPureSMC = 2000

// RunE4 runs the distributed secure sum (E16's e16Query) over growing
// populations at two committee sizes: a small cloud-assisted committee, and
// pure SMC, where every one of n aggregators receives a share of every
// cell's value.
func RunE4(cfg E4Config) (*Table, error) {
	table := &Table{
		ID:      "E4",
		Title:   "Shared commons: secure aggregation over N cells",
		Headers: []string{"cells", "protocol", "committee", "messages", "bytes/cell", "wall time"},
		Notes: []string{
			"every row runs the scatter/gather protocol of commons/distributed.go over a fresh in-memory cloud: a sealed spec out, sealed shares back, then two committee rounds (shares/valid sets, finalize/partial totals)",
			"messages are the cloud's mailbox sends (2n + 4c for n cells and a committee of c); bytes/cell is the sealed mailbox payload scattered and gathered, per cell",
			"pure SMC is the committee of n: per-cell traffic grows with n, while the cloud-assisted committee keeps it flat, the untrusted cloud carrying only sealed shares",
		},
	}
	for _, n := range cfg.Populations {
		for _, proto := range []string{"pure-smc", "cloud-assisted"} {
			committee := cfg.Aggregators
			if proto == "pure-smc" {
				committee = n
			}
			if committee > e4MaxPureSMC {
				continue
			}
			ecfg := DefaultE16Config()
			ecfg.Aggregators = committee
			svc := cloud.NewMemory()
			run, err := e16Query(ecfg, svc, n, fmt.Sprintf("e4-%s-%d", proto, n), ecfg.Deadline, nil, nil)
			if err != nil {
				return nil, fmt.Errorf("E4 %s at %d cells: %w", proto, n, err)
			}
			res := run.Res
			want, err := e16ExpectedSum(res.Contributors)
			if err != nil {
				return nil, err
			}
			if res.Responded != n || res.Sum != want {
				return nil, fmt.Errorf("E4 %s at %d cells: %d responded, sum %d != %d", proto, n, res.Responded, res.Sum, want)
			}
			// Rows ascend, so the largest population's counts are the gated ones.
			sends := svc.Stats().Sends
			table.SetMetric(strings.ReplaceAll(proto, "-", "_")+"_sends_per_cell", float64(sends)/float64(n))
			elapsed := time.Duration((run.ScatterMS + run.RespondMS + run.GatherMS) * float64(time.Millisecond))
			table.AddRow(fmt.Sprintf("%d", n), proto, fmt.Sprintf("%d", committee), fmt.Sprintf("%d", sends),
				fmt.Sprintf("%.0f", float64(res.BytesScattered+res.BytesGathered)/float64(n)),
				elapsed.Round(100*time.Microsecond).String())
		}
	}
	return table, nil
}

// ---------------------------------------------------------------------------
// E5 — tamper detection against a weakly-malicious cloud
// ---------------------------------------------------------------------------

// E5Config parameterises the integrity experiment.
type E5Config struct {
	Blobs       int
	BlobSize    int
	TamperRates []float64
}

// DefaultE5Config stores 300 blobs of 1 KiB per tamper rate.
func DefaultE5Config() E5Config {
	return E5Config{Blobs: 300, BlobSize: 1 << 10, TamperRates: []float64{0.001, 0.01, 0.1}}
}

// RunE5 stores sealed blobs on an actively tampering cloud and measures the
// detection rate on read-back plus the verification overhead.
func RunE5(cfg E5Config) (*Table, error) {
	table := &Table{
		ID:      "E5",
		Title:   "Integrity attack detection against a weakly-malicious cloud",
		Headers: []string{"tamper rate", "blobs", "tampered", "detected", "detection rate", "verify cost/blob"},
		Notes: []string{
			"every stored blob is an authenticated envelope; the cell detects any modification on read, which is what deters the weakly-malicious provider",
		},
	}
	for _, rate := range cfg.TamperRates {
		svc := cloud.NewAdversary(cloud.NewMemory(), cloud.AdversaryConfig{Mode: cloud.Tampering, TamperRate: rate, Seed: 42})
		key, err := crypto.NewSymmetricKey()
		if err != nil {
			return nil, err
		}
		payload := make([]byte, cfg.BlobSize)
		for i := 0; i < cfg.Blobs; i++ {
			name := fmt.Sprintf("vault/blob-%05d", i)
			sealed, err := crypto.Seal(key, payload, []byte(name))
			if err != nil {
				return nil, err
			}
			if _, err := svc.PutBlob(name, sealed); err != nil {
				return nil, err
			}
		}
		detected := 0
		start := time.Now()
		for i := 0; i < cfg.Blobs; i++ {
			name := fmt.Sprintf("vault/blob-%05d", i)
			blob, err := svc.GetBlob(name)
			if err != nil {
				return nil, err
			}
			if _, _, err := crypto.Open(key, blob.Data); err != nil {
				detected++
			}
		}
		perBlob := time.Since(start) / time.Duration(cfg.Blobs)
		tampered := int(svc.Stats().TamperedBlobs)
		rateStr := "n/a"
		if tampered > 0 {
			rateStr = fmt.Sprintf("%.0f%%", 100*float64(detected)/float64(tampered))
		}
		table.AddRow(fmt.Sprintf("%.1f%%", rate*100),
			fmt.Sprintf("%d", cfg.Blobs),
			fmt.Sprintf("%d", tampered),
			fmt.Sprintf("%d", detected),
			rateStr,
			perBlob.Round(time.Microsecond).String())
	}
	return table, nil
}

// ---------------------------------------------------------------------------
// E6 — decentralized vs centralized exposure
// ---------------------------------------------------------------------------

// E6Config parameterises the exposure experiment.
type E6Config struct {
	Users       int
	DocsPerUser int
	Reads       int
}

// DefaultE6Config uses 200 users with 5 documents each.
func DefaultE6Config() E6Config {
	return E6Config{Users: 200, DocsPerUser: 5, Reads: 500}
}

// RunE6 compares a centralized vault and the trusted-cells architecture on
// breach exposure, unilateral policy changes and read overhead.
func RunE6(cfg E6Config) (*Table, error) {
	table := &Table{
		ID:      "E6",
		Title:   "Centralized personal data vault vs trusted cells",
		Headers: []string{"metric", "centralized vault", "trusted cells"},
		Notes: []string{
			"one successful attack on the central provider is a class break; breaking one cell exposes one user and per-cell key diversification stops it there",
			"a provider-side policy change silently bypasses user policies in the centralized design; in trusted cells enforcement happens in the user's own hardware",
		},
	}
	// Centralized side.
	central, err := baseline.NewCentralVault()
	if err != nil {
		return nil, err
	}
	for u := 0; u < cfg.Users; u++ {
		owner := fmt.Sprintf("user-%04d", u)
		set := policy.NewSet(owner)
		_ = set.Add(policy.Rule{ID: "self", Effect: policy.EffectAllow, SubjectIDs: []string{owner},
			Actions: []policy.Action{policy.ActionRead}})
		central.SetPolicy(owner, set)
		for d := 0; d < cfg.DocsPerUser; d++ {
			if err := central.Store(owner, fmt.Sprintf("doc-%02d", d), "note",
				[]byte("personal data"), simStart); err != nil {
				return nil, err
			}
		}
	}
	centralBreach := central.SimulateServerBreach()

	// Decentralized side: per-user record counts; one cell compromised.
	population := make(map[string]int, cfg.Users)
	for u := 0; u < cfg.Users; u++ {
		population[fmt.Sprintf("user-%04d", u)] = cfg.DocsPerUser
	}
	cellBreach := baseline.SimulateCellBreach(population, "user-0000")

	table.AddRow("records exposed by one breach",
		fmt.Sprintf("%d (all %d users)", centralBreach.RecordsExposed, centralBreach.UsersExposed),
		fmt.Sprintf("%d (1 user)", cellBreach.RecordsExposed))

	// Policy change: provider grants itself access.
	central.EnableMarketingOverride()
	centralLeaks := 0
	for u := 0; u < cfg.Users; u++ {
		owner := fmt.Sprintf("user-%04d", u)
		if _, err := central.Read(owner, "doc-00", "provider-analytics", simStart); err == nil {
			centralLeaks++
		}
	}
	// Trusted cells: there is no provider-side enforcement point to change;
	// replaying the same "analytics" request against a representative cell is
	// denied by the closed policy.
	cellSvc := cloud.NewMemory()
	cell, err := core.New(core.Config{ID: "user-0000", Class: tamper.ClassHomeGateway,
		Cloud: cellSvc, Seed: []byte("user-0000"), Clock: fixedClock()})
	if err != nil {
		return nil, err
	}
	doc, err := cell.Ingest([]byte("personal data"), core.IngestOptions{Type: "note", Class: datamodel.ClassAuthored})
	if err != nil {
		return nil, err
	}
	_ = cell.AddRule(policy.Rule{ID: "self", Effect: policy.EffectAllow, SubjectIDs: []string{"user-0000"},
		Actions: []policy.Action{policy.ActionRead}})
	cellLeaks := 0
	if _, err := cell.Read("provider-analytics", doc.ID, core.AccessContext{}); err == nil {
		cellLeaks = 1
	}
	table.AddRow("records readable after provider policy change",
		fmt.Sprintf("%d of %d users", centralLeaks, cfg.Users),
		fmt.Sprintf("%d (request denied by the cell)", cellLeaks))

	// Read overhead.
	start := time.Now()
	for i := 0; i < cfg.Reads; i++ {
		owner := fmt.Sprintf("user-%04d", i%cfg.Users)
		if _, err := central.Read(owner, "doc-00", owner, simStart); err != nil {
			return nil, err
		}
	}
	centralPerRead := time.Since(start) / time.Duration(cfg.Reads)

	start = time.Now()
	for i := 0; i < cfg.Reads; i++ {
		if _, err := cell.Read("user-0000", doc.ID, core.AccessContext{}); err != nil {
			return nil, err
		}
	}
	cellPerRead := time.Since(start) / time.Duration(cfg.Reads)
	table.AddRow("policy-checked read latency",
		centralPerRead.Round(time.Microsecond).String(),
		cellPerRead.Round(time.Microsecond).String())
	return table, nil
}

// ---------------------------------------------------------------------------
// E7 — synchronization under weak connectivity
// ---------------------------------------------------------------------------

// E7Config parameterises the weak-connectivity experiment.
type E7Config struct {
	Updates          int
	DisconnectRates  []float64
	Seed             int64
	MaxRecoverRounds int
}

// DefaultE7Config applies 200 updates under several disconnection rates.
func DefaultE7Config() E7Config {
	return E7Config{Updates: 200, DisconnectRates: []float64{0, 0.3, 0.6, 0.9}, Seed: 11, MaxRecoverRounds: 20}
}

// RunE7 replays an update workload over two replicas whose connectivity
// flickers, then measures how many sync rounds are needed to converge once
// connectivity returns, and how many conflicts were resolved.
func RunE7(cfg E7Config) (*Table, error) {
	table := &Table{
		ID:      "E7",
		Title:   "Catalog synchronization under weak connectivity (2 cells + cloud)",
		Headers: []string{"disconnect rate", "updates", "syncs attempted", "syncs failed", "conflicts resolved", "recovery rounds", "converged"},
	}
	for _, p := range cfg.DisconnectRates {
		rng := rand.New(rand.NewSource(cfg.Seed))
		svc := cloud.NewMemory()
		key, err := crypto.NewSymmetricKey()
		if err != nil {
			return nil, err
		}
		a := syncpkg.NewReplica("alice/gateway", "alice", key, svc, fixedClock())
		b := syncpkg.NewReplica("alice/phone", "alice", key, svc, fixedClock())
		replicas := []*syncpkg.Replica{a, b}
		attempted, failed := 0, 0
		for i := 0; i < cfg.Updates; i++ {
			r := replicas[rng.Intn(2)]
			r.Upsert(&datamodel.Document{
				ID:        fmt.Sprintf("doc-%04d", rng.Intn(cfg.Updates/2)),
				Owner:     "alice",
				Type:      "note",
				Class:     datamodel.ClassAuthored,
				CreatedAt: simStart,
			})
			// Occasionally try to sync; connectivity follows the disconnect rate.
			if i%5 == 0 {
				r.SetConnected(rng.Float64() >= p)
				attempted++
				if err := r.Sync(); err != nil {
					failed++
				}
			}
		}
		// Connectivity returns: count rounds to convergence.
		a.SetConnected(true)
		b.SetConnected(true)
		rounds := 0
		converged := false
		for rounds < cfg.MaxRecoverRounds {
			rounds++
			if err := a.Sync(); err != nil {
				return nil, err
			}
			if err := b.Sync(); err != nil {
				return nil, err
			}
			if syncpkg.Equal(a, b) {
				converged = true
				break
			}
		}
		// Conflict resolutions are replicated state, so after convergence
		// every replica reports the same count — summing would double-count.
		table.AddRow(fmt.Sprintf("%.0f%%", p*100),
			fmt.Sprintf("%d", cfg.Updates),
			fmt.Sprintf("%d", attempted),
			fmt.Sprintf("%d", failed),
			fmt.Sprintf("%d", a.ConflictsResolved()),
			fmt.Sprintf("%d", rounds),
			fmt.Sprintf("%t", converged))
	}
	return table, nil
}

// ---------------------------------------------------------------------------
// E8 — shared-commons utility (anonymization and perturbation)
// ---------------------------------------------------------------------------

// E8Config parameterises the utility experiment.
type E8Config struct {
	Records  int
	Seed     int64
	Ks       []int
	Epsilons []float64
	Trials   int
}

// DefaultE8Config releases 2000 synthetic health records.
func DefaultE8Config() E8Config {
	return E8Config{Records: 2000, Seed: 17, Ks: []int{2, 5, 10, 50}, Epsilons: []float64{0.1, 0.5, 1, 2}, Trials: 20}
}

// RunE8 measures the utility cost of the two transformations a cell applies
// before contributing to the commons: k-anonymity generalization and
// differentially-private perturbation.
func RunE8(cfg E8Config) (*Table, error) {
	health := sensor.GenerateHealthRecords(cfg.Records, simStart, cfg.Seed)
	records := make([]commons.QuasiRecord, len(health))
	for i, h := range health {
		records[i] = commons.QuasiRecord{AgeBand: h.AgeBand, ZIP3: h.ZIP3, Sensitive: h.Condition}
	}
	table := &Table{
		ID:      "E8",
		Title:   "Shared commons utility: k-anonymity information loss and DP error",
		Headers: []string{"mechanism", "parameter", "information loss", "count MAE", "smallest class"},
	}
	for _, k := range cfg.Ks {
		res, err := commons.Anonymize(records, k)
		if err != nil {
			return nil, err
		}
		table.AddRow("k-anonymity", fmt.Sprintf("k=%d", k),
			fmt.Sprintf("%.3f", res.InformationLoss), "-", fmt.Sprintf("%d", res.SmallestClass))
	}
	truth := commons.HistogramFromSensitive(records)
	for _, eps := range cfg.Epsilons {
		var mae float64
		for trial := 0; trial < cfg.Trials; trial++ {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(trial)))
			rel, err := commons.LaplaceMechanism(truth, eps, rng)
			if err != nil {
				return nil, err
			}
			mae += commons.MeanAbsoluteError(truth, rel)
		}
		mae /= float64(cfg.Trials)
		table.AddRow("laplace DP", fmt.Sprintf("eps=%.1f", eps), "-",
			fmt.Sprintf("%.2f", mae), "-")
	}
	return table, nil
}

// ---------------------------------------------------------------------------
// Figure 1 — architecture walk-through
// ---------------------------------------------------------------------------

// RunFig1 instantiates the Figure 1 topology (Alice and Bob's fixed and
// portable cells, Charlie travelling, data sources, the cloud) and exercises
// every data flow drawn on the figure, reporting the outcome of each.
func RunFig1() (*Table, error) {
	table := &Table{
		ID:      "Fig1",
		Title:   "Architecture walk-through: Figure 1 data flows",
		Headers: []string{"flow", "outcome"},
	}
	svc := cloud.NewMemory()
	clock := fixedClock()
	gateway, err := core.New(core.Config{ID: "alicebob-home", Class: tamper.ClassHomeGateway,
		Cloud: svc, Seed: []byte("alicebob"), Clock: clock})
	if err != nil {
		return nil, err
	}
	charlie, err := core.New(core.Config{ID: "charlie", Class: tamper.ClassSecureToken,
		Cloud: svc, Seed: []byte("charlie"), Clock: clock})
	if err != nil {
		return nil, err
	}

	// 1. The power meter pushes a raw 1 Hz feed to the home gateway cell.
	hcfg := sensor.DefaultHouseholdConfig(simStart, 5)
	hcfg.Duration = 2 * time.Hour
	trace, err := sensor.GenerateHousehold(hcfg)
	if err != nil {
		return nil, err
	}
	powerDoc, err := gateway.IngestSeries(trace.Power, "household power",
		[]string{"energy", "linky"}, map[string]string{"device": "linky"})
	if err != nil {
		return nil, err
	}
	table.AddRow("power meter -> home cell (raw 1 Hz feed)",
		fmt.Sprintf("%d readings ingested, sealed, cached and pushed to the cloud", trace.Power.Len()))

	// 2. Household members see 15-minute aggregates only.
	if err := gateway.AddRule(policy.Rule{ID: "household-15min", Effect: policy.EffectAllow,
		SubjectGroups: []string{"household"}, Actions: []policy.Action{policy.ActionAggregate},
		Resource: policy.Resource{Type: core.SeriesDocType}, MaxGranularity: 15 * time.Minute}); err != nil {
		return nil, err
	}
	agg, err := gateway.Aggregate("bob", powerDoc.ID, timeseries.Granularity15Min,
		timeseries.AggregateMean, core.AccessContext{Groups: []string{"household"}})
	if err != nil {
		return nil, err
	}
	_, rawErr := gateway.Read("bob", powerDoc.ID, core.AccessContext{Groups: []string{"household"}})
	table.AddRow("household visualization app (15-minute aggregates)",
		fmt.Sprintf("%d buckets returned; raw read denied: %t", agg.Len(), rawErr != nil))

	// 3. Certified monthly statistics for the distribution company.
	id, err := gateway.Identity()
	if err != nil {
		return nil, err
	}
	certified, err := timeseries.Certify("alicebob-home/linky", trace.Power, timeseries.GranularityHour,
		timeseries.AggregateMean, clock(), id, gateway.TEE().Sign)
	if err != nil {
		return nil, err
	}
	verifyErr := certified.Verify(&id)
	table.AddRow("certified aggregate -> power provider",
		fmt.Sprintf("%d certified points, provider verification: %v", len(certified.Points), verifyErr == nil))

	// 4. Charlie synchronizes his vault and restores it from an internet café.
	if _, err := charlie.Ingest([]byte("boarding pass"), core.IngestOptions{Type: "document",
		Class: datamodel.ClassAuthored, Title: "boarding pass"}); err != nil {
		return nil, err
	}
	if _, err := charlie.SyncVault(); err != nil {
		return nil, err
	}
	cafeCell, err := core.New(core.Config{ID: "charlie", Class: tamper.ClassSecureToken,
		Cloud: svc, Seed: []byte("charlie"), Clock: clock})
	if err != nil {
		return nil, err
	}
	if _, err := cafeCell.RestoreVault(); err != nil {
		return nil, err
	}
	table.AddRow("Charlie at an internet café (portable cell + untrusted terminal)",
		fmt.Sprintf("vault restored with %d documents; keys never left the token", cafeCell.Catalog().Len()))

	// 5. Alice shares a photo with Charlie under a sticky policy.
	secret, err := core.NewPairingSecret()
	if err != nil {
		return nil, err
	}
	if err := gateway.Pair("charlie", secret); err != nil {
		return nil, err
	}
	if err := charlie.Pair("alicebob-home", secret); err != nil {
		return nil, err
	}
	photo, err := gateway.Ingest([]byte("photo bytes"), core.IngestOptions{Type: "photo",
		Class: datamodel.ClassAuthored, Title: "holiday photo"})
	if err != nil {
		return nil, err
	}
	if err := gateway.Share(photo.ID, "charlie", core.ShareOptions{MaxUses: 3, NotifyOwner: true}); err != nil {
		return nil, err
	}
	sum, err := charlie.ProcessInbox()
	if err != nil {
		return nil, err
	}
	_, readErr := charlie.Read("charlie", photo.ID, core.AccessContext{})
	ownerSummary, err := gateway.ProcessInbox()
	if err != nil {
		return nil, err
	}
	table.AddRow("secure sharing Alice -> Charlie (metadata + key + sticky policy)",
		fmt.Sprintf("offers accepted: %d, recipient read ok: %t, accountability records back to Alice: %d",
			sum.OffersAccepted, readErr == nil, len(ownerSummary.AuditRecords)))

	// 6. The neighbourhood peak-shaving computation (shared commons): a
	// sealed query over 20 homes' mailboxes, answered with secret shares.
	comm := commons.NewCommunity("neighbourhood", crypto.DeriveKey(crypto.SymmetricKey{6}, "commons", "fig1"))
	homes := make([]*commons.Responder, 20)
	for i := range homes {
		v := uint64(500 + 13*i)
		homes[i] = commons.NewResponder(fmt.Sprintf("home-%02d", i), comm, svc,
			func(*commons.Spec) (uint64, bool, error) { return v, true, nil })
	}
	aggs := []*commons.Aggregator{commons.NewAggregator("agg-0", comm, svc),
		commons.NewAggregator("agg-1", comm, svc), commons.NewAggregator("agg-2", comm, svc)}
	co, err := commons.NewCoordinator(commons.CoordinatorConfig{ID: "grid-operator", Community: comm, Cloud: svc})
	if err != nil {
		return nil, err
	}
	res, err := co.Query(commons.Spec{
		ID:              "peak-shaving",
		K:               10,
		Epsilon:         1.0,
		MaxContribution: 1000,
		Deadline:        5 * time.Second,
		Aggregators:     []string{"agg-0", "agg-1", "agg-2"},
	}, homes, aggs)
	if err != nil {
		return nil, err
	}
	table.AddRow("neighbourhood consumption aggregation (shared commons)",
		fmt.Sprintf("%d/%d homes answered, k=%d cleared: %t, released %.0f Wh (Laplace, eps=%.1f); no individual feed revealed",
			res.Responded, res.Total, res.K, res.Released, res.NoisySum, res.Epsilon))

	// 7. The cloud only ever saw ciphertext.
	table.AddRow("untrusted cloud observation",
		fmt.Sprintf("%d blobs stored, all sealed envelopes; %d mailbox messages relayed",
			len(mustList(svc)), svc.Stats().Sends))
	return table, nil
}

func mustList(svc cloud.Service) []string {
	names, err := svc.ListBlobs("")
	if err != nil {
		return nil
	}
	return names
}
