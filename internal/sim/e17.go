package sim

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"trustedcells/internal/cloud"
	"trustedcells/internal/crypto"
	"trustedcells/internal/datamodel"
	syncpkg "trustedcells/internal/sync"
)

// ---------------------------------------------------------------------------
// E17 — authenticated catalog: rollback/fork detection and provider quarantine
// ---------------------------------------------------------------------------

// E17Config parameterises the Byzantine-provider drill. Per catalog size it
// runs the three attacks the threat model names — silently dropped
// acknowledged writes, rollback (stale bytes under the current version
// number) and fork (divergent histories shown to different clients) — against
// two deployments: a single durable provider audited by strict replicas, and
// a three-member replicated fleet whose convicted member is quarantined and
// later re-admitted through the anti-entropy probe. Honest controls measure
// false positives.
type E17Config struct {
	// CatalogSizes are the document counts of the prefilled catalog.
	CatalogSizes []int
	// SyncShards is the replica shard count of the replicated-fleet drills.
	// The single-provider drills use one shard so the forked histories
	// collide on a single catalog shard.
	SyncShards int
	// Members is the fleet size N; member 0 is the adversary.
	Members int
	// WriteQuorum / ReadQuorum are the W / R of the replication layer.
	WriteQuorum int
	ReadQuorum  int
	// HonestRounds is the churn length of the false-positive control.
	HonestRounds int
	// MaxDetectRounds bounds the exchanges a victim may need to convict.
	MaxDetectRounds int
	// Seed drives the adversary's deterministic coin.
	Seed int64
}

// DefaultE17Config drills catalogs of 1k, 10k and 100k documents against a
// durable provider and a 3-member W=2/R=2 fleet.
func DefaultE17Config() E17Config {
	return E17Config{
		CatalogSizes:    []int{1_000, 10_000, 100_000},
		SyncShards:      64,
		Members:         3,
		WriteQuorum:     2,
		ReadQuorum:      2,
		HonestRounds:    8,
		MaxDetectRounds: 3,
		Seed:            41,
	}
}

// e17Attacks is the drill order; every attack runs in both deployments.
var e17Attacks = []string{"drop", "rollback", "fork"}

// e17DrillResult is the outcome of one attack in one deployment.
type e17DrillResult struct {
	Detected bool
	Class    string // "rollback" or "fork" — the typed verdict
	Rounds   int    // exchanges (or audit sweeps) until conviction
	DetectMS float64

	// Replicated-deployment outcomes; zero for the single-provider drills.
	ReadablePct float64 // quorum-readable blobs while the member is quarantined
	Readmitted  bool    // anti-entropy probe re-admitted the healed member
}

// e17Doc builds one catalog document.
func e17Doc(id string) *datamodel.Document {
	return &datamodel.Document{
		ID:        id,
		Owner:     "alice",
		Type:      "note",
		Class:     datamodel.ClassAuthored,
		CreatedAt: simStart,
	}
}

// e17Prefill loads docs documents into the replica and publishes them.
func e17Prefill(r *syncpkg.Replica, docs int) error {
	for i := 0; i < docs; i++ {
		r.Upsert(e17Doc(fmt.Sprintf("doc-%07d", i)))
	}
	return r.Sync()
}

// e17Classify maps a detection error onto its typed verdict.
func e17Classify(err error) (string, bool) {
	switch {
	case errors.Is(err, syncpkg.ErrForkDetected):
		return "fork", true
	case errors.Is(err, syncpkg.ErrRollbackDetected):
		return "rollback", true
	}
	return "", false
}

// e17DurableDrill runs one attack against a single durable provider with
// strict attesting replicas: the victim must convict within one exchange of
// the attack becoming observable.
func e17DurableDrill(cfg E17Config, docs int, attack string) (e17DrillResult, error) {
	var res e17DrillResult
	dir, err := os.MkdirTemp("", "tc-e17-durable-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	dur, err := cloud.OpenDurable(dir, cloud.DurableOptions{Shards: 4})
	if err != nil {
		return res, err
	}
	defer dur.Close()
	adv := cloud.NewAdversary(dur, cloud.AdversaryConfig{
		Mode: cloud.Honest, Seed: cfg.Seed, DropRate: 1, RollbackRate: 1,
	})

	key, err := crypto.NewSymmetricKey()
	if err != nil {
		return res, err
	}
	clock := fixedClock()
	// One shard: the diverged histories of the fork drill collide on a single
	// catalog shard, so the losing client's acknowledged version outruns the
	// rejoined branch and rule 1 fires with fork classification.
	var gwSvc, phSvc cloud.Service = adv, adv
	if attack == "fork" {
		gwSvc, phSvc = adv.ClientView("gw"), adv.ClientView("ph")
	}
	gw := syncpkg.NewReplicaShards("alice/gateway", "alice", key, gwSvc, clock, 1)
	ph := syncpkg.NewReplicaShards("alice/phone", "alice", key, phSvc, clock, 1)

	if err := e17Prefill(gw, docs); err != nil {
		return res, err
	}
	if err := ph.Sync(); err != nil { // witness the prefill epochs
		return res, err
	}

	var victim *syncpkg.Replica
	switch attack {
	case "drop":
		// The provider acknowledges the push and discards it; the writer's
		// own next pull serves the shard below the acknowledged version.
		gw.Upsert(e17Doc("atk-drop"))
		adv.SetMode(cloud.Dropping)
		if err := gw.Push(); err != nil {
			return res, fmt.Errorf("dropped push should look successful: %w", err)
		}
		adv.SetMode(cloud.Honest)
		victim = gw
	case "rollback":
		// The provider re-serves the previous sealed blob under the current
		// version number; the peer that witnessed the newer epoch convicts.
		gw.Upsert(e17Doc("atk-roll"))
		if err := gw.Sync(); err != nil {
			return res, err
		}
		adv.SetMode(cloud.Rollback)
		victim = ph
	case "fork":
		// The provider shows the two replicas divergent acknowledged
		// histories, then rejoins them on the gateway's branch. The phone
		// pushed more rounds on its branch, so the rejoined history falls
		// below its acknowledged version and carries gateway epochs it never
		// witnessed: a fork, not a mere rollback.
		adv.SetMode(cloud.Fork)
		gw.Upsert(e17Doc("atk-fork-gw"))
		if err := gw.Sync(); err != nil {
			return res, err
		}
		ph.Upsert(e17Doc("atk-fork-ph1"))
		if err := ph.Sync(); err != nil {
			return res, err
		}
		ph.Upsert(e17Doc("atk-fork-ph2"))
		if err := ph.Sync(); err != nil {
			return res, err
		}
		if err := adv.EndFork("gw"); err != nil {
			return res, err
		}
		victim = ph
	default:
		return res, fmt.Errorf("unknown attack %q", attack)
	}

	start := time.Now()
	for res.Rounds < cfg.MaxDetectRounds && !res.Detected {
		res.Rounds++
		err := victim.Pull()
		if err == nil {
			continue
		}
		if class, ok := e17Classify(err); ok {
			res.Detected, res.Class = true, class
			break
		}
		return res, err
	}
	res.DetectMS = float64(time.Since(start).Microseconds()) / 1e3
	if attack == "rollback" {
		adv.SetMode(cloud.Honest)
	}
	return res, nil
}

// e17SyncBlob reports whether a blob name is a sync shard blob — a base
// ("alice/syncshard/0007") or a segment ("alice/syncseg/0007") — which the
// replica's catalog audit checks; every other blob passes unaudited.
func e17SyncBlob(name string) bool {
	return strings.Contains(name, "/syncshard/") || strings.Contains(name, "/syncseg/")
}

// e17AuditMember sweeps one member's shard blobs, bases and segments, through
// the replica's read-only catalog audit, returning whether any blob was
// convicted.
func e17AuditMember(rep *syncpkg.Replica, member cloud.Service, user string) (bool, error) {
	for si := 0; si < rep.ShardCount(); si++ {
		for _, dir := range []string{"syncshard", "syncseg"} {
			name := fmt.Sprintf("%s/%s/%04d", user, dir, si)
			b, err := member.GetBlob(name)
			if errors.Is(err, cloud.ErrBlobNotFound) {
				continue
			}
			if err != nil {
				return false, err
			}
			err = rep.CheckBlob(name, b.Data)
			if _, ok := e17Classify(err); ok {
				return true, nil
			}
			if err != nil {
				return false, err
			}
		}
	}
	return false, nil
}

// e17ReplicatedDrill runs one attack against a 3-member fleet whose member 0
// sits behind the adversary: the catalog audit convicts the member, the fleet
// quarantines it (reads excluded, write quorums counted over trusted members
// only), availability is measured during the quarantine, and the healed
// member is re-admitted through the anti-entropy probe.
func e17ReplicatedDrill(cfg E17Config, docs int, attack string) (e17DrillResult, error) {
	var res e17DrillResult
	adv := cloud.NewAdversary(cloud.NewMemory(), cloud.AdversaryConfig{
		Mode: cloud.Honest, Seed: cfg.Seed, DropRate: 1, RollbackRate: 1,
	})
	members := make([]cloud.Service, cfg.Members)
	members[0] = adv
	for i := 1; i < cfg.Members; i++ {
		members[i] = cloud.NewMemory()
	}
	// The re-admission verifier is the same catalog audit the detection sweep
	// runs: anti-entropy may only clear the quarantine flag once the trusted
	// winners themselves pass it.
	var rep *syncpkg.Replica
	fleet, err := cloud.NewReplicated(members, cloud.ReplicatedOptions{
		WriteQuorum: cfg.WriteQuorum,
		ReadQuorum:  cfg.ReadQuorum,
		Verifier: func(name string, data []byte) error {
			if !e17SyncBlob(name) || rep == nil {
				return nil
			}
			return rep.CheckBlob(name, data)
		},
	})
	if err != nil {
		return res, err
	}
	defer fleet.Close()

	key, err := crypto.NewSymmetricKey()
	if err != nil {
		return res, err
	}
	// Quorum reads can legitimately regress below a single member's frontier,
	// so the strict per-exchange freshness rule is unsound here; detection
	// runs through the per-member audit sweep instead (see sync/auth.go).
	rep = syncpkg.NewReplicaShards("alice/gateway", "alice", key, fleet, fixedClock(), cfg.SyncShards)
	rep.SetStrictFreshness(false)

	if err := e17Prefill(rep, docs); err != nil {
		return res, err
	}
	// Churn a second version into a few shards so the rollback adversary has
	// strictly-older history to serve.
	for i := 0; i < 3; i++ {
		rep.Upsert(e17Doc(fmt.Sprintf("churn-%d", i)))
		if err := rep.Sync(); err != nil {
			return res, err
		}
	}
	if _, err := fleet.AntiEntropy(); err != nil {
		return res, err
	}

	switch attack {
	case "drop":
		// Member 0 acknowledges the attack-window writes and discards them.
		adv.SetMode(cloud.Dropping)
		for i := 0; i < 3; i++ {
			rep.Upsert(e17Doc(fmt.Sprintf("atk-drop-%d", i)))
			if err := rep.Sync(); err != nil {
				return res, err
			}
		}
		adv.SetMode(cloud.Honest)
	case "rollback":
		// Member 0 serves the churned shards' previous blobs under their
		// current version numbers for as long as the mode is active.
		adv.SetMode(cloud.Rollback)
	case "fork":
		// Member 0 diverts the attack-window writes into a branch it then
		// abandons: the member rejoined the losing side of its own fork.
		adv.SetMode(cloud.Fork)
		for i := 0; i < 3; i++ {
			rep.Upsert(e17Doc(fmt.Sprintf("atk-fork-%d", i)))
			if err := rep.Sync(); err != nil {
				return res, err
			}
		}
		if err := adv.EndFork("abandoned"); err != nil {
			return res, err
		}
	default:
		return res, fmt.Errorf("unknown attack %q", attack)
	}

	// Detection: audit member 0's blobs against the replica's witness set.
	start := time.Now()
	for res.Rounds < cfg.MaxDetectRounds && !res.Detected {
		res.Rounds++
		convicted, err := e17AuditMember(rep, adv, "alice")
		if err != nil {
			return res, err
		}
		res.Detected = convicted
	}
	res.DetectMS = float64(time.Since(start).Microseconds()) / 1e3
	res.Class = "rollback" // a keyless provider's fork surfaces as stale epochs
	if !res.Detected {
		return res, nil
	}
	fleet.Quarantine(0)
	adv.SetMode(cloud.Honest) // the rollback drill heals here; others already did

	// Availability during quarantine: every shard blob must stay readable at
	// quorum from the trusted members, and writes must keep acknowledging.
	names, err := fleet.ListBlobs("")
	if err != nil {
		return res, err
	}
	readable := 0
	for start := 0; start < len(names); start += 64 {
		end := start + 64
		if end > len(names) {
			end = len(names)
		}
		blobs, err := fleet.GetBlobs(names[start:end])
		if err != nil {
			return res, fmt.Errorf("quorum read during quarantine: %w", err)
		}
		for _, b := range blobs {
			if b.Version > 0 && len(b.Data) > 0 {
				readable++
			}
		}
	}
	if len(names) > 0 {
		res.ReadablePct = 100 * float64(readable) / float64(len(names))
	}
	rep.Upsert(e17Doc("during-quarantine"))
	if err := rep.Sync(); err != nil {
		return res, fmt.Errorf("write during quarantine: %w", err)
	}

	// Re-admission: anti-entropy repairs the member toward the trusted
	// winners and clears the flag once every blob byte-matches and the
	// verifier vouches for the winners.
	if _, err := fleet.AntiEntropy(); err != nil {
		return res, err
	}
	res.Readmitted = !fleet.IsQuarantined(0)
	return res, nil
}

// e17HonestDurable runs the strict-mode false-positive control: churny honest
// traffic over the (honest) adversary wrapper must raise no detection error
// and no suspicion.
func e17HonestDurable(cfg E17Config) (int, error) {
	adv := cloud.NewAdversary(cloud.NewMemory(), cloud.AdversaryConfig{Mode: cloud.Honest, Seed: cfg.Seed})
	key, err := crypto.NewSymmetricKey()
	if err != nil {
		return 0, err
	}
	clock := fixedClock()
	a := syncpkg.NewReplicaShards("alice/gateway", "alice", key, adv, clock, cfg.SyncShards)
	b := syncpkg.NewReplicaShards("alice/phone", "alice", key, adv, clock, cfg.SyncShards)
	falsePos := 0
	for i := 0; i < cfg.HonestRounds; i++ {
		a.Upsert(e17Doc(fmt.Sprintf("honest-a-%d", i)))
		b.Upsert(e17Doc(fmt.Sprintf("honest-b-%d", i)))
		if err := a.Sync(); err != nil {
			falsePos++
		}
		if err := b.Sync(); err != nil {
			falsePos++
		}
	}
	return falsePos + a.Suspicions() + b.Suspicions(), nil
}

// e17HonestReplicated audits every member of a healthy fleet: zero blobs may
// be convicted.
func e17HonestReplicated(cfg E17Config, docs int) (int, error) {
	members := make([]cloud.Service, cfg.Members)
	for i := range members {
		members[i] = cloud.NewMemory()
	}
	fleet, err := cloud.NewReplicated(members, cloud.ReplicatedOptions{
		WriteQuorum: cfg.WriteQuorum, ReadQuorum: cfg.ReadQuorum,
	})
	if err != nil {
		return 0, err
	}
	defer fleet.Close()
	key, err := crypto.NewSymmetricKey()
	if err != nil {
		return 0, err
	}
	rep := syncpkg.NewReplicaShards("alice/gateway", "alice", key, fleet, fixedClock(), cfg.SyncShards)
	rep.SetStrictFreshness(false)
	if err := e17Prefill(rep, docs); err != nil {
		return 0, err
	}
	if _, err := fleet.AntiEntropy(); err != nil {
		return 0, err
	}
	falsePos := 0
	for _, m := range members {
		convicted, err := e17AuditMember(rep, m, "alice")
		if err != nil {
			return 0, err
		}
		if convicted {
			falsePos++
		}
	}
	return falsePos, nil
}

// E17SizeResult aggregates one catalog size across both deployments.
type E17SizeResult struct {
	Docs           int
	Durable        map[string]e17DrillResult
	Replicated     map[string]e17DrillResult
	FalsePositives int
}

// RunE17Size drills one catalog size.
func RunE17Size(cfg E17Config, docs int) (E17SizeResult, error) {
	res := E17SizeResult{
		Docs:       docs,
		Durable:    make(map[string]e17DrillResult),
		Replicated: make(map[string]e17DrillResult),
	}
	fpDur, err := e17HonestDurable(cfg)
	if err != nil {
		return res, err
	}
	fpRepl, err := e17HonestReplicated(cfg, docs)
	if err != nil {
		return res, err
	}
	res.FalsePositives = fpDur + fpRepl
	for _, attack := range e17Attacks {
		d, err := e17DurableDrill(cfg, docs, attack)
		if err != nil {
			return res, fmt.Errorf("durable %s drill at %d docs: %w", attack, docs, err)
		}
		res.Durable[attack] = d
		r, err := e17ReplicatedDrill(cfg, docs, attack)
		if err != nil {
			return res, fmt.Errorf("replicated %s drill at %d docs: %w", attack, docs, err)
		}
		res.Replicated[attack] = r
	}
	return res, nil
}

// RunE17 drills the authenticated catalog end to end: every attack the
// weakly-malicious provider can mount without breaking AEAD — dropped
// acknowledged writes, rollback, fork — is convicted from signed Merkle
// roots and monotonic epochs within one exchange, the convicted fleet member
// is quarantined without losing quorum availability, and the healed member
// earns its way back through the anti-entropy probe.
func RunE17(cfg E17Config) (*Table, error) {
	table := &Table{
		ID: "E17",
		Title: fmt.Sprintf("Authenticated catalog: rollback/fork detection and quarantine (%d members, W=%d/R=%d)",
			cfg.Members, cfg.WriteQuorum, cfg.ReadQuorum),
		Headers: []string{"docs", "deployment", "attack", "detected", "verdict", "rounds", "detect ms", "readable %", "readmitted"},
		Notes: []string{
			"each catalog shard is sealed with a signed Merkle root over its documents and a monotonic epoch; peers countersign and audit every exchange (sync/auth.go)",
			"durable: strict attesting replicas over one disk-backed provider behind the adversary wrapper; detection is the victim's own next pull",
			"replicated: member 0 of the fleet turns Byzantine; the catalog audit convicts it, the fleet quarantines it (reads excluded, write quorums counted over trusted members), and anti-entropy re-admits it after repair + re-verification",
			"honest controls run the same audits against well-behaved providers; any conviction counts as a false positive",
		},
	}
	headlineDocs := headlineScale(cfg.CatalogSizes)
	for _, docs := range cfg.CatalogSizes {
		res, err := RunE17Size(cfg, docs)
		if err != nil {
			return nil, err
		}
		table.AddRow(fmt.Sprintf("%d", docs), "both", "honest",
			fmt.Sprintf("%d false-pos", res.FalsePositives), "-", "-", "-", "-", "-")
		for _, attack := range e17Attacks {
			d := res.Durable[attack]
			table.AddRow(fmt.Sprintf("%d", docs), "durable", attack,
				fmt.Sprintf("%t", d.Detected), d.Class,
				fmt.Sprintf("%d", d.Rounds), fmt.Sprintf("%.2f", d.DetectMS), "-", "-")
			r := res.Replicated[attack]
			table.AddRow(fmt.Sprintf("%d", docs), "replicated", attack,
				fmt.Sprintf("%t", r.Detected), r.Class,
				fmt.Sprintf("%d", r.Rounds), fmt.Sprintf("%.2f", r.DetectMS),
				fmt.Sprintf("%.1f%%", r.ReadablePct), fmt.Sprintf("%t", r.Readmitted))
		}
		if docs != headlineDocs {
			continue
		}
		detected, roundsMax, msMax := 0, 0, 0.0
		readableMin, readmitted := 100.0, 0
		for _, attack := range e17Attacks {
			for _, r := range []e17DrillResult{res.Durable[attack], res.Replicated[attack]} {
				if r.Detected {
					detected++
				}
				if r.Rounds > roundsMax {
					roundsMax = r.Rounds
				}
				if r.DetectMS > msMax {
					msMax = r.DetectMS
				}
			}
			r := res.Replicated[attack]
			if r.ReadablePct < readableMin {
				readableMin = r.ReadablePct
			}
			if r.Readmitted {
				readmitted++
			}
		}
		table.SetMetric("detection_pct", 100*float64(detected)/float64(2*len(e17Attacks)))
		table.SetMetric("false_positives", float64(res.FalsePositives))
		table.SetMetric("detect_rounds_max", float64(roundsMax))
		table.SetMetric("detect_ms", msMax)
		table.SetMetric("quarantine_readable_pct", readableMin)
		table.SetMetric("readmitted_pct", 100*float64(readmitted)/float64(len(e17Attacks)))
	}
	return table, nil
}
