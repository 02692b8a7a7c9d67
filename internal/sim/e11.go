package sim

import (
	"fmt"
	"math/rand"

	"trustedcells/internal/cloud"
	"trustedcells/internal/crypto"
	"trustedcells/internal/datamodel"
	syncpkg "trustedcells/internal/sync"
)

// ---------------------------------------------------------------------------
// E11 — fleet-scale delta sync: sharded anti-entropy
// ---------------------------------------------------------------------------

// E11Config parameterises the replication experiment: a fleet of replicas of
// one user's 10k-document catalog, churning through a seeded schedule of
// intermittent connectivity and concurrent updates.
type E11Config struct {
	// Replicas is the number of trusted cells replicating the catalog.
	Replicas int
	// Docs is the catalog size seeded before the churn phase.
	Docs int
	// SyncShards is the replication shard count of every replica.
	SyncShards int
	// ChurnRounds is how many rounds of intermittent connectivity plus
	// concurrent updates the fleet lives through before recovery.
	ChurnRounds int
	// UpdatesPerRound is how many documents are updated fleet-wide per churn
	// round (spread over randomly chosen replicas).
	UpdatesPerRound int
	// ConnectProb is the probability a replica is connected during a churn
	// round.
	ConnectProb float64
	// Seed makes the churn schedule reproducible.
	Seed int64
	// MaxRecoverRounds bounds the convergence loop once connectivity returns.
	MaxRecoverRounds int
	// CloudShards is the provider store's shard count.
	CloudShards int
}

// DefaultE11Config churns 8 replicas of a 10k-document catalog through 6
// rounds of 50% connectivity with 24 fleet-wide updates per round.
func DefaultE11Config() E11Config {
	return E11Config{
		Replicas:         8,
		Docs:             10_000,
		SyncShards:       2 * syncpkg.DefaultShardCount, // ~78 docs/shard at 10k
		ChurnRounds:      6,
		UpdatesPerRound:  24,
		ConnectProb:      0.5,
		Seed:             19,
		MaxRecoverRounds: 40,
		CloudShards:      cloud.DefaultShards,
	}
}

// E11Result is the outcome of one run, kept structured so the Go benchmark
// and the CI gate can assert on it without re-parsing the table.
type E11Result struct {
	Replicas int
	Docs     int
	// SeedBytes is the sealed bytes moved distributing the initial catalog to
	// every replica (paid once).
	SeedBytes int64
	// SyncBytes is the sealed bytes moved during churn plus recovery — the
	// steady-state replication cost.
	SyncBytes int64
	// ShardsMoved counts shard blobs, bases and segments, shipped during churn
	// plus recovery.
	ShardsMoved int64
	// Rounds is how many fleet-wide sync rounds recovery needed before every
	// replica converged (same live state, same replicated conflict count).
	Rounds         int
	SyncsAttempted int
	SyncsFailed    int
	Conflicts      int
	Converged      bool
}

// e11Doc builds the metadata-only document the replicas churn on.
func e11Doc(i int) *datamodel.Document {
	return &datamodel.Document{
		ID:        fmt.Sprintf("doc-%05d", i),
		Owner:     "e11",
		Type:      "note",
		Title:     fmt.Sprintf("note %05d", i),
		Class:     datamodel.ClassAuthored,
		CreatedAt: simStart,
	}
}

// RunE11Sync runs the churn-and-recover workload over the sharded delta
// protocol.
func RunE11Sync(cfg E11Config) (E11Result, error) {
	svc := cloud.NewMemoryShards(cfg.CloudShards)
	key, err := crypto.NewSymmetricKey()
	if err != nil {
		return E11Result{}, err
	}
	replicas := make([]*syncpkg.Replica, cfg.Replicas)
	for i := range replicas {
		replicas[i] = syncpkg.NewReplicaShards(fmt.Sprintf("e11/cell-%02d", i),
			"e11", key, svc, fixedClock(), cfg.SyncShards)
	}
	res := E11Result{Replicas: cfg.Replicas, Docs: cfg.Docs}

	// Seed the catalog on the first replica and distribute it.
	for i := 0; i < cfg.Docs; i++ {
		replicas[0].Upsert(e11Doc(i))
	}
	for _, r := range replicas {
		if err := r.Sync(); err != nil {
			return res, fmt.Errorf("E11: seeding sync: %w", err)
		}
	}
	totalBytes := func() int64 {
		var n int64
		for _, r := range replicas {
			n += r.TransferStats().Bytes()
		}
		return n
	}
	totalShards := func() int64 {
		var n int64
		for _, r := range replicas {
			st := r.TransferStats()
			n += st.ShardsPushed + st.ShardsPulled
		}
		return n
	}
	res.SeedBytes = totalBytes()
	seedShards := totalShards()

	// Churn: intermittent connectivity, concurrent updates, sync attempts.
	rng := rand.New(rand.NewSource(cfg.Seed))
	for round := 0; round < cfg.ChurnRounds; round++ {
		for _, r := range replicas {
			r.SetConnected(rng.Float64() < cfg.ConnectProb)
		}
		for u := 0; u < cfg.UpdatesPerRound; u++ {
			replicas[rng.Intn(cfg.Replicas)].Upsert(e11Doc(rng.Intn(cfg.Docs)))
		}
		for _, r := range replicas {
			res.SyncsAttempted++
			if err := r.Sync(); err != nil {
				if err == syncpkg.ErrDisconnected {
					res.SyncsFailed++
					continue
				}
				return res, fmt.Errorf("E11: churn sync: %w", err)
			}
		}
	}

	// Recovery: connectivity returns; count fleet-wide rounds until every
	// replica agrees on the live state and the replicated conflict count.
	for _, r := range replicas {
		r.SetConnected(true)
	}
	for res.Rounds < cfg.MaxRecoverRounds && !res.Converged {
		res.Rounds++
		for _, r := range replicas {
			res.SyncsAttempted++
			if err := r.Sync(); err != nil {
				return res, fmt.Errorf("E11: recovery sync: %w", err)
			}
		}
		res.Converged = true
		for _, r := range replicas[1:] {
			if !syncpkg.Equal(replicas[0], r) ||
				r.ConflictsResolved() != replicas[0].ConflictsResolved() {
				res.Converged = false
				break
			}
		}
	}
	res.SyncBytes = totalBytes() - res.SeedBytes
	res.ShardsMoved = totalShards() - seedShards
	res.Conflicts = replicas[0].ConflictsResolved()
	return res, nil
}

// RunE11 measures catalog replication across a fleet of intermittently
// connected replicas on the sharded delta protocol (per-shard version vectors,
// base and segment blobs per shard, segment pushes, conditional batched
// pulls). The headline metric is
// sealed bytes moved during churn and recovery; rounds-to-convergence and the
// replicated conflict count complete the picture.
func RunE11(cfg E11Config) (*Table, error) {
	table := &Table{
		ID:      "E11",
		Title:   "Fleet-scale catalog replication: sharded delta sync",
		Headers: []string{"replicas", "docs", "syncs (failed)", "recovery rounds", "sync MB moved", "blobs moved", "conflicts", "converged"},
		Notes: []string{
			fmt.Sprintf("%d replicas of a %d-document catalog; %d churn rounds at %.0f%% connectivity with %d fleet-wide updates per round (seed %d)",
				cfg.Replicas, cfg.Docs, cfg.ChurnRounds, cfg.ConnectProb*100, cfg.UpdatesPerRound, cfg.Seed),
			"sync MB = sealed bytes moved during churn + recovery, excluding the one-time seeding cost",
			"each dirty shard pushes its segment, or a new base once the segment outgrows a fixed share of the old one; advanced blobs pulled via one conditional batched exchange",
			"converged = identical live state and identical replicated conflict count on every replica",
		},
	}
	res, err := RunE11Sync(cfg)
	if err != nil {
		return nil, err
	}
	if !res.Converged {
		return nil, fmt.Errorf("E11: replicas did not converge in %d rounds", cfg.MaxRecoverRounds)
	}
	table.AddRow(fmt.Sprintf("%d", res.Replicas),
		fmt.Sprintf("%d", res.Docs),
		fmt.Sprintf("%d (%d)", res.SyncsAttempted, res.SyncsFailed),
		fmt.Sprintf("%d", res.Rounds),
		fmt.Sprintf("%.2f", float64(res.SyncBytes)/(1<<20)),
		fmt.Sprintf("%d", res.ShardsMoved),
		fmt.Sprintf("%d", res.Conflicts),
		fmt.Sprintf("%t", res.Converged))
	table.SetMetric("delta_sync_mb", float64(res.SyncBytes)/(1<<20))
	table.SetMetric("delta_recovery_rounds", float64(res.Rounds))
	table.SetMetric("conflicts", float64(res.Conflicts))
	return table, nil
}
