package sync

import (
	"errors"
	"testing"
	"time"

	"trustedcells/internal/cloud"
	"trustedcells/internal/crypto"
)

// authPair builds two single-shard replicas of one user over the given
// service. One shard makes every drill deterministic: all documents land in
// shard 0 and every push/pull moves exactly one blob.
func authPair(svc cloud.Service) (*Replica, *Replica) {
	key, _ := crypto.NewSymmetricKey()
	clock := func() time.Time { return t0 }
	a := NewReplicaShards("alice/gateway", "alice", key, svc, clock, 1)
	b := NewReplicaShards("alice/phone", "alice", key, svc, clock, 1)
	return a, b
}

func TestHonestSyncHasNoFalsePositives(t *testing.T) {
	// Churny honest traffic — concurrent pushes, overwrite races, extra
	// rounds mixed in — must never trip the freshness audit in strict mode.
	svc := cloud.NewAdversary(cloud.NewMemory(), cloud.AdversaryConfig{Mode: cloud.Honest, Seed: 3})
	a, b := authPair(svc)
	for i := 0; i < 20; i++ {
		a.Upsert(doc(i))
		b.Upsert(doc(100 + i))
		if err := a.Sync(); err != nil {
			t.Fatalf("a.Sync round %d: %v", i, err)
		}
		if err := b.Sync(); err != nil {
			t.Fatalf("b.Sync round %d: %v", i, err)
		}
		if i%5 == 0 {
			if err := a.Sync(); err != nil {
				t.Fatalf("a.Sync extra round %d: %v", i, err)
			}
		}
	}
	if err := a.Sync(); err != nil {
		t.Fatalf("final a.Sync: %v", err)
	}
	if !Equal(a, b) {
		t.Fatal("replicas did not converge")
	}
	if a.Suspicions() != 0 || b.Suspicions() != 0 {
		t.Fatalf("honest run raised suspicions: a=%d b=%d", a.Suspicions(), b.Suspicions())
	}
}

func TestRollbackDetectedInOneRound(t *testing.T) {
	// The provider re-serves an old sealed blob under the current version
	// number — AEAD-clean, version-check-clean — and the stale-epoch rule
	// convicts on the victim's first pull.
	adv := cloud.NewAdversary(cloud.NewMemory(), cloud.AdversaryConfig{Mode: cloud.Honest, Seed: 7, RollbackRate: 1, DropRate: 1})
	a, b := authPair(adv)
	a.Upsert(doc(1))
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := b.Sync(); err != nil { // b witnesses a's epoch 1
		t.Fatal(err)
	}
	a.Upsert(doc(2))
	if err := a.Sync(); err != nil { // epoch 2 now current at the provider
		t.Fatal(err)
	}
	adv.SetMode(cloud.Rollback)
	err := b.Pull()
	if !errors.Is(err, ErrRollbackDetected) {
		t.Fatalf("Pull = %v, want rollback detection", err)
	}
	if !errors.Is(err, ErrIntegrity) {
		t.Fatal("rollback must also satisfy errors.Is(err, ErrIntegrity)")
	}
	var re *RollbackError
	if !errors.As(err, &re) || re.Shard != 0 {
		t.Fatalf("evidence not attached: %v", err)
	}
}

func TestDroppedWriteDetectedInOneRound(t *testing.T) {
	// The provider acknowledges a push and discards it. The next pull serves
	// the shard below the acknowledged version: rule-1 guilt, classified as
	// rollback because the served history carries no fresh epochs.
	for name, mk := range map[string]func(t *testing.T) cloud.Service{
		"memory": func(t *testing.T) cloud.Service { return cloud.NewMemory() },
		"durable": func(t *testing.T) cloud.Service {
			d, err := cloud.OpenDurable(t.TempDir(), cloud.DurableOptions{Shards: 2})
			if err != nil {
				t.Fatalf("OpenDurable: %v", err)
			}
			t.Cleanup(func() { _ = d.Close() })
			return d
		},
	} {
		t.Run(name, func(t *testing.T) {
			adv := cloud.NewAdversary(mk(t), cloud.AdversaryConfig{Mode: cloud.Honest, Seed: 7, RollbackRate: 1, DropRate: 1})
			a, _ := authPair(adv)
			a.Upsert(doc(1))
			if err := a.Sync(); err != nil {
				t.Fatal(err)
			}
			adv.SetMode(cloud.Dropping)
			a.Upsert(doc(2))
			if err := a.Push(); err != nil { // acknowledged, discarded
				t.Fatalf("dropped push should look successful: %v", err)
			}
			adv.SetMode(cloud.Honest)
			err := a.Pull()
			if !errors.Is(err, ErrRollbackDetected) {
				t.Fatalf("Pull = %v, want rollback detection", err)
			}
			var re *RollbackError
			if !errors.As(err, &re) || re.AckedVersion <= re.ServedVersion {
				t.Fatalf("evidence not attached: %v", err)
			}
		})
	}
}

func TestForkDetectedWhenViewsRejoin(t *testing.T) {
	// The provider shows alice's gateway and phone divergent histories
	// (both acknowledged), then rejoins them on the gateway's branch. The
	// phone's next exchange serves the shard below its acknowledged version,
	// and the served history carries gateway epochs the phone never
	// witnessed: a fork, not a mere rollback.
	adv := cloud.NewAdversary(cloud.NewMemory(), cloud.AdversaryConfig{Mode: cloud.Honest, Seed: 7, RollbackRate: 1, DropRate: 1})
	key, _ := crypto.NewSymmetricKey()
	clock := func() time.Time { return t0 }
	a := NewReplicaShards("alice/gateway", "alice", key, adv.ClientView("gw"), clock, 1)
	b := NewReplicaShards("alice/phone", "alice", key, adv.ClientView("ph"), clock, 1)

	a.Upsert(doc(1))
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	adv.SetMode(cloud.Fork)
	a.Upsert(doc(2))
	if err := a.Sync(); err != nil { // gateway branch
		t.Fatal(err)
	}
	// The phone pushes twice on its branch, so its acknowledged version
	// outruns the branch the provider will keep.
	b.Upsert(doc(3))
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	b.Upsert(doc(4))
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := adv.EndFork("gw"); err != nil {
		t.Fatal(err)
	}
	err := b.Pull()
	if !errors.Is(err, ErrForkDetected) {
		t.Fatalf("Pull = %v, want fork detection", err)
	}
	var fe *ForkError
	if !errors.As(err, &fe) || fe.Replica != "alice/gateway" {
		t.Fatalf("fork evidence should name the diverged writer: %v", err)
	}
}

func TestLenientModeSuspectsAndHeals(t *testing.T) {
	// With strict freshness off (the replicated-quorum setting) a violation
	// is absorbed: counted, shard re-dirtied, and the republish re-asserts
	// the newest state once the provider behaves.
	adv := cloud.NewAdversary(cloud.NewMemory(), cloud.AdversaryConfig{Mode: cloud.Honest, Seed: 7, RollbackRate: 1, DropRate: 1})
	a, b := authPair(adv)
	b.SetStrictFreshness(false)
	a.Upsert(doc(1))
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	a.Upsert(doc(2))
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	adv.SetMode(cloud.Rollback)
	if err := b.Pull(); err != nil {
		t.Fatalf("lenient pull must absorb the violation: %v", err)
	}
	if b.Suspicions() == 0 {
		t.Fatal("violation not counted")
	}
	adv.SetMode(cloud.Honest)
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	if !Equal(a, b) {
		t.Fatal("replicas did not re-converge after the attack window")
	}
}

func TestUnattestedShardRefused(t *testing.T) {
	// Every push stamps its writer's attestation, so a shard without one is
	// not something an honest replica wrote: the two pre-attestation wire
	// forms and an unstamped current-codec state, each sealed under the user
	// key, fail closed on Pull and on CheckShardBlob.
	forms := legacyShardForms(t, codecTestState())
	unstamped, err := appendShardState(nil, codecTestState())
	if err != nil {
		t.Fatal(err)
	}
	forms["unstamped"] = unstamped
	for name, payload := range forms {
		t.Run(name, func(t *testing.T) {
			svc := cloud.NewMemory()
			a, b := authPair(svc)
			sealed, err := crypto.Seal(a.key, payload, a.shardAD(0))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := svc.PutBlob(a.shardBlobName(0), sealed); err != nil {
				t.Fatal(err)
			}
			if err := b.Pull(); !errors.Is(err, ErrIntegrity) {
				t.Fatalf("Pull = %v, want ErrIntegrity", err)
			}
			if err := b.CheckShardBlob(0, sealed); !errors.Is(err, ErrIntegrity) {
				t.Fatalf("CheckShardBlob = %v, want ErrIntegrity", err)
			}
			if b.LiveCount() != 0 {
				t.Fatal("refused shard merged documents")
			}
		})
	}
}

func TestCheckShardBlobAudit(t *testing.T) {
	// CheckShardBlob is the read-only audit the replication layer's
	// quarantine verifier wraps: a current blob passes, a stale copy of the
	// shard's history is convicted against the same witness set.
	svc := cloud.NewMemory()
	a, b := authPair(svc)
	a.Upsert(doc(1))
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	stale, err := svc.GetBlob("alice/syncshard/0000")
	if err != nil {
		t.Fatal(err)
	}
	a.Upsert(doc(2))
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := b.Sync(); err != nil { // witness both epochs
		t.Fatal(err)
	}
	current, err := svc.GetBlob("alice/syncshard/0000")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.CheckShardBlob(0, current.Data); err != nil {
		t.Fatalf("current blob failed audit: %v", err)
	}
	if err := b.CheckShardBlob(0, stale.Data); !errors.Is(err, ErrRollbackDetected) {
		t.Fatalf("stale blob audit = %v, want rollback", err)
	}
	if err := b.CheckShardBlob(0, nil); err != nil {
		t.Fatalf("empty blob should pass (nothing to audit): %v", err)
	}
	if err := b.CheckShardBlob(99, current.Data); err == nil {
		t.Fatal("out-of-range shard index must error")
	}
}

func TestEpochsResumeAcrossRestart(t *testing.T) {
	// A replica rebuilt from replicated state pulls before pushing, resumes
	// past its own witnessed epochs, and therefore never reuses an epoch —
	// no false fork conviction at its peer.
	svc := cloud.NewMemory()
	key, _ := crypto.NewSymmetricKey()
	clock := func() time.Time { return t0 }
	a := NewReplicaShards("alice/gateway", "alice", key, svc, clock, 1)
	b := NewReplicaShards("alice/phone", "alice", key, svc, clock, 1)
	for i := 0; i < 3; i++ {
		a.Upsert(doc(i))
		if err := a.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	// "Restart": a fresh instance under the same identity.
	a2 := NewReplicaShards("alice/gateway", "alice", key, svc, clock, 1)
	if err := a2.Sync(); err != nil {
		t.Fatalf("rebuilt replica first sync: %v", err)
	}
	a2.Upsert(doc(10))
	if err := a2.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := b.Sync(); err != nil {
		t.Fatalf("peer convicted an honest restart: %v", err)
	}
	if b.Suspicions() != 0 {
		t.Fatalf("suspicions after honest restart: %d", b.Suspicions())
	}
}

func TestCodecAuthSectionRoundTrip(t *testing.T) {
	st := shardState{
		Docs:   map[string]VersionedDoc{"d": {Revision: 3, Replica: "alice/gateway", Updated: t0}},
		VV:     map[string]uint64{"alice/gateway": 3},
		Writer: "alice/gateway",
		Attests: map[string]Attestation{
			"alice/gateway": {Epoch: 7, Root: []byte{1, 2, 3}, Sig: []byte{4, 5, 6, 7}},
			"alice/phone":   {Epoch: 2, Root: []byte{9}, Sig: []byte{8}},
		},
	}
	enc, err := appendShardState(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	if enc[1] != shardCodecVersion {
		t.Fatalf("codec version = %d, want %d", enc[1], shardCodecVersion)
	}
	dec, err := decodeShardState(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Writer != st.Writer || len(dec.Attests) != 2 {
		t.Fatalf("auth section lost: %+v", dec)
	}
	got := dec.Attests["alice/gateway"]
	if got.Epoch != 7 || string(got.Root) != string([]byte{1, 2, 3}) || len(got.Sig) != 4 {
		t.Fatalf("attestation mangled: %+v", got)
	}
	// Truncated auth sections must fail closed, not decode partially.
	for cut := len(enc) - 1; cut > len(enc)-6; cut-- {
		if _, err := decodeShardState(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
}

func TestAttestationOverheadConstant(t *testing.T) {
	// The attestation section is the writer plus one signed (epoch, root)
	// per replica: its size must not grow with the shard body.
	overhead := make(map[int]int)
	for _, n := range []int{1, 100, 1000} {
		a, _ := authPair(cloud.NewMemory())
		for i := 0; i < n; i++ {
			a.Upsert(doc(i))
		}
		a.mu.Lock()
		snap := snapshotShardLocked(a.shards[0])
		err := a.attestSnapshotLocked(0, &snap)
		a.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		with, err := appendShardState(nil, snap)
		if err != nil {
			t.Fatal(err)
		}
		snap.Writer, snap.Attests = "", nil
		without, err := appendShardState(nil, snap)
		if err != nil {
			t.Fatal(err)
		}
		overhead[n] = len(with) - len(without)
		if n == 1000 {
			if pct := 100 * float64(overhead[n]) / float64(len(without)); pct > 5 {
				t.Fatalf("attestation costs %.2f%% of a %d-doc shard, want <= 5%%", pct, n)
			}
		}
	}
	if overhead[1] <= 0 || overhead[100] != overhead[1] || overhead[1000] != overhead[1] {
		t.Fatalf("attestation overhead by shard size = %v, want one positive constant", overhead)
	}
}
