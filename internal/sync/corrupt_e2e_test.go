package sync

import (
	"fmt"
	"testing"
	"time"

	"trustedcells/internal/cloud"
	"trustedcells/internal/crypto"
)

// TestCorruptBlobFailsClosed is the end-to-end corruption drill against one
// provider: a blob with a single flipped bit must never decode into
// documents — the AEAD seal (or the signed attestation section in front of
// it) rejects the blob and the pull fails with an error, leaving the victim's
// catalog untouched.
func TestCorruptBlobFailsClosed(t *testing.T) {
	faulty := cloud.NewFaulty(cloud.NewMemory(), cloud.FaultyOptions{Seed: 11})
	a, b := authPair(faulty)
	for i := 0; i < 8; i++ {
		a.Upsert(doc(i))
	}
	if err := a.Sync(); err != nil {
		t.Fatalf("honest push: %v", err)
	}

	faulty.SetCorrupt(1)
	if err := b.Pull(); err == nil {
		t.Fatal("pull of a bit-flipped blob succeeded; corruption must fail closed")
	}
	if _, ok := getDoc(b, "doc-0000"); ok {
		t.Fatal("corrupted blob materialised documents in the victim replica")
	}
	if got := faulty.FaultStats().Corrupted; got == 0 {
		t.Fatal("corruption schedule never fired")
	}

	// The read-only audit rejects the corrupted copy too — this is what the
	// replication layer's quarantine decision keys on.
	blob, err := faulty.GetBlob("alice/syncshard/0000")
	if err != nil {
		t.Fatalf("GetBlob: %v", err)
	}
	if err := b.CheckBlob("alice/syncshard/0000", blob.Data); err == nil {
		t.Fatal("catalog audit accepted a corrupted shard blob")
	}

	// Honest service again: the same victim recovers with no residue.
	faulty.SetCorrupt(0)
	if err := b.Pull(); err != nil {
		t.Fatalf("pull after corruption cleared: %v", err)
	}
	if _, ok := getDoc(b, "doc-0000"); !ok {
		t.Fatal("victim did not converge once served honest bytes")
	}
}

// TestCorruptMemberQuarantinedFleetRoutesAround drills silent corruption
// against the replicated fleet: while member 0 serves bit-flipped blobs the
// fleet's reads fail closed (deterministic tie-breaking prefers the lowest
// member index, so the rotten copy would win), the catalog audit convicts the
// member, and quarantining it restores full availability from the trusted
// majority.
//
// A read returns after the first R=2 answers, so member 0 takes part in it
// only if it answers before one of the honest members. To make that certain,
// member 2's reads are partitioned away while the corrupt read is drilled;
// the failure threshold keeps that partition from marking member 2 down.
func TestCorruptMemberQuarantinedFleetRoutesAround(t *testing.T) {
	faulty := cloud.NewFaulty(cloud.NewMemory(), cloud.FaultyOptions{Seed: 11})
	partitioned := cloud.NewFaulty(cloud.NewMemory(), cloud.FaultyOptions{})
	members := []cloud.Service{faulty, cloud.NewMemory(), partitioned}
	fleet, err := cloud.NewReplicated(members, cloud.ReplicatedOptions{WriteQuorum: 3, ReadQuorum: 2, FailThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	key, _ := crypto.NewSymmetricKey()
	clock := func() time.Time { return t0 }
	a := NewReplicaShards("alice/gateway", "alice", key, fleet, clock, 4)
	a.SetStrictFreshness(false)
	b := NewReplicaShards("alice/phone", "alice", key, fleet, clock, 4)
	b.SetStrictFreshness(false)
	for i := 0; i < 16; i++ {
		a.Upsert(doc(i))
	}
	if err := a.Sync(); err != nil {
		t.Fatalf("prefill: %v", err)
	}

	faulty.SetCorrupt(1)
	partitioned.SetMask(cloud.MaskReads)
	if err := b.Pull(); err == nil {
		t.Fatal("fleet served a corrupted member's bytes without failing closed")
	}
	partitioned.SetMask(0)

	// The audit sweep convicts member 0: every shard blob it serves flips a
	// bit and fails verification.
	convicted := false
	for si := 0; si < a.ShardCount(); si++ {
		name := fmt.Sprintf("alice/syncshard/%04d", si)
		blob, err := members[0].GetBlob(name)
		if err != nil {
			continue
		}
		if a.CheckBlob(name, blob.Data) != nil {
			convicted = true
			break
		}
	}
	if !convicted {
		t.Fatal("audit sweep did not convict the corrupting member")
	}
	fleet.Quarantine(0)

	// Quarantined, the rotten member no longer touches read quorums: the same
	// victim pulls the full catalog from the trusted majority.
	if err := b.Pull(); err != nil {
		t.Fatalf("pull during quarantine: %v", err)
	}
	for i := 0; i < 16; i++ {
		if _, ok := getDoc(b, fmt.Sprintf("doc-%04d", i)); !ok {
			t.Fatalf("doc-%04d unreadable during quarantine", i)
		}
	}
}
