package sync

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"trustedcells/internal/cloud"
	"trustedcells/internal/crypto"
)

// segmentsFirst writes the segments of the next push batch, calls between,
// and only then writes the rest of the batch: a reader running in between
// sees a compaction's segment before the base it names.
type segmentsFirst struct {
	cloud.Service
	between func()
}

func (s *segmentsFirst) PutBlobs(puts []cloud.BlobPut) ([]int, error) {
	between := s.between
	if between == nil {
		return s.Service.PutBlobs(puts)
	}
	s.between = nil
	versions := make([]int, len(puts))
	for _, segments := range []bool{true, false} {
		for i, bp := range puts {
			if strings.Contains(bp.Name, "/syncseg/") != segments {
				continue
			}
			vs, err := s.Service.PutBlobs([]cloud.BlobPut{bp})
			if err != nil {
				return nil, err
			}
			versions[i] = vs[0]
		}
		if segments {
			between()
		}
	}
	return versions, nil
}

// beforePuts calls before, once, ahead of the next push batch.
type beforePuts struct {
	cloud.Service
	before func()
}

func (b *beforePuts) PutBlobs(puts []cloud.BlobPut) ([]int, error) {
	if before := b.before; before != nil {
		b.before = nil
		before()
	}
	return b.Service.PutBlobs(puts)
}

// lagOnce answers the next conditional fetch as if the blob named hide had
// not advanced: the read a fetch makes when it reaches that blob before a
// concurrent push does, and the blob beside it after.
type lagOnce struct {
	cloud.Service
	hide string
}

func (l *lagOnce) GetBlobsIf(gets []cloud.CondGet) ([]cloud.Blob, error) {
	blobs, err := l.Service.GetBlobsIf(gets)
	if err != nil || l.hide == "" {
		return blobs, err
	}
	for i, g := range gets {
		if g.Name == l.hide {
			blobs[i] = cloud.Blob{Name: g.Name, Version: g.IfNewer}
		}
	}
	l.hide = ""
	return blobs, nil
}

// converged syncs the replicas in turn until they agree, and fails the test
// unless every one of them then holds every document in want.
func converged(t *testing.T, want []string, reps ...*Replica) {
	t.Helper()
	for round := 0; round < 4; round++ {
		for _, r := range reps {
			if err := r.Sync(); err != nil {
				t.Fatalf("round %d: %s: %v", round, r.id, err)
			}
		}
	}
	for _, r := range reps {
		if !Equal(reps[0], r) {
			t.Fatalf("%s and %s did not converge", reps[0].id, r.id)
		}
		for _, id := range want {
			if _, ok := getDoc(r, id); !ok {
				t.Fatalf("%s lost %s", r.id, id)
			}
		}
		if r.Suspicions() != 0 {
			t.Fatalf("%s: %d suspicions on an honest provider", r.id, r.Suspicions())
		}
	}
}

// compactingPair returns two converged single-shard replicas holding docs
// documents, and the IDs of the documents a compaction over them adds: more
// than 1/segmentRatio of the shard, so the writer's next push compacts.
func compactingPair(t *testing.T, svc cloud.Service, docs int) (a, b *Replica, added []string) {
	t.Helper()
	a, b = authPair(svc)
	for i := 0; i < docs; i++ {
		a.Upsert(doc(i))
	}
	for _, r := range []*Replica{a, b} {
		if err := r.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	for i := docs; i < docs+docs/segmentRatio+1; i++ {
		a.Upsert(doc(i))
		added = append(added, doc(i).ID)
	}
	return a, b, added
}

// TestSegmentBeforeItsBase pins the first lesson of a base-plus-delta
// design: a reader that merged a segment before the base it extends would
// claim, in its version vector, updates it does not hold. A reader that
// fetches a compaction's segment while the base it names is not yet in the
// cloud leaves it unmerged — no document, no vector entry, no witnessed
// epoch, its version not seen — and merges both once the base is there. A
// reader whose fetch reached the old base and then the new segment fetches
// the base it names before merging, within the same pull.
func TestSegmentBeforeItsBase(t *testing.T) {
	t.Run("base not written yet", func(t *testing.T) {
		mem := cloud.NewMemory()
		split := &segmentsFirst{Service: mem}
		a, b, added := compactingPair(t, mem, 40)
		a.cloud = split
		sh := b.shards[0]
		split.between = func() {
			b.mu.Lock()
			before := sh.vv[a.id]
			segSeen := sh.fresh[segmentBlob].seen
			b.mu.Unlock()
			if err := b.Pull(); err != nil {
				t.Fatalf("pull between the segment and its base: %v", err)
			}
			b.mu.Lock()
			defer b.mu.Unlock()
			if sh.vv[a.id] != before || sh.fresh[segmentBlob].seen != segSeen {
				t.Fatalf("merged a segment over a base it does not hold: vector %d -> %d, segment seen %d -> %d",
					before, sh.vv[a.id], segSeen, sh.fresh[segmentBlob].seen)
			}
			if _, ok := sh.docs[added[0]]; ok {
				t.Fatal("a document of the unwritten base arrived")
			}
		}
		if err := a.Push(); err != nil {
			t.Fatal(err)
		}
		if split.between != nil {
			t.Fatal("the push wrote no base and segment")
		}
		if err := b.Pull(); err != nil {
			t.Fatal(err)
		}
		if !Equal(a, b) {
			t.Fatal("the reader did not merge the base and then its segment")
		}
		converged(t, added, a, b)
	})
	t.Run("base read before it was written", func(t *testing.T) {
		mem := cloud.NewMemory()
		a, b, added := compactingPair(t, mem, 40)
		if err := a.Push(); err != nil {
			t.Fatal(err)
		}
		lag := &lagOnce{Service: mem, hide: b.shards[0].names[baseBlob]}
		b.cloud = lag
		before := b.TransferStats()
		if err := b.Pull(); err != nil {
			t.Fatal(err)
		}
		if lag.hide != "" {
			t.Fatal("the lagging read never happened")
		}
		if n := b.TransferStats().ShardsPulled - before.ShardsPulled; n != 2 || !Equal(a, b) {
			t.Fatalf("one pull merged %d blobs, want the base it refetched and the segment", n)
		}
		converged(t, added, a, b)
	})
}

// TestCompactionRacesSegmentPush runs a compaction and another replica's
// segment push against each other, in both orders at the blob store: the
// segment lands between the compactor's fetch and its upload, so the
// compaction overwrites it; or the compaction lands between the segment
// writer's fetch and its upload, so the store holds the new base under a
// segment naming the old one. Either way a few honest rounds lose no
// document on either replica, and nothing is suspected.
func TestCompactionRacesSegmentPush(t *testing.T) {
	for _, compactionLast := range []bool{true, false} {
		t.Run(fmt.Sprintf("compaction last %t", compactionLast), func(t *testing.T) {
			mem := cloud.NewMemory()
			a, b, added := compactingPair(t, mem, 40)
			b.Upsert(doc(1000))
			want := append(added, doc(1000).ID)
			first, second := a, b // first fetches, second's whole push lands, first's upload lands
			if !compactionLast {
				first, second = b, a
			}
			hook := &beforePuts{Service: mem, before: func() {
				if err := second.Push(); err != nil {
					t.Fatalf("%s: racing push: %v", second.id, err)
				}
			}}
			first.cloud = hook
			if err := first.Push(); err != nil {
				t.Fatalf("%s: %v", first.id, err)
			}
			if hook.before != nil {
				t.Fatal("the racing push never ran")
			}
			base, err := mem.GetBlob(a.shards[0].names[baseBlob])
			if err != nil {
				t.Fatal(err)
			}
			if st, err := a.decodeShard(0, baseBlob, base.Data, nil); err != nil || st.Writer != a.id {
				t.Fatalf("the store holds no compaction by %s: writer %q, %v", a.id, st.Writer, err)
			}
			first.cloud = mem
			converged(t, want, a, b)
		})
	}
}

// TestHonestCompactionStaysClean holds strict freshness to an honest
// compaction: the base and the segment it writes each carry a fresh epoch,
// and each is audited against the witness set as it stood before the round,
// so neither convicts the other — whether the reader fetches them in one
// round or, its first fetch reaching the segment before the compaction
// wrote it, in two (rule 2 across base and segment). Afterwards the reader's
// read-only audit passes both blobs.
func TestHonestCompactionStaysClean(t *testing.T) {
	for _, split := range []bool{false, true} {
		t.Run(fmt.Sprintf("split %t", split), func(t *testing.T) {
			mem := cloud.NewMemory()
			adv := cloud.NewAdversary(mem, cloud.AdversaryConfig{Mode: cloud.Honest, Seed: 5})
			a, b, added := compactingPair(t, adv, 40)
			if err := a.Push(); err != nil {
				t.Fatal(err)
			}
			segName := b.shards[0].names[segmentBlob]
			if split {
				b.cloud = &lagOnce{Service: adv, hide: segName}
				if err := b.Pull(); err != nil {
					t.Fatalf("pull of the base alone: %v", err)
				}
				if _, ok := getDoc(b, added[0]); !ok {
					t.Fatal("the base did not merge")
				}
				b.cloud = adv
			}
			if err := b.Pull(); err != nil {
				var re *RollbackError
				if errors.As(err, &re) {
					t.Fatalf("honest compaction convicted: %v", err)
				}
				t.Fatal(err)
			}
			for kind, name := range b.shards[0].names {
				blob, err := mem.GetBlob(name)
				if err != nil {
					t.Fatal(err)
				}
				if err := b.CheckBlob(name, blob.Data); err != nil {
					t.Fatalf("audit of the compaction's blob %d: %v", kind, err)
				}
			}
			converged(t, added, a, b)
		})
	}
}

// TestSegmentPushesRace lets one replica's segment overwrite another's that
// it never fetched: the overwritten writer finds its updates missing from the
// segment's version vector on its next pull and writes them again.
func TestSegmentPushesRace(t *testing.T) {
	mem := cloud.NewMemory()
	a, b := authPair(mem)
	for i := 0; i < 40; i++ {
		a.Upsert(doc(i))
	}
	for _, r := range []*Replica{a, b} {
		if err := r.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	a.Upsert(doc(100))
	b.Upsert(doc(200))
	a.cloud = &beforePuts{Service: mem, before: func() {
		if err := b.Push(); err != nil {
			t.Fatalf("racing push: %v", err)
		}
	}}
	if err := a.Push(); err != nil {
		t.Fatal(err)
	}
	a.cloud = mem
	converged(t, []string{doc(100).ID, doc(200).ID}, a, b)
}

// TestStaleSegmentIsRepaired replays, after a compaction, an older segment
// that names the base the compaction replaced, over the compactor's next
// segment — a delayed duplicate of an earlier write. Every reader skips the
// stale segment, and the first replica that finds it writes its own segment
// over the current base in its place, so the documents only the overwritten
// segment carried reach the other replicas.
func TestStaleSegmentIsRepaired(t *testing.T) {
	mem := cloud.NewMemory()
	a, b, added := compactingPair(t, mem, 40)
	c := NewReplicaShards("alice/token", "alice", a.key, mem, a.clock, 1)
	c.Upsert(doc(300))
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	old, err := mem.GetBlob(a.shards[0].names[segmentBlob]) // names the base a is about to replace
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Replica{a, b, c} { // a compacts: doc-0300 is in the new base
		if err := r.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if st, err := a.decodeShard(0, segmentBlob, old.Data, nil); err != nil || st.Base == a.shards[0].fresh[baseBlob].ref {
		t.Fatalf("a did not compact past the base the old segment names (%v)", err)
	}
	a.Upsert(doc(400))
	if err := a.Push(); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.PutBlob(old.Name, old.Data); err != nil {
		t.Fatal(err)
	}
	converged(t, append(added, doc(300).ID, doc(400).ID), a, b, c)
}

// TestEpochSourceFailureLosesNothing fails the epoch source at each of the
// four stamps of a push that compacts two shards (a base and a segment
// each): the push fails with nothing uploaded, every shard keeps its base,
// its delta and its dirty flag, and once the source recovers the replicas
// converge on every document.
func TestEpochSourceFailureLosesNothing(t *testing.T) {
	for fail := 1; fail <= 4; fail++ {
		t.Run(fmt.Sprintf("stamp %d", fail), func(t *testing.T) {
			mem := cloud.NewMemory()
			key, _ := crypto.NewSymmetricKey()
			a := NewReplicaShards("alice/gateway", "alice", key, mem, nil, 2)
			b := NewReplicaShards("alice/phone", "alice", key, mem, nil, 2)
			var want []string
			for i := 0; i < 100; i++ {
				a.Upsert(doc(i))
				want = append(want, doc(i).ID)
			}
			converged(t, want, a, b)
			for i := 100; i < 140; i++ {
				a.Upsert(doc(i))
				want = append(want, doc(i).ID)
			}
			calls, broken := 0, errors.New("counter unavailable")
			a.SetEpochSource(func(int) (uint64, error) {
				if calls++; calls == fail {
					return 0, broken
				}
				return uint64(100 + calls), nil
			})
			var before []baseRef
			var deltas []int
			for _, sh := range a.shards {
				before, deltas = append(before, sh.fresh[baseBlob].ref), append(deltas, len(sh.delta))
			}
			puts := mem.Stats().Puts
			if err := a.Push(); !errors.Is(err, broken) {
				t.Fatalf("push with a failing epoch source = %v", err)
			}
			if mem.Stats().Puts != puts {
				t.Fatal("a push that failed to stamp uploaded")
			}
			for si, sh := range a.shards {
				if ref := sh.fresh[baseBlob].ref; ref != before[si] || len(sh.delta) != deltas[si] || !sh.dirty {
					t.Fatalf("shard %d: base %+v -> %+v, delta %d -> %d, dirty %t", si, before[si], ref, deltas[si], len(sh.delta), sh.dirty)
				}
			}
			a.SetEpochSource(nil)
			converged(t, want, a, b)
		})
	}
}
