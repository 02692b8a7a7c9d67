package sync

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"trustedcells/internal/cloud"
	"trustedcells/internal/crypto"
	"trustedcells/internal/datamodel"
)

// oracleShardRoot is the shard Merkle root as computed before entries cached
// their leaf hashes: a leaf list built from the documents, hashed as a tree.
func oracleShardRoot(docs []shardEntry) []byte {
	leaves := make([][]byte, len(docs))
	for i, e := range docs {
		leaf := datamodel.AppendString(nil, e.ID)
		leaf = binary.AppendUvarint(leaf, e.Revision)
		leaf = datamodel.AppendString(leaf, e.Replica)
		var flags byte
		if e.Deleted {
			flags |= shardFlagDeleted
		}
		leaves[i] = append(leaf, flags)
	}
	return crypto.NewMerkleTree(leaves).Root()
}

// pushRecorder keeps a copy of every blob a replica uploads.
type pushRecorder struct {
	cloud.Service
	puts []cloud.BlobPut
}

func (p *pushRecorder) PutBlobs(puts []cloud.BlobPut) ([]int, error) {
	for _, bp := range puts {
		p.puts = append(p.puts, cloud.BlobPut{Name: bp.Name, Data: bytes.Clone(bp.Data)})
	}
	return p.Service.PutBlobs(puts)
}

// openBlob opens and plainly decodes one blob of shard si as it stands in
// svc, with every entry's cache filled.
func openBlob(t *testing.T, r *Replica, svc cloud.Service, si, kind int) (shardState, []byte) {
	t.Helper()
	blob, err := svc.GetBlob(r.shards[si].names[kind])
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := crypto.Open(r.key, blob.Data)
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.decodeShard(si, kind, blob.Data, nil)
	if err != nil {
		t.Fatal(err)
	}
	return st, plain
}

// checkPushed holds every shard r wrote since the last check to the oracle.
// Each of its two blobs in the cloud must be the oracle's encoding of what it
// decodes to; the segment must name the base; and the logical state they
// make — the base's entries with the segment's over them, under the
// segment's vector, conflicts and attestations — must encode, through the
// oracle, byte for byte as r's shard does as it stands after the push, whose
// oracle root r's own attestation must carry.
func checkPushed(t *testing.T, r *Replica, svc cloud.Service, rec *pushRecorder) {
	t.Helper()
	shards := map[int]bool{}
	for _, bp := range rec.puts {
		si, err := strconv.Atoi(bp.Name[strings.LastIndexByte(bp.Name, '/')+1:])
		if err != nil {
			t.Fatal(err)
		}
		shards[si] = true
	}
	rec.puts = rec.puts[:0]
	for si := range shards {
		base, basePlain := openBlob(t, r, svc, si, baseBlob)
		seg, segPlain := openBlob(t, r, svc, si, segmentBlob)
		for name, blob := range map[string]struct {
			st    shardState
			plain []byte
		}{"base": {base, basePlain}, "segment": {seg, segPlain}} {
			if again, err := oracleShardState(blob.st); err != nil || !bytes.Equal(again, blob.plain) {
				t.Fatalf("%s: shard %d %s is not the oracle's encoding of itself (%v)", r.id, si, name, err)
			}
		}
		if seg.Base != base.ref() {
			t.Fatalf("%s: shard %d segment names base %+v, the cloud holds %+v", r.id, si, seg.Base, base.ref())
		}
		docs := docsOf(base)
		for _, e := range seg.Docs {
			docs[e.ID] = e.VersionedDoc
		}
		logical := shardState{VV: seg.VV, Conflicts: seg.Conflicts, Writer: seg.Writer, Attests: seg.Attests}
		for _, id := range sortedKeys(docs) {
			logical.Docs = append(logical.Docs, shardEntry{ID: id, VersionedDoc: docs[id]})
		}
		got, err := oracleShardState(logical)
		if err != nil {
			t.Fatal(err)
		}
		r.mu.Lock()
		sh := r.shards[si]
		st := shardState{VV: sh.vv, Conflicts: sh.conflicts, Writer: r.id, Attests: sh.attests}
		for _, id := range sortedKeys(sh.docs) {
			st.Docs = append(st.Docs, shardEntry{ID: id, VersionedDoc: sh.docs[id]})
		}
		want, err := oracleShardState(st)
		root := oracleShardRoot(st.Docs)
		r.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: shard %d base and segment make a state that differs from the oracle encoding:\n got  %x\n want %x", r.id, si, got, want)
		}
		if !bytes.Equal(st.Attests[r.id].Root, root) {
			t.Fatalf("%s attested shard %d under root %x, oracle %x", r.id, si, st.Attests[r.id].Root, root)
		}
	}
}

// TestPushedShardsMatchOracle drives three replicas through seeded sequences
// of upserts, deletes, syncs and the conflicts they cause, and holds the
// logical state of every pushed shard — its base with its segment over it —
// byte for byte to the pre-cache whole-state encoder.
func TestPushedShardsMatchOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		svc := cloud.NewMemory()
		key, _ := crypto.NewSymmetricKey()
		tick := 0
		clock := func() time.Time { tick++; return t0.Add(time.Duration(tick) * time.Second) }
		var reps []*Replica
		var recs []*pushRecorder
		for _, name := range []string{"alice/gateway", "alice/phone", "alice/token"} {
			rec := &pushRecorder{Service: svc}
			recs = append(recs, rec)
			reps = append(reps, NewReplicaShards(name, "alice", key, rec, clock, 4))
		}
		sync := func(i int) {
			if err := reps[i].Sync(); err != nil {
				t.Fatalf("seed %d: %s: %v", seed, reps[i].id, err)
			}
			checkPushed(t, reps[i], svc, recs[i])
		}
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 400; step++ {
			i := rng.Intn(len(reps))
			switch op := rng.Intn(10); {
			case op < 5:
				d := doc(rng.Intn(30))
				d.Title = fmt.Sprintf("step %d", step)
				reps[i].Upsert(d)
			case op < 6:
				reps[i].Delete(doc(rng.Intn(30)).ID)
			default:
				sync(i)
			}
		}
		for round := 0; round < 3; round++ {
			for i := range reps {
				sync(i)
			}
		}
		if !Equal(reps[0], reps[1]) || !Equal(reps[1], reps[2]) {
			t.Fatalf("seed %d: replicas did not converge", seed)
		}
		if reps[0].ConflictsResolved() == 0 {
			t.Fatalf("seed %d: the sequence resolved no conflict", seed)
		}
	}
}

// TestPullDecodesOnlyChangedEntries pins the skip: decoding a pushed segment
// against a replica that holds all but two of its entries returns exactly
// those two, and the sync that merges them converges.
func TestPullDecodesOnlyChangedEntries(t *testing.T) {
	svc := cloud.NewMemory()
	key, _ := crypto.NewSymmetricKey()
	a := NewReplicaShards("alice/gateway", "alice", key, svc, nil, 1)
	b := NewReplicaShards("alice/phone", "alice", key, svc, nil, 1)
	for i := 0; i < 50; i++ {
		a.Upsert(doc(i))
	}
	for _, r := range []*Replica{a, b} {
		if err := r.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	changed := doc(7)
	changed.Title = "changed"
	a.Upsert(changed)
	a.Upsert(doc(60))
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	blob, err := svc.GetBlob(a.shards[0].names[segmentBlob])
	if err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	st, err := b.decodeShard(0, segmentBlob, blob.Data, b.shards[0].docs)
	b.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, e := range st.Docs {
		ids = append(ids, e.ID)
	}
	if fmt.Sprint(ids) != "[doc-0007 doc-0060]" {
		t.Fatalf("decode against the local shard kept %v, want [doc-0007 doc-0060]", ids)
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, ok := getDoc(b, "doc-0007"); !Equal(a, b) || !ok || got.Title != "changed" {
		t.Fatal("the changed entries did not merge")
	}
}

// shardMerkleRoot is a shard's root from scratch: every entry's leaf,
// recomputed, in the order given, reduced by crypto.MerkleRootOf.
func shardMerkleRoot(docs []shardEntry) []byte {
	hashes := make([][sha256.Size]byte, len(docs))
	for i := range docs {
		hashes[i] = shardLeaf(docs[i].ID, &docs[i].VersionedDoc)
	}
	root := crypto.MerkleRootOf(hashes)
	return root[:]
}

// remoteState builds a pulled shard state from the given entries, sorted by
// ID: encoded and decoded, so every entry carries the cache a decode gives it.
func remoteState(t *testing.T, entries map[string]VersionedDoc, vv map[string]uint64) shardState {
	t.Helper()
	st := shardState{VV: vv}
	for _, id := range sortedKeys(entries) {
		st.Docs = append(st.Docs, shardEntry{ID: id, VersionedDoc: entries[id]})
	}
	data, err := encodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = decodeShardState(data, nil); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestShardRootMatchesOracle drives one shard through seeded batches of
// local upserts and deletes and merges of remote states (new documents,
// newer revisions, both sides of a same-revision conflict), with new IDs
// arriving throughout, until the shard holds more than 300 documents.
// After every batch the entries a compaction writes must be those of a
// freshly sorted copy of the shard, and the shard's root — taken from its
// incrementally updated tree — must equal shardMerkleRoot over that copy and
// the oracle's tree over the leaf bytes.
func TestShardRootMatchesOracle(t *testing.T) {
	r := NewReplicaShards("alice/gateway", "alice", crypto.SymmetricKey{}, nil, func() time.Time { return t0 }, 1)
	sh := r.shards[0]
	rng := rand.New(rand.NewSource(5))
	ids := 0
	pick := func() int {
		if ids == 0 || rng.Intn(3) == 0 {
			ids++
			return ids - 1
		}
		return rng.Intn(ids)
	}
	for step := 0; len(sh.docs) <= 300; step++ {
		for k := rng.Intn(4); k > 0; k-- {
			switch rng.Intn(4) {
			case 0:
				d := doc(pick())
				d.Title = fmt.Sprintf("step %d", step)
				r.Upsert(d)
			case 1:
				r.Delete(doc(pick()).ID)
			default:
				remote := map[string]VersionedDoc{}
				for n := rng.Intn(4); n >= 0; n-- {
					i := pick()
					id := doc(i).ID
					lv := sh.docs[id]
					v := VersionedDoc{Doc: doc(i), Revision: lv.Revision + 1, Replica: "alice/phone", Updated: t0, Deleted: rng.Intn(4) == 0}
					if lv.Revision > 0 && rng.Intn(2) == 0 {
						// Same revision from another replica: a conflict that
						// "alice/zeta" wins and "alice/alpha" loses.
						v.Revision, v.Replica = lv.Revision, []string{"alice/alpha", "alice/zeta"}[rng.Intn(2)]
					}
					remote[id] = v
				}
				r.mergeShardLocked(sh, remoteState(t, remote, map[string]uint64{"alice/phone": uint64(step)}))
			}
		}
		root, err := sh.rootLocked()
		if err != nil {
			t.Fatal(err)
		}
		entries, _ := sh.wiresLocked(sh.order)
		var fresh []shardEntry
		for _, id := range sortedKeys(sh.docs) {
			fresh = append(fresh, shardEntry{ID: id, VersionedDoc: sh.docs[id]})
		}
		if len(entries) != len(fresh) {
			t.Fatalf("step %d: snapshot has %d entries, shard %d", step, len(entries), len(fresh))
		}
		for i := range fresh {
			want, err := appendShardEntry(nil, fresh[i].ID, &fresh[i].VersionedDoc)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(entries[i], want) {
				t.Fatalf("step %d: snapshot entry %d is %x, want %s encoded", step, i, entries[i], fresh[i].ID)
			}
		}
		if want := shardMerkleRoot(fresh); !bytes.Equal(root, want) {
			t.Fatalf("step %d, %d docs: tree root %x, shardMerkleRoot %x", step, len(fresh), root, want)
		}
		if want := oracleShardRoot(fresh); !bytes.Equal(root, want) {
			t.Fatalf("step %d, %d docs: tree root %x, oracle %x", step, len(fresh), root, want)
		}
	}
	if r.ConflictsResolved() == 0 {
		t.Fatal("the sequence resolved no conflict")
	}
}
