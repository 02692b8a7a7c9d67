package sync

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"trustedcells/internal/cloud"
	"trustedcells/internal/crypto"
	"trustedcells/internal/datamodel"
)

var t0 = time.Date(2013, 7, 1, 0, 0, 0, 0, time.UTC)

func doc(i int) *datamodel.Document {
	return &datamodel.Document{
		ID:        fmt.Sprintf("doc-%04d", i),
		Owner:     "alice",
		Type:      "note",
		Class:     datamodel.ClassAuthored,
		CreatedAt: t0,
	}
}

func twoReplicas(svc cloud.Service) (*Replica, *Replica) {
	key, _ := crypto.NewSymmetricKey()
	a := NewReplica("alice/gateway", "alice", key, svc, func() time.Time { return t0 })
	b := NewReplica("alice/phone", "alice", key, svc, func() time.Time { return t0 })
	return a, b
}

func TestBasicConvergence(t *testing.T) {
	svc := cloud.NewMemory()
	a, b := twoReplicas(svc)
	for i := 0; i < 5; i++ {
		a.Upsert(doc(i))
	}
	for i := 5; i < 8; i++ {
		b.Upsert(doc(i))
	}
	if err := a.Sync(); err != nil {
		t.Fatalf("a.Sync: %v", err)
	}
	if err := b.Sync(); err != nil {
		t.Fatalf("b.Sync: %v", err)
	}
	if err := a.Sync(); err != nil {
		t.Fatalf("a.Sync 2: %v", err)
	}
	if !Equal(a, b) {
		t.Fatalf("replicas did not converge: %v vs %v", docIDs(a), docIDs(b))
	}
	if liveCount(a) != 8 {
		t.Fatalf("LiveCount = %d, want 8", liveCount(a))
	}
	tr := a.TransferStats()
	pushes, pulls := tr.Pushes, tr.Pulls
	if pushes == 0 || pulls == 0 {
		t.Fatal("traffic counters not updated")
	}
}

func TestDeleteReplication(t *testing.T) {
	svc := cloud.NewMemory()
	a, b := twoReplicas(svc)
	a.Upsert(doc(1))
	_ = a.Sync()
	_ = b.Sync()
	if _, ok := getDoc(b, "doc-0001"); !ok {
		t.Fatal("document did not replicate")
	}
	b.Delete("doc-0001")
	_ = b.Sync()
	_ = a.Sync()
	if _, ok := getDoc(a, "doc-0001"); ok {
		t.Fatal("deletion did not replicate")
	}
	if liveCount(a) != 0 {
		t.Fatalf("LiveCount after delete = %d", liveCount(a))
	}
}

func TestConflictResolutionDeterministic(t *testing.T) {
	svc := cloud.NewMemory()
	a, b := twoReplicas(svc)
	// Both replicas create the same document ID concurrently (revision 1 on
	// both sides) with different titles.
	d1 := doc(1)
	d1.Title = "from gateway"
	a.Upsert(d1)
	d2 := doc(1)
	d2.Title = "from phone"
	b.Upsert(d2)

	_ = a.Sync()
	_ = b.Sync()
	_ = a.Sync()

	if !Equal(a, b) {
		t.Fatal("replicas did not converge after conflict")
	}
	ga, _ := getDoc(a, "doc-0001")
	gb, _ := getDoc(b, "doc-0001")
	if ga.Title != gb.Title {
		t.Fatalf("conflict resolved differently: %q vs %q", ga.Title, gb.Title)
	}
	// "alice/phone" > "alice/gateway" lexicographically, so the phone wins.
	if ga.Title != "from phone" {
		t.Fatalf("unexpected winner %q", ga.Title)
	}
	if a.ConflictsResolved()+b.ConflictsResolved() == 0 {
		t.Fatal("conflict not counted")
	}
}

func TestDisconnectedReplicasCatchUp(t *testing.T) {
	svc := cloud.NewMemory()
	a, b := twoReplicas(svc)
	b.SetConnected(false)
	if b.connected {
		t.Fatal("SetConnected(false) ignored")
	}
	for i := 0; i < 10; i++ {
		a.Upsert(doc(i))
	}
	_ = a.Sync()
	if err := b.Sync(); err != ErrDisconnected {
		t.Fatalf("disconnected sync: %v", err)
	}
	if liveCount(b) != 0 {
		t.Fatal("disconnected replica received data")
	}
	b.SetConnected(true)
	if err := b.Sync(); err != nil {
		t.Fatalf("reconnect sync: %v", err)
	}
	if liveCount(b) != 10 {
		t.Fatalf("after reconnection LiveCount = %d", liveCount(b))
	}
}

func TestCloudOutageMapsToDisconnected(t *testing.T) {
	svc := cloud.NewFaulty(cloud.NewMemory(), cloud.FaultyOptions{})
	a, _ := twoReplicas(svc)
	a.Upsert(doc(1))
	svc.SetDown(true)
	if err := a.Push(); err != ErrDisconnected {
		t.Fatalf("push during outage: %v", err)
	}
	if err := a.Pull(); err != ErrDisconnected {
		t.Fatalf("pull during outage: %v", err)
	}
}

func TestTamperedSyncStateDetected(t *testing.T) {
	svc := cloud.NewMemory()
	a, b := twoReplicas(svc)
	a.Upsert(doc(1))
	if err := a.Push(); err != nil {
		t.Fatal(err)
	}
	names, err := svc.ListBlobs("alice/syncshard/")
	if err != nil || len(names) == 0 {
		t.Fatalf("no shard blobs pushed: %v %v", names, err)
	}
	blob, _ := svc.GetBlob(names[0])
	blob.Data[len(blob.Data)-3] ^= 0x40
	_, _ = svc.PutBlob(names[0], blob.Data)
	if err := b.Pull(); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("tampered shard not detected: %v", err)
	}
}

// TestSpliceAcrossShardsDetected swaps two sealed shard blobs: the associated
// data binds each shard to its position, so the splice must fail verification.
func TestSpliceAcrossShardsDetected(t *testing.T) {
	svc := cloud.NewMemory()
	a, b := twoReplicas(svc)
	for i := 0; i < 40; i++ { // enough docs to populate several shards
		a.Upsert(doc(i))
	}
	if err := a.Push(); err != nil {
		t.Fatal(err)
	}
	names, err := svc.ListBlobs("alice/syncshard/")
	if err != nil || len(names) < 2 {
		t.Fatalf("want >=2 shard blobs, got %v (%v)", names, err)
	}
	b0, _ := svc.GetBlob(names[0])
	b1, _ := svc.GetBlob(names[1])
	_, _ = svc.PutBlob(names[0], b1.Data)
	_, _ = svc.PutBlob(names[1], b0.Data)
	if err := b.Pull(); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("spliced shards not detected: %v", err)
	}
}

// TestDeltaMovesOnlyDirtyShards is the point of the protocol: after a
// converged state, one updated document costs the blobs of one shard in each
// direction, not the whole catalog — one segment where the shard's base is
// more than segmentRatio times the entry, and a new base with an empty
// segment where it is not (200 documents leave about 3 per shard).
func TestDeltaMovesOnlyDirtyShards(t *testing.T) {
	for _, tc := range []struct{ docs, blobs int }{{200, 2}, {2000, 1}} {
		svc := cloud.NewMemory()
		a, b := twoReplicas(svc)
		rec := &pushRecorder{Service: svc}
		a.cloud = rec
		for i := 0; i < tc.docs; i++ {
			a.Upsert(doc(i))
		}
		if err := a.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := b.Sync(); err != nil {
			t.Fatal(err)
		}
		if !Equal(a, b) {
			t.Fatal("replicas did not converge")
		}
		rec.puts = nil
		before := a.TransferStats()
		a.Upsert(doc(3))
		if err := a.Push(); err != nil {
			t.Fatal(err)
		}
		after := a.TransferStats()
		if n := after.ShardsPushed - before.ShardsPushed; n != int64(tc.blobs) || len(rec.puts) != tc.blobs {
			t.Fatalf("%d docs: one update pushed %d blobs, want %d", tc.docs, n, tc.blobs)
		}
		shard := a.shardIndex(doc(3).ID)
		for _, bp := range rec.puts {
			if bp.Name != a.shards[shard].names[baseBlob] && bp.Name != a.shards[shard].names[segmentBlob] {
				t.Fatalf("%d docs: one update pushed %s, a blob of another shard", tc.docs, bp.Name)
			}
		}
		// And the peer's pull fetches only those advanced blobs.
		pb := b.TransferStats()
		if err := b.Pull(); err != nil {
			t.Fatal(err)
		}
		pa := b.TransferStats()
		if n := pa.ShardsPulled - pb.ShardsPulled; n != int64(tc.blobs) {
			t.Fatalf("%d docs: pull fetched %d blobs, want %d", tc.docs, n, tc.blobs)
		}
		if dirtyShards(a) != 0 {
			t.Fatalf("dirty shards after push = %d", dirtyShards(a))
		}
		if !Equal(a, b) {
			t.Fatal("replicas did not converge on the update")
		}
	}
}

// TestPushNoopWhenClean verifies a clean replica performs no cloud I/O on
// Push.
func TestPushNoopWhenClean(t *testing.T) {
	svc := cloud.NewMemory()
	a, _ := twoReplicas(svc)
	a.Upsert(doc(1))
	if err := a.Push(); err != nil {
		t.Fatal(err)
	}
	gets := svc.Stats().Gets
	puts := svc.Stats().Puts
	if err := a.Push(); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Gets != gets || st.Puts != puts {
		t.Fatalf("clean push performed cloud I/O: gets %d->%d puts %d->%d", gets, st.Gets, puts, st.Puts)
	}
}

func TestRandomizedConvergenceUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	svc := cloud.NewMemory()
	a, b := twoReplicas(svc)
	replicas := []*Replica{a, b}
	for step := 0; step < 400; step++ {
		r := replicas[rng.Intn(2)]
		switch rng.Intn(10) {
		case 0:
			r.SetConnected(false)
		case 1:
			r.SetConnected(true)
		case 2:
			r.Delete(fmt.Sprintf("doc-%04d", rng.Intn(50)))
		case 3, 4:
			_ = r.Sync() // may fail while disconnected; that is fine
		default:
			r.Upsert(doc(rng.Intn(50)))
		}
	}
	// Reconnect everything and run a few sync rounds: must converge.
	a.SetConnected(true)
	b.SetConnected(true)
	for i := 0; i < 3; i++ {
		if err := a.Sync(); err != nil {
			t.Fatalf("final a.Sync: %v", err)
		}
		if err := b.Sync(); err != nil {
			t.Fatalf("final b.Sync: %v", err)
		}
	}
	if !Equal(a, b) {
		t.Fatalf("replicas did not converge after churn:\n a=%v\n b=%v", docIDs(a), docIDs(b))
	}
}

func TestGetMissingAndUnknownDelete(t *testing.T) {
	svc := cloud.NewMemory()
	a, _ := twoReplicas(svc)
	if _, ok := getDoc(a, "missing"); ok {
		t.Fatal("missing document found")
	}
	// Deleting an unknown document creates a tombstone but no live doc.
	a.Delete("ghost")
	if liveCount(a) != 0 {
		t.Fatal("tombstone counted as live")
	}
	// Pull with no remote state is a no-op.
	if err := a.Pull(); err != nil {
		t.Fatalf("pull with no remote state: %v", err)
	}
}

// getDoc returns r's live document id, if r has one.
func getDoc(r *Replica, id string) (*datamodel.Document, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.shardFor(id).docs[id]
	if !ok || v.Deleted || v.Doc == nil {
		return nil, false
	}
	return v.Doc.Clone(), true
}

// docIDs returns the sorted IDs of r's live documents.
func docIDs(r *Replica) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ids []string
	for _, s := range r.shards {
		for id, v := range s.docs {
			if !v.Deleted {
				ids = append(ids, id)
			}
		}
	}
	sort.Strings(ids)
	return ids
}

// liveCount returns the number of r's live documents.
func liveCount(r *Replica) int { return len(docIDs(r)) }

// dirtyShards returns how many of r's shards hold local information the
// cloud copy may lack.
func dirtyShards(r *Replica) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.shards {
		if s.dirty {
			n++
		}
	}
	return n
}
