package cloud

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
)

// The cross-backend conformance battery that used to open this file moved to
// conformance_test.go, where one table now drives memory, durable, tcp and
// replicated alike. This file keeps the Durable-specific machinery tests.

// TestDurableConcurrentStress is the disk-backed twin of the sharded memory
// stress test: every operation hammered from many goroutines, run under
// -race in CI.
func TestDurableConcurrentStress(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), DurableOptions{Shards: 8, MemtableBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const (
		workers      = 8
		blobsPerWork = 24 // divisible by 4 and 8 so the modulo counters add up
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prefix := fmt.Sprintf("cell-%02d", w)
			for i := 0; i < blobsPerWork; i++ {
				name := fmt.Sprintf("%s/vault/doc-%03d", prefix, i)
				if _, err := d.PutBlob(name, []byte(name)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if i%4 == 0 {
					puts := []BlobPut{
						{Name: name, Data: []byte("v2")},
						{Name: name + "-side", Data: []byte("side")},
					}
					if _, err := d.PutBlobs(puts); err != nil {
						t.Errorf("batch put: %v", err)
						return
					}
				}
				if _, err := d.GetBlob(name); err != nil {
					t.Errorf("get: %v", err)
					return
				}
				if _, err := d.GetBlobs([]string{name, "nope"}); err != nil {
					t.Errorf("batch get: %v", err)
					return
				}
				if err := d.Send(Message{From: prefix, To: fmt.Sprintf("cell-%02d", (w+1)%workers), Body: []byte("ping")}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
				if _, err := d.Receive(prefix, 4); err != nil {
					t.Errorf("receive: %v", err)
					return
				}
				if i%8 == 0 {
					if _, err := d.ListBlobs(prefix); err != nil {
						t.Errorf("list: %v", err)
						return
					}
					if err := d.DeleteBlob(name + "-gone"); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	st := d.Stats()
	wantPuts := int64(workers * (blobsPerWork + 2*(blobsPerWork/4)))
	if st.Puts != wantPuts {
		t.Fatalf("Puts = %d, want %d", st.Puts, wantPuts)
	}
	names, err := d.ListBlobs("")
	if err != nil {
		t.Fatal(err)
	}
	want := workers * (blobsPerWork + blobsPerWork/4)
	if len(names) != want {
		t.Fatalf("final blob count = %d, want %d", len(names), want)
	}
}

// TestDurableSurvivesCrash writes through every state-bearing path, simulates
// a kill, and verifies a reopened store serves the exact acknowledged state.
func TestDurableSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := d.PutBlob(fmt.Sprintf("vault/doc-%03d", i), []byte(fmt.Sprintf("sealed-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrites bump versions; deletes tombstone.
	if v, _ := d.PutBlob("vault/doc-000", []byte("sealed-v2")); v != 2 {
		t.Fatalf("version = %d", v)
	}
	if err := d.DeleteBlob("vault/doc-001"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := d.Send(Message{From: "a", To: "bob", Body: []byte(fmt.Sprintf("m%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if msgs, err := d.Receive("bob", 2); err != nil || len(msgs) != 2 {
		t.Fatalf("receive before crash: %d %v", len(msgs), err)
	}
	d.Crash()

	d2, err := OpenDurable(dir, DurableOptions{Shards: 4})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	rec := d2.RecoveryStats()
	if rec.Shards != 4 || rec.JournalRecords == 0 {
		t.Fatalf("recovery stats: %+v", rec)
	}
	names, err := d2.ListBlobs("")
	if err != nil || len(names) != 49 {
		t.Fatalf("recovered %d blobs (%v)", len(names), err)
	}
	b, err := d2.GetBlob("vault/doc-000")
	if err != nil || b.Version != 2 || string(b.Data) != "sealed-v2" {
		t.Fatalf("recovered overwrite: %+v %v", b, err)
	}
	if _, err := d2.GetBlob("vault/doc-001"); err != ErrBlobNotFound {
		t.Fatalf("recovered delete: %v", err)
	}
	// The popped messages stay popped; the pending three survive in order.
	msgs, err := d2.Receive("bob", 10)
	if err != nil || len(msgs) != 3 {
		t.Fatalf("recovered mailbox: %d %v", len(msgs), err)
	}
	if string(msgs[0].Body) != "m2" || string(msgs[2].Body) != "m4" {
		t.Fatalf("mailbox order after recovery: %q %q", msgs[0].Body, msgs[2].Body)
	}
	// New sends must sort after recovered ones (sequence restored).
	if err := d2.Send(Message{From: "a", To: "carol", Body: []byte("new")}); err != nil {
		t.Fatal(err)
	}
	if got, _ := d2.Receive("carol", 1); len(got) != 1 || got[0].Seq <= msgs[2].Seq {
		t.Fatalf("sequence did not resume: %+v after %d", got, msgs[2].Seq)
	}
}

// TestDurableReopenAfterClose exercises the graceful path: Close checkpoints,
// so reopening recovers runs and replays no journal records.
func TestDurableReopenAfterClose(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.PutBlobs([]BlobPut{
		{Name: "a", Data: []byte("1")},
		{Name: "b", Data: []byte("2")},
		{Name: "c", Data: []byte("3")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurable(dir, DurableOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	rec := d2.RecoveryStats()
	if rec.JournalRecords != 0 || rec.RecoveredRuns == 0 {
		t.Fatalf("graceful close should recover from runs: %+v", rec)
	}
	blobs, err := d2.GetBlobs([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"1", "2", "3"} {
		if string(blobs[i].Data) != want {
			t.Fatalf("blob %d = %+v", i, blobs[i])
		}
	}
}

// TestDurableShardCountPinned proves reopening with a different Shards option
// still routes keys correctly: the committed META.json wins.
func TestDurableShardCountPinned(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := d.PutBlob(fmt.Sprintf("doc-%03d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurable(dir, DurableOptions{Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if len(d2.shards) != 4 {
		t.Fatalf("shard count drifted to %d", len(d2.shards))
	}
	for i := 0; i < 40; i++ {
		if _, err := d2.GetBlob(fmt.Sprintf("doc-%03d", i)); err != nil {
			t.Fatalf("doc-%03d unroutable after reopen: %v", i, err)
		}
	}
}

// TestDurableCompactionBoundsRuns drives enough flushes to trigger background
// compaction and verifies the store stays correct through and after it.
func TestDurableCompactionBoundsRuns(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{Shards: 2, MemtableBytes: 2 << 10, MaxRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("p"), 256)
	for i := 0; i < 120; i++ {
		if _, err := d.PutBlob(fmt.Sprintf("doc-%04d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for d.EngineStats().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no compaction: %+v", d.EngineStats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	names, err := d.ListBlobs("")
	if err != nil || len(names) != 120 {
		t.Fatalf("blobs after compaction: %d %v", len(names), err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurable(dir, DurableOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if names, _ := d2.ListBlobs(""); len(names) != 120 {
		t.Fatalf("blobs after reopen: %d", len(names))
	}
}

// TestDurableReceiveSkipsPoppedTombstones checks that polling an empty
// mailbox costs the same after ten thousand pops as after ten: Receive starts
// past the messages it already popped instead of re-reading their
// tombstones. A restart forgets that position, so the mailbox keeps working
// (and FIFO) across a reopen.
func TestDurableReceiveSkipsPoppedTombstones(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{Shards: 1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	cycles := 0
	cycle := func(until int) {
		for ; cycles < until; cycles++ {
			if err := d.Send(Message{To: "box", Kind: "k", Body: []byte("payload")}); err != nil {
				t.Fatal(err)
			}
			if msgs, err := d.Receive("box", 0); err != nil || len(msgs) != 1 {
				t.Fatalf("cycle %d: got %d messages, %v", cycles, len(msgs), err)
			}
		}
	}
	emptyPoll := func() uint64 {
		least := ^uint64(0)
		for i := 0; i < 5; i++ {
			least = min(least, allocatedBy(func() {
				if msgs, err := d.Receive("box", 0); err != nil || len(msgs) != 0 {
					t.Fatalf("empty mailbox returned %d messages, %v", len(msgs), err)
				}
			}))
		}
		return least
	}
	cycle(10)
	early := emptyPoll()
	cycle(10_000)
	late := emptyPoll()
	if late >= 2*early {
		t.Fatalf("an empty Receive allocates %d B after %d pops, %d B after 10", late, cycles, early)
	}

	for _, body := range []string{"first", "second"} {
		if err := d.Send(Message{To: "box", Kind: "k", Body: []byte(body)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d, err = OpenDurable(dir, DurableOptions{Shards: 1, NoSync: true}); err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	msgs, err := d.Receive("box", 0)
	if err != nil || len(msgs) != 2 || string(msgs[0].Body) != "first" || string(msgs[1].Body) != "second" {
		t.Fatalf("after reopen: %+v %v", msgs, err)
	}
}

// TestDurablePutBlobsVersionsMonotonic checks that PutBlobs continues every
// blob's version from its newest copy wherever that copy lives — the
// memtable, a flushed run, a compacted run, the journal replayed after a
// crash, the runs left by a clean close — that a memtable tombstone shadows
// an older copy in a run, and that a name repeated inside one batch counts up
// within the batch.
func TestDurablePutBlobsVersionsMonotonic(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{Shards: 4, MaxRuns: -1}
	d, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d.Close() }()
	names := make([]string, 12)
	for i := range names {
		names[i] = fmt.Sprintf("cell-%d/vault/doc-%02d", i%3, i)
	}
	want := make(map[string]int)
	put := func(stage string, batch ...string) {
		t.Helper()
		puts := make([]BlobPut, len(batch))
		for i, n := range batch {
			puts[i] = BlobPut{Name: n, Data: []byte(stage)}
		}
		got, err := d.PutBlobs(puts)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		for i, n := range batch {
			want[n]++
			if got[i] != want[n] {
				t.Fatalf("%s: %s (position %d) got version %d, want %d", stage, n, i, got[i], want[n])
			}
		}
		for _, n := range batch {
			if b, err := d.GetBlob(n); err != nil || b.Version != want[n] || string(b.Data) != stage {
				t.Fatalf("%s: GetBlob(%s) = v%d %q %v, want v%d", stage, n, b.Version, b.Data, err, want[n])
			}
		}
	}
	flush := func() {
		t.Helper()
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	put("first", names...)
	put("memtable", names...)
	put("duplicates", names[0], names[1], names[0], names[0], names[2], names[1])
	flush()
	put("run", names[:6]...)
	put("memtable over run", names...)
	flush()
	put("second run", names[3:]...)
	flush()
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	put("compacted", names...)

	if err := d.DeleteBlob(names[0]); err != nil {
		t.Fatal(err)
	}
	want[names[0]] = 0
	put("after delete", names[0], names[0])

	put("journaled", append(names, names[7])...)
	d.Crash()
	if d, err = OpenDurable(dir, opts); err != nil {
		t.Fatal(err)
	}
	if d.RecoveryStats().JournalRecords == 0 {
		t.Fatal("crash left nothing in the journal to replay")
	}
	put("after crash", append(names, names[5], names[5])...)

	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if d, err = OpenDurable(dir, opts); err != nil {
		t.Fatal(err)
	}
	put("after close", names...)
}

// TestDurablePutBlobsConcurrentVersions races batched writers on a handful of
// names while a tiny memtable forces flushes and compactions underneath: every
// version of a name must be handed out exactly once, with no gap.
func TestDurablePutBlobsConcurrentVersions(t *testing.T) {
	d, err := OpenDurable(t.TempDir(), DurableOptions{Shards: 2, MemtableBytes: 2 << 10, MaxRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const writers, batches = 4, 40
	names := []string{"a", "b", "c", "d", "e", "f"}
	seen := make([]map[string][]int, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		seen[w] = make(map[string][]int)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte('0' + w)}, 200)
			for i := 0; i < batches; i++ {
				batch := []BlobPut{
					{Name: names[(w+i)%len(names)], Data: payload},
					{Name: names[(w+2*i)%len(names)], Data: payload},
					{Name: names[(w+i)%len(names)], Data: payload},
				}
				vs, err := d.PutBlobs(batch)
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				for j, p := range batch {
					seen[w][p.Name] = append(seen[w][p.Name], vs[j])
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, n := range names {
		var all []int
		for w := range seen {
			all = append(all, seen[w][n]...)
		}
		sort.Ints(all)
		for i, v := range all {
			if v != i+1 {
				t.Fatalf("%s: versions %v are not 1..%d", n, all, len(all))
			}
		}
		if b, err := d.GetBlob(n); err != nil || b.Version != len(all) {
			t.Fatalf("%s: stored v%d (%v), handed out %d versions", n, b.Version, err, len(all))
		}
	}
	if d.EngineStats().Flushes == 0 {
		t.Fatal("no flush happened under the writers")
	}
}

// BenchmarkDurablePutBlobs measures the durable write path per batch of 16
// blobs of 256 B over 4096 names (so most puts overwrite), with NoSync so the
// fsync barrier does not hide the CPU cost. Run with -benchmem.
func BenchmarkDurablePutBlobs(b *testing.B) {
	d, err := OpenDurable(b.TempDir(), DurableOptions{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	names := make([]string, 1<<12)
	for i := range names {
		names[i] = fmt.Sprintf("cell-%05d/vault/doc-%04d", i%997, i)
	}
	data := bytes.Repeat([]byte("s"), 256)
	puts := make([]BlobPut, 16)
	b.ReportAllocs()
	b.SetBytes(int64(len(puts) * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range puts {
			puts[j] = BlobPut{Name: names[(i*len(puts)+j)&(len(names)-1)], Data: data}
		}
		if _, err := d.PutBlobs(puts); err != nil {
			b.Fatal(err)
		}
	}
}
