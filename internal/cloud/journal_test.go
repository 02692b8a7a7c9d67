package cloud

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"trustedcells/internal/storage"
)

func TestJournalRecordRoundTrip(t *testing.T) {
	in := []journalGroup{
		{shard: 0, seq: 7, ops: []storage.Op{
			{Key: []byte("b:alpha"), Value: []byte("v1")},
			{Key: []byte("b:beta"), Delete: true},
		}},
		{shard: 31, seq: 0, ops: []storage.Op{
			{Key: []byte("m:cell\x00001"), Value: make([]byte, 1024)},
		}},
	}
	out, err := decodeJournalRecord(encodeJournalRecord(in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("groups = %d, want %d", len(out), len(in))
	}
	for gi := range in {
		if out[gi].shard != in[gi].shard || out[gi].seq != in[gi].seq || len(out[gi].ops) != len(in[gi].ops) {
			t.Fatalf("group %d = %+v, want %+v", gi, out[gi], in[gi])
		}
		for oi := range in[gi].ops {
			got, want := out[gi].ops[oi], in[gi].ops[oi]
			if string(got.Key) != string(want.Key) || string(got.Value) != string(want.Value) || got.Delete != want.Delete {
				t.Fatalf("group %d op %d = %+v, want %+v", gi, oi, got, want)
			}
		}
	}
}

func TestJournalDecodeRejectsCorruptRecords(t *testing.T) {
	valid := encodeJournalRecord([]journalGroup{
		{shard: 1, seq: 2, ops: []storage.Op{{Key: []byte("k"), Value: []byte("v")}}},
	})
	for name, payload := range map[string][]byte{
		"empty":          {},
		"truncated":      valid[:len(valid)-3],
		"trailing bytes": append(append([]byte(nil), valid...), 0xFF),
	} {
		if _, err := decodeJournalRecord(payload); err == nil {
			t.Errorf("%s: decode accepted a corrupt record", name)
		}
	}
}

func TestSortForReplayReconstructsApplyOrder(t *testing.T) {
	// Concurrent batches append journal records out of per-shard order; the
	// (shard, seq) sort must restore the order the live store applied them.
	groups := []journalGroup{
		{shard: 1, seq: 1},
		{shard: 0, seq: 2},
		{shard: 1, seq: 0},
		{shard: 0, seq: 0},
		{shard: 0, seq: 1},
	}
	sortForReplay(groups)
	want := []struct {
		shard int
		seq   uint64
	}{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}}
	for i, w := range want {
		if groups[i].shard != w.shard || groups[i].seq != w.seq {
			t.Fatalf("pos %d = shard %d seq %d, want shard %d seq %d",
				i, groups[i].shard, groups[i].seq, w.shard, w.seq)
		}
	}
}

// openTestJournal opens a journal with a small limit so tests stay fast.
func openTestJournal(t *testing.T, dir string) *commitJournal {
	t.Helper()
	j, err := openJournal(dir, 1<<20, false)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	return j
}

func TestJournalAppendScanRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	for i := 0; i < 3; i++ {
		if _, err := j.append([]journalGroup{
			{shard: i, seq: uint64(i), ops: []storage.Op{{Key: []byte{byte('a' + i)}, Value: []byte("v")}}},
		}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := j.close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Reopen and scan: every appended group comes back, and the preallocated
	// zero runway past the records is not reported as a torn tail.
	j = openTestJournal(t, dir)
	groups, records, _, discarded, err := j.scan()
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if records != 3 || len(groups) != 3 {
		t.Fatalf("records = %d groups = %d, want 3 and 3", records, len(groups))
	}
	if discarded != 0 {
		t.Fatalf("discarded = %d, want 0 (zero runway is not torn data)", discarded)
	}
	for i, g := range groups {
		if g.shard != i || g.seq != uint64(i) {
			t.Fatalf("group %d = shard %d seq %d", i, g.shard, g.seq)
		}
	}
}

func TestJournalScanStopsAtTornRecord(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	for i := 0; i < 2; i++ {
		if _, err := j.append([]journalGroup{
			{shard: i, ops: []storage.Op{{Key: []byte("key"), Value: []byte("val")}}},
		}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	torn := j.log.Head()
	// Simulate a crash mid-append: nonzero garbage after the valid prefix.
	if _, err := j.dev.WriteAt([]byte{0xDE, 0xAD, 0xBE, 0xEF}, torn+2); err != nil {
		t.Fatalf("write garbage: %v", err)
	}
	j.close()

	j = openTestJournal(t, dir)
	_, records, end, discarded, err := j.scan()
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if records != 2 {
		t.Fatalf("records = %d, want the 2 intact ones", records)
	}
	if end != torn {
		t.Fatalf("end = %d, want %d", end, torn)
	}
	if discarded != 6 {
		t.Fatalf("discarded = %d, want 6 (torn extent up to its last nonzero byte)", discarded)
	}
}

func TestJournalResetRestoresCleanExtent(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, dir)
	if _, err := j.append([]journalGroup{
		{shard: 0, ops: []storage.Op{{Key: []byte("key"), Value: []byte("val")}}},
	}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := j.reset(); err != nil {
		t.Fatalf("reset: %v", err)
	}
	if h := j.log.Head(); h != 0 {
		t.Fatalf("head after reset = %d", h)
	}
	groups, records, _, discarded, err := j.scan()
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if records != 0 || len(groups) != 0 || discarded != 0 {
		t.Fatalf("after reset: records=%d groups=%d discarded=%d, want all zero",
			records, len(groups), discarded)
	}
	// The extent must still be preallocated (reset re-zeroes, it does not
	// shrink) so subsequent commit barriers stay data-only syncs.
	if got := j.dev.Size(); got < j.limit {
		t.Fatalf("extent after reset = %d, want >= limit %d", got, j.limit)
	}
	j.close()
}

// TestDurableJournalRestoresUnflushedWrites is the point of the journal: the
// shard engines run without WALs, so after a crash that loses every memtable,
// acknowledged writes must come back from journal replay alone.
func TestDurableJournalRestoresUnflushedWrites(t *testing.T) {
	dir := t.TempDir()
	// Large memtables: nothing is flushed to runs before the crash, so the
	// journal is the only durable copy.
	opts := DurableOptions{Shards: 4, MemtableBytes: 8 << 20}
	d, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	puts := make([]BlobPut, 64)
	for i := range puts {
		puts[i] = BlobPut{Name: blobName(i), Data: []byte{byte(i)}}
	}
	if _, err := d.PutBlobs(puts); err != nil {
		t.Fatal(err)
	}
	if _, err := d.PutBlob("solo", []byte("one")); err != nil {
		t.Fatal(err)
	}
	d.Crash()

	d, err = OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rec := d.RecoveryStats()
	if rec.JournalRecords == 0 || rec.JournalOps != 65 {
		t.Fatalf("journal replay: records=%d ops=%d, want >0 and 65", rec.JournalRecords, rec.JournalOps)
	}
	if rec.ReplayedOps != rec.JournalOps {
		t.Fatalf("ReplayedOps = %d, want the %d journal ops (shards have no WAL)", rec.ReplayedOps, rec.JournalOps)
	}
	for i := range puts {
		b, err := d.GetBlob(blobName(i))
		if err != nil || len(b.Data) != 1 || b.Data[0] != byte(i) {
			t.Fatalf("blob %d after recovery: %v %v", i, b.Data, err)
		}
	}
	if b, err := d.GetBlob("solo"); err != nil || string(b.Data) != "one" {
		t.Fatalf("solo blob after recovery: %v %v", b.Data, err)
	}
}

// TestDurableJournalReplayOrdersOverwrites overwrites the same blob several
// times, crashes, and requires the LAST acknowledged version to win — which
// only happens if replay reconstructs per-shard apply order from the (shard,
// seq) sort.
func TestDurableJournalReplayOrdersOverwrites(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{Shards: 2, MemtableBytes: 8 << 20}
	d, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var lastVersion int
	for i := 0; i < 10; i++ {
		if lastVersion, err = d.PutBlob("hot", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	d.Crash()

	d, err = OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	b, err := d.GetBlob("hot")
	if err != nil {
		t.Fatal(err)
	}
	if b.Version != lastVersion || len(b.Data) != 1 || b.Data[0] != 9 {
		t.Fatalf("after replay: version=%d data=%v, want version %d data [9]", b.Version, b.Data, lastVersion)
	}
}

// TestDurableCheckpointThenCrash crashes after the journal has been reset by a
// checkpoint: the pre-checkpoint writes must come back from the fsync'd runs,
// the post-checkpoint writes from the journal.
func TestDurableCheckpointThenCrash(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{Shards: 2, MemtableBytes: 8 << 20, JournalBytes: 4 << 10}
	d, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Each put is larger than JournalBytes, so every commit triggers a
	// checkpoint; the final put lands in a freshly reset journal.
	big := make([]byte, 8<<10)
	for i := 0; i < 3; i++ {
		if _, err := d.PutBlob(blobName(i), append(big, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.PutBlob("tail", []byte("after-checkpoint")); err != nil {
		t.Fatal(err)
	}
	d.Crash()

	d, err = OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 3; i++ {
		b, err := d.GetBlob(blobName(i))
		if err != nil || len(b.Data) != len(big)+1 || b.Data[len(big)] != byte(i) {
			t.Fatalf("checkpointed blob %d after crash: len=%d err=%v", i, len(b.Data), err)
		}
	}
	if b, err := d.GetBlob("tail"); err != nil || string(b.Data) != "after-checkpoint" {
		t.Fatalf("post-checkpoint blob: %v %v", b.Data, err)
	}
}

// TestDurableCrashBeforeAnyCommit covers the empty-journal recovery path.
func TestDurableCrashBeforeAnyCommit(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	d.Crash()
	d, err = OpenDurable(dir, DurableOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rec := d.RecoveryStats()
	if rec.JournalRecords != 0 || rec.DiscardedJournalBytes != 0 {
		t.Fatalf("fresh store recovery: %+v", rec)
	}
}

func blobName(i int) string {
	return "blob-" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

// TestDurableCrashDuringCommits kills the store while writers are inside
// commit: the journal's device must not be closed under a barrier in flight
// (the race detector watches for that), a commit that loses to the crash must
// fail with errJournalClosed rather than be acknowledged, and every batch that
// was acknowledged must be there after recovery.
func TestDurableCrashDuringCommits(t *testing.T) {
	dir := t.TempDir()
	opts := DurableOptions{Shards: 4, JournalBytes: 1 << 20}
	d, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}

	const writers = 4
	var acked [writers]int // batches writer w had acknowledged when it stopped
	firstAck := make(chan struct{}, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; ; b++ {
				puts := make([]BlobPut, 8)
				for i := range puts {
					puts[i] = BlobPut{Name: fmt.Sprintf("w%d/b%04d/%d", w, b, i), Data: []byte{byte(w), byte(b), byte(i)}}
				}
				if _, err := d.PutBlobs(puts); err != nil {
					if !errors.Is(err, errJournalClosed) && !errors.Is(err, storage.ErrClosed) {
						t.Errorf("writer %d: commit after crash failed with %v, want a closed-store error", w, err)
					}
					return
				}
				if acked[w]++; acked[w] == 1 {
					firstAck <- struct{}{}
				}
			}
		}(w)
	}
	for w := 0; w < writers; w++ {
		<-firstAck // every writer is committing before the kill
	}
	d.Crash()
	wg.Wait()

	d, err = OpenDurable(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for w := 0; w < writers; w++ {
		for b := 0; b < acked[w]; b++ {
			for i := 0; i < 8; i++ {
				name := fmt.Sprintf("w%d/b%04d/%d", w, b, i)
				got, err := d.GetBlob(name)
				if err != nil || !bytes.Equal(got.Data, []byte{byte(w), byte(b), byte(i)}) {
					t.Fatalf("acknowledged blob %s after recovery: %v %v", name, got.Data, err)
				}
			}
		}
	}
}
