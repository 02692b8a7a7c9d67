package cloud

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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

// sampleJournalRecord is a small valid record payload.
func sampleJournalRecord() []byte {
	return encodeJournalRecord([]journalGroup{
		{shard: 1, seq: 2, ops: []storage.Op{{Key: []byte("k"), Value: []byte("v")}}},
	})
}

// corruptJournalRecords are payloads decodeJournalRecord must reject, among
// them counts that promise more groups or ops than the bytes can hold.
func corruptJournalRecords() map[string][]byte {
	valid := sampleJournalRecord()
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
	return map[string][]byte{
		"empty":            {},
		"truncated":        valid[:len(valid)-3],
		"trailing bytes":   append(append([]byte(nil), valid...), 0xFF),
		"huge group count": huge,
		"huge op count":    append([]byte{1, 0, 0}, huge...),
	}
}

func TestJournalDecodeRejectsCorruptRecords(t *testing.T) {
	for name, payload := range corruptJournalRecords() {
		if _, err := decodeJournalRecord(payload); !errors.Is(err, storage.ErrCorrupt) {
			t.Errorf("%s: decode = %v, want ErrCorrupt", name, err)
		}
	}
}

// FuzzJournalRecord feeds arbitrary bytes to the journal record decoder: it
// must never panic, never allocate far beyond the input, and every record it
// accepts must re-encode to the same groups.
func FuzzJournalRecord(f *testing.F) {
	f.Add(sampleJournalRecord())
	for _, payload := range corruptJournalRecords() {
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		// Longer records only repeat the same paths, and the fuzzer's
		// minimization of an interesting input is quadratic in its length.
		if len(payload) > 256 {
			return
		}
		// A group or an op takes at least 3 bytes on the wire and under 64 in
		// RAM; anything near this bound means a count was trusted.
		limit := uint64(64*len(payload) + 64<<10)
		var groups []journalGroup
		var err error
		if grew := allocatedBy(func() { groups, err = decodeJournalRecord(payload) }); grew > limit {
			t.Fatalf("decodeJournalRecord allocated %d bytes for a %d-byte payload", grew, len(payload))
		}
		if err != nil {
			return
		}
		again, err := decodeJournalRecord(encodeJournalRecord(groups))
		if err != nil || !reflect.DeepEqual(again, groups) {
			t.Fatalf("accepted record is not stable:\n first  %+v\n second %+v (%v)", groups, again, err)
		}
	})
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

// journalExtent is the byte range of one record in the journal file.
type journalExtent struct{ off, size int }

// journalExtents walks the record headers of a journal file up to the zero
// runway.
func journalExtents(raw []byte) []journalExtent {
	var recs []journalExtent
	for off := 0; off+8 <= len(raw); {
		size := 8 + int(binary.BigEndian.Uint32(raw[off+4:off+8]))
		if size == 8 || off+size > len(raw) {
			break
		}
		recs = append(recs, journalExtent{off, size})
		off += size
	}
	return recs
}

// TestDurableJournalCrashPoints damages the commit journal of a crashed
// Durable store the way real crashes do — truncation mid-record, a torn
// header, a doubled record, a corrupted payload, a length field claiming
// 4 GiB — and verifies that recovery keeps every batch acknowledged before
// the damage, discards exactly the damaged bytes, and is idempotent (a
// second recovery sees the same state and replays nothing).
func TestDurableJournalCrashPoints(t *testing.T) {
	const batches = 8
	// Large memtables: nothing reaches a run before the crash, so the journal
	// is the only copy of every batch.
	opts := DurableOptions{Shards: 2, MemtableBytes: 8 << 20, JournalBytes: 1 << 20}
	// Each damage edits the journal file, whose records sit at recs, and
	// returns how many batches must survive, how many records recovery
	// replays, and exactly how many torn bytes it discards. Every record
	// ends in blob data, which is never zero, so a torn tail is measured to
	// its last byte.
	cases := []struct {
		name   string
		damage func(raw []byte, recs []journalExtent) (out []byte, survive, replayed int, discarded int64)
	}{
		{
			name: "truncate-mid-record",
			damage: func(raw []byte, recs []journalExtent) ([]byte, int, int, int64) {
				last := recs[len(recs)-1]
				return raw[:last.off+last.size-3], batches - 1, batches - 1, int64(last.size - 3)
			},
		},
		{
			name: "torn-header",
			damage: func(raw []byte, recs []journalExtent) ([]byte, int, int, int64) {
				// 5 of the 8 header bytes of a record that never finished.
				last := recs[len(recs)-1]
				copy(raw[last.off+last.size:], []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x99})
				return raw, batches, batches, 5
			},
		},
		{
			name: "duplicate-sequence",
			damage: func(raw []byte, recs []journalExtent) ([]byte, int, int, int64) {
				// The last record written twice: replay is a blind rewrite,
				// so applying it again changes nothing.
				last := recs[len(recs)-1]
				copy(raw[last.off+last.size:], raw[last.off:last.off+last.size])
				return raw, batches, batches + 1, 0
			},
		},
		{
			name: "corrupt-payload",
			damage: func(raw []byte, recs []journalExtent) ([]byte, int, int, int64) {
				last := recs[len(recs)-1]
				raw[last.off+last.size-2] ^= 0xFF
				return raw, batches - 1, batches - 1, int64(last.size)
			},
		},
		{
			name: "huge-length-header",
			damage: func(raw []byte, recs []journalExtent) ([]byte, int, int, int64) {
				// The length field claims 4 GiB; a recovery without bounds
				// checks would try to allocate it.
				last := recs[len(recs)-1]
				binary.BigEndian.PutUint32(raw[last.off+4:], 0xFFFFFFFF)
				return raw, batches - 1, batches - 1, int64(last.size)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := OpenDurable(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			acked := make([][]BlobPut, batches)
			for b := range acked {
				puts := make([]BlobPut, 4)
				for i := range puts {
					puts[i] = BlobPut{Name: fmt.Sprintf("b%d/%d", b, i), Data: []byte(fmt.Sprintf("batch-%d-blob-%d", b, i))}
				}
				if _, err := d.PutBlobs(puts); err != nil {
					t.Fatal(err)
				}
				acked[b] = puts
			}
			d.Crash()

			path := filepath.Join(dir, journalFileName)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			recs := journalExtents(raw)
			if len(recs) != batches {
				t.Fatalf("journal holds %d records, want one per batch (%d)", len(recs), batches)
			}
			raw, survive, replayed, discarded := tc.damage(raw, recs)
			if err := os.WriteFile(path, raw, 0o600); err != nil {
				t.Fatal(err)
			}

			d, err = OpenDurable(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			rec := d.RecoveryStats()
			if rec.JournalRecords != replayed || rec.DiscardedJournalBytes != discarded {
				t.Fatalf("recovery replayed %d records and discarded %d bytes, want %d and %d",
					rec.JournalRecords, rec.DiscardedJournalBytes, replayed, discarded)
			}
			first := durableState(t, d)
			for b, puts := range acked {
				for _, p := range puts {
					got, ok := first[p.Name]
					if b < survive && (!ok || got != string(p.Data)) {
						t.Fatalf("acknowledged blob %s before the damage = %q (present %v)", p.Name, got, ok)
					}
					if b >= survive && ok {
						t.Fatalf("blob %s of the damaged record survived", p.Name)
					}
				}
			}
			d.Crash()

			d, err = OpenDurable(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			if rec := d.RecoveryStats(); rec.JournalRecords != 0 || rec.DiscardedJournalBytes != 0 {
				t.Fatalf("second recovery replayed %d records and discarded %d bytes, want none",
					rec.JournalRecords, rec.DiscardedJournalBytes)
			}
			if second := durableState(t, d); !reflect.DeepEqual(first, second) {
				t.Fatalf("second recovery diverged:\n first  %v\n second %v", first, second)
			}
		})
	}
}

// durableState returns every blob of the store by name.
func durableState(t *testing.T, d *Durable) map[string]string {
	t.Helper()
	names, err := d.ListBlobs("")
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := d.GetBlobs(names)
	if err != nil {
		t.Fatal(err)
	}
	state := make(map[string]string, len(names))
	for i, name := range names {
		state[name] = string(blobs[i].Data)
	}
	return state
}
