package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func runTestEntries(n int) []memEntry {
	entries := make([]memEntry, n)
	for i := range entries {
		entries[i] = memEntry{
			key:       []byte(fmt.Sprintf("key-%05d", i*3)),
			value:     []byte(fmt.Sprintf("value-%d", i)),
			tombstone: i%7 == 3,
		}
	}
	return entries
}

// TestRunFooterRoundTrip writes a footered run and checks that openRun
// rebuilds the descriptor writeRun produced — count, key range, sparse index
// and bloom filter — from the footer alone.
func TestRunFooterRoundTrip(t *testing.T) {
	dev := NewMemDevice(0)
	entries := runTestEntries(100)
	w, err := writeRun(dev, entries, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.tail == 0 {
		t.Fatalf("writeRun produced a footer-less run: %+v", w)
	}
	r, err := openRun(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.count != w.count || !bytes.Equal(r.first, w.first) || !bytes.Equal(r.last, w.last) {
		t.Fatalf("descriptor mismatch: wrote %+v, reopened %+v", w, r)
	}
	if !reflect.DeepEqual(r.indexKeys, w.indexKeys) || !reflect.DeepEqual(r.indexOffsets, w.indexOffsets) {
		t.Fatalf("sparse index mismatch:\nwrote    %v %v\nreopened %v %v",
			w.indexKeys, w.indexOffsets, r.indexKeys, r.indexOffsets)
	}
	if r.filter == nil || r.filter.k != w.filter.k || !bytes.Equal(r.filter.bits, w.filter.bits) {
		t.Fatal("bloom filter did not survive the footer round trip")
	}
	if r.extent() != w.extent() {
		t.Fatalf("extent mismatch: %d vs %d", r.extent(), w.extent())
	}
}

func TestWriteRunWithoutBloom(t *testing.T) {
	dev := NewMemDevice(0)
	w, err := writeRun(dev, runTestEntries(20), -1)
	if err != nil {
		t.Fatal(err)
	}
	if w.filter != nil {
		t.Fatal("negative bitsPerKey still built a filter")
	}
	r, err := openRun(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.filter != nil {
		t.Fatal("footer resurrected a disabled filter")
	}
	// Lookups still work, they just can't skip.
	e, ok, err := r.get(dev, nil, []byte("key-00003"), bloomHash([]byte("key-00003")), nil)
	if err != nil || !ok || string(e.value) != "value-1" {
		t.Fatalf("get without filter: %v %v %v", e, ok, err)
	}
}

// TestRunSparseIndexBoundaries probes every alignment the sparse index can
// produce — entry counts exactly at, one below and one above a restart
// multiple — on runs reopened from their footers. The probes cover every
// present key, the gaps between keys, both ends of the range, and the keys
// sitting exactly on restart points.
func TestRunSparseIndexBoundaries(t *testing.T) {
	counts := []int{1, sparseEvery - 1, sparseEvery, sparseEvery + 1, 3*sparseEvery - 1, 3 * sparseEvery, 3*sparseEvery + 1}
	for _, n := range counts {
		dev := NewMemDevice(0)
		entries := runTestEntries(n)
		r := writeAndReopenRun(t, dev, entries)
		wantIndex := (n + sparseEvery - 1) / sparseEvery
		if len(r.indexKeys) != wantIndex {
			t.Fatalf("n=%d: %d index entries, want %d", n, len(r.indexKeys), wantIndex)
		}
		for i, e := range entries {
			got, ok, err := r.get(dev, nil, e.key, bloomHash(e.key), nil)
			if err != nil || !ok {
				t.Fatalf("n=%d: present key %q missing: %v", n, e.key, err)
			}
			if !bytes.Equal(got.value, e.value) || got.tombstone != e.tombstone {
				t.Fatalf("n=%d: key %q = %q/%v, want %q/%v", n, e.key, got.value, got.tombstone, e.value, e.tombstone)
			}
			// The key just after entry i (inside the gap keys i*3 leaves).
			gap := []byte(fmt.Sprintf("key-%05d", i*3+1))
			if _, ok, _ := r.get(dev, nil, gap, bloomHash(gap), nil); ok {
				t.Fatalf("n=%d: gap key %q found", n, gap)
			}
		}
		if _, ok, _ := r.get(dev, nil, []byte("key-"), bloomHash([]byte("key-")), nil); ok {
			t.Fatalf("n=%d: key below range found", n)
		}
		if _, ok, _ := r.get(dev, nil, []byte("key-99999"), bloomHash([]byte("key-99999")), nil); ok {
			t.Fatalf("n=%d: key above range found", n)
		}
	}
}

func TestRunSparseIndexLookups(t *testing.T) {
	dev := NewMemDevice(0)
	var entries []memEntry
	for i := 0; i < 100; i++ {
		entries = append(entries, memEntry{
			key:   []byte(fmt.Sprintf("key-%04d", i*2)), // even keys only
			value: []byte(fmt.Sprintf("val-%d", i)),
		})
	}
	r, err := writeRun(dev, entries, 0)
	if err != nil {
		t.Fatalf("writeRun: %v", err)
	}
	if err := r.verify(dev); err != nil {
		t.Fatalf("verify: %v", err)
	}
	// Every present key is found, absent (odd) keys are not.
	for i := 0; i < 100; i++ {
		present := []byte(fmt.Sprintf("key-%04d", i*2))
		e, ok, err := r.get(dev, nil, present, bloomHash(present), nil)
		if err != nil || !ok {
			t.Fatalf("present key %d not found: %v", i, err)
		}
		if string(e.value) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("value mismatch for %d", i)
		}
		absent := []byte(fmt.Sprintf("key-%04d", i*2+1))
		if _, ok, _ := r.get(dev, nil, absent, bloomHash(absent), nil); ok {
			t.Fatalf("absent key %d reported found", i*2+1)
		}
	}
	// Out-of-range keys short-circuit.
	if _, ok, _ := r.get(dev, nil, []byte("aaa"), bloomHash([]byte("aaa")), nil); ok {
		t.Fatal("key below range found")
	}
	if _, ok, _ := r.get(dev, nil, []byte("zzz"), bloomHash([]byte("zzz")), nil); ok {
		t.Fatal("key above range found")
	}
}

func TestWriteRunEmpty(t *testing.T) {
	if _, err := writeRun(NewMemDevice(0), nil, 0); err == nil {
		t.Fatal("empty run accepted")
	}
}

// bigValueEntries returns n entries with valueLen-byte values, every 5th a
// tombstone.
func bigValueEntries(n, valueLen int) []memEntry {
	entries := make([]memEntry, n)
	for i := range entries {
		entries[i] = memEntry{
			key:       []byte(fmt.Sprintf("blob-%05d", i*3)),
			value:     bytes.Repeat([]byte{byte(i)}, valueLen),
			tombstone: i%5 == 4,
		}
	}
	return entries
}

// checkBlockRule decodes every indexed segment of r and checks the restart
// rule writeRun follows: a block holds at most sparseEvery entries, its
// entries before the last span less than blockBytes, and a block other than
// the last is closed only because it was full by one of the two bounds.
// It returns the largest block in bytes.
func checkBlockRule(t *testing.T, dev Device, r *run) int {
	t.Helper()
	largest := 0
	for i, from := range r.indexOffsets {
		to := r.length
		if i+1 < len(r.indexOffsets) {
			to = r.indexOffsets[i+1]
		}
		seg := make([]byte, to-from)
		if n, err := dev.ReadAt(seg, r.offset+int64(from)); n != len(seg) {
			t.Fatalf("block %d: read %d of %d bytes: %v", i, n, len(seg), err)
		}
		var scratch []byte
		count, pos, last := 0, 0, 0
		for pos < len(seg) {
			_, _, n, err := decodePrefixedEntry(seg[pos:], &scratch)
			if err != nil {
				t.Fatalf("block %d does not decode standalone: %v", i, err)
			}
			count, pos, last = count+1, pos+n, n
		}
		if count == 0 || count > sparseEvery || len(seg)-last >= blockBytes {
			t.Fatalf("block %d: %d entries, %d bytes before its last entry; bounds are %d and %d",
				i, count, len(seg)-last, sparseEvery, blockBytes)
		}
		if to < r.length && count < sparseEvery && len(seg) < blockBytes {
			t.Fatalf("block %d closed early: %d entries, %d bytes", i, count, len(seg))
		}
		largest = max(largest, len(seg))
	}
	return largest
}

// TestRunBlockBytes writes 1 KiB values: blocks must close on bytes, so every
// index gap stays within blockBytes plus one entry — a point lookup reads
// ~4 KiB, not sixteen values — and every key still reads back.
func TestRunBlockBytes(t *testing.T) {
	const n, valueLen = 100, 1 << 10
	dev := NewMemDevice(0)
	entries := bigValueEntries(n, valueLen)
	r := writeAndReopenRun(t, dev, entries)
	maxEntry := len(encodePrefixedEntry(nil, 0, entries[n-1].key, entries[n-1].value, false))
	if largest := checkBlockRule(t, dev, r); largest > blockBytes+maxEntry {
		t.Fatalf("largest block %d bytes, want <= %d", largest, blockBytes+maxEntry)
	}
	if byCount := (n + sparseEvery - 1) / sparseEvery; len(r.indexKeys) <= byCount {
		t.Fatalf("%d index entries: the byte bound never closed a block (entry bound alone gives %d)",
			len(r.indexKeys), byCount)
	}
	for _, e := range entries {
		got, ok, err := r.get(dev, nil, e.key, bloomHash(e.key), nil)
		if err != nil || !ok || !bytes.Equal(got.value, e.value) || got.tombstone != e.tombstone {
			t.Fatalf("key %q: ok=%v err=%v", e.key, ok, err)
		}
	}
}

// TestRunReadsSixteenEntrySegments hand-encodes a run the way writers before
// the byte bound did — a restart at every sparseEvery-th entry, whatever the
// value size — and checks that openRun serves every key, every gap key and a
// full scan from it: readers follow the footer's index, so stores written
// under the old rule read back unchanged.
func TestRunReadsSixteenEntrySegments(t *testing.T) {
	entries := bigValueEntries(3*sparseEvery+5, 1<<10)
	w := &run{count: len(entries), filter: newBloomFilter(len(entries), 0),
		first: entries[0].key, last: entries[len(entries)-1].key}
	var body, prev []byte
	for i, e := range entries {
		shared := 0
		if i%sparseEvery == 0 {
			w.indexKeys = append(w.indexKeys, e.key)
			w.indexOffsets = append(w.indexOffsets, len(body))
		} else {
			shared = sharedPrefixLen(prev, e.key)
		}
		body = encodePrefixedEntry(body, shared, e.key, e.value, e.tombstone)
		w.filter.add(e.key)
		prev = e.key
	}
	raw := make([]byte, 8, 8+len(body))
	binary.BigEndian.PutUint32(raw[0:4], crc32.ChecksumIEEE(body))
	binary.BigEndian.PutUint32(raw[4:8], uint32(len(body))|runFooterFlag)
	raw = w.appendFooter(append(raw, body...))
	dev := NewMemDevice(0)
	if _, err := dev.WriteAt(raw, 0); err != nil {
		t.Fatal(err)
	}

	r, err := openRun(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.indexOffsets, w.indexOffsets) {
		t.Fatalf("index offsets %v, wrote %v", r.indexOffsets, w.indexOffsets)
	}
	if seg := r.indexOffsets[1] - r.indexOffsets[0]; seg <= blockBytes+(1<<10) {
		t.Fatalf("hand-encoded segment is %d bytes: not the old layout", seg)
	}
	cache := NewBlockCache(1 << 20)
	for i, e := range entries {
		got, ok, err := r.get(dev, cache, e.key, bloomHash(e.key), nil)
		if err != nil || !ok || !bytes.Equal(got.value, e.value) || got.tombstone != e.tombstone {
			t.Fatalf("key %q: ok=%v err=%v", e.key, ok, err)
		}
		gap := []byte(fmt.Sprintf("blob-%05d", i*3+1))
		if _, ok, err := r.get(dev, cache, gap, bloomHash(gap), nil); ok || err != nil {
			t.Fatalf("gap key %q: found=%v err=%v", gap, ok, err)
		}
	}
	checkScan(t, dev, r, entries)
}

// writeAndReopenRun writes entries as a run at the start of an empty dev and
// returns the descriptor openRun rebuilds from the footer.
func writeAndReopenRun(t *testing.T, dev Device, entries []memEntry) *run {
	t.Helper()
	if _, err := writeRun(dev, entries, 0); err != nil {
		t.Fatal(err)
	}
	r, err := openRun(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRunDifferentialAgainstOracle drives randomized keys/values/tombstones
// through a reopened run and cross-checks every lookup and a full scan
// against a plain map oracle.
func TestRunDifferentialAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	oracle := make(map[string]memEntry)
	for i := 0; i < 700; i++ {
		k := fmt.Sprintf("k%04d-%02d", rng.Intn(5000), rng.Intn(10))
		oracle[k] = memEntry{
			key:       []byte(k),
			value:     []byte(fmt.Sprintf("v-%d-%d", i, rng.Intn(1000))),
			tombstone: rng.Intn(6) == 0,
		}
	}
	keys := make([]string, 0, len(oracle))
	for k := range oracle {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	entries := make([]memEntry, 0, len(keys))
	for _, k := range keys {
		entries = append(entries, oracle[k])
	}

	dev := NewMemDevice(0)
	r := writeAndReopenRun(t, dev, entries)
	cache := NewBlockCache(64 << 10) // small: exercises hits, misses and eviction
	for trial := 0; trial < 3000; trial++ {
		k := fmt.Sprintf("k%04d-%02d", rng.Intn(5000), rng.Intn(10))
		want, present := oracle[k]
		got, ok, err := r.get(dev, cache, []byte(k), bloomHash([]byte(k)), nil)
		if err != nil {
			t.Fatalf("get %q: %v", k, err)
		}
		if ok != present {
			t.Fatalf("key %q: found=%v, oracle=%v", k, ok, present)
		}
		if present && (!bytes.Equal(got.value, want.value) || got.tombstone != want.tombstone) {
			t.Fatalf("key %q = %q/%v, want %q/%v", k, got.value, got.tombstone, want.value, want.tombstone)
		}
	}
	checkScan(t, dev, r, entries)
}

// checkScan scans the whole run and compares it entry by entry with entries.
func checkScan(t *testing.T, dev Device, r *run, entries []memEntry) {
	t.Helper()
	var scanned []memEntry
	if err := r.scan(dev, nil, nil, func(e memEntry) bool {
		scanned = append(scanned, e)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(scanned) != len(entries) {
		t.Fatalf("scan returned %d entries, want %d", len(scanned), len(entries))
	}
	for i, e := range scanned {
		w := entries[i]
		if !bytes.Equal(e.key, w.key) || !bytes.Equal(e.value, w.value) || e.tombstone != w.tombstone {
			t.Fatalf("scan[%d] = %q/%q/%v, want %q/%q/%v",
				i, e.key, e.value, e.tombstone, w.key, w.value, w.tombstone)
		}
	}
	// A ranged scan reads only the blocks overlapping [start, end); it
	// must still return exactly the entries inside the range.
	n := len(entries)
	for _, span := range [][2]int{{0, n / 2}, {n / 3, 2 * n / 3}, {n / 2, n}, {n - 1, n}} {
		lo, hi := span[0], span[1]
		if lo < 0 || lo >= n {
			continue
		}
		end := []byte(nil)
		if hi < n {
			end = entries[hi].key
		}
		for _, start := range [][]byte{entries[lo].key, append(append([]byte(nil), entries[lo].key...), 0)} {
			want := entries[lo:hi]
			if len(start) > len(entries[lo].key) {
				want = entries[min(lo+1, hi):hi]
			}
			var got [][]byte
			if err := r.scan(dev, start, end, func(e memEntry) bool {
				got = append(got, e.key)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("scan [%q, %q) returned %d entries, want %d", start, end, len(got), len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i].key) {
					t.Fatalf("scan [%q, %q)[%d] = %q, want %q", start, end, i, got[i], want[i].key)
				}
			}
		}
	}
}

// TestRunFooterBoundsCounts feeds footers whose counts promise more elements
// than their bytes can hold: decodeFooter must reject them as corruption
// before sizing an allocation by them.
func TestRunFooterBoundsCounts(t *testing.T) {
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
	for name, payload := range map[string][]byte{
		// count 1, empty first/last keys, no filter, then the index count.
		"index count": append([]byte{1, 0, 0, 0, 0}, huge...),
		"entry count": append(append([]byte(nil), huge...), 0, 0, 0, 0, 0),
	} {
		r := &run{length: 64}
		if err := r.decodeFooter(payload); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: decodeFooter = %v, want ErrCorrupt", name, err)
		}
	}
}

// FuzzRunRoundTrip feeds arbitrary bytes through a deterministic
// entry-builder, writes the run (footer included) and checks that the
// reopened descriptor follows the block rule and serves every entry back
// intact, by lookup and by scan — and that a corrupted copy is rejected
// rather than misread. Each value is its chunk repeated 1+repeat times, so
// blocks close on bytes as well as on entry counts.
func FuzzRunRoundTrip(f *testing.F) {
	f.Add([]byte("seed"), uint8(3), uint8(0))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 251, 252}, uint8(40), uint8(0))
	f.Add(bytes.Repeat([]byte{0xAB}, 64), uint8(17), uint8(0))
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4, 5}, 40), uint8(40), uint8(200))
	f.Add(bytes.Repeat([]byte{0xCD}, 64), uint8(4), uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, n, repeat uint8) {
		if n == 0 || len(data) == 0 {
			return
		}
		// Derive n strictly increasing keys and arbitrary values from data.
		entries := make([]memEntry, 0, n)
		for i := 0; i < int(n); i++ {
			chunk := data[i*len(data)/int(n) : (i+1)*len(data)/int(n)]
			entries = append(entries, memEntry{
				key:       []byte(fmt.Sprintf("%06d-%x", i, chunk)),
				value:     bytes.Repeat(chunk, 1+int(repeat)),
				tombstone: len(chunk)%3 == 0,
			})
		}
		dev := NewMemDevice(0)
		w, err := writeRun(dev, entries, 0)
		if err != nil {
			t.Fatal(err)
		}
		r, err := openRun(dev, 0)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if r.count != len(entries) || !bytes.Equal(r.first, entries[0].key) || !bytes.Equal(r.last, entries[len(entries)-1].key) {
			t.Fatalf("descriptor mismatch: %+v", r)
		}
		checkBlockRule(t, dev, r)
		for _, e := range entries {
			got, ok, err := r.get(dev, nil, e.key, bloomHash(e.key), nil)
			if err != nil || !ok {
				t.Fatalf("key %q missing: %v", e.key, err)
			}
			if !bytes.Equal(got.value, e.value) || got.tombstone != e.tombstone {
				t.Fatalf("key %q = %q/%v, want %q/%v", e.key, got.value, got.tombstone, e.value, e.tombstone)
			}
		}
		checkScan(t, dev, r, entries)
		// Flip one body byte on a copy: openRun must reject, never misread.
		if w.length > 0 {
			tampered := NewMemDevice(0)
			raw := make([]byte, dev.Size())
			if _, err := dev.ReadAt(raw, 0); err != nil {
				t.Fatal(err)
			}
			raw[8+int(uint32(len(data))%uint32(w.length))] ^= 0xFF
			if _, err := tampered.WriteAt(raw, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := openRun(tampered, 0); err == nil {
				t.Fatal("tampered body accepted")
			}
		}
	})
}
