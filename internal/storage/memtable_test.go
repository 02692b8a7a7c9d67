package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// modelEntry is the oracle's view of one memtable key.
type modelEntry struct {
	value     []byte
	tombstone bool
}

// sortedModel returns the oracle's entries with key in [start, end), sorted:
// the map+sort reference the arena memtable must agree with.
func sortedModel(model map[string]modelEntry, start, end []byte) []memEntry {
	var out []memEntry
	for k, e := range model {
		if bytes.Compare([]byte(k), start) < 0 || (end != nil && bytes.Compare([]byte(k), end) >= 0) {
			continue
		}
		out = append(out, memEntry{key: []byte(k), value: e.value, tombstone: e.tombstone})
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].key, out[j].key) < 0 })
	return out
}

// cloneEntries deep-copies entries so later comparisons detect any mutation
// of the bytes the originals alias.
func cloneEntries(entries []memEntry) []memEntry {
	out := make([]memEntry, len(entries))
	for i, e := range entries {
		out[i] = memEntry{key: bytes.Clone(e.key), value: bytes.Clone(e.value), tombstone: e.tombstone}
	}
	return out
}

func sameEntries(t *testing.T, what string, got, want []memEntry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !bytes.Equal(g.key, w.key) || g.tombstone != w.tombstone || !bytes.Equal(g.value, w.value) {
			t.Fatalf("%s[%d] = {%q %q %v}, want {%q %q %v}", what, i, g.key, g.value, g.tombstone, w.key, w.value, w.tombstone)
		}
	}
}

// TestMemtableMatchesModel drives the arena memtable and a map oracle with
// the same random puts, overwrites, deletes and empty values, and checks get,
// scan, snapshot, all, count and size against it. Every snapshot taken along
// the way is re-checked at the end: later overwrites must not have changed a
// byte it references.
func TestMemtableMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := newMemtable()
	model := make(map[string]modelEntry)
	type taken struct {
		entries, want []memEntry
	}
	var snaps []taken
	key := func() []byte { return []byte(fmt.Sprintf("k%03d", rng.Intn(120))) }
	prevSize := 0
	for i := 0; i < 4000; i++ {
		k := key()
		op := rng.Intn(10)
		switch {
		case op < 6:
			v := make([]byte, rng.Intn(40))
			rng.Read(v)
			m.put(k, v, false)
			model[string(k)] = modelEntry{value: bytes.Clone(v)}
		case op < 7:
			m.put(k, nil, false) // empty value: present, not deleted
			model[string(k)] = modelEntry{value: []byte{}}
		case op < 9:
			m.put(k, []byte("ignored"), true)
			model[string(k)] = modelEntry{tombstone: true}
		default:
			start, end := key(), key()
			if bytes.Compare(start, end) > 0 {
				start, end = end, start
			}
			if rng.Intn(4) == 0 {
				end = nil
			}
			want := sortedModel(model, start, end)
			var scanned []memEntry
			m.scan(start, end, func(e memEntry) bool { scanned = append(scanned, e); return true })
			sameEntries(t, "scan", scanned, want)
			snap := m.snapshot(start, end)
			sameEntries(t, "snapshot", snap, want)
			snaps = append(snaps, taken{entries: snap, want: cloneEntries(want)})
		}
		if wrote := op < 9; wrote && m.size() <= prevSize {
			t.Fatalf("op %d: size %d did not grow from %d", i, m.size(), prevSize)
		}
		prevSize = m.size()

		probe := key()
		e, ok := m.get(probe)
		me, inModel := model[string(probe)]
		if ok != inModel {
			t.Fatalf("get(%q) present=%v, model %v", probe, ok, inModel)
		}
		if ok && (e.tombstone != me.tombstone || !bytes.Equal(e.value, me.value)) {
			t.Fatalf("get(%q) = {%q %v}, model {%q %v}", probe, e.value, e.tombstone, me.value, me.tombstone)
		}
		// An empty live value and a tombstone must stay distinguishable.
		if ok && e.tombstone != (e.value == nil) {
			t.Fatalf("get(%q): tombstone=%v with value %q", probe, e.tombstone, e.value)
		}
	}
	if m.count() != len(model) {
		t.Fatalf("count = %d, model has %d keys", m.count(), len(model))
	}
	sameEntries(t, "all", m.all(), sortedModel(model, nil, nil))
	for i, s := range snaps {
		sameEntries(t, fmt.Sprintf("snapshot %d after later writes", i), s.entries, s.want)
	}
	// Early stop.
	visits := 0
	m.scan(nil, nil, func(memEntry) bool { visits++; return false })
	if visits != 1 {
		t.Fatalf("early-stop scan visited %d", visits)
	}
}

func TestMemtableOrderingAndSize(t *testing.T) {
	m := newMemtable()
	m.put([]byte("b"), []byte("2"), false)
	m.put([]byte("a"), []byte("1"), false)
	m.put([]byte("c"), []byte("3"), false)
	var keys []string
	m.scan(nil, nil, func(e memEntry) bool { keys = append(keys, string(e.key)); return true })
	if fmt.Sprint(keys) != "[a b c]" {
		t.Fatalf("memtable order %v", keys)
	}
	before := m.size()
	m.put([]byte("b"), []byte("a much longer replacement value"), false)
	if m.size() <= before {
		t.Fatal("size did not grow after replacing with a larger value")
	}
	if m.count() != 3 {
		t.Fatalf("count = %d, want 3", m.count())
	}
}

// TestMemtableSizeCountsOverwrites pins the RAM accounting: overwriting one
// key keeps every shadowed record in the arena, so size keeps growing and an
// engine fed nothing but overwrites of one key still flushes at its budget.
func TestMemtableSizeCountsOverwrites(t *testing.T) {
	m := newMemtable()
	value := bytes.Repeat([]byte("v"), 100)
	for i := 0; i < 100; i++ {
		m.put([]byte("hot"), value, false)
	}
	if m.count() != 1 {
		t.Fatalf("count = %d, want 1", m.count())
	}
	if floor := 100 * (len("hot") + len(value)); m.size() < floor {
		t.Fatalf("size = %d after 100 overwrites, want >= %d", m.size(), floor)
	}

	p := NewMemoryKV(func() Device { return NewMemDevice(0) }, PersistentOptions{MemtableBytes: 4 << 10, MaxRuns: -1})
	defer p.Close()
	for i := 0; i < 200; i++ {
		if err := p.Apply([]Op{{Key: []byte("hot"), Value: value}}); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Flushes == 0 {
		t.Fatal("200 overwrites of one key never reached the 4 KiB flush threshold")
	}
	if st.MemtableB >= 4<<10 {
		t.Fatalf("memtable holds %d bytes, budget 4096", st.MemtableB)
	}
}

// oracleMergeEntries is the map+sort merge the engine used before the
// streaming merge: collect every source oldest → newest into a map so later
// versions overwrite, then sort. Kept as the reference the streaming merge
// must agree with.
func oracleMergeEntries(dev Device, runs []*run, mem []memEntry, start, end []byte) ([]memEntry, error) {
	byKey := make(map[string]memEntry)
	var order [][]byte
	add := func(e memEntry) {
		k := string(e.key)
		if _, seen := byKey[k]; !seen {
			order = append(order, e.key)
		}
		byKey[k] = e
	}
	for _, r := range runs {
		if err := r.scan(dev, start, end, func(e memEntry) bool { add(e); return true }); err != nil {
			return nil, err
		}
	}
	for _, e := range mem {
		add(e)
	}
	out := make([]memEntry, 0, len(order))
	for _, k := range order {
		out = append(out, byKey[string(k)])
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].key, out[j].key) < 0 })
	return out, nil
}

// TestMergeEntriesMatchesOracle builds random overlapping run stacks plus a
// memtable snapshot — shared keys, tombstones, empty values, empty sources —
// and checks the streaming merge against the map+sort oracle over full and
// partial ranges.
func TestMergeEntriesMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		dev := NewMemDevice(0)
		var runs []*run
		for r := rng.Intn(6); r > 0; r-- {
			m := newMemtable()
			for n := 1 + rng.Intn(80); n > 0; n-- {
				m.put([]byte(fmt.Sprintf("key-%03d", rng.Intn(150))), []byte(fmt.Sprintf("r%d-%d", r, n)), rng.Intn(5) == 0)
			}
			run, err := writeRun(dev, m.all(), 0)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, run)
		}
		mem := newMemtable()
		for n := rng.Intn(60); n > 0; n-- {
			var v []byte
			if rng.Intn(6) > 0 {
				v = []byte(fmt.Sprintf("mem-%d", n))
			}
			mem.put([]byte(fmt.Sprintf("key-%03d", rng.Intn(150))), v, rng.Intn(5) == 0)
		}
		ranges := [][2][]byte{{nil, nil}, {[]byte("key-040"), []byte("key-090")}, {[]byte("key-100"), nil}}
		for _, rg := range ranges {
			snap := mem.snapshot(rg[0], rg[1])
			got, err := mergeEntries(dev, runs, snap, rg[0], rg[1])
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracleMergeEntries(dev, runs, snap, rg[0], rg[1])
			if err != nil {
				t.Fatal(err)
			}
			sameEntries(t, fmt.Sprintf("trial %d range [%s, %s)", trial, rg[0], rg[1]), got, want)
		}
	}
}

// BenchmarkMemtablePut inserts 256-byte values under random 24-byte keys,
// starting a fresh memtable at the 512 KiB shard budget as a flush would.
func BenchmarkMemtablePut(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([][]byte, 1<<14)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("b:cell-%06d/doc-%06d", rng.Intn(1e6), i))
	}
	value := bytes.Repeat([]byte("v"), 256)
	m := newMemtable()
	b.ReportAllocs()
	b.SetBytes(int64(len(value)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.put(keys[i&(len(keys)-1)], value, false)
		if m.size() >= 512<<10 {
			m = newMemtable()
		}
	}
}
