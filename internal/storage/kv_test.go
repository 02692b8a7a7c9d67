package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"trustedcells/internal/tamper"
)

func newTestKV() *KV {
	return NewKV(NewMemDevice(0), Options{MemtableBytes: 4 << 10, MaxRuns: 4})
}

func TestKVPutGet(t *testing.T) {
	kv := newTestKV()
	if err := kv.Put([]byte("alice/doc1"), []byte("payload-1")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := kv.Get([]byte("alice/doc1"))
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(got) != "payload-1" {
		t.Fatalf("Get = %q", got)
	}
	if _, err := kv.Get([]byte("missing")); err != ErrNotFound {
		t.Fatalf("expected ErrNotFound, got %v", err)
	}
	if err := kv.Put(nil, []byte("x")); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestKVOverwrite(t *testing.T) {
	kv := newTestKV()
	_ = kv.Put([]byte("k"), []byte("v1"))
	_ = kv.Put([]byte("k"), []byte("v2"))
	got, err := kv.Get([]byte("k"))
	if err != nil || string(got) != "v2" {
		t.Fatalf("Get after overwrite = %q, %v", got, err)
	}
	// Overwrite across a flush boundary.
	if err := kv.Flush(); err != nil {
		t.Fatal(err)
	}
	_ = kv.Put([]byte("k"), []byte("v3"))
	got, _ = kv.Get([]byte("k"))
	if string(got) != "v3" {
		t.Fatalf("Get after flush+overwrite = %q", got)
	}
}

func TestKVDelete(t *testing.T) {
	kv := newTestKV()
	_ = kv.Put([]byte("k"), []byte("v"))
	if err := kv.Delete([]byte("k")); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := kv.Get([]byte("k")); err != ErrNotFound {
		t.Fatalf("deleted key still readable: %v", err)
	}
	// Delete survives a flush (tombstone shadowing an older run).
	_ = kv.Put([]byte("persistent"), []byte("v"))
	_ = kv.Flush()
	_ = kv.Delete([]byte("persistent"))
	_ = kv.Flush()
	if _, err := kv.Get([]byte("persistent")); err != ErrNotFound {
		t.Fatalf("tombstone not honoured after flush: %v", err)
	}
	// Deleting a missing key is fine.
	if err := kv.Delete([]byte("never-existed")); err != nil {
		t.Fatalf("Delete missing: %v", err)
	}
	ok, err := kv.Has([]byte("persistent"))
	if err != nil || ok {
		t.Fatalf("Has deleted key = %v, %v", ok, err)
	}
}

func TestKVFlushAndReadBack(t *testing.T) {
	kv := newTestKV()
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("key-%04d", i))
		if err := kv.Put(key, []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := kv.Flush(); err != nil {
		t.Fatal(err)
	}
	st := kv.Stats()
	if st.Runs == 0 {
		t.Fatal("expected at least one run after flush")
	}
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("key-%04d", i))
		got, err := kv.Get(key)
		if err != nil {
			t.Fatalf("Get %s: %v", key, err)
		}
		if string(got) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("key %s = %q", key, got)
		}
	}
}

func TestKVAutomaticFlushOnBudget(t *testing.T) {
	kv := NewKV(NewMemDevice(0), Options{MemtableBytes: 1 << 10, MaxRuns: 100})
	big := bytes.Repeat([]byte("x"), 300)
	for i := 0; i < 20; i++ {
		if err := kv.Put([]byte(fmt.Sprintf("k%02d", i)), big); err != nil {
			t.Fatal(err)
		}
	}
	st := kv.Stats()
	if st.Flushes == 0 {
		t.Fatal("memtable never flushed despite exceeding its budget")
	}
	if st.MemtableB > 2<<10 {
		t.Fatalf("memtable footprint %d exceeds budget substantially", st.MemtableB)
	}
}

func TestKVAutomaticCompaction(t *testing.T) {
	kv := NewKV(NewMemDevice(0), Options{MemtableBytes: 512, MaxRuns: 2})
	big := bytes.Repeat([]byte("y"), 200)
	for i := 0; i < 40; i++ {
		if err := kv.Put([]byte(fmt.Sprintf("k%03d", i)), big); err != nil {
			t.Fatal(err)
		}
	}
	st := kv.Stats()
	if st.Compactions == 0 {
		t.Fatal("no compaction although MaxRuns=2")
	}
	if st.Runs > 3 {
		t.Fatalf("too many runs after compaction: %d", st.Runs)
	}
	// Data still intact.
	for i := 0; i < 40; i++ {
		if _, err := kv.Get([]byte(fmt.Sprintf("k%03d", i))); err != nil {
			t.Fatalf("key %d lost after compaction: %v", i, err)
		}
	}
}

func TestKVScanRange(t *testing.T) {
	kv := newTestKV()
	keys := []string{"a", "b", "c", "d", "e", "f"}
	for _, k := range keys {
		_ = kv.Put([]byte(k), []byte("v-"+k))
	}
	_ = kv.Flush()
	_ = kv.Put([]byte("b"), []byte("v-b2")) // newer version in memtable
	_ = kv.Delete([]byte("d"))

	var got []string
	err := kv.Scan([]byte("b"), []byte("f"), func(k, v []byte) bool {
		got = append(got, string(k)+"="+string(v))
		return true
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	want := []string{"b=v-b2", "c=v-c", "e=v-e"}
	if len(got) != len(want) {
		t.Fatalf("scan returned %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	// Full scan and count.
	n, err := kv.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 { // six keys minus one deleted
		t.Fatalf("Count = %d, want 5", n)
	}
	// Early termination.
	visits := 0
	_ = kv.Scan(nil, nil, func(_, _ []byte) bool { visits++; return false })
	if visits != 1 {
		t.Fatalf("early-stop scan visited %d", visits)
	}
}

func TestKVCompactDropsTombstones(t *testing.T) {
	kv := newTestKV()
	for i := 0; i < 50; i++ {
		_ = kv.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v"))
	}
	_ = kv.Flush()
	for i := 0; i < 50; i += 2 {
		_ = kv.Delete([]byte(fmt.Sprintf("k%02d", i)))
	}
	if err := kv.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	n, _ := kv.Count()
	if n != 25 {
		t.Fatalf("Count after compact = %d, want 25", n)
	}
	st := kv.Stats()
	if st.Runs != 1 {
		t.Fatalf("runs after compact = %d, want 1", st.Runs)
	}
}

func TestKVCompactEverythingDeleted(t *testing.T) {
	kv := newTestKV()
	_ = kv.Put([]byte("only"), []byte("v"))
	_ = kv.Flush()
	_ = kv.Delete([]byte("only"))
	if err := kv.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if n, _ := kv.Count(); n != 0 {
		t.Fatalf("Count = %d, want 0", n)
	}
	if kv.Stats().Runs != 0 {
		t.Fatalf("runs = %d, want 0", kv.Stats().Runs)
	}
}

func TestKVClose(t *testing.T) {
	kv := newTestKV()
	_ = kv.Put([]byte("k"), []byte("v"))
	if err := kv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := kv.Put([]byte("k2"), []byte("v")); err != ErrClosed {
		t.Fatalf("Put after close: %v", err)
	}
	if _, err := kv.Get([]byte("k")); err != ErrClosed {
		t.Fatalf("Get after close: %v", err)
	}
	if err := kv.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestKVVerifyRunsDetectsTampering(t *testing.T) {
	dev := NewMemDevice(0)
	kv := NewKV(dev, Options{MemtableBytes: 1 << 20})
	for i := 0; i < 100; i++ {
		_ = kv.Put([]byte(fmt.Sprintf("key-%03d", i)), bytes.Repeat([]byte("v"), 50))
	}
	_ = kv.Flush()
	if err := kv.VerifyRuns(); err != nil {
		t.Fatalf("VerifyRuns on clean store: %v", err)
	}
	// Corrupt a byte in the middle of the device (inside the run body).
	if _, err := dev.WriteAt([]byte{0xAA}, dev.Size()/2); err != nil {
		t.Fatal(err)
	}
	if err := kv.VerifyRuns(); err == nil {
		t.Fatal("tampered run not detected")
	}
}

func TestKVMeteredWorkload(t *testing.T) {
	var meter tamper.CostMeter
	dev := NewMeteredDevice(NewMemDevice(0), &meter)
	kv := NewKV(dev, Options{MemtableBytes: 2 << 10, MaxRuns: 4})
	for i := 0; i < 500; i++ {
		_ = kv.Put([]byte(fmt.Sprintf("sensor/%06d", i)), []byte("reading=1234"))
	}
	_, _, writes, _, _ := meter.Snapshot()
	if writes == 0 {
		t.Fatal("metered device recorded no page writes")
	}
	token := tamper.DefaultProfile(tamper.ClassSecureToken)
	gateway := tamper.DefaultProfile(tamper.ClassHomeGateway)
	if meter.SimulatedTime(token) <= meter.SimulatedTime(gateway) {
		t.Fatal("token should be slower than gateway for the same workload")
	}
}

func TestKVRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	kv := NewKV(NewMemDevice(0), Options{MemtableBytes: 1 << 10, MaxRuns: 3})
	oracle := make(map[string]string)
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("key-%03d", rng.Intn(300))
		switch rng.Intn(10) {
		case 0:
			_ = kv.Delete([]byte(k))
			delete(oracle, k)
		case 1:
			if err := kv.Flush(); err != nil {
				t.Fatal(err)
			}
		case 2:
			if rng.Intn(5) == 0 {
				if err := kv.Compact(); err != nil {
					t.Fatal(err)
				}
			}
		default:
			v := fmt.Sprintf("val-%d", i)
			_ = kv.Put([]byte(k), []byte(v))
			oracle[k] = v
		}
	}
	for k, v := range oracle {
		got, err := kv.Get([]byte(k))
		if err != nil {
			t.Fatalf("key %s missing: %v", k, err)
		}
		if string(got) != v {
			t.Fatalf("key %s = %q, want %q", k, got, v)
		}
	}
	n, _ := kv.Count()
	if n != len(oracle) {
		t.Fatalf("Count = %d, oracle has %d", n, len(oracle))
	}
}

// Property: what you put is what you get, for arbitrary binary keys/values.
func TestKVPutGetProperty(t *testing.T) {
	kv := newTestKV()
	f := func(key, value []byte) bool {
		if len(key) == 0 {
			return true
		}
		if err := kv.Put(key, value); err != nil {
			return false
		}
		got, err := kv.Get(key)
		if err != nil {
			return false
		}
		return bytes.Equal(got, value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
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

func BenchmarkKVPut(b *testing.B) {
	kv := NewKV(NewMemDevice(0), Options{MemtableBytes: 1 << 20, MaxRuns: 8})
	value := bytes.Repeat([]byte("v"), 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := kv.Put([]byte(fmt.Sprintf("key-%09d", i)), value); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKVGet(b *testing.B) {
	kv := NewKV(NewMemDevice(0), Options{MemtableBytes: 1 << 20, MaxRuns: 8})
	value := bytes.Repeat([]byte("v"), 100)
	const n = 10000
	for i := 0; i < n; i++ {
		_ = kv.Put([]byte(fmt.Sprintf("key-%09d", i)), value)
	}
	_ = kv.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kv.Get([]byte(fmt.Sprintf("key-%09d", i%n))); err != nil {
			b.Fatal(err)
		}
	}
}
