package storage

import (
	"fmt"
	"os"
	"sync"
	"testing"
)

// TestPersistentKVGetCopyOnReturn pins down the copy-on-return contract on
// both lookup paths: a value served from the memtable and one served from an
// on-device run (possibly via a cache-resident buffer shared with other
// readers). Mutating what Get returned must never corrupt the store.
func TestPersistentKVGetCopyOnReturn(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func(PersistentOptions) *PersistentKV) {
		p := open(PersistentOptions{Cache: NewBlockCache(1 << 20)})
		if err := p.Apply([]Op{{Key: []byte("k"), Value: []byte("original")}}); err != nil {
			t.Fatal(err)
		}
		// Memtable path.
		v, err := p.Get([]byte("k"))
		if err != nil {
			t.Fatal(err)
		}
		copy(v, "GARBAGE!")
		if v2, _ := p.Get([]byte("k")); string(v2) != "original" {
			t.Fatalf("memtable value corrupted through returned slice: %q", v2)
		}
		// Run path (flush, then read twice so the second hit is cache-served).
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			v, err := p.Get([]byte("k"))
			if err != nil {
				t.Fatal(err)
			}
			copy(v, "GARBAGE!")
		}
		if v3, _ := p.Get([]byte("k")); string(v3) != "original" {
			t.Fatalf("run/cache value corrupted through returned slice: %q", v3)
		}
	})
}

// TestPersistentKVEmptyValueIsNotATombstone guards the distinction between a
// live empty value and a deletion on every path (memtable, run, reopened).
func TestPersistentKVEmptyValueIsNotATombstone(t *testing.T) {
	dir := t.TempDir()
	p, err := OpenPersistentKV(dir, PersistentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Apply([]Op{{Key: []byte("empty"), Value: nil}}); err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		v, err := p.Get([]byte("empty"))
		if err != nil {
			t.Fatalf("%s: empty value read as missing: %v", stage, err)
		}
		if len(v) != 0 {
			t.Fatalf("%s: value = %q", stage, v)
		}
	}
	check("memtable")
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	check("run")
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if p, err = OpenPersistentKV(dir, PersistentOptions{}); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	check("reopened")
}

// TestPersistentKVBloomSkipsNegativeLookups checks that missing keys inside
// the stored key range are answered by the per-run bloom filters without
// device reads, and that the counters expose it.
func TestPersistentKVBloomSkipsNegativeLookups(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func(PersistentOptions) *PersistentKV) {
		p := open(PersistentOptions{})
		ops := make([]Op, 0, 500)
		for i := 0; i < 500; i++ {
			ops = append(ops, Op{Key: []byte(fmt.Sprintf("key-%05d", i)), Value: []byte("v")})
		}
		if err := p.Apply(ops); err != nil {
			t.Fatal(err)
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			// "key-00042x" sorts inside [key-00000, key-00499]: only the filter
			// can reject it without a device read.
			if _, err := p.Get([]byte(fmt.Sprintf("key-%05dx", i))); err != ErrNotFound {
				t.Fatalf("miss %d: %v", i, err)
			}
		}
		st := p.Stats()
		if st.BloomSkips < 450 {
			t.Fatalf("BloomSkips = %d of 500 in-range misses", st.BloomSkips)
		}
		if st.RunReads > 50 {
			t.Fatalf("RunReads = %d, filters should have absorbed the misses", st.RunReads)
		}
	})
}

// TestPersistentKVCacheServesRepeatReads checks admission-on-read and the
// hit/miss accounting of a store-attached block cache.
func TestPersistentKVCacheServesRepeatReads(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func(PersistentOptions) *PersistentKV) {
		cache := NewBlockCache(1 << 20)
		p := open(PersistentOptions{Cache: cache})
		ops := make([]Op, 0, 100)
		for i := 0; i < 100; i++ {
			ops = append(ops, Op{Key: []byte(fmt.Sprintf("key-%05d", i)), Value: []byte(fmt.Sprintf("val-%d", i))})
		}
		if err := p.Apply(ops); err != nil {
			t.Fatal(err)
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < 100; i++ {
				v, err := p.Get([]byte(fmt.Sprintf("key-%05d", i)))
				if err != nil || string(v) != fmt.Sprintf("val-%d", i) {
					t.Fatalf("pass %d key %d: %q %v", pass, i, v, err)
				}
			}
		}
		st := p.Stats()
		if st.CacheMisses == 0 || st.CacheHits == 0 {
			t.Fatalf("cache counters: hits=%d misses=%d, want both nonzero", st.CacheHits, st.CacheMisses)
		}
		// The second pass must have been served from RAM: every segment was
		// admitted during the first.
		if st.CacheHits < 100 {
			t.Fatalf("CacheHits = %d, the warm pass alone should contribute 100", st.CacheHits)
		}
		if cache.Bytes() == 0 {
			t.Fatal("no segments resident after reads")
		}
	})
}

// TestPersistentKVCacheInvalidatedAfterCompact checks the invalidation
// protocol: installing a compacted generation drops the replaced runs'
// segments (reclaiming RAM), and reads against the new generation are
// re-admitted and correct.
func TestPersistentKVCacheInvalidatedAfterCompact(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func(PersistentOptions) *PersistentKV) {
		cache := NewBlockCache(1 << 20)
		p := open(PersistentOptions{Cache: cache, MaxRuns: -1})
		for g := 0; g < 3; g++ { // three runs so compaction has work
			ops := make([]Op, 0, 50)
			for i := 0; i < 50; i++ {
				ops = append(ops, Op{Key: []byte(fmt.Sprintf("key-%03d-%d", i, g)), Value: []byte(fmt.Sprintf("val-%d-%d", i, g))})
			}
			if err := p.Apply(ops); err != nil {
				t.Fatal(err)
			}
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ {
			if _, err := p.Get([]byte(fmt.Sprintf("key-%03d-1", i))); err != nil {
				t.Fatal(err)
			}
		}
		if cache.Bytes() == 0 {
			t.Fatal("no segments resident before compaction")
		}
		if err := p.Compact(); err != nil {
			t.Fatal(err)
		}
		if got := cache.Bytes(); got != 0 {
			t.Fatalf("%d bytes of replaced-run segments still resident after install", got)
		}
		for g := 0; g < 3; g++ {
			for i := 0; i < 50; i++ {
				v, err := p.Get([]byte(fmt.Sprintf("key-%03d-%d", i, g)))
				if err != nil || string(v) != fmt.Sprintf("val-%d-%d", i, g) {
					t.Fatalf("after compact key %d-%d: %q %v", i, g, v, err)
				}
			}
		}
	})
}

// TestPersistentKVGetCompletesDuringCompactionInstall is the deterministic
// reader-vs-install test: a reader snapshots the run stack and pins the
// generation through the runs handle, a full compaction then installs a new
// generation and removes the old one (unlinking its file in the file store)
// — and the pinned reader still finishes its lookup against it.
func TestPersistentKVGetCompletesDuringCompactionInstall(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func(PersistentOptions) *PersistentKV) {
		p := open(PersistentOptions{MaxRuns: -1})
		for g := 0; g < 2; g++ {
			if err := p.Apply([]Op{{Key: []byte(fmt.Sprintf("key-%d", g)), Value: []byte(fmt.Sprintf("val-%d", g))}}); err != nil {
				t.Fatal(err)
			}
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		// Snapshot exactly as Get does, without releasing yet: this models a
		// reader paused between dropping p.mu and issuing its device read.
		p.mu.RLock()
		runs := p.runs
		h := p.runsH
		h.acquire()
		oldGen := p.gen
		p.mu.RUnlock()

		if err := p.Compact(); err != nil {
			t.Fatal(err)
		}
		p.mu.RLock()
		installed := p.gen > oldGen && p.runsH != h
		p.mu.RUnlock()
		if !installed {
			t.Fatal("compaction did not install a new generation")
		}
		if files, ok := p.gens.(fileGenerations); ok {
			if _, err := os.Stat(files.path(oldGen, runsSuffix)); !os.IsNotExist(err) {
				t.Fatalf("old generation file not unlinked: %v", err)
			}
		}
		// The paused reader resumes: its lookup against the unlinked generation
		// must still succeed, served by the pinned file handle.
		found := false
		for i := len(runs) - 1; i >= 0 && !found; i-- {
			e, ok, err := runs[i].get(h.dev, nil, []byte("key-1"), bloomHash([]byte("key-1")), nil)
			if err != nil {
				t.Fatalf("read through pinned handle: %v", err)
			}
			if ok {
				if string(e.value) != "val-1" {
					t.Fatalf("pinned read = %q", e.value)
				}
				found = true
			}
		}
		if !found {
			t.Fatal("key missing from the pinned snapshot")
		}
		if err := h.release(); err != nil {
			t.Fatalf("releasing the last reference (closing the unlinked file): %v", err)
		}
	})
}

// TestPersistentKVConcurrentGetsAndCompactions stress-tests the lock-free
// read path: readers sweep every key while compactions install generation
// after generation and a writer keeps flushing fresh runs under them. Run
// with -race this covers the snapshot/acquire/release protocol end to end.
func TestPersistentKVConcurrentGetsAndCompactions(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func(PersistentOptions) *PersistentKV) {
		cache := NewBlockCache(256 << 10)
		p := open(PersistentOptions{Cache: cache, MaxRuns: -1})
		const keys = 120
		ops := make([]Op, 0, keys)
		for i := 0; i < keys; i++ {
			ops = append(ops, Op{Key: []byte(fmt.Sprintf("key-%04d", i)), Value: []byte(fmt.Sprintf("val-%d", i))})
		}
		if err := p.Apply(ops); err != nil {
			t.Fatal(err)
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		errs := make(chan error, 8)
		done := make(chan struct{})
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					for i := 0; i < keys; i++ {
						v, err := p.Get([]byte(fmt.Sprintf("key-%04d", i)))
						if err != nil || string(v) != fmt.Sprintf("val-%d", i) {
							errs <- fmt.Errorf("key %d = %q: %v", i, v, err)
							return
						}
					}
				}
			}()
		}
		for cycle := 0; cycle < 5; cycle++ {
			// A fresh overwrite run gives each compaction real work and exercises
			// the fold-in of runs flushed behind the snapshot.
			if err := p.Apply([]Op{{Key: []byte("key-0000"), Value: []byte("val-0")}}); err != nil {
				t.Fatal(err)
			}
			if err := p.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := p.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		close(done)
		wg.Wait()
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
	})
}
