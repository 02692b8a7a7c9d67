package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"trustedcells/internal/tamper"
)

func testOpts() PersistentOptions {
	return PersistentOptions{MemtableBytes: 1 << 20, MaxRuns: 4}
}

func mustOpen(t *testing.T, dir string, opts PersistentOptions) *PersistentKV {
	t.Helper()
	p, err := OpenPersistentKV(dir, opts)
	if err != nil {
		t.Fatalf("OpenPersistentKV: %v", err)
	}
	return p
}

// backends are the engine's two generation stores. Every test that needs
// neither a crash nor a reopen runs over both, through forEachBackend.
var backends = []struct {
	name string
	open func(t *testing.T, opts PersistentOptions) *PersistentKV
}{
	{"file", func(t *testing.T, opts PersistentOptions) *PersistentKV { return mustOpen(t, t.TempDir(), opts) }},
	{"memory", func(t *testing.T, opts PersistentOptions) *PersistentKV {
		return NewMemoryKV(func() Device { return NewMemDevice(0) }, opts)
	}},
}

// forEachBackend runs test as one subtest per backend; open creates a store
// that is closed when the subtest ends.
func forEachBackend(t *testing.T, test func(t *testing.T, open func(PersistentOptions) *PersistentKV)) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			test(t, func(opts PersistentOptions) *PersistentKV {
				p := b.open(t, opts)
				t.Cleanup(func() { p.Close() })
				return p
			})
		})
	}
}

func put(t *testing.T, p *PersistentKV, key, value string) {
	t.Helper()
	if err := p.Apply([]Op{{Key: []byte(key), Value: []byte(value)}}); err != nil {
		t.Fatalf("Apply(%s): %v", key, err)
	}
}

func del(t *testing.T, p *PersistentKV, key string) {
	t.Helper()
	if err := p.Apply([]Op{{Key: []byte(key), Delete: true}}); err != nil {
		t.Fatalf("Apply(delete %s): %v", key, err)
	}
}

func flush(t *testing.T, p *PersistentKV) {
	t.Helper()
	if err := p.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

// collect returns the full live state as a map.
func collect(t *testing.T, p *PersistentKV) map[string]string {
	t.Helper()
	state := make(map[string]string)
	if err := p.Scan(nil, nil, func(k, v []byte) bool {
		state[string(k)] = string(v)
		return true
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return state
}

func TestPersistentKVRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	p := mustOpen(t, dir, testOpts())
	put(t, p, "a", "1")
	put(t, p, "b", "2")
	if err := p.Apply([]Op{{Key: []byte("c"), Value: []byte("3")}, {Key: []byte("a"), Delete: true}}); err != nil {
		t.Fatalf("batch: %v", err)
	}
	if _, err := p.Get([]byte("a")); err != ErrNotFound {
		t.Fatalf("deleted key: %v", err)
	}
	v, err := p.Get([]byte("b"))
	if err != nil || string(v) != "2" {
		t.Fatalf("Get(b) = %q, %v", v, err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := p.Get([]byte("b")); err != ErrClosed {
		t.Fatalf("Get after close: %v", err)
	}
	// Every store since the footered run format left an empty wal.dat behind;
	// reopening one removes it.
	walPath := filepath.Join(dir, legacyWALFile)
	if err := os.WriteFile(walPath, nil, 0o600); err != nil {
		t.Fatal(err)
	}

	p2 := mustOpen(t, dir, testOpts())
	defer p2.Close()
	want := map[string]string{"b": "2", "c": "3"}
	if got := collect(t, p2); len(got) != len(want) || got["b"] != "2" || got["c"] != "3" {
		t.Fatalf("reopened state = %v, want %v", got, want)
	}
	if rec := p2.Recovery(); rec.RecoveredRuns != 1 {
		t.Fatalf("recovery after graceful close: %+v", rec)
	}
	if _, err := os.Stat(walPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("empty wal.dat not removed: %v", err)
	}
}

// TestPersistentKVDisableWAL pins the engine's durability contract now that
// running without a write-ahead log is its only mode: a flushed write
// survives a crash, an unflushed one does not (the embedding store's log owns
// it), and the engine writes no log file of its own.
func TestPersistentKVDisableWAL(t *testing.T) {
	dir := t.TempDir()
	p := mustOpen(t, dir, testOpts())
	put(t, p, "flushed", "yes")
	if err := p.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	put(t, p, "unflushed", "gone")
	if names, err := filepath.Glob(filepath.Join(dir, "*")); err != nil || len(names) != 1 ||
		filepath.Base(names[0]) != "runs-000000.dat" {
		t.Fatalf("files in the store directory = %v (%v), want the runs file alone", names, err)
	}
	p.Crash()

	p2 := mustOpen(t, dir, testOpts())
	defer p2.Close()
	if rec := p2.Recovery(); rec.RecoveredRuns != 1 || rec.DiscardedRunBytes != 0 {
		t.Fatalf("recovery: %+v", rec)
	}
	if v, err := p2.Get([]byte("flushed")); err != nil || string(v) != "yes" {
		t.Fatalf("Get after flush+crash: %q, %v", v, err)
	}
	if _, err := p2.Get([]byte("unflushed")); err != ErrNotFound {
		t.Fatalf("unflushed key survived a crash: %v", err)
	}
}

// TestPersistentKVFlushResetsWAL checks that Flush leaves nothing for a log
// to replay: the memtable is empty, and a crash right after recovers every
// flushed value from the run alone.
func TestPersistentKVFlushResetsWAL(t *testing.T) {
	dir := t.TempDir()
	p := mustOpen(t, dir, testOpts())
	put(t, p, "k", "v")
	if err := p.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if st := p.Stats(); st.Flushes != 1 || st.Runs != 1 || st.MemtableLen != 0 {
		t.Fatalf("stats after flush: %+v", st)
	}
	p.Crash()

	p2 := mustOpen(t, dir, testOpts())
	defer p2.Close()
	if rec := p2.Recovery(); rec.RecoveredRuns != 1 {
		t.Fatalf("recovery: %+v", rec)
	}
	if st := p2.Stats(); st.MemtableLen != 0 {
		t.Fatalf("memtable after flush+crash: %+v", st)
	}
	if v, err := p2.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("Get after flush+crash: %q, %v", v, err)
	}
}

// TestPersistentKVWALReplayAfterCrash plays the embedding store's log back
// into a crashed engine, as cloud.Durable does with its commit journal: the
// replayed batches span writes that a flush already made durable and writes
// the crash lost, and applying them over the recovered runs — once, or twice
// when recovery itself is interrupted — restores every acknowledged write.
func TestPersistentKVWALReplayAfterCrash(t *testing.T) {
	dir := t.TempDir()
	p := mustOpen(t, dir, testOpts())
	var log [][]Op
	ack := func(ops ...Op) {
		t.Helper()
		if err := p.Apply(ops); err != nil {
			t.Fatalf("Apply: %v", err)
		}
		log = append(log, ops)
	}
	for i := 0; i < 20; i++ {
		ack(Op{Key: []byte(fmt.Sprintf("key-%03d", i)), Value: []byte(fmt.Sprintf("val-%03d", i))})
		if i == 9 {
			if err := p.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
		}
	}
	ack(Op{Key: []byte("key-000"), Value: []byte("rewritten")}, Op{Key: []byte("key-001"), Delete: true})
	want := collect(t, p)
	p.Crash()

	for replay := 1; replay <= 2; replay++ {
		p2 := mustOpen(t, dir, testOpts())
		if rec := p2.Recovery(); rec.RecoveredRuns != 1 {
			t.Fatalf("replay %d: recovery: %+v", replay, rec)
		}
		if _, err := p2.Get([]byte("key-019")); err != ErrNotFound {
			t.Fatalf("replay %d: unflushed key present before replay: %v", replay, err)
		}
		for _, ops := range log {
			if err := p2.Apply(ops); err != nil {
				t.Fatalf("replay %d: Apply: %v", replay, err)
			}
		}
		if got := collect(t, p2); !reflect.DeepEqual(got, want) {
			t.Fatalf("replay %d: state = %v, want %v", replay, got, want)
		}
		p2.Crash()
	}
}

func TestPersistentKVTornRunTailTruncated(t *testing.T) {
	dir := t.TempDir()
	p := mustOpen(t, dir, testOpts())
	put(t, p, "flushed", "yes")
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	p.Crash()
	// A crash mid-flush leaves a torn run at the end of the runs device.
	runsPath := filepath.Join(dir, "runs-000000.dat")
	f, err := os.OpenFile(runsPath, os.O_APPEND|os.O_WRONLY, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	p2 := mustOpen(t, dir, testOpts())
	defer p2.Close()
	rec := p2.Recovery()
	if rec.RecoveredRuns != 1 || rec.DiscardedRunBytes != 12 {
		t.Fatalf("recovery: %+v", rec)
	}
	if v, err := p2.Get([]byte("flushed")); err != nil || string(v) != "yes" {
		t.Fatalf("flushed data lost: %q, %v", v, err)
	}
}

func TestPersistentKVBackgroundCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := PersistentOptions{MemtableBytes: 512, MaxRuns: 2}
	p := mustOpen(t, dir, opts)
	val := bytes.Repeat([]byte("x"), 64)
	for i := 0; i < 200; i++ {
		if err := p.Apply([]Op{{Key: []byte(fmt.Sprintf("key-%04d", i)), Value: val}}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := p.Stats()
		if st.Compactions >= 1 && st.Runs <= opts.MaxRuns {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no compaction observed: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%04d", i)
		if v, err := p.Get([]byte(key)); err != nil || !bytes.Equal(v, val) {
			t.Fatalf("%s after compaction: %v", key, err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Exactly one generation file survives, and it reopens cleanly.
	matches, err := filepath.Glob(filepath.Join(dir, "runs-*.dat"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("generation files = %v (%v)", matches, err)
	}
	p2 := mustOpen(t, dir, opts)
	defer p2.Close()
	if n := len(collect(t, p2)); n != 200 {
		t.Fatalf("reopened after compaction: %d keys", n)
	}
}

func TestPersistentKVStaleGenerationRemoved(t *testing.T) {
	dir := t.TempDir()
	p := mustOpen(t, dir, testOpts())
	put(t, p, "current", "gen")
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a compaction interrupted between rename and delete: the old
	// generation is still on disk next to the new one. Rename the real file
	// to generation 1 and plant a stale generation 0.
	if err := os.Rename(filepath.Join(dir, "runs-000000.dat"), filepath.Join(dir, "runs-000001.dat")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "runs-000000.dat"), []byte("stale"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "runs-000002.tmp"), []byte("tmp junk"), 0o600); err != nil {
		t.Fatal(err)
	}

	p2 := mustOpen(t, dir, testOpts())
	defer p2.Close()
	if v, err := p2.Get([]byte("current")); err != nil || string(v) != "gen" {
		t.Fatalf("newest generation not used: %q, %v", v, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "runs-000000.dat")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale generation not removed: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "runs-000002.tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("tmp file not removed: %v", err)
	}
}

// TestPersistentKVRefusesLegacyStore opens directories written before the
// footered run format: each must be refused with ErrLegacyStore and left
// byte-identical — no torn-tail truncation, no debris removal.
func TestPersistentKVRefusesLegacyStore(t *testing.T) {
	cases := []struct {
		name  string
		plant func(t *testing.T, dir string)
	}{
		{
			name: "wal",
			plant: func(t *testing.T, dir string) {
				// A store of the per-engine log era: one flushed run, and
				// writes that only the log held.
				p := mustOpen(t, dir, testOpts())
				put(t, p, "flushed", "yes")
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, legacyWALFile), []byte("unreplayed records"), 0o600); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "footerless-run",
			plant: func(t *testing.T, dir string) {
				// Plain entries — [uvarint klen][uvarint vlen][flags][k][v] —
				// under a header with bit 31 clear and a valid body checksum.
				var body []byte
				for i := 0; i < 20; i++ {
					k, v := fmt.Sprintf("legacy-%04d", i), fmt.Sprintf("old-%d", i)
					body = binary.AppendUvarint(body, uint64(len(k)))
					body = binary.AppendUvarint(body, uint64(len(v)))
					body = append(append(append(body, 0), k...), v...)
				}
				run := make([]byte, 8, 8+len(body))
				binary.BigEndian.PutUint32(run[0:4], crc32.ChecksumIEEE(body))
				binary.BigEndian.PutUint32(run[4:8], uint32(len(body)))
				run = append(run, body...)
				for name, content := range map[string][]byte{
					"runs-000003.dat": run,
					"runs-000002.dat": []byte("stale generation"),
					"runs-000004.tmp": []byte("compaction debris"),
					legacyWALFile:     nil,
				} {
					if err := os.WriteFile(filepath.Join(dir, name), content, 0o600); err != nil {
						t.Fatal(err)
					}
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.plant(t, dir)
			before := readDir(t, dir)
			if p, err := OpenPersistentKV(dir, testOpts()); !errors.Is(err, ErrLegacyStore) {
				if err == nil {
					p.Close()
				}
				t.Fatalf("OpenPersistentKV = %v, want ErrLegacyStore", err)
			}
			if after := readDir(t, dir); !reflect.DeepEqual(before, after) {
				t.Fatalf("refused open changed the directory:\nbefore %q\nafter  %q", before, after)
			}
		})
	}
}

// readDir returns every file of dir and its content.
func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(raw)
	}
	return files
}

func TestPersistentKVConcurrentApply(t *testing.T) {
	dir := t.TempDir()
	p := mustOpen(t, dir, PersistentOptions{MemtableBytes: 64 << 10, MaxRuns: 4})
	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := []byte(fmt.Sprintf("w%02d-k%03d", w, i))
				if err := p.Apply([]Op{{Key: key, Value: key}}); err != nil {
					t.Errorf("apply: %v", err)
					return
				}
				if v, err := p.Get(key); err != nil || !bytes.Equal(v, key) {
					t.Errorf("read own write %s: %v", key, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2 := mustOpen(t, dir, testOpts())
	defer p2.Close()
	if n := len(collect(t, p2)); n != workers*perWorker {
		t.Fatalf("recovered %d keys, want %d", n, workers*perWorker)
	}
}

func TestPersistentKVEmptyKeyRejected(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func(PersistentOptions) *PersistentKV) {
		p := open(testOpts())
		if err := p.Apply([]Op{{Key: nil, Value: []byte("x")}}); err == nil {
			t.Fatal("empty key accepted")
		}
		if err := p.Apply(nil); err != nil {
			t.Fatalf("empty batch should be a no-op: %v", err)
		}
	})
}

// smallOpts is the configuration of the ported single-engine tests: a 4 KiB
// memtable, so a few hundred keys span several runs.
func smallOpts() PersistentOptions {
	return PersistentOptions{MemtableBytes: 4 << 10, MaxRuns: 4}
}

func TestKVPutGet(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func(PersistentOptions) *PersistentKV) {
		p := open(smallOpts())
		put(t, p, "alice/doc1", "payload-1")
		got, err := p.Get([]byte("alice/doc1"))
		if err != nil || string(got) != "payload-1" {
			t.Fatalf("Get = %q, %v", got, err)
		}
		if _, err := p.Get([]byte("missing")); err != ErrNotFound {
			t.Fatalf("expected ErrNotFound, got %v", err)
		}
	})
}

func TestKVOverwrite(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func(PersistentOptions) *PersistentKV) {
		p := open(smallOpts())
		put(t, p, "k", "v1")
		put(t, p, "k", "v2")
		if got, err := p.Get([]byte("k")); err != nil || string(got) != "v2" {
			t.Fatalf("Get after overwrite = %q, %v", got, err)
		}
		// Overwrite across a flush boundary.
		flush(t, p)
		put(t, p, "k", "v3")
		if got, _ := p.Get([]byte("k")); string(got) != "v3" {
			t.Fatalf("Get after flush+overwrite = %q", got)
		}
	})
}

func TestKVDelete(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func(PersistentOptions) *PersistentKV) {
		p := open(smallOpts())
		put(t, p, "k", "v")
		del(t, p, "k")
		if _, err := p.Get([]byte("k")); err != ErrNotFound {
			t.Fatalf("deleted key still readable: %v", err)
		}
		// A delete survives a flush: the tombstone shadows an older run.
		put(t, p, "persistent", "v")
		flush(t, p)
		del(t, p, "persistent")
		flush(t, p)
		if _, err := p.Get([]byte("persistent")); err != ErrNotFound {
			t.Fatalf("tombstone not honoured after flush: %v", err)
		}
		// Deleting a missing key is fine.
		del(t, p, "never-existed")
	})
}

func TestKVFlushAndReadBack(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func(PersistentOptions) *PersistentKV) {
		p := open(smallOpts())
		for i := 0; i < 200; i++ {
			put(t, p, fmt.Sprintf("key-%04d", i), fmt.Sprintf("value-%d", i))
		}
		flush(t, p)
		if st := p.Stats(); st.Runs == 0 {
			t.Fatal("expected at least one run after flush")
		}
		for i := 0; i < 200; i++ {
			key := fmt.Sprintf("key-%04d", i)
			if got, err := p.Get([]byte(key)); err != nil || string(got) != fmt.Sprintf("value-%d", i) {
				t.Fatalf("Get %s = %q, %v", key, got, err)
			}
		}
	})
}

func TestKVAutomaticFlushOnBudget(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func(PersistentOptions) *PersistentKV) {
		p := open(PersistentOptions{MemtableBytes: 1 << 10, MaxRuns: 100})
		big := string(bytes.Repeat([]byte("x"), 300))
		for i := 0; i < 20; i++ {
			put(t, p, fmt.Sprintf("k%02d", i), big)
		}
		st := p.Stats()
		if st.Flushes == 0 {
			t.Fatal("memtable never flushed despite exceeding its budget")
		}
		if st.MemtableB > 2<<10 {
			t.Fatalf("memtable footprint %d exceeds budget substantially", st.MemtableB)
		}
	})
}

// TestKVAutomaticCompaction waits for the background compactions the flushes
// scheduled, then checks they bounded the run count and lost nothing.
func TestKVAutomaticCompaction(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func(PersistentOptions) *PersistentKV) {
		opts := PersistentOptions{MemtableBytes: 512, MaxRuns: 2}
		p := open(opts)
		big := string(bytes.Repeat([]byte("y"), 200))
		for i := 0; i < 40; i++ {
			put(t, p, fmt.Sprintf("k%03d", i), big)
		}
		p.wg.Wait()
		st := p.Stats()
		if st.Compactions == 0 {
			t.Fatal("no compaction although MaxRuns=2")
		}
		if st.Runs > opts.MaxRuns {
			t.Fatalf("too many runs after compaction: %d", st.Runs)
		}
		for i := 0; i < 40; i++ {
			if _, err := p.Get([]byte(fmt.Sprintf("k%03d", i))); err != nil {
				t.Fatalf("key %d lost after compaction: %v", i, err)
			}
		}
	})
}

func TestKVScanRange(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func(PersistentOptions) *PersistentKV) {
		p := open(smallOpts())
		for _, k := range []string{"a", "b", "c", "d", "e", "f"} {
			put(t, p, k, "v-"+k)
		}
		flush(t, p)
		put(t, p, "b", "v-b2") // newer version in the memtable
		del(t, p, "d")

		var got []string
		if err := p.Scan([]byte("b"), []byte("f"), func(k, v []byte) bool {
			got = append(got, string(k)+"="+string(v))
			return true
		}); err != nil {
			t.Fatalf("Scan: %v", err)
		}
		if want := []string{"b=v-b2", "c=v-c", "e=v-e"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("scan returned %v, want %v", got, want)
		}
		if n := len(collect(t, p)); n != 5 { // six keys minus one deleted
			t.Fatalf("full scan found %d keys, want 5", n)
		}
		visits := 0
		_ = p.Scan(nil, nil, func(_, _ []byte) bool { visits++; return false })
		if visits != 1 {
			t.Fatalf("early-stop scan visited %d", visits)
		}
	})
}

func TestKVCompactDropsTombstones(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func(PersistentOptions) *PersistentKV) {
		p := open(smallOpts())
		for i := 0; i < 50; i++ {
			put(t, p, fmt.Sprintf("k%02d", i), "v")
		}
		flush(t, p)
		for i := 0; i < 50; i += 2 {
			del(t, p, fmt.Sprintf("k%02d", i))
		}
		flush(t, p)
		if err := p.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
		if n := len(collect(t, p)); n != 25 {
			t.Fatalf("%d keys after compact, want 25", n)
		}
		if st := p.Stats(); st.Runs != 1 || p.runs[0].count != 25 {
			t.Fatalf("after compact: %d runs, first holds %d entries; want 1 run of 25", st.Runs, p.runs[0].count)
		}
	})
}

func TestKVCompactEverythingDeleted(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func(PersistentOptions) *PersistentKV) {
		p := open(smallOpts())
		put(t, p, "only", "v")
		flush(t, p)
		del(t, p, "only")
		flush(t, p)
		if err := p.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
		if n := len(collect(t, p)); n != 0 {
			t.Fatalf("%d keys, want 0", n)
		}
		if runs := p.Stats().Runs; runs != 0 {
			t.Fatalf("runs = %d, want 0", runs)
		}
	})
}

func TestKVClose(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func(PersistentOptions) *PersistentKV) {
		p := open(smallOpts())
		put(t, p, "k", "v")
		if err := p.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := p.Apply([]Op{{Key: []byte("k2"), Value: []byte("v")}}); err != ErrClosed {
			t.Fatalf("Apply after close: %v", err)
		}
		if _, err := p.Get([]byte("k")); err != ErrClosed {
			t.Fatalf("Get after close: %v", err)
		}
		if err := p.verifyRuns(); err != ErrClosed {
			t.Fatalf("VerifyRuns after close: %v", err)
		}
		if err := p.Close(); err != nil {
			t.Fatalf("double Close: %v", err)
		}
	})
}

func TestKVVerifyRunsDetectsTampering(t *testing.T) {
	dev := NewMemDevice(0)
	p := NewMemoryKV(func() Device { return dev }, PersistentOptions{MemtableBytes: 1 << 20})
	defer p.Close()
	for i := 0; i < 100; i++ {
		put(t, p, fmt.Sprintf("key-%03d", i), string(bytes.Repeat([]byte("v"), 50)))
	}
	flush(t, p)
	if err := p.verifyRuns(); err != nil {
		t.Fatalf("VerifyRuns on clean store: %v", err)
	}
	// Corrupt a byte in the middle of the device (inside the run body).
	if _, err := dev.WriteAt([]byte{0xAA}, dev.Size()/2); err != nil {
		t.Fatal(err)
	}
	if err := p.verifyRuns(); err == nil {
		t.Fatal("tampered run not detected")
	}
}

// TestKVMeteredWorkload charges the memory store's page traffic to a cost
// meter, as the cell cache does with its TEE's meter.
func TestKVMeteredWorkload(t *testing.T) {
	var meter tamper.CostMeter
	p := NewMemoryKV(func() Device { return NewMeteredDevice(NewMemDevice(0), &meter) },
		PersistentOptions{MemtableBytes: 2 << 10, MaxRuns: 4})
	defer p.Close()
	for i := 0; i < 500; i++ {
		put(t, p, fmt.Sprintf("sensor/%06d", i), "reading=1234")
	}
	_, _, writes := meter.Snapshot()
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
	forEachBackend(t, func(t *testing.T, open func(PersistentOptions) *PersistentKV) {
		rng := rand.New(rand.NewSource(42))
		p := open(PersistentOptions{MemtableBytes: 1 << 10, MaxRuns: 3})
		oracle := make(map[string]string)
		for i := 0; i < 3000; i++ {
			k := fmt.Sprintf("key-%03d", rng.Intn(300))
			switch rng.Intn(10) {
			case 0:
				del(t, p, k)
				delete(oracle, k)
			case 1:
				flush(t, p)
			case 2:
				if rng.Intn(5) == 0 {
					if err := p.Compact(); err != nil {
						t.Fatal(err)
					}
				}
			default:
				v := fmt.Sprintf("val-%d", i)
				put(t, p, k, v)
				oracle[k] = v
			}
		}
		for k, v := range oracle {
			if got, err := p.Get([]byte(k)); err != nil || string(got) != v {
				t.Fatalf("key %s = %q, %v; want %q", k, got, err, v)
			}
		}
		if got := collect(t, p); !reflect.DeepEqual(got, oracle) {
			t.Fatalf("scan holds %d keys, oracle %d", len(got), len(oracle))
		}
	})
}

// Property: what you put is what you get, for arbitrary binary keys/values.
func TestKVPutGetProperty(t *testing.T) {
	forEachBackend(t, func(t *testing.T, open func(PersistentOptions) *PersistentKV) {
		p := open(smallOpts())
		f := func(key, value []byte) bool {
			if len(key) == 0 {
				return true
			}
			if err := p.Apply([]Op{{Key: key, Value: value}}); err != nil {
				return false
			}
			got, err := p.Get(key)
			return err == nil && bytes.Equal(got, value)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPersistentKVMemoryReclaimsReplacedGenerations churns a fixed key set
// through the memory store: every compaction moves the live data into a new
// device and drops the old one, so the current generation stays near the
// live bytes however many overwrites went before.
func TestPersistentKVMemoryReclaimsReplacedGenerations(t *testing.T) {
	p := NewMemoryKV(func() Device { return NewMemDevice(0) }, PersistentOptions{MemtableBytes: 4 << 10, MaxRuns: 2})
	defer p.Close()
	live := 0
	for round := 0; round < 50; round++ {
		live = 0
		for k := 0; k < 200; k++ {
			key, value := fmt.Sprintf("key-%03d", k), fmt.Sprintf("value-of-round-%02d", round)
			put(t, p, key, value)
			live += len(key) + len(value)
		}
	}
	flush(t, p)
	p.wg.Wait()
	if err := p.Compact(); err != nil {
		t.Fatal(err)
	}
	p.wg.Wait()
	if st := p.Stats(); st.Compactions < 2 {
		t.Fatalf("%d compactions during the churn", st.Compactions)
	}
	p.mu.RLock()
	size := p.runsH.dev.Size()
	p.mu.RUnlock()
	if size > 2*int64(live) {
		t.Fatalf("current generation holds %d bytes for %d live bytes", size, live)
	}
}

func benchmarkStore() *PersistentKV {
	return NewMemoryKV(func() Device { return NewMemDevice(0) }, PersistentOptions{MemtableBytes: 1 << 20, MaxRuns: 8})
}

func BenchmarkKVPut(b *testing.B) {
	p := benchmarkStore()
	defer p.Close()
	value := bytes.Repeat([]byte("v"), 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Apply([]Op{{Key: []byte(fmt.Sprintf("key-%09d", i)), Value: value}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKVGet(b *testing.B) {
	p := benchmarkStore()
	defer p.Close()
	value := bytes.Repeat([]byte("v"), 100)
	const n = 10000
	for i := 0; i < n; i++ {
		_ = p.Apply([]Op{{Key: []byte(fmt.Sprintf("key-%09d", i)), Value: value}})
	}
	_ = p.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Get([]byte(fmt.Sprintf("key-%09d", i%n))); err != nil {
			b.Fatal(err)
		}
	}
}
