package storage

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
)

// Options configure a KV engine instance.
type Options struct {
	// MemtableBytes bounds the RAM-resident write buffer. When the memtable
	// exceeds this size it is flushed to a new run on the device. This is the
	// knob that adapts the engine to the hardware profile's RAM budget.
	MemtableBytes int
	// MaxRuns is the number of on-device runs tolerated before a compaction
	// is triggered automatically. Zero disables automatic compaction.
	MaxRuns int
}

// DefaultOptions are sized for a secure-MCU class device.
func DefaultOptions() Options {
	return Options{MemtableBytes: 256 << 10, MaxRuns: 8}
}

// Stats exposes engine counters for the experiments.
type Stats struct {
	Puts        int64
	Gets        int64
	Deletes     int64
	Flushes     int64
	Compactions int64
	// BloomSkips counts run lookups answered "definitely absent" by the
	// per-run bloom filter — each one is a device read that never happened.
	BloomSkips int64
	// CacheHits / CacheMisses count block-cache lookups on the read path
	// (only engines configured with a cache record them).
	CacheHits   int64
	CacheMisses int64
	// RunReads counts device reads issued by point lookups: the residue the
	// bloom filters and the block cache failed to absorb. RunReadBytes is
	// what those reads moved: one block each, so RunReadBytes/RunReads is
	// the read amplification of a point lookup in bytes.
	RunReads     int64
	RunReadBytes int64
	Runs         int
	MemtableLen  int
	MemtableB    int
}

// KV is the embedded key/value engine. All methods are safe for concurrent
// use.
type KV struct {
	mu     sync.RWMutex
	dev    Device
	opts   Options
	mem    *memtable
	runs   []*run // oldest first; newer runs shadow older ones
	closed bool
	stats  kvCounters
}

// kvCounters backs Stats with atomics: Get counts itself under the engine's
// read lock, so many readers may increment concurrently.
type kvCounters struct {
	puts, gets, deletes    atomic.Int64
	flushes, compactions   atomic.Int64
	bloomSkips             atomic.Int64
	cacheHits, cacheMisses atomic.Int64
	runReads, runReadBytes atomic.Int64
}

// NewKV creates an engine over dev with the given options.
func NewKV(dev Device, opts Options) *KV {
	if opts.MemtableBytes <= 0 {
		opts.MemtableBytes = DefaultOptions().MemtableBytes
	}
	return &KV{dev: dev, opts: opts, mem: newMemtable()}
}

// Put stores value under key.
func (kv *KV) Put(key, value []byte) error {
	if len(key) == 0 {
		return fmt.Errorf("storage: empty key")
	}
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.closed {
		return ErrClosed
	}
	kv.stats.puts.Add(1)
	kv.mem.put(key, value, false)
	return kv.maybeFlushLocked()
}

// Delete removes key. Deleting a missing key is not an error.
func (kv *KV) Delete(key []byte) error {
	if len(key) == 0 {
		return fmt.Errorf("storage: empty key")
	}
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.closed {
		return ErrClosed
	}
	kv.stats.deletes.Add(1)
	kv.mem.put(key, nil, true)
	return kv.maybeFlushLocked()
}

// Get returns the value stored under key, or ErrNotFound.
func (kv *KV) Get(key []byte) ([]byte, error) {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	if kv.closed {
		return nil, ErrClosed
	}
	kv.stats.gets.Add(1)
	if e, ok := kv.mem.get(key); ok {
		if e.tombstone {
			return nil, ErrNotFound
		}
		return append([]byte(nil), e.value...), nil
	}
	// Newest run first: later runs shadow earlier ones.
	h := bloomHash(key)
	for i := len(kv.runs) - 1; i >= 0; i-- {
		e, ok, err := kv.runs[i].get(kv.dev, nil, key, h, &kv.stats)
		if err != nil {
			return nil, err
		}
		if ok {
			if e.tombstone {
				return nil, ErrNotFound
			}
			// Copy on return: the entry's value may alias a shared buffer.
			return append([]byte(nil), e.value...), nil
		}
	}
	return nil, ErrNotFound
}

// Has reports whether key currently has a live value.
func (kv *KV) Has(key []byte) (bool, error) {
	_, err := kv.Get(key)
	if err == ErrNotFound {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// Scan calls fn for every live key/value pair with key in [start, end) in
// ascending key order. A nil end scans to the last key. fn returning false
// stops the scan.
func (kv *KV) Scan(start, end []byte, fn func(key, value []byte) bool) error {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	if kv.closed {
		return ErrClosed
	}
	merged, err := kv.mergedEntriesLocked(start, end)
	if err != nil {
		return err
	}
	for _, e := range merged {
		if e.tombstone {
			continue
		}
		if !fn(e.key, e.value) {
			return nil
		}
	}
	return nil
}

// Count returns the number of live keys (scans the whole store).
func (kv *KV) Count() (int, error) {
	n := 0
	err := kv.Scan(nil, nil, func(_, _ []byte) bool { n++; return true })
	return n, err
}

// Flush forces the memtable to be written as a run on the device.
func (kv *KV) Flush() error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.closed {
		return ErrClosed
	}
	return kv.flushLocked()
}

// Compact merges all runs (and the memtable) into a single run, dropping
// tombstones and shadowed versions. It bounds read amplification and reclaims
// space logically (old runs are simply forgotten; a real flash device would
// erase their blocks).
func (kv *KV) Compact() error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.closed {
		return ErrClosed
	}
	return kv.compactLocked()
}

// Stats returns a snapshot of engine counters.
func (kv *KV) Stats() Stats {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return Stats{
		Puts:         kv.stats.puts.Load(),
		Gets:         kv.stats.gets.Load(),
		Deletes:      kv.stats.deletes.Load(),
		Flushes:      kv.stats.flushes.Load(),
		Compactions:  kv.stats.compactions.Load(),
		BloomSkips:   kv.stats.bloomSkips.Load(),
		CacheHits:    kv.stats.cacheHits.Load(),
		CacheMisses:  kv.stats.cacheMisses.Load(),
		RunReads:     kv.stats.runReads.Load(),
		RunReadBytes: kv.stats.runReadBytes.Load(),
		Runs:         len(kv.runs),
		MemtableLen:  kv.mem.count(),
		MemtableB:    kv.mem.size(),
	}
}

// Close flushes and closes the engine.
func (kv *KV) Close() error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.closed {
		return nil
	}
	if kv.mem.count() > 0 {
		if err := kv.flushLocked(); err != nil {
			return err
		}
	}
	kv.closed = true
	return kv.dev.Sync()
}

// VerifyRuns re-reads every run and checks its checksum; used by the
// integrity experiments when the device is an untrusted cache.
func (kv *KV) VerifyRuns() error {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	for i, r := range kv.runs {
		if err := r.verify(kv.dev); err != nil {
			return fmt.Errorf("storage: run %d: %w", i, err)
		}
	}
	return nil
}

func (kv *KV) maybeFlushLocked() error {
	if kv.mem.size() < kv.opts.MemtableBytes {
		return nil
	}
	if err := kv.flushLocked(); err != nil {
		return err
	}
	if kv.opts.MaxRuns > 0 && len(kv.runs) > kv.opts.MaxRuns {
		return kv.compactLocked()
	}
	return nil
}

func (kv *KV) flushLocked() error {
	if kv.mem.count() == 0 {
		return nil
	}
	r, err := writeRun(kv.dev, kv.mem.all(), 0)
	if err != nil {
		return err
	}
	kv.runs = append(kv.runs, r)
	kv.mem = newMemtable()
	kv.stats.flushes.Add(1)
	return nil
}

func (kv *KV) compactLocked() error {
	merged, err := kv.mergedEntriesLocked(nil, nil)
	if err != nil {
		return err
	}
	live := merged[:0]
	for _, e := range merged {
		if !e.tombstone {
			live = append(live, e)
		}
	}
	kv.stats.compactions.Add(1)
	if len(live) == 0 {
		kv.runs = nil
		kv.mem = newMemtable()
		return nil
	}
	r, err := writeRun(kv.dev, live, 0)
	if err != nil {
		return err
	}
	kv.runs = []*run{r}
	kv.mem = newMemtable()
	return nil
}

// mergedEntriesLocked merges the memtable and all runs into a single sorted
// slice where newer versions shadow older ones. Tombstones are retained so
// callers can decide whether to drop them.
func (kv *KV) mergedEntriesLocked(start, end []byte) ([]memEntry, error) {
	return mergeEntries(kv.dev, kv.runs, kv.mem.snapshot(start, end), start, end)
}

// mergeEntries merges a run stack (oldest first) and a slice of memtable
// entries (already restricted to [start, end)) into a single sorted slice
// where newer versions shadow older ones. Tombstones are retained so callers
// can decide whether to drop them. It is shared by the volatile KV and the
// crash-safe PersistentKV; the latter passes a memtable snapshot so the merge
// can run outside the engine lock.
//
// Every source is already sorted and holds each key once, so the merge walks
// them side by side: at each step the smallest head key is emitted from the
// newest source holding it and every source at that key advances.
func mergeEntries(dev Device, runs []*run, mem []memEntry, start, end []byte) ([]memEntry, error) {
	sources := make([][]memEntry, 0, len(runs)+1)
	total := len(mem)
	for _, r := range runs {
		var entries []memEntry
		if start == nil && end == nil {
			entries = make([]memEntry, 0, r.count)
		}
		if err := r.scan(dev, start, end, func(e memEntry) bool {
			entries = append(entries, e)
			return true
		}); err != nil {
			return nil, err
		}
		sources = append(sources, entries)
		total += len(entries)
	}
	sources = append(sources, mem)
	out := make([]memEntry, 0, total)
	for {
		newest := -1
		for i, s := range sources {
			if len(s) > 0 && (newest < 0 || bytes.Compare(s[0].key, sources[newest][0].key) <= 0) {
				newest = i
			}
		}
		if newest < 0 {
			return out, nil
		}
		e := sources[newest][0]
		out = append(out, e)
		for i, s := range sources {
			if len(s) > 0 && bytes.Equal(s[0].key, e.key) {
				sources[i] = s[1:]
			}
		}
	}
}
