package storage

// This file implements the package's one LSM engine, PersistentKV. Flushes
// append runs to the current generation, one device; a compaction merges
// them into a new generation and drops the old one. Where a generation's
// bytes live is all that differs between the engine's two stores:
//
//   - files (OpenPersistentKV, behind cloud.Durable): <dir>/runs-<gen>.dat,
//     whose run descriptors are rebuilt on open;
//   - memory (NewMemoryKV, behind the cell's payload cache and E2): a fresh
//     caller-supplied Device per generation, reclaimed by the garbage
//     collector once its last reader lets go. Nothing is recovered — the
//     cache's content can be re-fetched from the provider.
//
// Flush, lookups, scans, background compaction and the block cache are one
// code path over both.
//
// The engine owns no log. Apply inserts a batch into the memtable; the batch
// is durable once a Flush or Close returns (or a flush triggered by the
// memtable outgrowing MemtableBytes): the memtable is written as one run and
// the runs device is fsync'd. Until then a crash loses it — the embedding
// store keeps its own write-ahead log (cloud.Durable's commit journal) and
// replays acknowledged writes into a reopened engine, so a second per-engine
// log would only write every value twice.
//
// Recovery: Open picks the newest complete generation file, rebuilds the run
// descriptors from the run footers and truncates a torn tail left by a
// mid-flush crash. A directory written before the footered run format — a
// non-empty wal.dat of the old per-engine log, or a footer-less run — is
// refused with ErrLegacyStore before any file is touched.
//
// Compaction: when the run count exceeds MaxRuns after a flush or a
// compaction, a background goroutine merges every run into a new generation
// (see compact and fileGenerations for the crash-safe install).

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// PersistentOptions configure a PersistentKV. The zero value is usable and
// sized for a secure-MCU class device: a 256 KiB memtable and eight runs.
type PersistentOptions struct {
	// MemtableBytes bounds the RAM-resident write buffer; exceeding it
	// flushes the memtable into a run.
	MemtableBytes int
	// MaxRuns is the run count tolerated before a background compaction is
	// scheduled. Zero falls back to the default; negative disables automatic
	// compaction.
	MaxRuns int
	// BloomBitsPerKey sizes the per-run bloom filters written into run
	// footers. Zero uses the default sizing (~10 bits/key, ~1% false
	// positives); negative disables the filters — the ablation knob for
	// measuring what the negative-lookup fast path is worth.
	BloomBitsPerKey int
	// Cache, when non-nil, serves point lookups from RAM: run segments are
	// admitted on read and dropped when a compaction replaces their run. One
	// cache is typically shared by many engines (the shards of a
	// cloud.Durable store) under a single capacity budget.
	Cache *BlockCache
	// Limiter, when non-nil, bounds how many compactions run at once.
	// Shared across engines so background maintenance of a whole shard fleet
	// cannot saturate the device.
	Limiter *CompactionLimiter
}

// Op is one operation of an atomic batch applied via Apply.
type Op struct {
	Key    []byte
	Value  []byte
	Delete bool
}

// RecoveryInfo reports what Open had to do to restore the store.
type RecoveryInfo struct {
	// RecoveredRuns is the number of run descriptors rebuilt from the runs
	// device; RunBytes their total body size.
	RecoveredRuns int
	RunBytes      int64
	// DiscardedRunBytes is the torn tail truncated from the runs device (a
	// crash mid-flush).
	DiscardedRunBytes int64
	// Elapsed is the wall-clock duration of Open.
	Elapsed time.Duration
}

// Stats exposes engine counters for the experiments.
type Stats struct {
	Puts, Gets, Deletes, Flushes, Compactions int64
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

// kvCounters backs Stats with atomics: lookups count themselves outside the
// engine's write lock, so many readers may increment concurrently.
type kvCounters struct {
	puts, gets, deletes    atomic.Int64
	flushes, compactions   atomic.Int64
	bloomSkips             atomic.Int64
	cacheHits, cacheMisses atomic.Int64
	runReads, runReadBytes atomic.Int64
}

// The runs-file naming scheme of a PersistentKV directory, and the log file
// of the pre-footer engine, which Open checks for and refuses.
const (
	runsPrefix    = "runs-"
	runsSuffix    = ".dat"
	legacyWALFile = "wal.dat"
)

// generations decides where a run generation's bytes live. The engine creates
// generation N+1 for a compaction, installs it once its content is synced,
// and then removes generation N; an abandoned compaction removes the
// generation it created instead.
type generations interface {
	create(gen uint64) (Device, error)
	install(gen uint64) error
	remove(gen uint64)
}

// fileGenerations keeps each generation in <dir>/runs-<gen>.dat. A new one is
// written under a .tmp name and renamed into place, so a crash at any point
// leaves one complete generation on disk.
type fileGenerations struct{ dir string }

func (f fileGenerations) path(gen uint64, suffix string) string {
	return filepath.Join(f.dir, fmt.Sprintf("%s%06d%s", runsPrefix, gen, suffix))
}

func (f fileGenerations) create(gen uint64) (Device, error) {
	return OpenFileDevice(f.path(gen, ".tmp"))
}

func (f fileGenerations) install(gen uint64) error {
	if err := os.Rename(f.path(gen, ".tmp"), f.path(gen, runsSuffix)); err != nil {
		return fmt.Errorf("storage: install compacted runs: %w", err)
	}
	// Make the rename durable before the old generation is unlinked: a crash
	// must never find the directory with the old file gone and the new file
	// not yet persisted.
	syncDir(f.dir)
	return nil
}

func (f fileGenerations) remove(gen uint64) {
	_ = os.Remove(f.path(gen, ".tmp"))
	_ = os.Remove(f.path(gen, runsSuffix))
	syncDir(f.dir)
}

// memoryGenerations makes each generation a fresh device; a replaced one is
// garbage once the runs handle holding it is released.
type memoryGenerations func() Device

func (m memoryGenerations) create(uint64) (Device, error) { return m(), nil }
func (memoryGenerations) install(uint64) error            { return nil }
func (memoryGenerations) remove(uint64)                   {}

// PersistentKV is an LSM key/value store over a generations store: crash-safe
// files rooted at a directory, or volatile memory. All methods are safe for
// concurrent use.
type PersistentKV struct {
	gens generations
	opts PersistentOptions

	mu     sync.RWMutex
	runsH  *runsHandle
	gen    uint64
	mem    *memtable
	runs   []*run // oldest first; newer runs shadow older ones
	closed bool

	compacting bool
	compactErr error
	wg         sync.WaitGroup

	stats    kvCounters
	recovery RecoveryInfo
}

// runsHandle reference-counts the runs device so readers can finish against
// a generation that a concurrent compaction install has already replaced.
// The handle is created with one owner reference; readers acquire under p.mu
// and release when done, the owner reference is dropped when the generation
// is swapped out (or the store closes), and whoever drops the count to zero
// closes the device if it is an io.Closer. Acquire always happens under p.mu
// while the handle is still the current one, so the count can never
// resurrect from zero.
type runsHandle struct {
	dev  Device
	refs atomic.Int64
}

func newRunsHandle(dev Device) *runsHandle {
	h := &runsHandle{dev: dev}
	h.refs.Store(1)
	return h
}

func (h *runsHandle) acquire() { h.refs.Add(1) }

func (h *runsHandle) release() error {
	if h.refs.Add(-1) == 0 {
		return closeDevice(h.dev)
	}
	return nil
}

func closeDevice(dev Device) error {
	if c, ok := dev.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// OpenPersistentKV opens (creating if needed) a persistent store rooted at
// dir and recovers its state: pick the newest complete runs generation,
// rebuild its run descriptors and truncate any torn tail.
func OpenPersistentKV(dir string, opts PersistentOptions) (*PersistentKV, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("storage: open persistent store: %w", err)
	}
	files := fileGenerations{dir}
	p := newPersistentKV(files, opts)
	if err := p.recoverRuns(files); err != nil {
		return nil, err
	}
	// Make the directory entries of freshly created files (and recovery's
	// truncations/removals) durable before the store accepts writes.
	syncDir(dir)
	p.recovery.Elapsed = time.Since(start)
	return p, nil
}

// NewMemoryKV creates an empty store whose generations are devices returned
// by newDevice — typically a MeteredDevice over a MemDevice, so the engine's
// page traffic is charged to a cost meter. Nothing survives the process.
func NewMemoryKV(newDevice func() Device, opts PersistentOptions) *PersistentKV {
	p := newPersistentKV(memoryGenerations(newDevice), opts)
	p.runsH = newRunsHandle(newDevice())
	return p
}

func newPersistentKV(gens generations, opts PersistentOptions) *PersistentKV {
	if opts.MemtableBytes <= 0 {
		opts.MemtableBytes = 256 << 10
	}
	if opts.MaxRuns == 0 {
		opts.MaxRuns = 8
	}
	return &PersistentKV{gens: gens, opts: opts, mem: newMemtable()}
}

// recoverRuns selects the newest complete runs generation, rebuilds its run
// descriptors and truncates any torn tail. Stale generations (the leftovers
// of a compaction interrupted between rename and delete), abandoned .tmp
// files and an empty wal.dat are removed — but only once the legacy checks
// have passed, so a refused open leaves every file as it found it.
func (p *PersistentKV) recoverRuns(files fileGenerations) error {
	walPath := filepath.Join(files.dir, legacyWALFile)
	wal, err := os.Stat(walPath)
	if err == nil && wal.Size() > 0 {
		return fmt.Errorf("storage: %s holds %d bytes of a per-engine log: %w", walPath, wal.Size(), ErrLegacyStore)
	}
	entries, err := os.ReadDir(files.dir)
	if err != nil {
		return fmt.Errorf("storage: scan %s: %w", files.dir, err)
	}
	var gens []uint64
	var debris []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			debris = append(debris, filepath.Join(files.dir, name))
			continue
		}
		if !strings.HasPrefix(name, runsPrefix) || !strings.HasSuffix(name, runsSuffix) {
			continue
		}
		g, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, runsPrefix), runsSuffix), 10, 64)
		if err != nil {
			continue
		}
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	if len(gens) > 0 {
		p.gen = gens[len(gens)-1]
		// Older generations are fully superseded: the newest .dat file is
		// complete by construction (compaction renames it into place only
		// after its content is fsync'd).
		for _, g := range gens[:len(gens)-1] {
			debris = append(debris, files.path(g, runsSuffix))
		}
	}
	path := files.path(p.gen, runsSuffix)
	dev, err := OpenFileDevice(path)
	if err != nil {
		return err
	}
	runs, valid, err := scanRuns(dev)
	if err != nil {
		dev.Close()
		return fmt.Errorf("storage: %s: %w", path, err)
	}
	if valid < dev.Size() {
		p.recovery.DiscardedRunBytes = dev.Size() - valid
		if err := dev.Truncate(valid); err != nil {
			dev.Close()
			return err
		}
	}
	for _, path := range debris {
		_ = os.Remove(path)
	}
	if wal != nil {
		_ = os.Remove(walPath)
	}
	p.runsH = newRunsHandle(dev)
	p.runs = runs
	p.recovery.RecoveredRuns = len(runs)
	for _, r := range runs {
		p.recovery.RunBytes += int64(r.length)
	}
	return nil
}

// Recovery returns what Open had to repair.
func (p *PersistentKV) Recovery() RecoveryInfo {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.recovery
}

// Apply atomically applies a batch of operations to the memtable, flushing
// it into a run once it outgrows MemtableBytes. The batch is durable once a
// later Flush or Close returns; a crash before then loses it, so an
// embedding store that acknowledges writes earlier must log them itself.
func (p *PersistentKV) Apply(ops []Op) error {
	if len(ops) == 0 {
		return nil
	}
	for _, op := range ops {
		if len(op.Key) == 0 {
			return fmt.Errorf("storage: empty key")
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	for _, op := range ops {
		if op.Delete {
			p.stats.deletes.Add(1)
		} else {
			p.stats.puts.Add(1)
		}
		p.mem.put(op.Key, op.Value, op.Delete)
	}
	if p.mem.size() >= p.opts.MemtableBytes {
		return p.flushLocked()
	}
	return nil
}

// Get returns a copy of the value stored under key, or ErrNotFound.
func (p *PersistentKV) Get(key []byte) ([]byte, error) {
	var value []byte
	if err := p.View(key, func(v []byte) { value = append([]byte(nil), v...) }); err != nil {
		return nil, err
	}
	return value, nil
}

// View calls fn with the value stored under key, or returns ErrNotFound
// without calling it. The value is a view of the memtable arena or of a
// block-cache segment shared with other readers: fn must neither modify it
// nor retain it after returning.
//
// Neither device I/O nor fn runs under p.mu: the run stack is snapshotted
// under the read lock (runs are immutable and the slice is only ever swapped
// or appended), the runs device is pinned through its reference count, and
// the lock is released before any run is consulted — so flushes, writers, and
// compaction installs never stall behind a reader's disk access. A memtable
// hit needs no pin: arena bytes are never rewritten.
func (p *PersistentKV) View(key []byte, fn func(value []byte)) error {
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return ErrClosed
	}
	p.stats.gets.Add(1)
	if e, ok := p.mem.get(key); ok {
		p.mu.RUnlock()
		if e.tombstone {
			return ErrNotFound
		}
		fn(e.value)
		return nil
	}
	runs := p.runs
	h := p.runsH
	h.acquire()
	p.mu.RUnlock()
	defer h.release()
	hash := bloomHash(key)
	for i := len(runs) - 1; i >= 0; i-- {
		e, ok, err := runs[i].get(h.dev, p.opts.Cache, key, hash, &p.stats)
		if err != nil {
			return err
		}
		if ok {
			if e.tombstone {
				return ErrNotFound
			}
			fn(e.value)
			return nil
		}
	}
	return ErrNotFound
}

// Scan calls fn for every live key/value pair with key in [start, end) in
// ascending key order (nil end scans to the last key) until fn returns false.
// Like Get, the merge reads the devices outside p.mu against a snapshot of
// the run stack and the memtable.
func (p *PersistentKV) Scan(start, end []byte, fn func(key, value []byte) bool) error {
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return ErrClosed
	}
	runs := p.runs
	mem := p.mem.snapshot(start, end)
	h := p.runsH
	h.acquire()
	p.mu.RUnlock()
	defer h.release()
	merged, err := mergeEntries(h.dev, runs, mem, start, end)
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

// verifyRuns re-reads every run and checks its checksum: the integrity check
// of a store whose device is an untrusted cache.
func (p *PersistentKV) verifyRuns() error {
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return ErrClosed
	}
	runs := p.runs
	h := p.runsH
	h.acquire()
	p.mu.RUnlock()
	defer h.release()
	for i, r := range runs {
		if err := r.verify(h.dev); err != nil {
			return fmt.Errorf("storage: run %d: %w", i, err)
		}
	}
	return nil
}

// Flush writes the memtable as a run and makes it durable.
func (p *PersistentKV) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	return p.flushLocked()
}

// flushLocked writes the memtable as a run and fsyncs the runs device before
// the run joins the stack: once it returns, every write applied so far is
// durable.
func (p *PersistentKV) flushLocked() error {
	if p.mem.count() == 0 {
		return nil
	}
	r, err := writeRun(p.runsH.dev, p.mem.all(), p.opts.BloomBitsPerKey)
	if err != nil {
		return err
	}
	if err := p.runsH.dev.Sync(); err != nil {
		return fmt.Errorf("storage: sync runs: %w", err)
	}
	p.runs = append(p.runs, r)
	p.mem = newMemtable()
	p.stats.flushes.Add(1)
	if p.opts.MaxRuns > 0 && len(p.runs) > p.opts.MaxRuns {
		p.scheduleCompactionLocked()
	}
	return nil
}

// scheduleCompactionLocked starts at most one background compaction.
func (p *PersistentKV) scheduleCompactionLocked() {
	if p.compacting || p.closed {
		return
	}
	p.compacting = true
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		if err := p.compact(); err != nil && err != ErrClosed {
			p.mu.Lock()
			p.compactErr = err
			p.mu.Unlock()
		}
	}()
}

// Compact merges every run into a single run in a new generation,
// dropping tombstones and shadowed versions; see compact for the protocol.
// At most one compaction runs at a time — a call overlapping an in-flight
// (background or direct) compaction is a no-op.
func (p *PersistentKV) Compact() error {
	p.mu.Lock()
	if p.compacting || p.closed {
		closed := p.closed
		p.mu.Unlock()
		if closed {
			return ErrClosed
		}
		return nil
	}
	p.compacting = true
	p.mu.Unlock()
	return p.compact()
}

// compact does the work of a claimed compaction (p.compacting is true and
// owned by this call). The heavy part — reading and merging the run stack,
// writing and fsyncing the new generation — happens outside the engine lock
// against an immutable snapshot of the run list (runs only ever get appended
// by flushes), so reads and writes keep flowing during a compaction. The
// lock is retaken only to fold in any runs flushed meanwhile and swap the
// generation. When a Limiter is configured the compaction first queues for a
// concurrency slot. Crash-safety ordering: the new generation's content is
// synced before it is installed, and installed before the old generation is
// removed, so with files at every instant one complete generation is on
// disk. The memtable is untouched — it holds strictly newer data. Readers
// that snapshotted the old generation keep it alive through the runs
// handle's reference count; the replaced runs' cached segments are
// dropped from the block cache after the install (ids are never reused, so a
// stale segment can never be served for a new run — the drop just reclaims
// the RAM promptly).
func (p *PersistentKV) compact() (err error) {
	defer func() {
		p.mu.Lock()
		p.compacting = false
		// Runs flushed while this compaction ran were carried over verbatim;
		// when they alone exceed the limit, go again instead of waiting for
		// the next flush to notice.
		if err == nil && p.opts.MaxRuns > 0 && len(p.runs) > p.opts.MaxRuns {
			p.scheduleCompactionLocked()
		}
		p.mu.Unlock()
	}()

	release := p.opts.Limiter.acquire()
	defer release()

	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return ErrClosed
	}
	snapshot := append([]*run(nil), p.runs...)
	if len(snapshot) <= 1 {
		p.mu.RUnlock()
		return nil
	}
	h := p.runsH
	h.acquire()
	newGen := p.gen + 1
	p.mu.RUnlock()
	defer h.release()
	dev := h.dev

	merged, err := mergeEntries(dev, snapshot, nil, nil, nil)
	if err != nil {
		return err
	}
	live := merged[:0]
	for _, e := range merged {
		if !e.tombstone {
			live = append(live, e)
		}
	}
	newDev, err := p.gens.create(newGen)
	if err != nil {
		return err
	}
	abort := func(err error) error {
		_ = closeDevice(newDev)
		p.gens.remove(newGen)
		return err
	}
	var newRuns []*run
	if len(live) > 0 {
		r, err := writeRun(newDev, live, p.opts.BloomBitsPerKey)
		if err != nil {
			return abort(err)
		}
		newRuns = []*run{r}
	}
	if err := newDev.Sync(); err != nil {
		return abort(fmt.Errorf("storage: sync compacted runs: %w", err))
	}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return abort(ErrClosed)
	}
	// Flushes may have appended runs behind the snapshot; carry them into
	// the new generation verbatim (they are newer, so they go after the
	// merged run). Usually this suffix is empty and no re-sync is needed.
	suffix := p.runs[len(snapshot):]
	for _, r := range suffix {
		entries, err := r.allEntries(dev)
		if err != nil {
			p.mu.Unlock()
			return abort(err)
		}
		nr, err := writeRun(newDev, entries, p.opts.BloomBitsPerKey)
		if err != nil {
			p.mu.Unlock()
			return abort(err)
		}
		newRuns = append(newRuns, nr)
	}
	if len(suffix) > 0 {
		if err := newDev.Sync(); err != nil {
			p.mu.Unlock()
			return abort(fmt.Errorf("storage: sync compacted runs: %w", err))
		}
	}
	if err := p.gens.install(newGen); err != nil {
		p.mu.Unlock()
		return abort(err)
	}
	oldGen := p.gen
	oldIDs := make([]uint64, 0, len(snapshot)+len(suffix))
	for _, r := range snapshot {
		oldIDs = append(oldIDs, r.id)
	}
	for _, r := range suffix {
		oldIDs = append(oldIDs, r.id)
	}
	oldH := p.runsH
	p.runsH = newRunsHandle(newDev)
	p.runs = newRuns
	p.gen = newGen
	p.stats.compactions.Add(1)
	p.mu.Unlock()

	// Drop the owner reference of the replaced generation; in-flight readers
	// that pinned it finish their lookups and the last one closes it (a file
	// already unlinked below — the kernel keeps it alive until then).
	_ = oldH.release()
	p.gens.remove(oldGen)
	p.opts.Cache.invalidateRuns(oldIDs)
	return nil
}

// syncDir best-effort fsyncs a directory so renames and removals are durable.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// Stats returns a snapshot of engine counters.
func (p *PersistentKV) Stats() Stats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return Stats{
		Puts:         p.stats.puts.Load(),
		Gets:         p.stats.gets.Load(),
		Deletes:      p.stats.deletes.Load(),
		Flushes:      p.stats.flushes.Load(),
		Compactions:  p.stats.compactions.Load(),
		BloomSkips:   p.stats.bloomSkips.Load(),
		CacheHits:    p.stats.cacheHits.Load(),
		CacheMisses:  p.stats.cacheMisses.Load(),
		RunReads:     p.stats.runReads.Load(),
		RunReadBytes: p.stats.runReadBytes.Load(),
		Runs:         len(p.runs),
		MemtableLen:  p.mem.count(),
		MemtableB:    p.mem.size(),
	}
}

// Close checkpoints the memtable, waits for any background compaction, and
// releases the runs device. Closing twice is a no-op.
func (p *PersistentKV) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	err := p.flushLocked()
	p.closed = true
	if err == nil && p.compactErr != nil {
		err = p.compactErr
	}
	p.mu.Unlock()
	p.wg.Wait()
	// Drop the owner reference; a reader still in flight closes the device
	// when it finishes.
	if e := p.runsH.release(); err == nil && e != nil {
		err = e
	}
	return err
}

// Crash simulates a process kill for recovery tests and experiments: the
// store is abandoned without the flush a graceful Close performs, so the
// memtable is lost. On-disk state is left exactly as the workload's own
// flushes wrote it.
func (p *PersistentKV) Crash() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.wg.Wait()
	_ = p.runsH.release()
}
