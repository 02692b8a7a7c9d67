package storage

// This file implements the durable engine variant behind the disk-backed
// cloud store (cloud.Durable): a PersistentKV is the crash-safe sibling of KV.
// Where KV keeps its run descriptors only in RAM (fine for the in-cell cache,
// whose content can be re-fetched from the provider), a PersistentKV must
// come back from a kill -9 with every acknowledged write intact. It layers
// the existing LSM pieces onto two files in a directory:
//
//	<dir>/runs-<gen>.dat   immutable sorted runs, appended by flushes
//	<dir>/wal.dat          write-ahead log of operations since the last flush
//
// Write path: an operation batch is encoded as one WAL record (sequence
// number + ops), appended, applied to the memtable, and acknowledged only
// after the WAL is fsync'd. Concurrent writers share fsyncs through a group
// committer: whoever grabs the sync slot flushes the log head for everyone
// appended so far, and the rest just wait — one disk barrier amortized over
// the whole group.
//
// Checkpoint: when the memtable exceeds its budget it is written as a run,
// the runs device is fsync'd, and the WAL is truncated to zero — every WAL
// record is now redundant with the run. A crash between those two steps is
// harmless because replaying the WAL re-applies values that are already in
// the run (records carry absolute values, not increments, so replay is
// idempotent).
//
// Recovery: Open rebuilds the run descriptors by re-parsing the runs device
// (truncating a torn tail left by a mid-flush crash), then replays the WAL
// into a fresh memtable, skipping duplicate sequence numbers and truncating
// the first torn or corrupt record and everything after it. The result is
// exactly the state covered by the last acknowledged group commit.
//
// Compaction: when the run count exceeds MaxRuns after a flush, a background
// goroutine merges every run into a new generation file. The merged file is
// written to a .tmp path, fsync'd, and atomically renamed before the old
// generation is deleted, so a crash at any point leaves either the old or the
// new generation fully intact; Open always picks the highest complete
// generation and deletes the rest.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// PersistentOptions configure a PersistentKV. The zero value is usable: every
// field falls back to the DefaultPersistentOptions value, and writes are
// durable (fsync'd) unless NoSync is set.
type PersistentOptions struct {
	// MemtableBytes bounds the RAM-resident write buffer; exceeding it
	// checkpoints the memtable into a run and resets the WAL.
	MemtableBytes int
	// MaxRuns is the run count tolerated before a background compaction is
	// scheduled. Zero falls back to the default; negative disables automatic
	// compaction.
	MaxRuns int
	// NoSync skips the WAL fsync on commit. Acknowledged writes then survive
	// a process crash only if the OS flushed them — the ablation knob for
	// measuring what durability itself costs.
	NoSync bool
	// DisableWAL skips the write-ahead log entirely: batches go straight to
	// the memtable and a crash loses everything since the last Flush. For
	// engines embedded under an external commit log (the cloud.Durable
	// journal) that replays acknowledged writes itself, the per-engine WAL is
	// a redundant second copy of every value; disabling it removes that
	// write amplification. WaitDurable degrades to a no-op — only Flush makes
	// state durable.
	DisableWAL bool
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
	// Limiter, when non-nil, paces compactions: concurrent compactions are
	// bounded and their combined I/O is held to a bytes/sec budget. Shared
	// across engines so background maintenance of a whole shard fleet cannot
	// saturate the device.
	Limiter *CompactionLimiter
}

// DefaultPersistentOptions mirror DefaultOptions with durable commits.
func DefaultPersistentOptions() PersistentOptions {
	return PersistentOptions{MemtableBytes: 256 << 10, MaxRuns: 8}
}

// Op is one operation of an atomic, durable batch applied via Apply.
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
	// WALRecords / WALOps are the group-commit records and individual
	// operations replayed into the memtable.
	WALRecords int
	WALOps     int
	// WALDuplicates counts records skipped because their sequence number had
	// already been applied (a torn rewrite or a doubled record).
	WALDuplicates int
	// DiscardedWALBytes is the torn tail truncated from the WAL (a crash
	// mid-append, before the group commit that would have acknowledged it).
	DiscardedWALBytes int64
	// Elapsed is the wall-clock duration of Open.
	Elapsed time.Duration
}

// walFile and the runs-file naming scheme of a PersistentKV directory.
const (
	walFile    = "wal.dat"
	runsPrefix = "runs-"
	runsSuffix = ".dat"
)

// PersistentKV is a crash-safe LSM key/value store rooted at a directory.
// All methods are safe for concurrent use.
type PersistentKV struct {
	dir  string
	opts PersistentOptions

	mu     sync.RWMutex
	runsH  *runsHandle
	gen    uint64
	wal    *AppendLog
	walDev *FileDevice
	mem    *memtable
	runs   []*run // oldest first; newer runs shadow older ones
	seq    uint64 // last WAL sequence number assigned
	closed bool

	compacting bool
	compactErr error
	wg         sync.WaitGroup

	gc       groupCommitter
	stats    kvCounters
	recovery RecoveryInfo
}

// runsHandle reference-counts the runs device so readers can finish against
// a generation file that a concurrent compaction install has already
// replaced. The handle is created with one owner reference; readers acquire
// under p.mu and release when done, the owner reference is dropped when the
// generation is swapped out (or the store closes), and whoever drops the
// count to zero closes the file. Acquire always happens under p.mu while the
// handle is still the current one, so the count can never resurrect from
// zero.
type runsHandle struct {
	dev  *FileDevice
	refs atomic.Int64
}

func newRunsHandle(dev *FileDevice) *runsHandle {
	h := &runsHandle{dev: dev}
	h.refs.Store(1)
	return h
}

func (h *runsHandle) acquire() { h.refs.Add(1) }

func (h *runsHandle) release() error {
	if h.refs.Add(-1) == 0 {
		return h.dev.Close()
	}
	return nil
}

// groupCommitter amortizes WAL fsyncs across concurrent writers: one writer
// syncs the log head on behalf of everyone appended so far, the rest wait on
// the condition variable until their sequence number is covered.
type groupCommitter struct {
	mu       sync.Mutex
	cond     *sync.Cond
	appended uint64 // highest sequence number appended to the WAL
	synced   uint64 // highest sequence number known durable
	syncing  bool
}

func (g *groupCommitter) init(seq uint64) {
	g.cond = sync.NewCond(&g.mu)
	g.appended = seq
	g.synced = seq
}

func (g *groupCommitter) noteAppend(seq uint64) {
	g.mu.Lock()
	if seq > g.appended {
		g.appended = seq
	}
	g.mu.Unlock()
}

// markSynced records that everything up to seq is durable through some other
// barrier (a checkpoint fsync'd the runs device and reset the WAL).
func (g *groupCommitter) markSynced(seq uint64) {
	g.mu.Lock()
	if seq > g.synced {
		g.synced = seq
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

// wait blocks until seq is durable, performing the shared fsync when no other
// writer currently holds the sync slot.
func (g *groupCommitter) wait(seq uint64, sync func() error) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.synced < seq {
		if g.syncing {
			g.cond.Wait()
			continue
		}
		g.syncing = true
		target := g.appended
		g.mu.Unlock()
		err := sync()
		g.mu.Lock()
		g.syncing = false
		if err == nil && target > g.synced {
			g.synced = target
		}
		g.cond.Broadcast()
		if err != nil {
			return fmt.Errorf("storage: wal sync: %w", err)
		}
	}
	return nil
}

// OpenPersistentKV opens (creating if needed) a persistent store rooted at
// dir and recovers its state: pick the newest complete runs generation,
// rebuild its run descriptors, truncate any torn tail, then replay the WAL.
func OpenPersistentKV(dir string, opts PersistentOptions) (*PersistentKV, error) {
	start := time.Now()
	def := DefaultPersistentOptions()
	if opts.MemtableBytes <= 0 {
		opts.MemtableBytes = def.MemtableBytes
	}
	if opts.MaxRuns == 0 {
		opts.MaxRuns = def.MaxRuns
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("storage: open persistent store: %w", err)
	}
	p := &PersistentKV{dir: dir, opts: opts, mem: newMemtable()}

	if err := p.recoverRuns(); err != nil {
		return nil, err
	}
	if err := p.recoverWAL(); err != nil {
		_ = p.runsH.release()
		return nil, err
	}
	p.gc.init(p.seq)

	// A replayed memtable past its budget is checkpointed immediately so a
	// reopened store starts within its RAM envelope.
	if p.mem.size() >= p.opts.MemtableBytes {
		if err := p.flushLocked(); err != nil {
			p.walDev.Close()
			_ = p.runsH.release()
			return nil, err
		}
	}
	// Make the directory entries of freshly created files (and recovery's
	// truncations/removals) durable before the store accepts writes.
	syncDir(p.dir)
	p.recovery.Elapsed = time.Since(start)
	return p, nil
}

// recoverRuns selects the newest complete runs generation, rebuilds its run
// descriptors and truncates any torn tail. Stale generations (the leftovers
// of a compaction interrupted between rename and delete) and abandoned .tmp
// files are removed.
func (p *PersistentKV) recoverRuns() error {
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		return fmt.Errorf("storage: scan %s: %w", p.dir, err)
	}
	var gens []uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			_ = os.Remove(filepath.Join(p.dir, name))
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
			_ = os.Remove(filepath.Join(p.dir, p.runsFileName(g)))
		}
	}
	dev, err := OpenFileDevice(filepath.Join(p.dir, p.runsFileName(p.gen)))
	if err != nil {
		return err
	}
	runs, valid := scanRuns(dev)
	if valid < dev.Size() {
		p.recovery.DiscardedRunBytes = dev.Size() - valid
		if err := dev.Truncate(valid); err != nil {
			dev.Close()
			return err
		}
	}
	p.runsH = newRunsHandle(dev)
	p.runs = runs
	p.recovery.RecoveredRuns = len(runs)
	for _, r := range runs {
		p.recovery.RunBytes += int64(r.length)
	}
	return nil
}

// recoverWAL replays the write-ahead log into the memtable: records are
// applied in order, duplicate sequence numbers are skipped, and the first
// torn or corrupt record truncates the log — everything before it was
// acknowledged (or checkpointed), everything after it never was.
func (p *PersistentKV) recoverWAL() error {
	dev, err := OpenFileDevice(filepath.Join(p.dir, walFile))
	if err != nil {
		return err
	}
	size := dev.Size()
	off := int64(0)
	header := make([]byte, logHeaderSize)
	for off+logHeaderSize <= size {
		n, err := dev.ReadAt(header, off)
		if fullRead(n, logHeaderSize, err) != nil {
			break
		}
		want := binary.BigEndian.Uint32(header[0:4])
		length := int64(binary.BigEndian.Uint32(header[4:8]))
		if off+logHeaderSize+length > size {
			break // torn append: the record never finished
		}
		payload := make([]byte, length)
		n, err = dev.ReadAt(payload, off+logHeaderSize)
		if fullRead(n, int(length), err) != nil {
			break
		}
		if crc32.ChecksumIEEE(payload) != want {
			break
		}
		seq, ops, err := decodeWALRecord(payload)
		if err != nil {
			break
		}
		off += logHeaderSize + length
		if seq <= p.seq && p.seq > 0 {
			p.recovery.WALDuplicates++
			continue
		}
		for _, e := range ops {
			p.mem.put(e.key, e.value, e.tombstone)
		}
		p.seq = seq
		p.recovery.WALRecords++
		p.recovery.WALOps += len(ops)
	}
	if off < size {
		p.recovery.DiscardedWALBytes = size - off
		if err := dev.Truncate(off); err != nil {
			dev.Close()
			return err
		}
	}
	p.walDev = dev
	p.wal = NewAppendLog(dev)
	return nil
}

func (p *PersistentKV) runsFileName(gen uint64) string {
	return fmt.Sprintf("%s%06d%s", runsPrefix, gen, runsSuffix)
}

// Recovery returns what Open had to replay and repair.
func (p *PersistentKV) Recovery() RecoveryInfo {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.recovery
}

// encodeWALRecord serializes one group-commit record:
//
//	[8] sequence number (big endian)
//	[uvarint] operation count
//	per op: [1] flags (bit 0 = tombstone) [uvarint] klen [uvarint] vlen [k] [v]
func encodeWALRecord(seq uint64, ops []Op) []byte {
	size := 8 + binary.MaxVarintLen64
	for _, op := range ops {
		size += 1 + 2*binary.MaxVarintLen64 + len(op.Key) + len(op.Value)
	}
	buf := make([]byte, 8, size)
	binary.BigEndian.PutUint64(buf[:8], seq)
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(ops)))
	buf = append(buf, tmp[:n]...)
	for _, op := range ops {
		var flags byte
		if op.Delete {
			flags |= runFlagTombstone
		}
		buf = append(buf, flags)
		n = binary.PutUvarint(tmp[:], uint64(len(op.Key)))
		buf = append(buf, tmp[:n]...)
		n = binary.PutUvarint(tmp[:], uint64(len(op.Value)))
		buf = append(buf, tmp[:n]...)
		buf = append(buf, op.Key...)
		buf = append(buf, op.Value...)
	}
	return buf
}

// decodeWALRecord is the inverse of encodeWALRecord.
func decodeWALRecord(b []byte) (uint64, []memEntry, error) {
	if len(b) < 8 {
		return 0, nil, ErrCorrupt
	}
	seq := binary.BigEndian.Uint64(b[:8])
	b = b[8:]
	nops, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, ErrCorrupt
	}
	b = b[n:]
	ops := make([]memEntry, 0, nops)
	for i := uint64(0); i < nops; i++ {
		if len(b) < 1 {
			return 0, nil, ErrCorrupt
		}
		flags := b[0]
		b = b[1:]
		klen, n1 := binary.Uvarint(b)
		if n1 <= 0 {
			return 0, nil, ErrCorrupt
		}
		vlen, n2 := binary.Uvarint(b[n1:])
		if n2 <= 0 {
			return 0, nil, ErrCorrupt
		}
		b = b[n1+n2:]
		if uint64(len(b)) < klen+vlen {
			return 0, nil, ErrCorrupt
		}
		ops = append(ops, memEntry{
			key:       append([]byte(nil), b[:klen]...),
			value:     append([]byte(nil), b[klen:klen+vlen]...),
			tombstone: flags&runFlagTombstone != 0,
		})
		b = b[klen+vlen:]
	}
	if len(b) != 0 {
		return 0, nil, ErrCorrupt
	}
	return seq, ops, nil
}

// Apply atomically applies a batch of operations and blocks until the batch
// is durable (one WAL record, one shared group-commit fsync).
func (p *PersistentKV) Apply(ops []Op) error {
	seq, err := p.ApplyNoSync(ops)
	if err != nil {
		return err
	}
	return p.WaitDurable(seq)
}

// ApplyNoSync appends the batch to the WAL and applies it to the memtable but
// does not wait for the fsync. The returned sequence number can be handed to
// WaitDurable before acknowledging the write to a client; releasing any
// caller-side lock between the two lets concurrent writers share one fsync.
func (p *PersistentKV) ApplyNoSync(ops []Op) (uint64, error) {
	if len(ops) == 0 {
		return 0, nil
	}
	for _, op := range ops {
		if len(op.Key) == 0 {
			return 0, fmt.Errorf("storage: empty key")
		}
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return 0, ErrClosed
	}
	seq := p.seq + 1
	if !p.opts.DisableWAL {
		if _, err := p.wal.Append(encodeWALRecord(seq, ops)); err != nil {
			p.mu.Unlock()
			return 0, err
		}
	}
	p.seq = seq
	for _, op := range ops {
		if op.Delete {
			p.stats.deletes.Add(1)
		} else {
			p.stats.puts.Add(1)
		}
		p.mem.put(op.Key, op.Value, op.Delete)
	}
	p.gc.noteAppend(seq)
	needFlush := p.mem.size() >= p.opts.MemtableBytes
	p.mu.Unlock()
	if needFlush {
		if err := p.Flush(); err != nil {
			return 0, err
		}
	}
	return seq, nil
}

// WaitDurable blocks until the WAL record with the given sequence number is
// on stable storage (or was checkpointed into a run). A zero sequence — the
// result of an empty batch — returns immediately, as does a NoSync store.
func (p *PersistentKV) WaitDurable(seq uint64) error {
	if seq == 0 || p.opts.NoSync || p.opts.DisableWAL {
		return nil
	}
	return p.gc.wait(seq, p.walDev.Sync)
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

// Flush checkpoints the memtable into a run and resets the WAL.
func (p *PersistentKV) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	return p.flushLocked()
}

// flushLocked writes the memtable as a run, fsyncs the runs device, then
// resets the WAL — in that order, so a crash in between merely replays
// records whose values are already in the run (replay is idempotent).
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
	if !p.opts.DisableWAL {
		if err := p.wal.Reset(); err != nil {
			return err
		}
	}
	// Everything appended so far is covered by the run the device just
	// fsync'd, so pending group commits can be released without touching the
	// (now empty) WAL.
	p.gc.markSynced(p.seq)
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

// Compact merges every run into a single run in a new generation file,
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
// concurrency slot and then paces its reads and writes against the shared
// bytes/sec budget (only outside the lock — the fold-in under the lock is
// never throttled). Crash-safety ordering: the new file's content is fsync'd
// before the rename, the rename is made durable by a directory fsync before
// the old generation is unlinked, so at every instant one complete
// generation is on disk. The memtable and WAL are untouched — they hold
// strictly newer data. Readers that snapshotted the old generation keep it
// alive through the runs handle's reference count; the replaced runs' cached
// segments are dropped from the block cache after the install (ids are never
// reused, so a stale segment can never be served for a new run — the drop
// just reclaims the RAM promptly).
func (p *PersistentKV) compact() error {
	defer func() {
		p.mu.Lock()
		p.compacting = false
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

	readBytes := 0
	for _, r := range snapshot {
		readBytes += r.length
	}
	merged, err := mergeEntries(dev, snapshot, nil, nil, nil)
	if err != nil {
		return err
	}
	p.opts.Limiter.throttle(readBytes)
	live := merged[:0]
	for _, e := range merged {
		if !e.tombstone {
			live = append(live, e)
		}
	}
	tmpPath := filepath.Join(p.dir, fmt.Sprintf("%s%06d.tmp", runsPrefix, newGen))
	finalPath := filepath.Join(p.dir, p.runsFileName(newGen))
	newDev, err := OpenFileDevice(tmpPath)
	if err != nil {
		return err
	}
	abort := func(err error) error {
		newDev.Close()
		_ = os.Remove(tmpPath)
		return err
	}
	var newRuns []*run
	if len(live) > 0 {
		r, err := writeRun(newDev, live, p.opts.BloomBitsPerKey)
		if err != nil {
			return abort(err)
		}
		p.opts.Limiter.throttle(int(r.extent()))
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
	if err := os.Rename(tmpPath, finalPath); err != nil {
		p.mu.Unlock()
		return abort(fmt.Errorf("storage: install compacted runs: %w", err))
	}
	// Make the rename durable before unlinking the old generation: a crash
	// must never find the directory with the old file gone and the new file
	// not yet persisted.
	syncDir(p.dir)
	oldPath := filepath.Join(p.dir, p.runsFileName(p.gen))
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
	// that pinned it finish their lookups and the last one closes the file
	// (already unlinked below — the kernel keeps it alive until then).
	_ = oldH.release()
	_ = os.Remove(oldPath)
	syncDir(p.dir)
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
		Puts:        p.stats.puts.Load(),
		Gets:        p.stats.gets.Load(),
		Deletes:     p.stats.deletes.Load(),
		Flushes:     p.stats.flushes.Load(),
		Compactions: p.stats.compactions.Load(),
		BloomSkips:  p.stats.bloomSkips.Load(),
		CacheHits:   p.stats.cacheHits.Load(),
		CacheMisses: p.stats.cacheMisses.Load(),
		RunReads:    p.stats.runReads.Load(),
		Runs:        len(p.runs),
		MemtableLen: p.mem.count(),
		MemtableB:   p.mem.size(),
	}
}

// Close checkpoints the memtable, waits for any background compaction, and
// closes the underlying files. Closing twice is a no-op.
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
	if e := p.walDev.Close(); err == nil && e != nil {
		err = e
	}
	// Drop the owner reference; a reader still in flight closes the device
	// when it finishes.
	if e := p.runsH.release(); err == nil && e != nil {
		err = e
	}
	return err
}

// Crash simulates a process kill for recovery tests and experiments: the
// store is abandoned without the flush, WAL reset, or final fsync a graceful
// Close performs. On-disk state is left exactly as the workload's own group
// commits and checkpoints wrote it.
func (p *PersistentKV) Crash() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.wg.Wait()
	_ = p.walDev.Close()
	_ = p.runsH.release()
}
