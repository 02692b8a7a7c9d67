package cloud

// This file implements the disk-backed provider: cloud.Durable offers the
// exact same Service contract as the in-memory store, but every acknowledged
// write survives a process kill.
// The paper's supporting server is "untrusted but highly available" — PRs 1–4
// modelled the untrusted half (Adversary wraps any backend); Durable
// models the availability half: a provider that restarts without losing the
// sealed vaults entrusted to it.
//
// Layout: the store is FNV-striped over the same shardIndexOf hash as Memory,
// one storage.PersistentKV per shard rooted at <dir>/shard-NNN. Blobs and
// mailbox messages share each shard's run files under distinct key prefixes:
//
//	b:<name>                    blob   → uvarint version, 8B stored-unixnano, data
//	m:<recipient>\x00<seq hex>  mailbox→ binary Message (FIFO by zero-padded seq)
//
// Batched operations group their arguments by shard exactly like Memory and
// apply the per-shard groups one after another on the caller's goroutine.
// Durability comes from the cross-shard commit journal (journal.go), the
// store's only write-ahead log: a whole batch is acknowledged after ONE
// fsync'd journal record — not one barrier per shard — which is what holds
// E13's durability overhead near the memory provider. Clients — including
// the TCP server, which serves any Service — cannot tell the two backends
// apart except by killing the process. DESIGN.md §8 documents the format and
// the recovery protocol; experiment E13 measures the durability overhead and
// the recovery time.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trustedcells/internal/storage"
)

// DurableOptions configure a disk-backed provider. The zero value is usable:
// every field falls back to a default, and commits are fsync'd.
type DurableOptions struct {
	// Shards is the FNV stripe count (and on-disk shard-directory count). It
	// is fixed at first open and recorded in META.json; reopening an existing
	// store always uses the recorded value. Defaults to DefaultShards.
	Shards int
	// MemtableBytes bounds each shard's RAM write buffer before it is
	// checkpointed into a run. Defaults to 512 KiB.
	MemtableBytes int
	// MaxRuns bounds each shard's run count before background compaction.
	// Defaults to 8; negative disables automatic compaction.
	MaxRuns int
	// NoSync skips the commit journal's fsync — the ablation knob separating
	// encoding cost from the disk barrier itself. Journal records are still
	// written, so recovery behaves identically; acknowledged writes merely
	// depend on the OS having flushed them.
	NoSync bool
	// JournalBytes is the commit-journal size that triggers a checkpoint
	// (flush every shard, reset the journal). Zero uses the default (32 MiB).
	JournalBytes int64
	// CacheBytes is the capacity of the block cache shared by every shard:
	// run segments are kept in RAM after a read so hot point lookups never
	// touch the device. Zero uses the default (16 MiB); negative disables the
	// cache — the ablation knob of experiment E18.
	CacheBytes int64
	// BloomBitsPerKey sizes the per-run bloom filters that let negative
	// lookups skip runs without a device read. Zero uses the storage-layer
	// default (~10 bits/key); negative disables the filters.
	BloomBitsPerKey int
}

// DefaultDurableOptions are sized for a provider shard serving a cell fleet.
func DefaultDurableOptions() DurableOptions {
	return DurableOptions{
		Shards:        DefaultShards,
		MemtableBytes: 512 << 10,
		MaxRuns:       8,
		CacheBytes:    16 << 20,
	}
}

// DurableRecovery aggregates what OpenDurable had to replay and repair across
// all shards to restore the store.
type DurableRecovery struct {
	// Shards is the shard count recovered (from META.json).
	Shards int
	// RecoveredRuns counts the run descriptors rebuilt by re-parsing the runs
	// devices.
	RecoveredRuns int
	// DiscardedRunBytes is the torn tail truncated from the shards' runs
	// devices (mid-flush crashes).
	DiscardedRunBytes int64
	// JournalRecords / JournalOps count the commit-journal records replayed
	// into the shard engines (the cross-shard durability log; each record is
	// one acknowledged write batch). DiscardedJournalBytes is the journal's
	// torn unacknowledged tail.
	JournalRecords        int
	JournalOps            int
	DiscardedJournalBytes int64
	// ReplayedOps is the operations re-applied to memtables; it equals
	// JournalOps, the journal being the store's only log.
	ReplayedOps int
	// PendingMessages is the number of undelivered mailbox messages found.
	PendingMessages int
	// Elapsed is the wall-clock duration of OpenDurable, including all shard
	// recoveries (which run in parallel).
	Elapsed time.Duration
}

// durableShard is one stripe of the store. The write mutex serializes
// read-modify-write sequences (version assignment, mailbox pops) per shard;
// it is released before the journal commit so concurrent writers on the same
// shard share the commit barrier. seq is the per-shard commit sequence: it is
// assigned in the same critical section that applies the ops, so sorting
// journal groups by (shard, seq) at replay reconstructs apply order.
type durableShard struct {
	wmu sync.Mutex
	kv  *storage.PersistentKV
	seq uint64
	// heads maps a recipient to the seq of the last message Receive popped.
	// Sends take seqs under wmu, so the next pop scans from head+1, past
	// the tombstones of earlier pops. RAM only: a restart scans the prefix.
	heads map[string]uint64
}

// Durable is the disk-backed implementation of Service. All methods are safe
// for concurrent use.
type Durable struct {
	dir    string
	shards []*durableShard
	stats  counters

	// cache and limiter are shared across every shard: one RAM budget for
	// hot read segments, one bound on concurrent compactions.
	cache   *storage.BlockCache
	limiter *storage.CompactionLimiter

	// journal is the cross-shard commit log — the store's actual durability
	// barrier (see journal.go). Commits hold jmu for reading; a checkpoint
	// (flush all shards, reset the journal) holds it exclusively.
	jmu     sync.RWMutex
	journal *commitJournal
	closed  bool // set by Close under jmu

	// nextMsg is the global message sequence; restoreMessageSeq re-seeds it
	// from the surviving mailbox keys on open.
	nextMsg atomic.Uint64

	recovery DurableRecovery
}

// durableMeta is persisted as META.json at first open so the shard count —
// which determines where every key lives — can never drift across restarts.
type durableMeta struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

const durableMetaFile = "META.json"

// compactionSlots bounds how many shards of one store compact at once.
const compactionSlots = 2

// Key prefixes inside each shard's keyspace.
const (
	blobKeyPrefix = "b:"
	msgKeyPrefix  = "m:"
)

// OpenDurable opens (creating if needed) a disk-backed provider rooted at
// dir, recovering every shard in parallel: runs are re-parsed, torn tails
// truncated, and the commit journal replayed, so the store resumes with
// exactly the state covered by the last acknowledged commit.
func OpenDurable(dir string, opts DurableOptions) (*Durable, error) {
	start := time.Now()
	def := DefaultDurableOptions()
	if opts.Shards <= 0 {
		opts.Shards = def.Shards
	}
	if opts.MemtableBytes <= 0 {
		opts.MemtableBytes = def.MemtableBytes
	}
	if opts.MaxRuns == 0 {
		opts.MaxRuns = def.MaxRuns
	}
	if opts.CacheBytes == 0 {
		opts.CacheBytes = def.CacheBytes
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("cloud: open durable store: %w", err)
	}
	shards, err := loadOrInitMeta(dir, opts.Shards)
	if err != nil {
		return nil, err
	}

	d := &Durable{
		dir:     dir,
		shards:  make([]*durableShard, shards),
		cache:   storage.NewBlockCache(opts.CacheBytes),
		limiter: storage.NewCompactionLimiter(compactionSlots),
	}
	popts := storage.PersistentOptions{
		MemtableBytes:   opts.MemtableBytes,
		MaxRuns:         opts.MaxRuns,
		BloomBitsPerKey: opts.BloomBitsPerKey,
		Cache:           d.cache,
		Limiter:         d.limiter,
	}
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i := range d.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			kv, err := storage.OpenPersistentKV(filepath.Join(dir, fmt.Sprintf("shard-%03d", i)), popts)
			if err != nil {
				errs[i] = fmt.Errorf("cloud: shard %d: %w", i, err)
				return
			}
			d.shards[i] = &durableShard{kv: kv, heads: make(map[string]uint64)}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, s := range d.shards {
				if s != nil {
					_ = s.kv.Close()
				}
			}
			return nil, err
		}
	}

	d.recovery.Shards = shards
	for _, s := range d.shards {
		rec := s.kv.Recovery()
		d.recovery.RecoveredRuns += rec.RecoveredRuns
		d.recovery.DiscardedRunBytes += rec.DiscardedRunBytes
	}
	if err := d.recoverJournal(dir, opts); err != nil {
		_ = d.Close()
		return nil, err
	}
	if err := d.restoreMessageSeq(); err != nil {
		_ = d.Close()
		return nil, err
	}
	d.recovery.Elapsed = time.Since(start)
	return d, nil
}

// recoverJournal replays the commit journal into the shard engines and leaves
// it empty. Replay is a blind idempotent rewrite in (shard, seq) order — the
// order the live store applied the ops — so re-applying ops that an early
// memtable flush already checkpointed into runs changes nothing, and the
// journal alone restores every acknowledged write since the last checkpoint.
// Afterwards every shard is flushed so the replayed state lives in fsync'd
// runs, and the journal is reset.
func (d *Durable) recoverJournal(dir string, opts DurableOptions) error {
	j, err := openJournal(dir, opts.JournalBytes, opts.NoSync)
	if err != nil {
		return err
	}
	d.journal = j
	groups, records, end, discarded, err := j.scan()
	if err != nil {
		return err
	}
	j.log.SeekHead(end)
	d.recovery.JournalRecords = records
	d.recovery.DiscardedJournalBytes = discarded
	if records == 0 && discarded == 0 {
		return nil // clean journal: nothing to replay, the extent is all zeros
	}
	sortForReplay(groups)
	for _, g := range groups {
		if g.shard < 0 || g.shard >= len(d.shards) {
			return fmt.Errorf("cloud: journal group for shard %d of %d: %w",
				g.shard, len(d.shards), storage.ErrCorrupt)
		}
		if err := d.shards[g.shard].kv.Apply(g.ops); err != nil {
			return fmt.Errorf("cloud: journal replay shard %d: %w", g.shard, err)
		}
		d.recovery.JournalOps += len(g.ops)
	}
	d.recovery.ReplayedOps = d.recovery.JournalOps
	if err := d.flushShards(); err != nil {
		return err
	}
	return j.reset()
}

// commit makes one write batch durable: a single journal record, a single
// (group-committed) fsync. Callers have already applied the ops to the shard
// engines under their write mutexes; the groups carry the per-shard sequence
// numbers assigned there. When the journal outgrows its threshold the
// committer checkpoints: every shard's memtable is flushed into fsync'd runs
// and the journal is reset, bounding both journal size and replay time.
func (d *Durable) commit(groups []journalGroup) error {
	if len(groups) == 0 {
		return nil
	}
	d.jmu.RLock()
	checkpoint, err := d.journal.append(groups)
	d.jmu.RUnlock()
	if err != nil {
		return err
	}
	if checkpoint {
		return d.checkpoint(false)
	}
	return nil
}

// checkpoint flushes every shard and resets the journal. It holds the
// journal lock exclusively, so no commit is mid-append: every record that
// survives the reset was appended after, and any write applied to a memtable
// but not yet journaled is captured by the shard flush — either way each
// acknowledged write stays durable. force skips the size re-check (used by
// Flush; threshold-triggered commits re-check because a racing committer may
// have already checkpointed).
func (d *Durable) checkpoint(force bool) error {
	d.jmu.Lock()
	defer d.jmu.Unlock()
	if !force && d.journal.log.Head() <= d.journal.limit {
		return nil
	}
	if err := d.flushShards(); err != nil {
		return err
	}
	return d.journal.reset()
}

// loadOrInitMeta reads the committed shard count, writing it on first open.
func loadOrInitMeta(dir string, shards int) (int, error) {
	path := filepath.Join(dir, durableMetaFile)
	raw, err := os.ReadFile(path)
	if err == nil {
		var meta durableMeta
		if err := json.Unmarshal(raw, &meta); err != nil || meta.Shards < 1 {
			return 0, fmt.Errorf("cloud: corrupt %s: %v", path, err)
		}
		return meta.Shards, nil
	}
	if !os.IsNotExist(err) {
		return 0, fmt.Errorf("cloud: read %s: %w", path, err)
	}
	raw, _ = json.Marshal(durableMeta{Version: 1, Shards: shards})
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		return 0, fmt.Errorf("cloud: write %s: %w", path, err)
	}
	// The pinned shard count decides where every key lives — make its
	// directory entry durable before any shard accepts writes.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return shards, nil
}

// restoreMessageSeq rescans the mailbox keyspace for the highest delivered
// sequence number, so new sends keep sorting after (and never colliding with)
// messages that were pending at the crash.
func (d *Durable) restoreMessageSeq() error {
	var maxSeq uint64
	for i, s := range d.shards {
		err := s.kv.Scan([]byte(msgKeyPrefix), keyUpperBound([]byte(msgKeyPrefix)), func(k, _ []byte) bool {
			if seq, ok := msgSeqFromKey(k); ok && seq > maxSeq {
				maxSeq = seq
			}
			d.recovery.PendingMessages++
			return true
		})
		if err != nil {
			return fmt.Errorf("cloud: shard %d mailbox scan: %w", i, err)
		}
	}
	d.nextMsg.Store(maxSeq)
	return nil
}

// RecoveryStats reports what the last OpenDurable replayed and repaired.
func (d *Durable) RecoveryStats() DurableRecovery { return d.recovery }

func (d *Durable) shardFor(key string) *durableShard {
	return d.shards[shardIndexOf(key, len(d.shards))]
}

// Close flushes every shard, retires the commit journal and closes the
// underlying files. Calls after the first do nothing and return nil.
func (d *Durable) Close() error {
	d.jmu.Lock()
	defer d.jmu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var err error
	for _, s := range d.shards {
		if s == nil {
			continue
		}
		if e := s.kv.Close(); err == nil && e != nil {
			err = e
		}
	}
	if d.journal != nil {
		// Every shard just flushed, so the journal's records are all covered
		// by fsync'd runs: truncate it so the next open replays nothing (and
		// re-preallocates its extent then).
		if e := d.journal.retire(); err == nil && e != nil {
			err = e
		}
		if e := d.journal.close(); err == nil && e != nil {
			err = e
		}
	}
	return err
}

// Crash simulates a process kill for recovery tests and experiments: the
// journal and all shards are abandoned without flushes or final fsyncs,
// leaving the on-disk state exactly as the workload's own commits wrote it.
func (d *Durable) Crash() {
	for _, s := range d.shards {
		s.kv.Crash()
	}
	if d.journal != nil {
		_ = d.journal.close()
	}
}

// Compact forces a full compaction of every shard (normally compaction runs
// in the background when a shard exceeds MaxRuns). Shards compact in
// parallel goroutines; the shared CompactionLimiter lets compactionSlots of
// them run at once, so even a store-wide compaction cannot starve foreground
// traffic.
func (d *Durable) Compact() error {
	errs := make([]error, len(d.shards))
	var wg sync.WaitGroup
	for i := range d.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := d.shards[i].kv.Compact(); err != nil {
				errs[i] = fmt.Errorf("cloud: compact shard %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Flush checkpoints every shard's memtable into a run and resets the commit
// journal (used by experiments that want subsequent reads to exercise the
// on-disk read path).
func (d *Durable) Flush() error {
	return d.checkpoint(true)
}

// flushShards checkpoints every shard's memtable into fsync'd runs, in
// parallel: each flush pays its own run write and device sync, and serializing
// 32 of them would put the whole fan-out back on the commit path whenever a
// checkpoint triggers.
func (d *Durable) flushShards() error {
	errs := make([]error, len(d.shards))
	var wg sync.WaitGroup
	for i := range d.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := d.shards[i].kv.Flush(); err != nil {
				errs[i] = fmt.Errorf("cloud: flush shard %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// EngineStats sums the storage-engine counters across shards (flushes,
// compactions, resident runs, bloom skips, block-cache hits and misses,
// device reads and the bytes they moved) —
// the observability hook for E13/E18 and tests.
func (d *Durable) EngineStats() storage.Stats {
	var total storage.Stats
	for _, s := range d.shards {
		st := s.kv.Stats()
		total.Puts += st.Puts
		total.Gets += st.Gets
		total.Deletes += st.Deletes
		total.Flushes += st.Flushes
		total.Compactions += st.Compactions
		total.BloomSkips += st.BloomSkips
		total.CacheHits += st.CacheHits
		total.CacheMisses += st.CacheMisses
		total.RunReads += st.RunReads
		total.RunReadBytes += st.RunReadBytes
		total.Runs += st.Runs
		total.MemtableLen += st.MemtableLen
		total.MemtableB += st.MemtableB
	}
	return total
}

// ShardStats returns each shard's storage-engine counters (index = shard
// number): the per-shard view of EngineStats, for operators watching cache
// hit and bloom skip rates shard by shard.
func (d *Durable) ShardStats() []storage.Stats {
	out := make([]storage.Stats, len(d.shards))
	for i, s := range d.shards {
		out[i] = s.kv.Stats()
	}
	return out
}

// CacheStats reports the shared block cache's cumulative hits and misses and
// its resident bytes (zeros when the cache is disabled).
func (d *Durable) CacheStats() (hits, misses, bytes int64) {
	hits, misses = d.cache.Stats()
	return hits, misses, d.cache.Bytes()
}

// --- key and value codecs ---------------------------------------------------

func blobKey(name string) []byte {
	return append([]byte(blobKeyPrefix), name...)
}

// msgKey orders a recipient's mailbox by zero-padded sequence number, so a
// prefix scan pops messages in FIFO order.
func msgKey(recipient string, seq uint64) []byte {
	return []byte(fmt.Sprintf("%s%s\x00%016x", msgKeyPrefix, recipient, seq))
}

func msgPrefix(recipient string) []byte {
	return []byte(msgKeyPrefix + recipient + "\x00")
}

// msgSeqFromKey parses the sequence number back out of a mailbox key.
func msgSeqFromKey(k []byte) (uint64, bool) {
	if len(k) < 17 {
		return 0, false
	}
	var seq uint64
	if _, err := fmt.Sscanf(string(k[len(k)-16:]), "%016x", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// keyUpperBound returns the smallest key greater than every key with the
// given prefix (nil when the prefix is all 0xFF), for use as a Scan end.
func keyUpperBound(prefix []byte) []byte {
	end := append([]byte(nil), prefix...)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] < 0xFF {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}

// encodeBlobValue serializes a blob's shard record: uvarint version, 8-byte
// stored-time unixnano, payload bytes.
func encodeBlobValue(version int, stored time.Time, data []byte) []byte {
	buf := make([]byte, 0, binary.MaxVarintLen64+8+len(data))
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(version))
	buf = append(buf, tmp[:n]...)
	var ts [8]byte
	binary.BigEndian.PutUint64(ts[:], uint64(stored.UnixNano()))
	buf = append(buf, ts[:]...)
	return append(buf, data...)
}

func decodeBlobValue(b []byte) (version int, stored time.Time, data []byte, err error) {
	v, n := binary.Uvarint(b)
	if n <= 0 || len(b) < n+8 {
		return 0, time.Time{}, nil, storage.ErrCorrupt
	}
	ns := int64(binary.BigEndian.Uint64(b[n : n+8]))
	return int(v), time.Unix(0, ns).UTC(), b[n+8:], nil
}

// encodeMessage serializes a mailbox message: uvarint-length-prefixed ID,
// From, To, Kind and Body, then 8-byte sent-unixnano and 8-byte sequence.
func encodeMessage(m Message) []byte {
	size := 5*binary.MaxVarintLen64 + len(m.ID) + len(m.From) + len(m.To) + len(m.Kind) + len(m.Body) + 16
	buf := make([]byte, 0, size)
	var tmp [binary.MaxVarintLen64]byte
	appendField := func(b []byte) {
		n := binary.PutUvarint(tmp[:], uint64(len(b)))
		buf = append(buf, tmp[:n]...)
		buf = append(buf, b...)
	}
	appendField([]byte(m.ID))
	appendField([]byte(m.From))
	appendField([]byte(m.To))
	appendField([]byte(m.Kind))
	appendField(m.Body)
	var fixed [16]byte
	binary.BigEndian.PutUint64(fixed[:8], uint64(m.Sent.UnixNano()))
	binary.BigEndian.PutUint64(fixed[8:], m.Seq)
	return append(buf, fixed[:]...)
}

func decodeMessage(b []byte) (Message, error) {
	var m Message
	field := func() ([]byte, bool) {
		l, n := binary.Uvarint(b)
		if n <= 0 || uint64(len(b)-n) < l {
			return nil, false
		}
		out := b[n : n+int(l)]
		b = b[n+int(l):]
		return out, true
	}
	id, ok1 := field()
	from, ok2 := field()
	to, ok3 := field()
	kind, ok4 := field()
	body, ok5 := field()
	if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 || len(b) != 16 {
		return Message{}, storage.ErrCorrupt
	}
	m.ID, m.From, m.To, m.Kind = string(id), string(from), string(to), string(kind)
	m.Body = append([]byte(nil), body...)
	m.Sent = time.Unix(0, int64(binary.BigEndian.Uint64(b[:8]))).UTC()
	m.Seq = binary.BigEndian.Uint64(b[8:])
	return m, nil
}

// --- Service ----------------------------------------------------------------

// currentVersion reads the stored version of the blob under key (a blobKey)
// under the shard write mutex, decoding it from the engine's view of the
// record without copying the value.
func (s *durableShard) currentVersion(key []byte) (int, error) {
	var version int
	var derr error
	err := s.kv.View(key, func(raw []byte) { version, _, _, derr = decodeBlobValue(raw) })
	if err == storage.ErrNotFound {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	return version, derr
}

// applyShard runs ops against one shard under its write mutex and returns
// the journal group to commit: the per-shard sequence is assigned in the same
// critical section that applies the ops, so replay order equals apply order.
func (d *Durable) applyShard(si int, ops []storage.Op) (journalGroup, error) {
	s := d.shards[si]
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return d.applyShardLocked(si, ops)
}

func (d *Durable) applyShardLocked(si int, ops []storage.Op) (journalGroup, error) {
	s := d.shards[si]
	g := journalGroup{shard: si, seq: s.seq, ops: ops}
	s.seq++
	if err := s.kv.Apply(ops); err != nil {
		return journalGroup{}, err
	}
	return g, nil
}

// PutBlob stores data under name durably: a batch of one.
func (d *Durable) PutBlob(name string, data []byte) (int, error) { return putOne(d, name, data) }

// GetBlob returns the latest version of the blob: a batch of one.
func (d *Durable) GetBlob(name string) (Blob, error) { return getOne(d, name) }

// DeleteBlob removes a blob (idempotent).
func (d *Durable) DeleteBlob(name string) error {
	si := shardIndexOf(name, len(d.shards))
	g, err := d.applyShard(si, []storage.Op{{Key: blobKey(name), Delete: true}})
	if err != nil {
		return err
	}
	if err := d.commit([]journalGroup{g}); err != nil {
		return err
	}
	d.stats.deletes.Add(1)
	return nil
}

// ListBlobs returns the stored blob names with the given prefix, sorted.
func (d *Durable) ListBlobs(prefix string) ([]string, error) {
	d.stats.lists.Add(1)
	start := []byte(blobKeyPrefix + prefix)
	end := keyUpperBound(start)
	var names []string
	for i, s := range d.shards {
		err := s.kv.Scan(start, end, func(k, _ []byte) bool {
			names = append(names, string(k[len(blobKeyPrefix):]))
			return true
		})
		if err != nil {
			return nil, fmt.Errorf("cloud: shard %d list: %w", i, err)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Send delivers a message to the recipient's durable mailbox.
func (d *Durable) Send(msg Message) error {
	si := shardIndexOf(msg.To, len(d.shards))
	s := d.shards[si]
	s.wmu.Lock()
	seq := d.nextMsg.Add(1)
	msg.Seq = seq
	if msg.ID == "" {
		msg.ID = fmt.Sprintf("msg-%08d", seq)
	}
	if msg.Sent.IsZero() {
		msg.Sent = time.Now()
	}
	g, err := d.applyShardLocked(si, []storage.Op{{Key: msgKey(msg.To, seq), Value: encodeMessage(msg)}})
	s.wmu.Unlock()
	if err != nil {
		return err
	}
	if err := d.commit([]journalGroup{g}); err != nil {
		return err
	}
	d.stats.sends.Add(1)
	return nil
}

// Receive pops up to max messages from the recipient's mailbox in FIFO
// order. The pop is durable: a provider restart after Receive returns will
// not re-deliver the popped messages.
func (d *Durable) Receive(recipient string, max int) ([]Message, error) {
	d.stats.receives.Add(1)
	si := shardIndexOf(recipient, len(d.shards))
	s := d.shards[si]
	s.wmu.Lock()
	prefix := msgPrefix(recipient)
	from := prefix
	if head, ok := s.heads[recipient]; ok {
		from = msgKey(recipient, head+1)
	}
	var msgs []Message
	var dels []storage.Op
	var decodeErr error
	err := s.kv.Scan(from, keyUpperBound(prefix), func(k, v []byte) bool {
		m, err := decodeMessage(v)
		if err != nil {
			decodeErr = fmt.Errorf("cloud: mailbox %s: %w", recipient, err)
			return false
		}
		msgs = append(msgs, m)
		dels = append(dels, storage.Op{Key: append([]byte(nil), k...), Delete: true})
		return max <= 0 || len(msgs) < max
	})
	if err == nil {
		err = decodeErr
	}
	if err != nil {
		s.wmu.Unlock()
		return nil, err
	}
	if len(dels) == 0 {
		s.wmu.Unlock()
		return nil, nil
	}
	g, err := d.applyShardLocked(si, dels)
	if err == nil {
		s.heads[recipient] = msgs[len(msgs)-1].Seq
	}
	s.wmu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := d.commit([]journalGroup{g}); err != nil {
		// The pop is already applied to the live store; swallowing the
		// messages now would lose them outright. Hand them to the caller
		// with the error: delivery succeeded, only the durability of the
		// pop is in doubt (a crash before the next successful commit may
		// re-deliver them — at-least-once, never silent loss).
		return msgs, err
	}
	return msgs, nil
}

// Stats returns a snapshot of the service counters. Counters are in-RAM
// operational telemetry and reset on restart; the data itself is durable.
func (d *Durable) Stats() Stats {
	return d.stats.snapshot()
}

// --- batch calls ------------------------------------------------------------

// PutBlobs stores every blob durably and returns the new version of each in
// argument order. Writes are grouped by shard and each group is applied to
// its shard engine on the caller's goroutine (version assignment and
// memtable insert, no I/O barrier — concurrency comes from the many requests
// in flight, not from fanning one out), then the WHOLE batch is acknowledged
// by one fsync'd commit-journal record — the single disk barrier of the call.
func (d *Durable) PutBlobs(puts []BlobPut) ([]int, error) {
	versions := make([]int, len(puts))
	groups := groupKeysByShard(len(puts), len(d.shards), func(i int) string { return puts[i].Name })
	jgs := make([]journalGroup, len(groups))
	for gi, g := range groups {
		var err error
		if jgs[gi], err = d.putGroup(g, puts, versions); err != nil {
			return nil, err
		}
	}
	if err := d.commit(jgs); err != nil {
		return nil, err
	}
	var bytes int64
	for _, p := range puts {
		bytes += int64(len(p.Data))
	}
	d.stats.puts.Add(int64(len(puts)))
	d.stats.bytesStored.Add(bytes)
	return versions, nil
}

// putGroup applies one shard's slice of a batched upload and returns its
// journal group; the caller commits all groups as one record.
func (d *Durable) putGroup(g shardGroup, puts []BlobPut, versions []int) (journalGroup, error) {
	s := d.shards[g.shard]
	now := time.Now()
	s.wmu.Lock()
	defer s.wmu.Unlock()
	ops := make([]storage.Op, 0, len(g.indices))
	// A batch may put the same name twice; track intra-batch versions so the
	// second occurrence sees the first.
	batchVersions := make(map[string]int)
	for _, i := range g.indices {
		name := puts[i].Name
		key := blobKey(name)
		cur, seen := batchVersions[name]
		if !seen {
			var err error
			if cur, err = s.currentVersion(key); err != nil {
				return journalGroup{}, err
			}
		}
		version := cur + 1
		batchVersions[name] = version
		versions[i] = version
		ops = append(ops, storage.Op{
			Key:   key,
			Value: encodeBlobValue(version, now, puts[i].Data),
		})
	}
	return d.applyShardLocked(g.shard, ops)
}

// GetBlobs implements Service as the conditional read at IfNewer 0.
func (d *Durable) GetBlobs(names []string) ([]Blob, error) {
	return d.GetBlobsIf(unconditional(names))
}

// GetBlobsIf implements Service, the store's one read path: blobs whose
// stored version is still <= the requested IfNewer come back with their
// current Version but no data, exactly like the in-memory store.
func (d *Durable) GetBlobsIf(gets []CondGet) ([]Blob, error) {
	blobs := make([]Blob, len(gets))
	for i, g := range gets {
		d.stats.gets.Add(1)
		raw, err := d.shardFor(g.Name).kv.Get(blobKey(g.Name))
		if err == storage.ErrNotFound {
			continue
		}
		if err != nil {
			return nil, err
		}
		version, stored, data, err := decodeBlobValue(raw)
		if err != nil {
			return nil, err
		}
		if version <= g.IfNewer {
			blobs[i] = Blob{Name: g.Name, Version: version, Stored: stored}
			continue
		}
		blobs[i] = Blob{Name: g.Name, Version: version, Data: data, Stored: stored}
	}
	return blobs, nil
}

// interface conformance
var _ Service = (*Durable)(nil)

// sanity check: prefixes must be distinct and ordered so blob scans never
// wander into mailbox keys.
var _ = func() struct{} {
	if !(strings.Compare(blobKeyPrefix, msgKeyPrefix) < 0) {
		panic("cloud: blob prefix must sort before mailbox prefix")
	}
	return struct{}{}
}()
