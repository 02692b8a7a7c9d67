package cloud

// The commit journal is the durable store's write-ahead log, and its only
// one: a whole cross-shard batch is made durable by a single fsync'd record
// here — one disk barrier, not one per shard. Acknowledged means "in the
// fsync'd journal"; the shard engines keep no log of their own, and recovery
// replays the journal into them.
//
// The barrier itself is kept cheap two ways. First, the journal file is
// zero-filled to its full limit and fsync'd when opened, and re-zeroed after
// every reset — so at commit time the blocks are allocated, the size is
// stable, and there are no dirty runway pages: the barrier is a pure data
// sync of the record just written (measurably about half the cost of an
// fsync on a growing file). Zeroing on reset also means every byte past the
// replayable prefix is zero unless a record was genuinely torn mid-append,
// which keeps recovery's torn-tail accounting exact. Second, the fsync is
// group committed: concurrent committers whose records were covered by a
// predecessor's barrier skip their own.
//
// Record payload (one per acknowledged write, CRC-framed by AppendLog):
//
//	[uvarint ngroups] then per group:
//	  [uvarint shard] [uvarint shardSeq] [uvarint nops]
//	  per op: [1 flags(bit0=delete)] [uvarint klen] key [uvarint vlen] value
//
// A group takes at least 3 bytes and an op at least 3, so a decoded count
// larger than a third of the bytes left is corruption, rejected before it
// sizes an allocation.
//
// shardSeq is a per-shard counter assigned under the shard write mutex — the
// same critical section that assigns blob versions and applies the ops to the
// shard engine — so sorting replayed groups by (shard, shardSeq) reconstructs
// exactly the order the live store applied them, even though concurrent
// batches may append their records to the journal out of that order. Values
// are journaled fully encoded (versions already assigned), so replay is a
// blind idempotent rewrite: replaying a group the shard already holds changes
// nothing, and the highest-seq group wins per key either way.
//
// Truncation: the journal is reset whenever every shard has been flushed
// (its memtable checkpointed into fsync'd runs) — on clean Close, at the end
// of recovery, and when a commit notices the journal has outgrown its
// threshold. Committers hold the RLock, a checkpoint holds the Lock, so a
// reset can never race an append.
//
// Closing: Durable.Crash closes the journal without that lock, while commits
// are in flight, so the journal guards its own device: append and reset hold
// liveMu shared, close holds it exclusively and marks the journal closed. A
// commit that loses the race to a close gets errJournalClosed instead of
// issuing its barrier on a closed (or by then reused) descriptor.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"trustedcells/internal/storage"
)

const journalFileName = "journal.wal"

// defaultJournalBytes is the size at which a commit triggers a checkpoint
// (flush all shards, reset the journal). Large enough that steady writing
// rarely pays the checkpoint's run-flush fan-out, small enough to bound
// recovery replay to a fraction of a second of sequential reading.
const defaultJournalBytes = 32 << 20

// journalPreallocChunk is how far ahead of the append head the journal file
// is zero-filled. Writes into already-allocated blocks of an unchanged-size
// file let the commit barrier use a pure data sync.
const journalPreallocChunk = 4 << 20

// errJournalClosed is what a commit returns once the journal has been closed
// (by Close or Crash): the write was not made durable and is not acknowledged.
var errJournalClosed = errors.New("cloud: commit journal closed")

// journalGroup is one shard's slice of a committed write: the unit of both
// journaling and replay ordering.
type journalGroup struct {
	shard int
	seq   uint64 // per-shard commit sequence, assigned under the shard wmu
	ops   []storage.Op
}

// commitJournal is the cross-shard write-ahead journal. commit() appends one
// record for a whole batch and group-commits the fsync: concurrent committers
// queue on syncMu and skip their fsync when a predecessor's barrier already
// covered their record.
type commitJournal struct {
	dev   *storage.FileDevice
	log   *storage.AppendLog
	limit int64
	// nosync skips the commit barrier (the ablation knob): records are still
	// appended so recovery stays uniform, but acknowledged writes survive a
	// crash only if the OS flushed them.
	nosync bool

	syncMu sync.Mutex
	synced int64 // journal offset covered by the last barrier

	preMu    sync.Mutex
	prealloc int64 // file extent already zero-filled ahead of the head

	// liveMu keeps close out while the device is in use: held shared for the
	// length of an append or a reset, exclusively to close.
	liveMu sync.RWMutex
	closed bool
}

// openJournal opens (creating if needed) the journal file under dir.
func openJournal(dir string, limit int64, nosync bool) (*commitJournal, error) {
	path := filepath.Join(dir, journalFileName)
	_, statErr := os.Stat(path)
	dev, err := storage.OpenFileDevice(path)
	if err != nil {
		return nil, fmt.Errorf("cloud: open journal: %w", err)
	}
	if os.IsNotExist(statErr) {
		// First open created the file: make its directory entry durable
		// before any commit is acknowledged against it.
		if d, err := os.Open(dir); err == nil {
			_ = d.Sync()
			_ = d.Close()
		}
	}
	if limit <= 0 {
		limit = defaultJournalBytes
	}
	j := &commitJournal{
		dev:      dev,
		log:      storage.NewAppendLog(dev),
		limit:    limit,
		nosync:   nosync,
		prealloc: dev.Size(),
	}
	// Preallocate the full extent up front (see the file comment): flushing
	// the zeros here, off the commit path, is what lets every commit barrier
	// be a pure data sync.
	if err := j.fill(dev.Size()); err != nil {
		return nil, fmt.Errorf("cloud: preallocate journal: %w", err)
	}
	return j, nil
}

// fill zero-fills the file from `from` to the journal limit and flushes the
// zeros, leaving the extent allocated, size-stable and clean.
func (j *commitJournal) fill(from int64) error {
	if from >= j.limit {
		return nil
	}
	zeros := make([]byte, journalPreallocChunk)
	for off := from; off < j.limit; off += int64(len(zeros)) {
		chunk := zeros
		if rem := j.limit - off; rem < int64(len(chunk)) {
			chunk = chunk[:rem]
		}
		if _, err := j.dev.WriteAt(chunk, off); err != nil {
			return err
		}
	}
	if err := j.dev.Sync(); err != nil {
		return err
	}
	j.preMu.Lock()
	if j.limit > j.prealloc {
		j.prealloc = j.limit
	}
	j.preMu.Unlock()
	return nil
}

// ensurePrealloc extends the zero-filled runway when a record would land past
// the preallocated extent — only possible once the journal has outgrown its
// limit and a checkpoint is already due, so the slower in-band extension is
// rare.
func (j *commitJournal) ensurePrealloc(recordLen int) error {
	j.preMu.Lock()
	defer j.preMu.Unlock()
	need := j.log.Head() + int64(recordLen) + 8
	for j.prealloc < need {
		zeros := make([]byte, journalPreallocChunk)
		if _, err := j.dev.WriteAt(zeros, j.prealloc); err != nil {
			return err
		}
		j.prealloc += journalPreallocChunk
	}
	return nil
}

// append writes one record for the batch and waits until a barrier covers it.
// Returns true when the journal has outgrown its limit and the caller should
// checkpoint. Callers hold the Durable journal RLock.
func (j *commitJournal) append(groups []journalGroup) (checkpoint bool, err error) {
	j.liveMu.RLock()
	defer j.liveMu.RUnlock()
	if j.closed {
		return false, errJournalClosed
	}
	record := encodeJournalRecord(groups)
	if err := j.ensurePrealloc(len(record)); err != nil {
		return false, err
	}
	if _, err := j.log.Append(record); err != nil {
		return false, err
	}
	head := j.log.Head()
	if !j.nosync {
		j.syncMu.Lock()
		if j.synced < head {
			// Everything appended before this point is covered by one barrier;
			// committers queued behind us find synced already past their
			// record and return without a barrier of their own. The barrier is
			// a data-only sync: preallocation keeps the file's size and block
			// map stable, so there is no metadata to flush.
			covered := j.log.Head()
			if err := j.dev.Datasync(); err != nil {
				j.syncMu.Unlock()
				return false, err
			}
			j.synced = covered
		}
		j.syncMu.Unlock()
	}
	return head > j.limit, nil
}

// reset discards every record after the caller has made all shards durable,
// then restores the clean zero-filled extent so subsequent commit barriers
// stay data-only. Callers hold the Durable journal Lock (no commit is in
// flight).
func (j *commitJournal) reset() error {
	j.liveMu.RLock()
	defer j.liveMu.RUnlock()
	if j.closed {
		return errJournalClosed
	}
	if err := j.log.Reset(); err != nil {
		return err
	}
	if err := j.dev.Sync(); err != nil {
		return err
	}
	j.syncMu.Lock()
	j.synced = 0
	j.syncMu.Unlock()
	j.preMu.Lock()
	j.prealloc = 0
	j.preMu.Unlock()
	return j.fill(0)
}

// retire truncates the journal without re-preallocating — the clean-shutdown
// variant of reset, for a store that is closing and will re-preallocate on
// its next open.
func (j *commitJournal) retire() error {
	if err := j.log.Reset(); err != nil {
		return err
	}
	return j.dev.Sync()
}

// close closes the journal's device once no append or reset is using it.
// Closing twice is a no-op.
func (j *commitJournal) close() error {
	j.liveMu.Lock()
	defer j.liveMu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.dev.Close()
}

// scan reads every intact record from the start of the journal, stopping —
// like any WAL recovery — at the first torn or corrupt record, which can only
// be an unacknowledged tail (commit fsyncs before acknowledging). It returns
// the replayable groups, the offset where the valid prefix ends (the correct
// resume point for the append head), and the number of torn bytes after it;
// the zero-filled preallocation region past the last written byte is not data
// and is not counted.
func (j *commitJournal) scan() (groups []journalGroup, records int, end, discarded int64, err error) {
	size := j.dev.Size()
	var off int64
	for off < size {
		payload, rerr := j.log.ReadAt(off)
		if rerr != nil {
			break
		}
		gs, derr := decodeJournalRecord(payload)
		if derr != nil {
			break
		}
		groups = append(groups, gs...)
		records++
		off += int64(len(payload)) + 8
	}
	return groups, records, off, j.tornTail(off, size), nil
}

// tornTail measures how much non-zero data sits past the valid record prefix:
// the extent of a record that was mid-append at the crash. Trailing zeros are
// the preallocated runway, not torn data.
func (j *commitJournal) tornTail(off, size int64) int64 {
	end := off
	buf := make([]byte, 256<<10)
	for pos := off; pos < size; {
		chunk := buf
		if rem := size - pos; rem < int64(len(chunk)) {
			chunk = chunk[:rem]
		}
		n, err := j.dev.ReadAt(chunk, pos)
		for i := n - 1; i >= 0; i-- {
			if chunk[i] != 0 {
				end = pos + int64(i) + 1
				break
			}
		}
		if err != nil || n == 0 {
			break
		}
		pos += int64(n)
	}
	return end - off
}

// sortForReplay orders groups exactly as the live store applied them.
func sortForReplay(groups []journalGroup) {
	sort.Slice(groups, func(a, b int) bool {
		if groups[a].shard != groups[b].shard {
			return groups[a].shard < groups[b].shard
		}
		return groups[a].seq < groups[b].seq
	})
}

func encodeJournalRecord(groups []journalGroup) []byte {
	size := binary.MaxVarintLen64
	for _, g := range groups {
		size += 3 * binary.MaxVarintLen64
		for _, op := range g.ops {
			size += 1 + 2*binary.MaxVarintLen64 + len(op.Key) + len(op.Value)
		}
	}
	buf := make([]byte, 0, size)
	var tmp [binary.MaxVarintLen64]byte
	uv := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	uv(uint64(len(groups)))
	for _, g := range groups {
		uv(uint64(g.shard))
		uv(g.seq)
		uv(uint64(len(g.ops)))
		for _, op := range g.ops {
			var flags byte
			if op.Delete {
				flags |= 1
			}
			buf = append(buf, flags)
			uv(uint64(len(op.Key)))
			buf = append(buf, op.Key...)
			uv(uint64(len(op.Value)))
			buf = append(buf, op.Value...)
		}
	}
	return buf
}

func decodeJournalRecord(b []byte) ([]journalGroup, error) {
	uv := func() (uint64, bool) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, false
		}
		b = b[n:]
		return v, true
	}
	take := func(n uint64) ([]byte, bool) {
		if uint64(len(b)) < n {
			return nil, false
		}
		out := b[:n]
		b = b[n:]
		return out, true
	}
	ngroups, ok := uv()
	if !ok || ngroups > uint64(len(b))/3 {
		return nil, storage.ErrCorrupt
	}
	groups := make([]journalGroup, 0, ngroups)
	for gi := uint64(0); gi < ngroups; gi++ {
		shard, ok1 := uv()
		seq, ok2 := uv()
		nops, ok3 := uv()
		if !ok1 || !ok2 || !ok3 || nops > uint64(len(b))/3 {
			return nil, storage.ErrCorrupt
		}
		g := journalGroup{shard: int(shard), seq: seq, ops: make([]storage.Op, 0, nops)}
		for oi := uint64(0); oi < nops; oi++ {
			if len(b) < 1 {
				return nil, storage.ErrCorrupt
			}
			flags := b[0]
			b = b[1:]
			klen, ok4 := uv()
			key, ok5 := take(klen)
			if !ok4 || !ok5 {
				return nil, storage.ErrCorrupt
			}
			vlen, ok6 := uv()
			val, ok7 := take(vlen)
			if !ok6 || !ok7 {
				return nil, storage.ErrCorrupt
			}
			g.ops = append(g.ops, storage.Op{
				Key:    append([]byte(nil), key...),
				Value:  append([]byte(nil), val...),
				Delete: flags&1 != 0,
			})
		}
		groups = append(groups, g)
	}
	if len(b) != 0 {
		return nil, storage.ErrCorrupt
	}
	return groups, nil
}
