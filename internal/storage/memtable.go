package storage

import (
	"bytes"
	"encoding/binary"
	"math"
)

// memEntry is one key/value pair as the engine passes it between the
// memtable, runs and merges. A nil value (with tombstone set) marks a
// deletion.
type memEntry struct {
	key       []byte
	value     []byte
	tombstone bool
}

// memtable is the RAM-resident write buffer of the LSM engine. Every put
// appends one record to an arena,
//
//	[4] key length  [4] value length  [1] flags (bit 0 = tombstone)  key  value
//
// and idx holds the arena offset of each key's newest record, sorted by key.
// A put therefore copies its key and value once and shifts only 4-byte
// offsets, and the index holds no pointers for the garbage collector to scan.
//
// Arena bytes are never rewritten: an overwrite appends a new record and
// repoints the index. Entries handed out by get, scan, snapshot and all alias
// the arena and stay valid after the engine lock is released, even across
// later puts and after the memtable itself is replaced by a flush.
type memtable struct {
	arena []byte
	idx   []uint32
}

// memRecordHeader is the fixed prefix of an arena record.
const memRecordHeader = 9

func newMemtable() *memtable {
	return &memtable{}
}

// keyAt returns the key of the record at off.
func (m *memtable) keyAt(off uint32) []byte {
	klen := binary.LittleEndian.Uint32(m.arena[off:])
	start := off + memRecordHeader
	return m.arena[start : start+klen : start+klen]
}

// entryAt decodes the record at off; key and value alias the arena.
func (m *memtable) entryAt(off uint32) memEntry {
	klen := binary.LittleEndian.Uint32(m.arena[off:])
	vlen := binary.LittleEndian.Uint32(m.arena[off+4:])
	tombstone := m.arena[off+8]&runFlagTombstone != 0
	k := off + memRecordHeader
	v := k + klen
	e := memEntry{key: m.arena[k:v:v], tombstone: tombstone}
	if !tombstone {
		e.value = m.arena[v : v+vlen : v+vlen]
	}
	return e
}

// search returns the first index position whose key is >= key.
func (m *memtable) search(key []byte) int {
	lo, hi := 0, len(m.idx)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if bytes.Compare(m.keyAt(m.idx[h]), key) < 0 {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// find returns the index position at which key is or would be stored, and
// whether it is present.
func (m *memtable) find(key []byte) (int, bool) {
	i := m.search(key)
	return i, i < len(m.idx) && bytes.Equal(m.keyAt(m.idx[i]), key)
}

// put inserts or replaces key with value (tombstone if delete).
func (m *memtable) put(key, value []byte, tombstone bool) {
	if tombstone {
		value = nil
	}
	off := len(m.arena)
	need := memRecordHeader + len(key) + len(value)
	if uint64(off)+uint64(need) > math.MaxUint32 {
		// The engines flush at MemtableBytes after every batch, so only a
		// single batch of more than 4 GiB could get here.
		panic("storage: memtable arena exceeds 4 GiB")
	}
	if cap(m.arena)-off < need {
		// Double rather than let append grow a large slice by 1.25x: the
		// arena is rewritten on every growth, and doubling bounds the total
		// copied to one arena length.
		grown := make([]byte, off, max(2*cap(m.arena), off+need, 4<<10))
		copy(grown, m.arena)
		m.arena = grown
	}
	var flags byte
	if tombstone {
		flags = runFlagTombstone
	}
	m.arena = binary.LittleEndian.AppendUint32(m.arena, uint32(len(key)))
	m.arena = binary.LittleEndian.AppendUint32(m.arena, uint32(len(value)))
	m.arena = append(m.arena, flags)
	m.arena = append(m.arena, key...)
	m.arena = append(m.arena, value...)

	i, found := m.find(key)
	if !found {
		m.idx = append(m.idx, 0)
		copy(m.idx[i+1:], m.idx[i:])
	}
	m.idx[i] = uint32(off)
}

// get looks up key. The second result reports whether the key is present in
// the memtable at all (possibly as a tombstone).
func (m *memtable) get(key []byte) (memEntry, bool) {
	i, found := m.find(key)
	if !found {
		return memEntry{}, false
	}
	return m.entryAt(m.idx[i]), true
}

// size returns the RAM the memtable holds: the whole arena, including the
// records that later overwrites shadowed, plus the index. Counting shadowed
// records is what makes a key overwritten many times still reach the flush
// threshold.
func (m *memtable) size() int { return len(m.arena) + 4*len(m.idx) }

// count returns the number of distinct keys (including tombstones).
func (m *memtable) count() int { return len(m.idx) }

// scan calls fn for each entry with key in [start, end) in key order. A nil
// end means "until the last key". Iteration stops when fn returns false.
func (m *memtable) scan(start, end []byte, fn func(memEntry) bool) {
	for i := m.search(start); i < len(m.idx); i++ {
		e := m.entryAt(m.idx[i])
		if end != nil && bytes.Compare(e.key, end) >= 0 {
			return
		}
		if !fn(e) {
			return
		}
	}
}

// all returns every entry in key order.
func (m *memtable) all() []memEntry {
	out := make([]memEntry, len(m.idx))
	for i, off := range m.idx {
		out[i] = m.entryAt(off)
	}
	return out
}

// snapshot returns the entries with key in [start, end) in key order. They
// alias the arena, whose bytes are never rewritten, so they stay valid after
// the lock protecting the memtable is released.
func (m *memtable) snapshot(start, end []byte) []memEntry {
	var out []memEntry
	m.scan(start, end, func(e memEntry) bool {
		out = append(out, e)
		return true
	})
	return out
}
