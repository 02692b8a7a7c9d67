package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync/atomic"
)

// A run is an immutable sorted block of entries written sequentially to the
// device. Runs are the on-flash representation of flushed memtables and of
// compaction outputs.
//
// On-device layout of a run:
//
//	[4] crc32 over the body
//	[4] bit 31: footer flag (always set); bits 0..30: body length
//	body: repeated prefix-compressed entries
//	  [uvarint] shared key prefix length (0 at restart points)
//	  [uvarint] unshared key suffix length
//	  [uvarint] value length (0 for tombstones)
//	  [1]       flags (bit 0 = tombstone)
//	  [suffix]  unshared key bytes
//	  [v]       value
//	footer:
//	  [4] crc32 over the footer payload
//	  [4] footer payload length
//	  payload: entry count, first/last key, bloom filter, sparse index
//
// Keys share their prefix with the previous entry except at restart points —
// exactly where the sparse index points — so any indexed segment (a block)
// can be decoded standalone. A block closes before the entry that would be
// its sparseEvery+1-th, or before any entry once it holds blockBytes of body:
// small entries pack sparseEvery to a block, large ones a few. Readers only
// follow the footer's index, so runs written under any restart spacing read
// back alike. The footer carries everything
// openRun needs to rebuild the in-RAM descriptor (count, key range, bloom
// filter, sparse index) without re-parsing the body: recovery reads the body
// once to verify its checksum and never decodes an entry.
//
// Runs written before the footer format — bit 31 of the length word clear,
// plain-encoded bodies — are not read: openRun refuses an intact one with
// ErrLegacyStore.
//
// Each run keeps a sparse index in RAM: the first key of every block and its
// byte offset inside the body, so a point lookup reads one block — at most
// blockBytes plus one entry, however large the values. The index grows with
// the entry count ÷ sparseEvery or the body bytes ÷ blockBytes, whichever is
// larger: a few entries per run, which is what makes the engine viable on a
// 64 KiB token.
type run struct {
	id     uint64 // process-unique id, keys the block cache
	offset int64  // device offset of the body
	length int    // body length in bytes
	tail   int    // footer bytes following the body
	count  int
	filter *bloomFilter
	// sparse index: sorted by key.
	indexKeys    [][]byte
	indexOffsets []int
	first, last  []byte
}

// extent is the total on-device size of the run including its 8-byte header.
func (r *run) extent() int64 { return 8 + int64(r.length) + int64(r.tail) }

// sparseEvery and blockBytes bound a block — the body span between two sparse
// index entries, which is also the prefix compression restart interval (they
// must coincide: an indexed segment starts at a restart point so it can be
// decoded without earlier context). A block holds at most sparseEvery
// entries, and no entry starts once it holds blockBytes, so a point lookup's
// buffer is bounded in bytes, not only in entries.
const (
	sparseEvery = 16
	blockBytes  = 4 << 10
)

// runFlagTombstone marks deleted entries.
const runFlagTombstone = 0x01

// runFooterFlag is set in the header length word of footered runs.
const runFooterFlag = 1 << 31

// runIDs allocates process-unique run ids; ids are never reused, so block
// cache entries of a replaced run can simply be dropped by id.
var runIDs atomic.Uint64

// encodePrefixedEntry appends the prefix-compressed encoding of an entry
// whose key shares `shared` leading bytes with the previous entry's key.
func encodePrefixedEntry(buf []byte, shared int, key, value []byte, tombstone bool) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(shared))
	buf = append(buf, tmp[:n]...)
	n = binary.PutUvarint(tmp[:], uint64(len(key)-shared))
	buf = append(buf, tmp[:n]...)
	n = binary.PutUvarint(tmp[:], uint64(len(value)))
	buf = append(buf, tmp[:n]...)
	var flags byte
	if tombstone {
		flags |= runFlagTombstone
	}
	buf = append(buf, flags)
	buf = append(buf, key[shared:]...)
	buf = append(buf, value...)
	return buf
}

// decodePrefixedEntry decodes one prefix-compressed entry from b. The
// reconstructed key is appended into *prev (which must hold the previous
// entry's key and is reused as scratch); the returned value aliases b, so
// callers that retain it past the buffer's lifetime must copy. Returns the
// value, the flags byte, and the bytes consumed.
func decodePrefixedEntry(b []byte, prev *[]byte) (value []byte, flags byte, n int, err error) {
	shared, n1 := binary.Uvarint(b)
	if n1 <= 0 {
		return nil, 0, 0, ErrCorrupt
	}
	unshared, n2 := binary.Uvarint(b[n1:])
	if n2 <= 0 {
		return nil, 0, 0, ErrCorrupt
	}
	vlen, n3 := binary.Uvarint(b[n1+n2:])
	if n3 <= 0 {
		return nil, 0, 0, ErrCorrupt
	}
	pos := n1 + n2 + n3
	if pos >= len(b) {
		return nil, 0, 0, ErrCorrupt
	}
	flags = b[pos]
	pos++
	end := pos + int(unshared) + int(vlen)
	if end > len(b) || shared > uint64(len(*prev)) {
		return nil, 0, 0, ErrCorrupt
	}
	*prev = append((*prev)[:shared], b[pos:pos+int(unshared)]...)
	return b[pos+int(unshared) : end], flags, end, nil
}

// sharedPrefixLen returns the length of the common prefix of a and b.
func sharedPrefixLen(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// uvarintLen is the encoded length of binary.PutUvarint(v).
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// writeRun writes the sorted entries as a new run at the end of the device —
// header, prefix-compressed body, and footer in one write — and returns its
// descriptor. bloomBitsPerKey sizes the per-run bloom filter (0 = default
// sizing, negative = no filter).
//
// A sizing pass places the restart points (the block rule lives there alone)
// and computes the body length, so the whole run is encoded into one buffer
// allocated at its final size; the encoding pass restarts wherever the index
// says a block begins.
func writeRun(dev Device, entries []memEntry, bloomBitsPerKey int) (*run, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("storage: cannot write an empty run")
	}
	r := &run{id: runIDs.Add(1), count: len(entries)}
	if bloomBitsPerKey >= 0 {
		r.filter = newBloomFilter(len(entries), bloomBitsPerKey)
	}
	nIndex := (len(entries) + sparseEvery - 1) / sparseEvery // a lower bound
	r.indexKeys = make([][]byte, 0, nIndex)
	r.indexOffsets = make([]int, 0, nIndex)
	var prevKey []byte
	blockStart, blockLen := 0, 0 // body offset and entry count of the open block
	for i, e := range entries {
		shared := 0
		if i == 0 || blockLen == sparseEvery || r.length-blockStart >= blockBytes {
			// Restart point: full key, and a sparse index entry.
			r.indexKeys = append(r.indexKeys, append([]byte(nil), e.key...))
			r.indexOffsets = append(r.indexOffsets, r.length)
			blockStart, blockLen = r.length, 0
		} else {
			shared = sharedPrefixLen(prevKey, e.key)
		}
		blockLen++
		unshared := len(e.key) - shared
		r.length += uvarintLen(uint64(shared)) + uvarintLen(uint64(unshared)) +
			uvarintLen(uint64(len(e.value))) + 1 + unshared + len(e.value)
		prevKey = e.key
	}
	r.first = append([]byte(nil), entries[0].key...)
	r.last = append([]byte(nil), entries[len(entries)-1].key...)

	buf := make([]byte, 8, 8+r.length+r.footerCap())
	restarts := r.indexOffsets
	for _, e := range entries {
		shared := 0
		if len(restarts) > 0 && len(buf)-8 == restarts[0] {
			restarts = restarts[1:]
		} else {
			shared = sharedPrefixLen(prevKey, e.key)
		}
		buf = encodePrefixedEntry(buf, shared, e.key, e.value, e.tombstone)
		prevKey = e.key
		if r.filter != nil {
			r.filter.add(e.key)
		}
	}
	body := buf[8:]
	binary.BigEndian.PutUint32(buf[0:4], crc32.ChecksumIEEE(body))
	binary.BigEndian.PutUint32(buf[4:8], uint32(len(body))|runFooterFlag)
	buf = r.appendFooter(buf)
	r.tail = len(buf) - 8 - r.length

	off := dev.Size()
	n, err := dev.WriteAt(buf, off)
	if err := fullWrite(n, len(buf), err); err != nil {
		return nil, fmt.Errorf("storage: write run: %w", err)
	}
	r.offset = off + 8
	return r, nil
}

// footerCap bounds the encoded footer size from above.
func (r *run) footerCap() int {
	n := 8 + 1 + 5*binary.MaxVarintLen64 + len(r.first) + len(r.last)
	if r.filter != nil {
		n += len(r.filter.bits)
	}
	for _, k := range r.indexKeys {
		n += 2*binary.MaxVarintLen64 + len(k)
	}
	return n
}

// appendFooter appends the descriptor — count, key range, bloom filter,
// sparse index — framed as [4]crc [4]len payload.
func (r *run) appendFooter(buf []byte) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, 8)...)
	buf = binary.AppendUvarint(buf, uint64(r.count))
	buf = binary.AppendUvarint(buf, uint64(len(r.first)))
	buf = append(buf, r.first...)
	buf = binary.AppendUvarint(buf, uint64(len(r.last)))
	buf = append(buf, r.last...)
	buf = r.filter.marshal(buf)
	buf = binary.AppendUvarint(buf, uint64(len(r.indexKeys)))
	for i, k := range r.indexKeys {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.AppendUvarint(buf, uint64(r.indexOffsets[i]))
	}
	payload := buf[start+8:]
	binary.BigEndian.PutUint32(buf[start:], crc32.ChecksumIEEE(payload))
	binary.BigEndian.PutUint32(buf[start+4:], uint32(len(payload)))
	return buf
}

// decodeFooter parses a footer payload into the descriptor fields.
func (r *run) decodeFooter(payload []byte) error {
	bad := func(what string) error {
		return fmt.Errorf("storage: run footer %s: %w", what, ErrCorrupt)
	}
	getBytes := func(b []byte) ([]byte, []byte, bool) {
		l, n := binary.Uvarint(b)
		if n <= 0 || l > uint64(len(b)-n) {
			return nil, nil, false
		}
		return append([]byte(nil), b[n:n+int(l)]...), b[n+int(l):], true
	}
	// Counts are bounded by the bytes that must hold their elements — a body
	// entry takes at least 4 bytes, an index entry at least 2 — so a damaged
	// footer cannot demand an allocation larger than its run.
	count, n := binary.Uvarint(payload)
	if n <= 0 || count == 0 || count > uint64(r.length)/4 {
		return bad("count")
	}
	r.count = int(count)
	b := payload[n:]
	var ok bool
	if r.first, b, ok = getBytes(b); !ok {
		return bad("first key")
	}
	if r.last, b, ok = getBytes(b); !ok {
		return bad("last key")
	}
	filter, n, err := unmarshalBloom(b)
	if err != nil {
		return err
	}
	r.filter = filter
	b = b[n:]
	nIndex, n := binary.Uvarint(b)
	if n <= 0 || nIndex > uint64(len(b)-n)/2 {
		return bad("index count")
	}
	b = b[n:]
	r.indexKeys = make([][]byte, 0, nIndex)
	r.indexOffsets = make([]int, 0, nIndex)
	for i := uint64(0); i < nIndex; i++ {
		var k []byte
		if k, b, ok = getBytes(b); !ok {
			return bad("index key")
		}
		off, n := binary.Uvarint(b)
		if n <= 0 || off > uint64(r.length) {
			return bad("index offset")
		}
		b = b[n:]
		r.indexKeys = append(r.indexKeys, k)
		r.indexOffsets = append(r.indexOffsets, int(off))
	}
	if len(b) != 0 {
		return bad("trailing bytes")
	}
	return nil
}

// openRun rebuilds the in-RAM descriptor (sparse index, key range, bloom
// filter, count) of the run stored at offset off. It is the recovery-path
// inverse of writeRun: the descriptor comes from the footer and the body is
// only checksummed, never decoded. Torn or corrupted runs (body or footer
// extending past the device, CRC mismatch) come back as ErrCorrupt-wrapped
// errors so the caller can truncate the tail; an intact footer-less run — the
// pre-footer format — comes back as ErrLegacyStore.
func openRun(dev Device, off int64) (*run, error) {
	size := dev.Size()
	if off+8 > size {
		return nil, fmt.Errorf("storage: run header at %d past device end %d: %w", off, size, ErrCorrupt)
	}
	header := make([]byte, 8)
	n, err := dev.ReadAt(header, off)
	if err := fullRead(n, len(header), err); err != nil {
		return nil, fmt.Errorf("storage: open run header: %w", err)
	}
	want := binary.BigEndian.Uint32(header[0:4])
	word := binary.BigEndian.Uint32(header[4:8])
	length := int64(word &^ runFooterFlag)
	if length == 0 || off+8+length > size {
		return nil, fmt.Errorf("storage: run body of %d bytes at %d exceeds device end %d: %w",
			length, off, size, ErrCorrupt)
	}
	body := make([]byte, length)
	n, err = dev.ReadAt(body, off+8)
	if err := fullRead(n, int(length), err); err != nil {
		return nil, fmt.Errorf("storage: open run body: %w", err)
	}
	if crc32.ChecksumIEEE(body) != want {
		return nil, fmt.Errorf("storage: run body checksum mismatch: %w", ErrCorrupt)
	}
	if word&runFooterFlag == 0 {
		return nil, fmt.Errorf("storage: footer-less run at %d: %w", off, ErrLegacyStore)
	}
	footerOff := off + 8 + length
	if footerOff+8 > size {
		return nil, fmt.Errorf("storage: run footer header at %d past device end %d: %w", footerOff, size, ErrCorrupt)
	}
	fh := make([]byte, 8)
	n, err = dev.ReadAt(fh, footerOff)
	if err := fullRead(n, len(fh), err); err != nil {
		return nil, fmt.Errorf("storage: open run footer header: %w", err)
	}
	fwant := binary.BigEndian.Uint32(fh[0:4])
	flen := int64(binary.BigEndian.Uint32(fh[4:8]))
	if flen == 0 || footerOff+8+flen > size {
		return nil, fmt.Errorf("storage: run footer of %d bytes at %d exceeds device end %d: %w",
			flen, footerOff, size, ErrCorrupt)
	}
	payload := make([]byte, flen)
	n, err = dev.ReadAt(payload, footerOff+8)
	if err := fullRead(n, int(flen), err); err != nil {
		return nil, fmt.Errorf("storage: open run footer: %w", err)
	}
	if crc32.ChecksumIEEE(payload) != fwant {
		return nil, fmt.Errorf("storage: run footer checksum mismatch: %w", ErrCorrupt)
	}
	r := &run{id: runIDs.Add(1), offset: off + 8, length: int(length), tail: 8 + int(flen)}
	if err := r.decodeFooter(payload); err != nil {
		return nil, err
	}
	return r, nil
}

// scanRuns walks the device from offset zero and rebuilds the descriptor of
// every complete run, in write order. It stops at the first torn or corrupt
// run — the signature a crash leaves mid-flush — and returns the byte extent
// of the valid prefix so the caller can truncate the tail away; data past the
// first damage is unreachable anyway because runs are parsed sequentially.
// A legacy run is not damage: it fails the scan with ErrLegacyStore so the
// caller refuses the store instead of truncating it.
func scanRuns(dev Device) (runs []*run, valid int64, err error) {
	off := int64(0)
	for off+8 <= dev.Size() {
		r, err := openRun(dev, off)
		if errors.Is(err, ErrLegacyStore) {
			return nil, 0, err
		}
		if err != nil {
			break
		}
		runs = append(runs, r)
		off += r.extent()
	}
	return runs, off, nil
}

// verify re-reads the run body and checks its CRC.
func (r *run) verify(dev Device) error {
	header := make([]byte, 8)
	n, err := dev.ReadAt(header, r.offset-8)
	if err := fullRead(n, len(header), err); err != nil {
		return fmt.Errorf("storage: run verify: %w", err)
	}
	want := binary.BigEndian.Uint32(header[0:4])
	body := make([]byte, r.length)
	n, err = dev.ReadAt(body, r.offset)
	if err := fullRead(n, len(body), err); err != nil {
		return fmt.Errorf("storage: run verify: %w", err)
	}
	if crc32.ChecksumIEEE(body) != want {
		return ErrCorrupt
	}
	return nil
}

// mayContain is a cheap range check used to skip runs during lookups.
func (r *run) mayContain(key []byte) bool {
	return bytes.Compare(key, r.first) >= 0 && bytes.Compare(key, r.last) <= 0
}

// segmentFor returns the byte range [from, to) of the body that must be read
// to find key, based on the sparse index.
func (r *run) segmentFor(key []byte) (from, to int) {
	i := sort.Search(len(r.indexKeys), func(i int) bool {
		return bytes.Compare(r.indexKeys[i], key) > 0
	})
	// The segment starts at the previous index entry.
	if i == 0 {
		from = 0
	} else {
		from = r.indexOffsets[i-1]
	}
	if i < len(r.indexOffsets) {
		to = r.indexOffsets[i]
	} else {
		to = r.length
	}
	return from, to
}

// get looks up key in the run. The bool reports whether the key was found
// (possibly as a tombstone). The filter and range checks reject most misses
// without touching the device; on a hit path the indexed segment is served
// from the block cache when present and admitted to it after a device read.
// The returned entry's value may alias a cache-resident buffer — callers
// that hand it out must copy. h is bloomHash(key), computed once by the caller
// for the whole run stack. Counter increments go to c (nil = uncounted).
func (r *run) get(dev Device, cache *BlockCache, key []byte, h uint64, c *kvCounters) (memEntry, bool, error) {
	if !r.mayContain(key) {
		return memEntry{}, false, nil
	}
	if !r.filter.mayContainHash(h) {
		if c != nil {
			c.bloomSkips.Add(1)
		}
		return memEntry{}, false, nil
	}
	from, to := r.segmentFor(key)
	seg := cache.get(r.id, int64(from))
	if seg != nil {
		if c != nil {
			c.cacheHits.Add(1)
		}
	} else {
		if cache != nil && c != nil {
			c.cacheMisses.Add(1)
		}
		seg = make([]byte, to-from)
		// A short segment fails here, before the cache can admit it.
		n, err := dev.ReadAt(seg, r.offset+int64(from))
		if err := fullRead(n, len(seg), err); err != nil {
			return memEntry{}, false, fmt.Errorf("storage: run get: %w", err)
		}
		if c != nil {
			c.runReads.Add(1)
			c.runReadBytes.Add(int64(len(seg)))
		}
		cache.put(r.id, int64(from), seg)
	}
	return r.searchSegment(seg, key)
}

// searchSegment scans one indexed segment for key. seg must start at a
// restart point (segments returned by segmentFor always do).
func (r *run) searchSegment(seg, key []byte) (memEntry, bool, error) {
	var scratch []byte
	pos := 0
	for pos < len(seg) {
		value, flags, n, err := decodePrefixedEntry(seg[pos:], &scratch)
		if err != nil {
			return memEntry{}, false, err
		}
		cmp := bytes.Compare(scratch, key)
		if cmp == 0 {
			return memEntry{
				key:       scratch,
				value:     value,
				tombstone: flags&runFlagTombstone != 0,
			}, true, nil
		}
		if cmp > 0 {
			return memEntry{}, false, nil
		}
		pos += n
	}
	return memEntry{}, false, nil
}

// scan iterates over all entries of the run in key order with key in
// [start, end) (nil end = unbounded), calling fn until it returns false.
// Keys and values alias buffers owned by this scan (the body read for it and
// an append-only key arena) that are never mutated afterwards, so retaining
// them is safe.
func (r *run) scan(dev Device, start, end []byte, fn func(memEntry) bool) error {
	// Read only the blocks that can hold [start, end): none when the run's
	// key range misses it, else those from start's block to end's.
	if (start != nil && bytes.Compare(r.last, start) < 0) || (end != nil && bytes.Compare(r.first, end) >= 0) {
		return nil
	}
	from, to := 0, r.length
	if start != nil {
		from, _ = r.segmentFor(start)
	}
	if end != nil {
		_, to = r.segmentFor(end)
	}
	body := make([]byte, max(to-from, 0)) // empty when start > end
	n, err := dev.ReadAt(body, r.offset+int64(from))
	if err := fullRead(n, len(body), err); err != nil {
		return fmt.Errorf("storage: run scan: %w", err)
	}
	emit := func(e memEntry) bool { // reports whether to keep going
		if start != nil && bytes.Compare(e.key, start) < 0 {
			return true
		}
		if end != nil && bytes.Compare(e.key, end) >= 0 {
			return false
		}
		return fn(e)
	}
	pos := 0
	var scratch, keys []byte
	for pos < len(body) {
		value, flags, n, err := decodePrefixedEntry(body[pos:], &scratch)
		if err != nil {
			return err
		}
		pos += n
		if cap(keys)-len(keys) < len(scratch) {
			// A fresh block; keys already handed out keep the old one.
			keys = make([]byte, 0, max(4<<10, 2*len(scratch)))
		}
		keys = append(keys, scratch...)
		e := memEntry{
			key:       keys[len(keys)-len(scratch) : len(keys) : len(keys)],
			value:     value,
			tombstone: flags&runFlagTombstone != 0,
		}
		if !emit(e) {
			return nil
		}
	}
	return nil
}

// allEntries loads the full run into memory; used by compaction.
func (r *run) allEntries(dev Device) ([]memEntry, error) {
	out := make([]memEntry, 0, r.count)
	err := r.scan(dev, nil, nil, func(e memEntry) bool {
		out = append(out, e)
		return true
	})
	return out, err
}

// mergeEntries merges a run stack (oldest first) and a slice of memtable
// entries (already restricted to [start, end)) into a single sorted slice
// where newer versions shadow older ones. Tombstones are retained so callers
// can decide whether to drop them. The engine passes a memtable snapshot so
// the merge can run outside its lock.
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
