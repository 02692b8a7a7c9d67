package crypto

// This file is the zero-allocation sealing fast path. The trusted cell runs
// on resource-constrained secure hardware, so the per-envelope constant
// factor — cipher construction, nonce generation, buffer churn — is the
// scaling bottleneck once writes, reads and sync are parallel. Three
// mechanisms remove it:
//
//   - AEADCache: per-document keys are reused across seal/open/re-seal, so
//     the expanded AES-GCM cipher is cached per SymmetricKey instead of being
//     rebuilt (aes.NewCipher + cipher.NewGCM) on every call.
//   - nonceSource: nonces are drawn from a bulk crypto/rand read, amortizing
//     the system-call cost over many envelopes. Every nonce is still fresh
//     randomness used exactly once.
//   - SealTo/OpenTo + BufPool: append-style APIs build the whole envelope in
//     the caller's buffer, so steady-state sealing performs zero heap
//     allocations when the caller recycles buffers through a BufPool.
//
// These are the only envelope implementation. The seed's per-call version
// survives in envelope_legacy_test.go as the differential fuzz oracle.

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// ---------------------------------------------------------------------------
// AEAD cache
// ---------------------------------------------------------------------------

const (
	aeadCacheShards = 16
	// defaultAEADCacheCap bounds the process-wide envelope cache. Each entry
	// is an expanded AES key schedule plus GCM tables (~1 KiB), so the cap
	// also bounds the cache's memory at a few MiB.
	defaultAEADCacheCap = 8192
)

// AEADCache memoizes the AES-256-GCM cipher of recently used symmetric keys.
// Building the cipher (key expansion + GCM table precomputation) costs more
// than sealing a small payload, and the cell reuses per-document keys across
// seal, open and re-seal, so caching it roughly doubles envelope throughput.
// The cache is bounded: when a stripe fills up an arbitrary entry is evicted,
// which is cheap and good enough for the reuse patterns of a cell (hot keys
// are re-inserted on their next use). All methods are safe for concurrent
// use; the returned AEADs are stateless and shareable.
type AEADCache struct {
	shards   [aeadCacheShards]aeadCacheShard
	perShard int
	hits     atomic.Int64
	misses   atomic.Int64
}

type aeadCacheShard struct {
	mu sync.RWMutex
	m  map[SymmetricKey]cipher.AEAD
}

// NewAEADCache builds a cache bounded to roughly capacity entries.
func NewAEADCache(capacity int) *AEADCache {
	if capacity < aeadCacheShards {
		capacity = aeadCacheShards
	}
	c := &AEADCache{perShard: capacity / aeadCacheShards}
	for i := range c.shards {
		c.shards[i].m = make(map[SymmetricKey]cipher.AEAD, c.perShard)
	}
	return c
}

// envelopeAEADs is the process-wide cache behind Seal/Open/SealTo/OpenTo.
var envelopeAEADs = NewAEADCache(defaultAEADCacheCap)

// newAEAD builds the AES-256-GCM cipher for key from scratch.
func newAEAD(key SymmetricKey) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

func (c *AEADCache) shardFor(key SymmetricKey) *aeadCacheShard {
	// Keys are HKDF outputs or fresh randomness, so the first byte is
	// uniformly distributed across stripes.
	return &c.shards[key[0]&(aeadCacheShards-1)]
}

// Get returns the cached cipher for key, building and inserting it on a miss.
func (c *AEADCache) Get(key SymmetricKey) (cipher.AEAD, error) {
	s := c.shardFor(key)
	s.mu.RLock()
	a := s.m[key]
	s.mu.RUnlock()
	if a != nil {
		c.hits.Add(1)
		return a, nil
	}
	a, err := newAEAD(key)
	if err != nil {
		return nil, err
	}
	c.misses.Add(1)
	s.mu.Lock()
	if cur, ok := s.m[key]; ok {
		// Lost a construction race; share the winner so concurrent callers
		// converge on one cipher per key.
		s.mu.Unlock()
		return cur, nil
	}
	if len(s.m) >= c.perShard {
		for k := range s.m {
			delete(s.m, k)
			break
		}
	}
	s.m[key] = a
	s.mu.Unlock()
	return a, nil
}

// Stats returns the hit and miss counters.
func (c *AEADCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// ---------------------------------------------------------------------------
// Bulk nonce source
// ---------------------------------------------------------------------------

// nonceBatchSize is how much randomness one refill draws: 128 nonces per
// crypto/rand read.
const nonceBatchSize = 128 * gcmNonceSize

// nonceSource hands out GCM nonces from a bulk crypto/rand read. Every nonce
// is fresh system randomness consumed exactly once — the buffer only
// amortizes the read, it never stretches or reuses entropy.
type nonceSource struct {
	mu  sync.Mutex
	buf [nonceBatchSize]byte
	off int
}

var nonces = nonceSource{off: nonceBatchSize} // starts empty

// next fills dst (gcmNonceSize bytes) with a fresh nonce.
func (s *nonceSource) next(dst []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.off+gcmNonceSize > nonceBatchSize {
		if _, err := io.ReadFull(rand.Reader, s.buf[:]); err != nil {
			return err
		}
		s.off = 0
	}
	copy(dst, s.buf[s.off:s.off+gcmNonceSize])
	s.off += gcmNonceSize
	return nil
}

// ---------------------------------------------------------------------------
// Append-style envelope APIs
// ---------------------------------------------------------------------------

// grow returns b with at least n bytes of spare capacity, reallocating once
// if needed.
func grow(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b
	}
	nb := make([]byte, len(b), len(b)+n)
	copy(nb, b)
	return nb
}

// SealTo encrypts plaintext under key, binding the associated data, and
// appends the whole envelope to dst, returning the extended slice. When dst
// has enough spare capacity the call performs zero heap allocations: header,
// nonce, associated data and ciphertext are produced directly in place. The
// envelope needs len(plaintext) + EnvelopeOverhead(len(associated)) bytes.
func SealTo(dst []byte, key SymmetricKey, plaintext, associated []byte) ([]byte, error) {
	aead, err := envelopeAEADs.Get(key)
	if err != nil {
		return nil, fmt.Errorf("crypto: seal: %w", err)
	}
	headerLen := envelopeHeaderBase + len(associated)
	out := grow(dst, headerLen+len(plaintext)+aead.Overhead())
	base := len(out)
	out = out[:base+headerLen]
	hdr := out[base:]
	hdr[0] = envelopeVersion
	if err := nonces.next(hdr[1 : 1+gcmNonceSize]); err != nil {
		return nil, fmt.Errorf("crypto: seal nonce: %w", err)
	}
	binary.BigEndian.PutUint32(hdr[1+gcmNonceSize:], uint32(len(associated)))
	copy(hdr[envelopeHeaderBase:], associated)
	// Seal appends the ciphertext after the header; the capacity reserved
	// above guarantees no reallocation, and the header region is read (as
	// associated data), never written.
	return aead.Seal(out, hdr[1:1+gcmNonceSize], plaintext, hdr), nil
}

// OpenTo decrypts a sealed envelope, appending the plaintext to dst. The
// returned associated data aliases the sealed input — it is valid as long as
// sealed is, and must not be modified. When dst has enough spare capacity the
// only work is the decryption itself: no copies, no allocations.
func OpenTo(dst []byte, key SymmetricKey, sealed []byte) (plaintext, associated []byte, err error) {
	if len(sealed) < envelopeHeaderBase {
		return nil, nil, ErrDecrypt
	}
	if sealed[0] != envelopeVersion {
		return nil, nil, fmt.Errorf("crypto: unsupported envelope version %d", sealed[0])
	}
	adLen := binary.BigEndian.Uint32(sealed[1+gcmNonceSize:])
	// Bound-check before converting: on 32-bit platforms int(adLen) can go
	// negative, and the envelope comes from the untrusted provider.
	if uint64(adLen) > uint64(len(sealed)-envelopeHeaderBase) {
		return nil, nil, ErrDecrypt
	}
	headerEnd := envelopeHeaderBase + int(adLen)
	aead, err := envelopeAEADs.Get(key)
	if err != nil {
		return nil, nil, fmt.Errorf("crypto: open: %w", err)
	}
	plaintext, err = aead.Open(dst, sealed[1:1+gcmNonceSize], sealed[headerEnd:], sealed[:headerEnd])
	if err != nil {
		return nil, nil, ErrDecrypt
	}
	return plaintext, sealed[envelopeHeaderBase:headerEnd], nil
}

// ---------------------------------------------------------------------------
// Buffer pool
// ---------------------------------------------------------------------------

// maxPooledBufCap keeps the pool from pinning one-off giant buffers.
const maxPooledBufCap = 4 << 20

// BufPool recycles byte buffers across sealing and codec hot paths, making
// steady-state envelope work allocation-free. Get returns a pointer to a
// zero-length slice (pointer, so Put does not box a new header); the caller
// appends into it — typically via SealTo/OpenTo — stores the grown slice
// back through the pointer, and Puts it when the bytes are no longer
// referenced. The cell's stores copy on write (cloud.Memory and the storage
// engine's memtable both duplicate incoming data), so a sealed envelope may be
// recycled as soon as the call that shipped it returns; DESIGN.md §7 records
// the ownership rules.
type BufPool struct {
	pool sync.Pool
}

// Get returns an empty buffer with whatever capacity a previous user left.
func (p *BufPool) Get() *[]byte {
	if v := p.pool.Get(); v != nil {
		b := v.(*[]byte)
		*b = (*b)[:0]
		return b
	}
	b := make([]byte, 0, 1024)
	return &b
}

// Put recycles a buffer obtained from Get. Oversized buffers are dropped so
// a single large payload cannot pin memory for the rest of the process.
func (p *BufPool) Put(b *[]byte) {
	if b == nil || cap(*b) > maxPooledBufCap {
		return
	}
	p.pool.Put(b)
}
