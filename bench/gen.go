package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"trustedcells/internal/crypto"
)

// The fleet workloads' fixed shape.
const (
	fleetCells   = 100_000 // simulated cells behind the front door
	zipfS        = 1.2     // skew of which cell acts next
	batchDocs    = 16      // documents per request
	ingestBytes  = 256     // plaintext bytes per ingested document
	readCells    = 4096    // cells preloaded for frontdoor_read
	readDocBytes = 1024    // plaintext bytes per preloaded document
	sampleOneIn  = 50      // verify reads back this share of acknowledged batches (2 %)
	recentRing   = 1024    // acknowledged batches a mixed workload's reads choose among
)

// fleet is a population of simulated cells: one document counter per cell
// and one sealing key, derived from the seed. Every envelope binds its blob
// name as associated data, as a real cell's does, so a blob served under
// another name fails to verify.
type fleet struct {
	seqs []atomic.Uint32
	key  crypto.SymmetricKey
}

func newFleet(cells int, seed int64) (*fleet, error) {
	key, err := sealingKey(seed)
	if err != nil {
		return nil, err
	}
	return &fleet{seqs: make([]atomic.Uint32, cells), key: key}, nil
}

func docName(cell int, seq uint32) string {
	return fmt.Sprintf(docNamePrefix+"c%07d/d%07d", cell, seq)
}

func (f *fleet) nextSeq(cell int) uint32 { return f.seqs[cell].Add(1) - 1 }

func (f *fleet) seal(dst []byte, name string, payload []byte) ([]byte, error) {
	return crypto.SealTo(dst, f.key, payload, []byte(name))
}

// open opens a sealed document and checks that it is bound to name.
func (f *fleet) open(dst []byte, name string, sealed []byte) ([]byte, error) {
	plain, ad, err := crypto.OpenTo(dst, f.key, sealed)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", name, err)
	}
	if string(ad) != name {
		return nil, fmt.Errorf("document %s is sealed as %q", name, ad)
	}
	return plain, nil
}

// picker chooses which cell acts next for one worker. A worker is pinned to
// one connection, and a connection to the cells congruent to its index, so a
// cell's documents always live in one tenant's namespace.
type picker struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	conn   int
	stride int
	span   int // cells of this connection
}

func newPicker(seed int64, worker, conn, stride, cells int) *picker {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(worker)))
	span := cells / stride
	return &picker{
		rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(span-1)),
		conn: conn, stride: stride, span: span,
	}
}

// skewed picks a cell with zipf popularity: a few cells are hot.
func (p *picker) skewed() int { return int(p.zipf.Uint64())*p.stride + p.conn }

// uniform picks every cell of the connection equally often.
func (p *picker) uniform() int { return p.rng.Intn(p.span)*p.stride + p.conn }

// batch is the reusable buffers of one worker's requests.
type batch struct {
	payload []byte
	sealed  [batchDocs][]byte
	names   [batchDocs]string
	plain   []byte
}

// sealBatch fills b with batchDocs fresh documents of cell and returns the
// sealed puts' names and data in b.names / b.sealed.
func (b *batch) sealBatch(f *fleet, rng *rand.Rand, cell, size int) error {
	if cap(b.payload) < size {
		b.payload = make([]byte, size)
	}
	b.payload = b.payload[:size]
	for i := 0; i < batchDocs; i++ {
		rng.Read(b.payload)
		b.names[i] = docName(cell, f.nextSeq(cell))
		sealed, err := f.seal(b.sealed[i][:0], b.names[i], b.payload)
		if err != nil {
			return err
		}
		b.sealed[i] = sealed
	}
	return nil
}

// cryptoCosts measures sealing and opening one document of size bytes n
// times on one goroutine with reused buffers, as a cell seals: the mean time
// of each in microseconds and the heap allocations of one seal.
func (f *fleet) cryptoCosts(size, n int) (sealUs, openUs, mallocsPerSeal float64) {
	payload := make([]byte, size)
	name := docName(0, 0)
	var sealed, plain []byte
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		sealed, _ = f.seal(sealed[:0], name, payload)
	}
	sealUs = us(time.Since(start)) / float64(n)
	runtime.ReadMemStats(&m1)
	start = time.Now()
	for i := 0; i < n; i++ {
		plain, _ = f.open(plain[:0], name, sealed)
	}
	openUs = us(time.Since(start)) / float64(n)
	return sealUs, openUs, float64(m1.Mallocs-m0.Mallocs) / float64(n)
}
