package cloud

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultShards is the shard count of a Memory built by NewMemory. It is a
// compromise between lock granularity and per-shard bookkeeping; experiment
// E9 shows where the curve flattens.
const DefaultShards = 32

// shard is one lock-striped partition of the store. Blobs and mailboxes are
// assigned to shards by FNV-1a hash of the blob name / recipient, so two
// cells working on different vault prefixes almost never contend.
type shard struct {
	mu        sync.RWMutex
	blobs     map[string]Blob
	mailboxes map[string][]Message
}

// counters is the atomic backing of Stats, so that hot-path operations on
// different shards never share a lock just to count themselves.
type counters struct {
	puts, gets, deletes, lists atomic.Int64
	sends, receives            atomic.Int64
	bytesStored                atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Puts: c.puts.Load(), Gets: c.gets.Load(), Deletes: c.deletes.Load(), Lists: c.lists.Load(),
		Sends: c.sends.Load(), Receives: c.receives.Load(),
		BytesStored: c.bytesStored.Load(),
	}
}

// Memory is an honest in-process implementation of Service. It is the
// substrate for simulations; the TCP server in this package exposes the same
// behaviour over the network, and faults and adversarial behaviour are
// injected by wrapping any backend — this one included — in a Faulty or an
// Adversary.
//
// The store is sharded: blob names and mailbox recipients are hashed onto
// DefaultShards (or the count given to NewMemoryShards) independent
// partitions, each behind its own RWMutex, and the service counters are
// atomics. A single-shard Memory reproduces the original single-mutex
// behaviour and serves as the sequential baseline in experiment E9.
//
// The batch calls group their arguments by shard and take each shard lock
// once.
type Memory struct {
	shards []*shard
	stats  counters

	nextMsg atomic.Uint64

	clockMu sync.RWMutex
	now     func() time.Time
}

// NewMemory creates an honest in-memory cloud service with DefaultShards
// shards.
func NewMemory() *Memory {
	return NewMemoryShards(DefaultShards)
}

// NewMemoryShards creates an honest service with the given shard count.
// shards < 1 is clamped to 1; a single shard reproduces the historical
// one-big-lock store.
func NewMemoryShards(shards int) *Memory {
	if shards < 1 {
		shards = 1
	}
	m := &Memory{
		shards: make([]*shard, shards),
		now:    time.Now,
	}
	for i := range m.shards {
		m.shards[i] = &shard{
			blobs:     make(map[string]Blob),
			mailboxes: make(map[string][]Message),
		}
	}
	return m
}

// shardIndexOf maps a blob name or mailbox recipient onto one of shards
// partitions by FNV-1a hash. It is the striping function shared by every
// sharded backend (Memory, Durable): identical hashing means a workload's
// contention profile is a property of its key set, not of the backend.
func shardIndexOf(key string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() % uint32(shards))
}

// shardFor maps a blob name or mailbox recipient onto its shard.
func (m *Memory) shardFor(key string) *shard {
	return m.shards[shardIndexOf(key, len(m.shards))]
}

// SetClock overrides the service clock (used by simulations).
func (m *Memory) SetClock(now func() time.Time) {
	m.clockMu.Lock()
	m.now = now
	m.clockMu.Unlock()
}

// clock returns the current service time.
func (m *Memory) clock() time.Time {
	m.clockMu.RLock()
	now := m.now
	m.clockMu.RUnlock()
	return now()
}

// PutBlob stores data under name: a batch of one.
func (m *Memory) PutBlob(name string, data []byte) (int, error) { return putOne(m, name, data) }

// GetBlob returns the latest version of the blob: a batch of one.
func (m *Memory) GetBlob(name string) (Blob, error) { return getOne(m, name) }

func cloneBlob(b Blob) Blob {
	c := b
	c.Data = append([]byte(nil), b.Data...)
	return c
}

// DeleteBlob removes a blob (idempotent).
func (m *Memory) DeleteBlob(name string) error {
	s := m.shardFor(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	m.stats.deletes.Add(1)
	delete(s.blobs, name)
	return nil
}

// ListBlobs returns the stored blob names with the given prefix.
func (m *Memory) ListBlobs(prefix string) ([]string, error) {
	m.stats.lists.Add(1)
	var names []string
	for _, s := range m.shards {
		s.mu.RLock()
		for n := range s.blobs {
			if strings.HasPrefix(n, prefix) {
				names = append(names, n)
			}
		}
		s.mu.RUnlock()
	}
	sort.Strings(names)
	return names, nil
}

// Send delivers a message to the recipient's mailbox.
func (m *Memory) Send(msg Message) error {
	s := m.shardFor(msg.To)
	s.mu.Lock()
	defer s.mu.Unlock()
	m.stats.sends.Add(1)
	seq := m.nextMsg.Add(1)
	msg.Seq = seq
	if msg.ID == "" {
		msg.ID = fmt.Sprintf("msg-%08d", seq)
	}
	if msg.Sent.IsZero() {
		msg.Sent = m.clock()
	}
	msg.Body = append([]byte(nil), msg.Body...)
	s.mailboxes[msg.To] = append(s.mailboxes[msg.To], msg)
	return nil
}

// Receive pops up to max messages from the recipient's mailbox in FIFO order.
func (m *Memory) Receive(recipient string, max int) ([]Message, error) {
	s := m.shardFor(recipient)
	s.mu.Lock()
	defer s.mu.Unlock()
	m.stats.receives.Add(1)
	box := s.mailboxes[recipient]
	if len(box) == 0 {
		return nil, nil
	}
	if max <= 0 || max > len(box) {
		max = len(box)
	}
	out := make([]Message, max)
	copy(out, box[:max])
	s.mailboxes[recipient] = box[max:]
	return out, nil
}

// Stats returns a snapshot of the service counters.
func (m *Memory) Stats() Stats {
	return m.stats.snapshot()
}

// PutBlobs implements Service: it stores every blob, grouping the writes
// by shard so each shard lock is taken at most once, and returns the new
// version of each blob in argument order.
func (m *Memory) PutBlobs(puts []BlobPut) ([]int, error) {
	versions := make([]int, len(puts))
	now := m.clock()
	var bytes int64
	for _, group := range groupKeysByShard(len(puts), len(m.shards), func(i int) string { return puts[i].Name }) {
		s := m.shards[group.shard]
		s.mu.Lock()
		for _, i := range group.indices {
			p := puts[i]
			b := Blob{Name: p.Name, Version: s.blobs[p.Name].Version + 1, Data: append([]byte(nil), p.Data...), Stored: now}
			s.blobs[p.Name] = b
			versions[i] = b.Version
			bytes += int64(len(p.Data))
		}
		s.mu.Unlock()
	}
	m.stats.puts.Add(int64(len(puts)))
	m.stats.bytesStored.Add(bytes)
	return versions, nil
}

// GetBlobs implements Service as the conditional read at IfNewer 0.
func (m *Memory) GetBlobs(names []string) ([]Blob, error) {
	return m.GetBlobsIf(unconditional(names))
}

// GetBlobsIf implements Service, the store's one read path: blobs whose
// stored version is still <= the requested IfNewer come back with their
// current Version but no data, so a synchronizing replica pays only for the
// shards that advanced; a missing name yields a zero Blob.
func (m *Memory) GetBlobsIf(gets []CondGet) ([]Blob, error) {
	blobs := make([]Blob, len(gets))
	for _, group := range groupKeysByShard(len(gets), len(m.shards), func(i int) string { return gets[i].Name }) {
		s := m.shards[group.shard]
		s.mu.RLock()
		for _, i := range group.indices {
			cur, ok := s.blobs[gets[i].Name]
			if !ok {
				continue
			}
			if cur.Version <= gets[i].IfNewer {
				cur.Data = nil
			}
			blobs[i] = cloneBlob(cur)
		}
		s.mu.RUnlock()
	}
	m.stats.gets.Add(int64(len(gets)))
	return blobs, nil
}

// shardGroup lists the argument indices that landed on one shard.
type shardGroup struct {
	shard   int
	indices []int
}

// groupKeysByShard buckets n argument indices by the shard of their key; it
// backs the batch operations of every sharded backend.
func groupKeysByShard(n, shards int, key func(int) string) []shardGroup {
	buckets := make(map[int]*shardGroup)
	var order []*shardGroup
	for i := 0; i < n; i++ {
		idx := shardIndexOf(key(i), shards)
		g, ok := buckets[idx]
		if !ok {
			g = &shardGroup{shard: idx}
			buckets[idx] = g
			order = append(order, g)
		}
		g.indices = append(g.indices, i)
	}
	out := make([]shardGroup, len(order))
	for i, g := range order {
		out[i] = *g
	}
	return out
}
