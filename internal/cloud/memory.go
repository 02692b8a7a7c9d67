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
// behaviour over the network, and adversarial behaviour is injected by
// wrapping any backend — this one included — in an Adversary.
//
// The store is sharded: blob names and mailbox recipients are hashed onto
// DefaultShards (or the count given to NewMemoryShards) independent
// partitions, each behind its own RWMutex, and the service counters are
// atomics. A single-shard Memory reproduces the original single-mutex
// behaviour and serves as the sequential baseline in experiment E9.
//
// The batch calls group their arguments by shard and take each shard lock
// once, and pay the simulated network latency (SetLatency) once per call
// instead of once per blob.
type Memory struct {
	shards []*shard
	stats  counters

	nextMsg atomic.Uint64

	// cfgMu guards the clock, the outage window and the simulated latency.
	cfgMu            sync.RWMutex
	unavailableUntil time.Time
	now              func() time.Time
	latency          time.Duration
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

// ShardCount returns the number of shards of the store.
func (m *Memory) ShardCount() int { return len(m.shards) }

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

// shardIndex maps a blob name or mailbox recipient onto a shard index.
func (m *Memory) shardIndex(key string) int {
	return shardIndexOf(key, len(m.shards))
}

// shardFor maps a blob name or mailbox recipient onto its shard.
func (m *Memory) shardFor(key string) *shard {
	return m.shards[m.shardIndex(key)]
}

// SetClock overrides the service clock (used by simulations).
func (m *Memory) SetClock(now func() time.Time) {
	m.cfgMu.Lock()
	m.now = now
	m.cfgMu.Unlock()
}

// SetOutage makes the service return ErrUnavailable until t.
func (m *Memory) SetOutage(until time.Time) {
	m.cfgMu.Lock()
	m.unavailableUntil = until
	m.cfgMu.Unlock()
}

// SetLatency attaches a simulated network round-trip to every service call.
// Each Service method sleeps once per invocation — so a batch call pays one
// round-trip for its whole argument list, which is precisely the economics
// that make the batch calls worthwhile for a fleet of edge cells talking to a
// remote provider. Zero disables the simulation (the default).
func (m *Memory) SetLatency(d time.Duration) {
	m.cfgMu.Lock()
	m.latency = d
	m.cfgMu.Unlock()
}

// checkIn applies the simulated round-trip latency and the outage window.
// It is called once at the start of every service call, outside any shard
// lock, and returns ErrUnavailable while an outage is in effect.
func (m *Memory) checkIn() error {
	m.cfgMu.RLock()
	latency := m.latency
	until := m.unavailableUntil
	now := m.now
	m.cfgMu.RUnlock()
	if latency > 0 {
		time.Sleep(latency)
	}
	if !until.IsZero() && now().Before(until) {
		return ErrUnavailable
	}
	return nil
}

// clock returns the current service time.
func (m *Memory) clock() time.Time {
	m.cfgMu.RLock()
	now := m.now
	m.cfgMu.RUnlock()
	return now()
}

// PutBlob stores data under name.
func (m *Memory) PutBlob(name string, data []byte) (int, error) {
	if err := m.checkIn(); err != nil {
		return 0, err
	}
	s := m.shardFor(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	return m.putLocked(s, name, data)
}

// putLocked applies one put on a shard whose write lock is held.
func (m *Memory) putLocked(s *shard, name string, data []byte) (int, error) {
	m.stats.puts.Add(1)
	m.stats.bytesStored.Add(int64(len(data)))

	old := s.blobs[name]
	b := Blob{Name: name, Version: old.Version + 1, Data: append([]byte(nil), data...), Stored: m.clock()}
	s.blobs[name] = b
	return b.Version, nil
}

// GetBlob returns the latest version of the blob.
func (m *Memory) GetBlob(name string) (Blob, error) {
	if err := m.checkIn(); err != nil {
		return Blob{}, err
	}
	s := m.shardFor(name)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return m.getLocked(s, name)
}

// getLocked serves one read on a shard whose read lock is held.
func (m *Memory) getLocked(s *shard, name string) (Blob, error) {
	m.stats.gets.Add(1)
	b, ok := s.blobs[name]
	if !ok {
		return Blob{}, ErrBlobNotFound
	}
	return cloneBlob(b), nil
}

func cloneBlob(b Blob) Blob {
	c := b
	c.Data = append([]byte(nil), b.Data...)
	return c
}

// DeleteBlob removes a blob (idempotent).
func (m *Memory) DeleteBlob(name string) error {
	if err := m.checkIn(); err != nil {
		return err
	}
	s := m.shardFor(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	m.stats.deletes.Add(1)
	delete(s.blobs, name)
	return nil
}

// ListBlobs returns the stored blob names with the given prefix.
func (m *Memory) ListBlobs(prefix string) ([]string, error) {
	if err := m.checkIn(); err != nil {
		return nil, err
	}
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
	if err := m.checkIn(); err != nil {
		return err
	}
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
	if err := m.checkIn(); err != nil {
		return nil, err
	}
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
// version of each blob in argument order. The simulated network latency is
// paid once for the whole batch.
func (m *Memory) PutBlobs(puts []BlobPut) ([]int, error) {
	if err := m.checkIn(); err != nil {
		return nil, err
	}
	versions := make([]int, len(puts))
	for _, group := range m.groupByShard(len(puts), func(i int) string { return puts[i].Name }) {
		s := m.shards[group.shard]
		s.mu.Lock()
		for _, i := range group.indices {
			v, err := m.putLocked(s, puts[i].Name, puts[i].Data)
			if err != nil {
				s.mu.Unlock()
				return nil, err
			}
			versions[i] = v
		}
		s.mu.Unlock()
	}
	return versions, nil
}

// GetBlobs implements Service: it returns the latest version of each
// named blob in argument order. A missing name yields a zero Blob (Version
// 0) at its position rather than failing the whole batch; only service-level
// failures (outages) return an error.
func (m *Memory) GetBlobs(names []string) ([]Blob, error) {
	if err := m.checkIn(); err != nil {
		return nil, err
	}
	blobs := make([]Blob, len(names))
	for _, group := range m.groupByShard(len(names), func(i int) string { return names[i] }) {
		s := m.shards[group.shard]
		s.mu.RLock()
		for _, i := range group.indices {
			if b, err := m.getLocked(s, names[i]); err == nil {
				blobs[i] = b
			}
		}
		s.mu.RUnlock()
	}
	return blobs, nil
}

// GetBlobsIf implements Service: blobs whose stored version is still <= the
// requested IfNewer come back with their current Version but no data, so a
// synchronizing replica pays only for the shards that advanced.
func (m *Memory) GetBlobsIf(gets []CondGet) ([]Blob, error) {
	if err := m.checkIn(); err != nil {
		return nil, err
	}
	blobs := make([]Blob, len(gets))
	for _, group := range m.groupByShard(len(gets), func(i int) string { return gets[i].Name }) {
		s := m.shards[group.shard]
		s.mu.RLock()
		for _, i := range group.indices {
			cur, ok := s.blobs[gets[i].Name]
			if !ok {
				continue
			}
			if cur.Version <= gets[i].IfNewer {
				m.stats.gets.Add(1)
				blobs[i] = Blob{Name: cur.Name, Version: cur.Version, Stored: cur.Stored}
				continue
			}
			if b, err := m.getLocked(s, gets[i].Name); err == nil {
				blobs[i] = b
			}
		}
		s.mu.RUnlock()
	}
	return blobs, nil
}

// shardGroup lists the argument indices that landed on one shard.
type shardGroup struct {
	shard   int
	indices []int
}

// groupByShard buckets n argument indices by the shard of their key, so batch
// operations lock each shard once.
func (m *Memory) groupByShard(n int, key func(int) string) []shardGroup {
	return groupKeysByShard(n, len(m.shards), key)
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
