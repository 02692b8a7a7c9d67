package cloud

// This file implements cloud.Replicated, the client-side replication layer
// that turns N independent providers — any mix of Memory, Durable and remote
// TCP clients — into one Service that keeps answering while members fail.
// E13 proved one durable provider recovers fast; Replicated is the next step
// of the availability story: the fleet never stops, because no single
// provider is load-bearing.
//
// Protocol (DESIGN.md §9):
//
//   - Quorum writes: every write fans out to all live members and is
//     acknowledged once W members accepted it. The returned version is the
//     maximum version the acknowledging members assigned.
//   - Quorum reads: every read is one batched member call merged
//     element-wise (quorumRead). It needs R error-free member responses (a
//     missing blob counts as a response at version 0) — fewer than R fails
//     with ErrQuorumFailed; per blob the winner is the response with the
//     maximum version. With W+R > N every acknowledged write intersects
//     every quorum read, so acknowledged data is always readable.
//   - Read repair: on GetBlob/GetBlobs (not the conditional GetBlobsIf),
//     members that answered with a stale version (or conflicting bytes at
//     the winning version) are rewritten with the winning blob until their
//     version catches up to the winner's.
//   - Hinted handoff: a write that a member misses — it is down, it holds
//     queued hints, or its call failed — is queued as a hint in a bounded
//     per-member FIFO and replayed in order when the member recovers. A
//     member with a non-empty hint queue takes no direct calls: every write
//     it would have received is appended behind the writes it missed, so
//     replay preserves per-name order and an old put or delete can never be
//     replayed over newer directly-written data. Hints are queued only after
//     an operation passes its quorum check — an operation that fails fast
//     queues nothing, so a write the caller was told failed cannot
//     materialize later out of a hint queue. The queue drops its oldest hint
//     on overflow (counted); anti-entropy repairs whatever overflow loses.
//   - Anti-entropy: a periodic pass drains hint queues, then walks the union
//     of blob names grouped by the same package-level FNV sharding that
//     stripes Memory and Durable (shardIndexOf / groupKeysByShard), compares
//     members shard by shard, and rewrites stale copies.
//
// Membership and health: a member that fails FailThreshold consecutive calls
// is marked down; while down it receives hints instead of calls. Every member
// call is bounded by CallTimeout, so a member that hangs rather than errors
// costs any one operation at most one timeout before it is treated as failed
// (and, failing repeatedly, marked down). Every ProbeEvery-th operation
// retries a down or hint-holding member by draining its hints; drains are
// serialized per member, and the member is marked up only once its hint queue
// is empty, so recovered members observe the missed writes in their original
// order before new writes reach them directly.
//
// Mailboxes replicate too: Send assigns a layer-wide monotonic message ID and
// timestamp, then fans out under the same W-of-N rule; Receive drains every
// live member, deduplicates by message ID (popped messages are remembered in
// a bounded window), orders by (Sent, ID) and serves from a local pending
// queue — FIFO order survives any tolerated minority of member failures.

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Replication errors.
var (
	// ErrQuorumFailed means fewer than W members acknowledged a write (or
	// fewer than R answered a read). The operation may have partially applied
	// on some members; anti-entropy reconciles them.
	ErrQuorumFailed = errors.New("cloud: quorum not reached")
)

// ReplicatedOptions configure the replication layer. The zero value derives
// majority quorums from the member count.
type ReplicatedOptions struct {
	// WriteQuorum (W) is the number of member acknowledgements required
	// before a write succeeds. Defaults to a majority (N/2+1). Must be in
	// [1, N].
	WriteQuorum int
	// ReadQuorum (R) is the number of member responses required before a
	// read succeeds. Defaults to a majority (N/2+1). Must be in [1, N].
	// Choose W+R > N for read-your-writes.
	ReadQuorum int
	// HintCapacity bounds each member's hinted-handoff queue. On overflow
	// the oldest hint is dropped (and counted); anti-entropy repairs the
	// loss. Defaults to 1024.
	HintCapacity int
	// FailThreshold is the number of consecutive call failures after which a
	// member is marked down and bypassed (writes turn into hints). Defaults
	// to 3.
	FailThreshold int
	// ProbeEvery is the number of layer operations between recovery probes
	// of a down member. Defaults to 16.
	ProbeEvery int
	// SyncShards is the FNV shard count of the anti-entropy pass. Defaults
	// to 16.
	SyncShards int
	// CallTimeout bounds every call the layer makes to a member (fan-outs,
	// hint replay, anti-entropy scans). A member that has not answered by the
	// deadline counts as failed for that operation: the operation proceeds
	// with the answers it has, and the member earns a failure mark plus — on
	// write paths — a hint. One hung provider therefore stalls an operation
	// by at most CallTimeout instead of blocking it forever. The abandoned
	// call keeps running in its goroutine (Service has no cancellation) and
	// may still apply later; DESIGN.md §9.5 lists the consequences. Defaults
	// to 5s; negative disables the bound.
	CallTimeout time.Duration
	// Verifier, when set, authenticates blob contents during the quarantine
	// re-admission probe: a quarantined member is only re-admitted after its
	// copies byte-match the trusted fleet state AND every checked winner blob
	// passes this hook. The replication layer holds no keys, so the trusted
	// side installs a closure (typically over sync.Replica.CheckBlob)
	// that verifies the sealed payload's signed freshness evidence. A nil
	// Verifier re-admits on byte-equality alone.
	Verifier func(name string, data []byte) error
}

func (o ReplicatedOptions) withDefaults(n int) ReplicatedOptions {
	if o.WriteQuorum == 0 {
		o.WriteQuorum = n/2 + 1
	}
	if o.ReadQuorum == 0 {
		o.ReadQuorum = n/2 + 1
	}
	if o.HintCapacity == 0 {
		o.HintCapacity = 1024
	}
	if o.FailThreshold == 0 {
		o.FailThreshold = 3
	}
	if o.ProbeEvery == 0 {
		o.ProbeEvery = 16
	}
	if o.SyncShards == 0 {
		o.SyncShards = 16
	}
	if o.CallTimeout == 0 {
		o.CallTimeout = 5 * time.Second
	}
	if o.CallTimeout < 0 {
		o.CallTimeout = 0 // explicit "no bound"
	}
	return o
}

// hintKind is the operation class of one queued hint.
type hintKind int

const (
	hintPut hintKind = iota
	hintDelete
	hintSend
)

// hint is one write a member missed, queued for replay on its recovery.
type hint struct {
	kind hintKind
	name string
	data []byte // private copy: the caller's buffer is recycled after the put
	msg  Message
}

// member is one replicated backend with its health state and hint queue.
type member struct {
	// svcMu guards svc so SwapMember can replace a backend (e.g. a durable
	// member reopened after a process restart) without racing in-flight ops.
	svcMu sync.RWMutex
	svc   Service

	// mu guards the health state and the hint queue together: a member is
	// marked up only under an empty queue, and a hint is enqueued only under
	// a re-check of that state, so drained hints and new direct writes can
	// never reorder.
	mu          sync.Mutex
	down        bool
	draining    bool // a drain is replaying the queue; at most one at a time
	consecFails int
	hints       []hint
	dropped     int64 // hints lost to queue overflow
	drained     int64 // hints successfully replayed
	// quarantined marks a member convicted of Byzantine behaviour (rollback,
	// fork, dropped acknowledged writes — see Quarantine). It is orthogonal
	// to down: a quarantined member is excluded from read quorums and its
	// write acknowledgements stop counting toward W, but writes still fan to
	// it (or queue as hints) so an honest-again member converges. Only the
	// anti-entropy re-admission probe clears the flag.
	quarantined bool
}

// ReplicationStats counts the layer's own activity (the logical operations a
// caller performed, plus the repair machinery's work). Member services keep
// their own Stats.
type ReplicationStats struct {
	// Service counters, mirroring Stats semantics: per blob for puts/gets,
	// per call for lists/receives.
	Puts, Gets, Deletes, Lists int64
	Sends, Receives            int64

	QuorumFailures int64 // operations that could not reach quorum
	HintsQueued    int64 // writes queued for an unreachable member
	HintsDropped   int64 // hints lost to queue overflow (all members)
	HintsDrained   int64 // hints replayed to recovered members
	ReadRepairs    int64 // stale member copies rewritten during reads
	MembersDown    int64 // members currently marked down
	// MembersQuarantined counts members currently excluded for Byzantine
	// behaviour (see Quarantine).
	MembersQuarantined int64
}

// RepairReport summarises one anti-entropy pass.
type RepairReport struct {
	HintsDrained      int   // hints replayed before the scan
	Shards            int   // FNV shard groups scanned
	Names             int   // distinct blob names compared
	StalePuts         int   // stale member copies rewritten
	BytesMoved        int64 // payload bytes rewritten to stale members
	QuarantineRepairs int   // repair puts issued to quarantined members
	Readmitted        int   // quarantined members re-admitted after verifying clean
}

// Replicated stripes the Service contract over N member backends with quorum
// writes, quorum reads, read repair, hinted handoff and anti-entropy. All
// methods are safe for concurrent use.
type Replicated struct {
	members []*member
	opts    ReplicatedOptions

	ops     atomic.Int64 // operation counter driving recovery probes
	nextMsg atomic.Uint64

	// nameMu stripes serialize write fan-out per blob name, so members see
	// the same apply order for a name while the layer is the only writer.
	nameMu [64]sync.Mutex

	// mailMu stripes serialize mailbox operations per recipient.
	mailMu [64]sync.Mutex

	// boxMu guards the client-side mailbox merge state.
	boxMu      sync.Mutex
	pending    map[string][]Message // popped from members, not yet delivered
	delivered  map[string]struct{}  // recently delivered IDs (dedup window)
	deliverLog []string             // FIFO eviction order for delivered

	stats struct {
		puts, gets, deletes, lists atomic.Int64
		sends, receives            atomic.Int64
		quorumFailures             atomic.Int64
		hintsQueued                atomic.Int64
		readRepairs                atomic.Int64
	}

	loopMu   sync.Mutex
	loopStop chan struct{}
	loopDone chan struct{}
}

// deliveredWindow bounds the Receive dedup window. A member lagging by more
// than this many popped messages may re-deliver (at-least-once, never loss).
const deliveredWindow = 8192

// NewReplicated builds a replication layer over the given members.
// Construction fails on an empty member list or a quorum outside [1, N] —
// a W of N+1 can never be satisfied and a W of 0 would acknowledge writes
// nobody stored.
func NewReplicated(members []Service, opts ReplicatedOptions) (*Replicated, error) {
	n := len(members)
	if n == 0 {
		return nil, errors.New("cloud: replicated: no members")
	}
	opts = opts.withDefaults(n)
	if opts.WriteQuorum < 1 || opts.WriteQuorum > n {
		return nil, fmt.Errorf("cloud: replicated: write quorum %d outside [1, %d]", opts.WriteQuorum, n)
	}
	if opts.ReadQuorum < 1 || opts.ReadQuorum > n {
		return nil, fmt.Errorf("cloud: replicated: read quorum %d outside [1, %d]", opts.ReadQuorum, n)
	}
	if opts.HintCapacity < 1 {
		return nil, fmt.Errorf("cloud: replicated: hint capacity %d < 1", opts.HintCapacity)
	}
	r := &Replicated{
		members:   make([]*member, n),
		opts:      opts,
		pending:   make(map[string][]Message),
		delivered: make(map[string]struct{}),
	}
	for i, svc := range members {
		if svc == nil {
			return nil, fmt.Errorf("cloud: replicated: member %d is nil", i)
		}
		r.members[i] = &member{svc: svc}
	}
	return r, nil
}

// MemberCount returns the number of members.
func (r *Replicated) MemberCount() int { return len(r.members) }

// Quorums returns the configured (W, R).
func (r *Replicated) Quorums() (w, r_ int) { return r.opts.WriteQuorum, r.opts.ReadQuorum }

// Member returns member i's backend service.
func (r *Replicated) Member(i int) Service {
	m := r.members[i]
	m.svcMu.RLock()
	defer m.svcMu.RUnlock()
	return m.svc
}

// SwapMember replaces member i's backend — the recovery path for a member
// whose process restarted (e.g. a Durable reopened from its data directory,
// or a TCP client re-dialed). The member is marked down; the next probe,
// DrainHints or AntiEntropy pass brings it back up to date and back online.
func (r *Replicated) SwapMember(i int, svc Service) {
	m := r.members[i]
	m.svcMu.Lock()
	m.svc = svc
	m.svcMu.Unlock()
	m.mu.Lock()
	m.down = true
	m.consecFails = 0
	m.mu.Unlock()
}

// MemberDown reports whether member i is currently marked down.
func (r *Replicated) MemberDown(i int) bool {
	m := r.members[i]
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.down
}

// Quarantine excludes member i for Byzantine behaviour: a provider caught
// rolling back, forking or dropping acknowledged state by the trusted side's
// audit (e.g. sync.Replica.CheckBlob). A quarantined member serves no
// reads and its write acknowledgements stop counting toward the write quorum,
// so poisoned copies cannot shadow honest ones — but writes keep fanning to
// it, so a member that starts behaving again converges instead of drifting
// further. Re-admission is earned, not declared: the next AntiEntropy pass
// repairs the member against the trusted fleet state and clears the flag only
// once every copy byte-matches the winners (and the configured Verifier, if
// any, accepts them).
func (r *Replicated) Quarantine(i int) {
	m := r.members[i]
	m.mu.Lock()
	m.quarantined = true
	m.mu.Unlock()
}

// IsQuarantined reports whether member i is currently quarantined.
func (r *Replicated) IsQuarantined(i int) bool {
	m := r.members[i]
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.quarantined
}

// ReplicationStats returns a snapshot of the layer's counters.
func (r *Replicated) ReplicationStats() ReplicationStats {
	var dropped, drained, down, quarantined int64
	for _, m := range r.members {
		m.mu.Lock()
		dropped += m.dropped
		drained += m.drained
		if m.down {
			down++
		}
		if m.quarantined {
			quarantined++
		}
		m.mu.Unlock()
	}
	return ReplicationStats{
		Puts: r.stats.puts.Load(), Gets: r.stats.gets.Load(),
		Deletes: r.stats.deletes.Load(), Lists: r.stats.lists.Load(),
		Sends: r.stats.sends.Load(), Receives: r.stats.receives.Load(),
		QuorumFailures:     r.stats.quorumFailures.Load(),
		HintsQueued:        r.stats.hintsQueued.Load(),
		HintsDropped:       dropped,
		HintsDrained:       drained,
		ReadRepairs:        r.stats.readRepairs.Load(),
		MembersDown:        down,
		MembersQuarantined: quarantined,
	}
}

// Stats implements Service with the layer's own logical-operation counters;
// per-member counters are available through Member(i).Stats().
func (r *Replicated) Stats() Stats {
	return Stats{
		Puts: r.stats.puts.Load(), Gets: r.stats.gets.Load(),
		Deletes: r.stats.deletes.Load(), Lists: r.stats.lists.Load(),
		Sends: r.stats.sends.Load(), Receives: r.stats.receives.Load(),
	}
}

// --- member health and hinted handoff ---------------------------------------

// markFailure records a failed call; crossing FailThreshold marks the member
// down.
func (r *Replicated) markFailure(m *member) {
	m.mu.Lock()
	m.consecFails++
	if m.consecFails >= r.opts.FailThreshold {
		m.down = true
	}
	m.mu.Unlock()
}

// markSuccess records a successful call.
func (r *Replicated) markSuccess(m *member) {
	m.mu.Lock()
	m.consecFails = 0
	m.mu.Unlock()
}

// enqueueLocked appends h to m's queue, dropping the oldest hint when the
// queue is full. The caller holds m.mu.
func (r *Replicated) enqueueLocked(m *member, h hint) {
	if len(m.hints) >= r.opts.HintCapacity {
		drop := len(m.hints) - r.opts.HintCapacity + 1
		m.hints = append(m.hints[:0], m.hints[drop:]...)
		m.dropped += int64(drop)
	}
	m.hints = append(m.hints, h)
	r.stats.hintsQueued.Add(1)
}

// hintIfPending queues hs for member i only while the member is still
// ineligible for direct calls (down, or holding queued hints). The check and
// the enqueue are one critical section with drainMember's mark-up: either the
// hints land on a queue a drain must empty before the member comes up, or the
// member is already back and the hints are skipped — read repair and
// anti-entropy recover the miss — so a drain can never be raced into
// accepting a hint it would replay out of order.
func (r *Replicated) hintIfPending(i int, hs ...hint) {
	m := r.members[i]
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.down && len(m.hints) == 0 {
		return
	}
	for _, h := range hs {
		r.enqueueLocked(m, h)
	}
}

// hintSkipped queues hs on every member the fan-out skipped (not in live).
// Callers invoke it only after their quorum check passed: an operation that
// fails fast queues nothing.
func (r *Replicated) hintSkipped(live []int, hs ...hint) {
	inLive := make(map[int]bool, len(live))
	for _, i := range live {
		inLive[i] = true
	}
	for i := range r.members {
		if !inLive[i] {
			r.hintIfPending(i, hs...)
		}
	}
}

// hintFailed queues hs after member i failed a direct call it was fanned: the
// member missed this write, and because live() excludes members with queued
// hints it takes no further direct calls until a drain replays the queue —
// replay order stays total even when the member never crosses FailThreshold.
func (r *Replicated) hintFailed(i int, hs ...hint) {
	m := r.members[i]
	m.mu.Lock()
	for _, h := range hs {
		r.enqueueLocked(m, h)
	}
	m.mu.Unlock()
}

// applyHint replays one hint against a member's backend.
func applyHint(svc Service, h hint) error {
	switch h.kind {
	case hintPut:
		_, err := svc.PutBlob(h.name, h.data)
		return err
	case hintDelete:
		return svc.DeleteBlob(h.name)
	case hintSend:
		return svc.Send(h.msg)
	}
	return fmt.Errorf("cloud: replicated: unknown hint kind %d", h.kind)
}

// drainMember replays member i's hint queue in FIFO order. At most one drain
// per member runs at a time (the draining flag): two concurrent drains could
// both replay the head and then both pop, discarding a hint that was never
// applied — with no tombstones, a lost delete hint resurrects a blob. New
// writes keep hinting to the tail while the drain runs, so replay order is
// total; the member is marked up only in the same critical section that
// observes an empty queue. Returns the number of hints replayed and whether
// the member ended the drain marked up (false also when another drain was
// already running).
func (r *Replicated) drainMember(i int) (int, bool) {
	m := r.members[i]
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return 0, false
	}
	m.draining = true
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		m.draining = false
		m.mu.Unlock()
	}()

	svc := r.Member(i)
	replayed := 0
	for {
		m.mu.Lock()
		if len(m.hints) == 0 {
			m.down = false
			m.consecFails = 0
			m.mu.Unlock()
			return replayed, true
		}
		h := m.hints[0]
		m.mu.Unlock()

		// Bounded like every member call: a member that answers neither
		// success nor error must not wedge the probe path. A replay that
		// timed out may still apply later; the head is not popped, so the
		// next drain replays it again — puts and deletes are idempotent to
		// re-apply, and duplicate sends are absorbed by Receive's dedup
		// window.
		if _, err := boundedCall(r.opts.CallTimeout, func() (struct{}, error) {
			return struct{}{}, applyHint(svc, h)
		}); err != nil {
			m.mu.Lock()
			m.down = true
			m.mu.Unlock()
			return replayed, false
		}

		m.mu.Lock()
		// Single drainer (the draining flag), so the head is still h.
		m.hints = m.hints[1:]
		m.drained++
		m.mu.Unlock()
		replayed++
	}
}

// DrainHints replays every member's hint queue (recovered members come back
// up). It returns the total number of hints replayed.
func (r *Replicated) DrainHints() int {
	total := 0
	for i, m := range r.members {
		m.mu.Lock()
		pending := len(m.hints) > 0 || m.down
		m.mu.Unlock()
		if pending {
			n, _ := r.drainMember(i)
			total += n
		}
	}
	return total
}

// maybeProbe retries down or hint-holding members every ProbeEvery-th layer
// operation by attempting a hint drain; a member whose queue drains dry comes
// back up (and back into fan-outs).
func (r *Replicated) maybeProbe() {
	if r.ops.Add(1)%int64(r.opts.ProbeEvery) != 0 {
		return
	}
	for i, m := range r.members {
		m.mu.Lock()
		pending := m.down || len(m.hints) > 0
		m.mu.Unlock()
		if pending {
			r.drainMember(i)
		}
	}
}

// live returns the indices of members eligible for direct calls: not marked
// down and holding no queued hints. A member with a non-empty queue must
// replay it before taking direct calls again — otherwise a later drain would
// reapply an old hint over newer directly-written data — so it keeps taking
// hints until a drain empties the queue.
func (r *Replicated) live() []int {
	idx := make([]int, 0, len(r.members))
	for i, m := range r.members {
		m.mu.Lock()
		ok := !m.down && len(m.hints) == 0
		m.mu.Unlock()
		if ok {
			idx = append(idx, i)
		}
	}
	return idx
}

// readEligible returns the members eligible to answer reads: live and not
// quarantined. A quarantined member's copies are suspect by conviction, so
// they must not reach callers or become repair sources.
func (r *Replicated) readEligible() []int {
	idx := make([]int, 0, len(r.members))
	for i, m := range r.members {
		m.mu.Lock()
		ok := !m.down && len(m.hints) == 0 && !m.quarantined
		m.mu.Unlock()
		if ok {
			idx = append(idx, i)
		}
	}
	return idx
}

// quarantinedSet snapshots which of the given members are quarantined. Write
// paths use it to fan writes to quarantined members (keeping them
// convergeable) while refusing to count their acknowledgements toward the
// write quorum — a convicted member's "stored" means nothing.
func (r *Replicated) quarantinedSet(idxs []int) map[int]bool {
	var set map[int]bool
	for _, i := range idxs {
		m := r.members[i]
		m.mu.Lock()
		q := m.quarantined
		m.mu.Unlock()
		if q {
			if set == nil {
				set = make(map[int]bool)
			}
			set[i] = true
		}
	}
	return set
}

// --- fan-out helper ---------------------------------------------------------

// fanResult is one member's answer to a fanned-out call.
type fanResult struct {
	idx   int
	blobs []Blob
	vers  []int
	names []string
	msgs  []Message
	err   error
}

// errCallTimeout marks a member call that outlived CallTimeout. The abandoned
// call keeps running in its goroutine (Service has no cancellation); its
// eventual result is discarded.
var errCallTimeout = errors.New("cloud: replicated: member call timed out")

// boundedCall runs f, waiting at most d for it to return; d <= 0 waits
// forever. On timeout the zero value and errCallTimeout are returned while f
// keeps running detached — callers must not let f write to memory they keep
// reading.
func boundedCall[T any](d time.Duration, f func() (T, error)) (T, error) {
	if d <= 0 {
		return f()
	}
	type result struct {
		v   T
		err error
	}
	ch := make(chan result, 1)
	go func() {
		v, err := f()
		ch <- result{v, err}
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case res := <-ch:
		return res.v, res.err
	case <-timer.C:
		var zero T
		return zero, errCallTimeout
	}
}

// fanout calls fn concurrently for every listed member — each call bounded by
// CallTimeout — and returns once need members succeeded or every call came
// back: a hung member can stall an operation by at most the timeout, never
// forever. A failed (or timed-out) call records a failure mark and, when
// onFail is non-nil, runs it with the member index before the result is
// delivered — write paths queue their hint there, so the hint is on the queue
// before the operation's stripe lock releases. onDone, when non-nil, runs
// after every (bounded) member call has returned; write paths use it to hold
// their stripe lock for the full fan-out, so repairs never interleave with a
// straggling write.
func (r *Replicated) fanout(idxs []int, need int, fn func(i int, svc Service) fanResult, onFail func(i int), onDone func()) []fanResult {
	ch := make(chan fanResult, len(idxs))
	var wg sync.WaitGroup
	for _, i := range idxs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			svc := r.Member(i)
			res, err := boundedCall(r.opts.CallTimeout, func() (fanResult, error) {
				res := fn(i, svc)
				return res, res.err
			})
			res.idx, res.err = i, err
			if err != nil {
				r.markFailure(r.members[i])
				if onFail != nil {
					onFail(i)
				}
			} else {
				r.markSuccess(r.members[i])
			}
			ch <- res
		}(i)
	}
	if onDone != nil {
		go func() {
			wg.Wait()
			onDone()
		}()
	}
	out := make([]fanResult, 0, len(idxs))
	succ := 0
	for range idxs {
		res := <-ch
		out = append(out, res)
		if res.err == nil {
			succ++
		}
		if succ >= need {
			break
		}
	}
	return out
}

func (r *Replicated) stripe(key string) *sync.Mutex {
	return &r.nameMu[shardIndexOf(key, len(r.nameMu))]
}

func (r *Replicated) mailStripe(key string) *sync.Mutex {
	return &r.mailMu[shardIndexOf(key, len(r.mailMu))]
}

// --- Service: blobs ---------------------------------------------------------

// PutBlob stores data on a write quorum of members: a batch of one (see
// PutBlobs).
func (r *Replicated) PutBlob(name string, data []byte) (int, error) { return putOne(r, name, data) }

// GetBlob reads the blob from a read quorum of members, repairing stale
// members on the way out: a batch of one (see GetBlobs). It fails with
// ErrBlobNotFound only when the whole quorum agrees the blob is gone.
func (r *Replicated) GetBlob(name string) (Blob, error) { return getOne(r, name) }

// readRepair rewrites the winning blob at position pos to every responder
// whose copy was stale: an older version, or different bytes at the winning
// version (a conflict, resolved deterministically toward the merge winner).
func (r *Replicated) readRepair(name string, winner Blob, responders []fanResult, pos int) {
	targets := make([]int, 0, len(responders))
	for _, res := range responders {
		b := res.blobs[pos]
		if b.Version < winner.Version || (b.Version == winner.Version && !bytes.Equal(b.Data, winner.Data)) {
			targets = append(targets, res.idx)
		}
	}
	r.stats.readRepairs.Add(int64(r.repairName(name, winner, targets, false)))
}

// repairName lifts the listed members to the winning blob under the name's
// stripe: write fan-outs hold the stripe until every member call returns, so
// owning it proves no write is in flight — and the member state re-read under
// the lock is current, never a stale snapshot a straggler already advanced
// past. A busy stripe means a write is still propagating. Read repair (wait
// false) then skips the name rather than stall the read, and the next read or
// anti-entropy pass retries; anti-entropy (wait true) waits the straggler out
// — each of its member calls is bounded by CallTimeout — so one pass repairs
// every name, including those whose write returned to its caller at W acks
// while a failed member call was still unwinding. Repair puts until the
// member's version reaches the winner's, so
// converged members agree on versions, not just bytes; a conflicting copy at
// the winning version gets one extra put, making its member the new maximum
// carrying the winning data, and the next pass lifts the rest. Returns the
// number of repair puts issued.
func (r *Replicated) repairName(name string, winner Blob, targets []int, wait bool) int {
	if winner.Version == 0 || len(targets) == 0 {
		return 0
	}
	mu := r.stripe(name)
	if wait {
		mu.Lock()
	} else if !mu.TryLock() {
		return 0
	}
	defer mu.Unlock()
	puts := 0
	for _, i := range targets {
		svc := r.Member(i)
		cur, err := boundedCall(r.opts.CallTimeout, func() (Blob, error) {
			return svc.GetBlob(name)
		})
		if err != nil && err != ErrBlobNotFound {
			continue
		}
		stale := cur.Version < winner.Version ||
			(cur.Version == winner.Version && !bytes.Equal(cur.Data, winner.Data))
		if !stale {
			continue
		}
		repairPut := func() (int, error) {
			return boundedCall(r.opts.CallTimeout, func() (int, error) {
				return svc.PutBlob(name, winner.Data)
			})
		}
		for v := cur.Version; v < winner.Version; {
			nv, err := repairPut()
			if err != nil || nv <= v {
				break
			}
			v = nv
			puts++
		}
		if cur.Version == winner.Version {
			if _, err := repairPut(); err == nil {
				puts++
			}
		}
	}
	return puts
}

// DeleteBlob deletes on a write quorum of members; members that miss the
// delete receive a hint. Deletion is not tombstoned: a member that misses
// both the delete and its hint can resurrect the blob through anti-entropy
// (the failure matrix in DESIGN.md §9 spells this out).
func (r *Replicated) DeleteBlob(name string) error {
	r.maybeProbe()
	mu := r.stripe(name)
	mu.Lock()

	live := r.live()
	quar := r.quarantinedSet(live)
	if len(live)-len(quar) < r.opts.WriteQuorum {
		mu.Unlock()
		r.stats.quorumFailures.Add(1)
		return fmt.Errorf("%w: %d of %d trusted members reachable, need %d",
			ErrQuorumFailed, len(live)-len(quar), len(r.members), r.opts.WriteQuorum)
	}
	h := hint{kind: hintDelete, name: name}
	r.hintSkipped(live, h)
	// Deletes wait for every live member, not just W: with no tombstones, a
	// straggling member could otherwise serve (or resurrect via repair) the
	// blob to a read that follows the acknowledged delete. Each member call
	// is bounded by CallTimeout, so a member that hangs rather than errors
	// delays the delete by at most the timeout and then gets a hint.
	results := r.fanout(live, len(live), func(i int, svc Service) fanResult {
		return fanResult{err: svc.DeleteBlob(name)}
	}, func(i int) { r.hintFailed(i, h) }, mu.Unlock)
	acks := 0
	for _, res := range results {
		if res.err == nil && !quar[res.idx] {
			acks++
		}
	}
	if acks < r.opts.WriteQuorum {
		r.stats.quorumFailures.Add(1)
		return fmt.Errorf("%w: %d of %d delete acks", ErrQuorumFailed, acks, r.opts.WriteQuorum)
	}
	r.stats.deletes.Add(1)
	return nil
}

// ListBlobs returns the union of the names a read quorum of members store.
func (r *Replicated) ListBlobs(prefix string) ([]string, error) {
	r.maybeProbe()
	live := r.readEligible()
	if len(live) < r.opts.ReadQuorum {
		r.stats.quorumFailures.Add(1)
		return nil, fmt.Errorf("%w: %d of %d members readable, need %d",
			ErrQuorumFailed, len(live), len(r.members), r.opts.ReadQuorum)
	}
	results := r.fanout(live, r.opts.ReadQuorum, func(i int, svc Service) fanResult {
		names, err := svc.ListBlobs(prefix)
		return fanResult{names: names, err: err}
	}, nil, nil)
	seen := make(map[string]bool)
	succ := 0
	for _, res := range results {
		if res.err != nil {
			continue
		}
		succ++
		for _, n := range res.names {
			seen[n] = true
		}
	}
	if succ < r.opts.ReadQuorum {
		r.stats.quorumFailures.Add(1)
		return nil, fmt.Errorf("%w: %d of %d list responses", ErrQuorumFailed, succ, r.opts.ReadQuorum)
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	r.stats.lists.Add(1)
	return names, nil
}

// --- Service: mailboxes -----------------------------------------------------

// Send replicates the message to a write quorum of the members' mailboxes.
// The layer assigns the message ID (when empty) and timestamp before fan-out,
// so every member stores an identical message and Receive can deduplicate.
func (r *Replicated) Send(msg Message) error {
	r.maybeProbe()
	seq := r.nextMsg.Add(1)
	if msg.ID == "" {
		msg.ID = fmt.Sprintf("rmsg-%016x", seq)
	}
	if msg.Sent.IsZero() {
		msg.Sent = time.Now()
	}
	msg.Body = append([]byte(nil), msg.Body...)

	mu := r.mailStripe(msg.To)
	mu.Lock()
	defer mu.Unlock()

	live := r.live()
	quar := r.quarantinedSet(live)
	if len(live)-len(quar) < r.opts.WriteQuorum {
		r.stats.quorumFailures.Add(1)
		return fmt.Errorf("%w: %d of %d trusted members reachable, need %d",
			ErrQuorumFailed, len(live)-len(quar), len(r.members), r.opts.WriteQuorum)
	}
	h := hint{kind: hintSend, msg: msg}
	r.hintSkipped(live, h)
	results := r.fanout(live, r.opts.WriteQuorum+len(quar), func(i int, svc Service) fanResult {
		return fanResult{err: svc.Send(msg)}
	}, func(i int) { r.hintFailed(i, h) }, nil)
	acks := 0
	for _, res := range results {
		if res.err == nil && !quar[res.idx] {
			acks++
		}
	}
	if acks < r.opts.WriteQuorum {
		r.stats.quorumFailures.Add(1)
		return fmt.Errorf("%w: %d of %d send acks", ErrQuorumFailed, acks, r.opts.WriteQuorum)
	}
	r.stats.sends.Add(1)
	return nil
}

// Receive pops up to max pending messages for the recipient in FIFO order.
// Every live member's mailbox is drained; messages are deduplicated by ID
// against a bounded window of already-delivered messages, ordered by
// (Sent, ID) — both assigned by Send before fan-out — and served from a
// local pending queue, so a bounded Receive never loses the messages it
// popped but did not return. At least one member must respond.
func (r *Replicated) Receive(recipient string, max int) ([]Message, error) {
	r.maybeProbe()
	mu := r.mailStripe(recipient)
	mu.Lock()
	defer mu.Unlock()

	live := r.readEligible()
	if len(live) == 0 {
		r.stats.quorumFailures.Add(1)
		return nil, ErrUnavailable
	}
	results := r.fanout(live, len(live), func(i int, svc Service) fanResult {
		msgs, err := svc.Receive(recipient, 0)
		return fanResult{err: err, msgs: msgs}
	}, nil, nil)
	succ := 0
	var fresh []Message
	r.boxMu.Lock()
	inPending := make(map[string]bool)
	for _, m := range r.pending[recipient] {
		inPending[m.ID] = true
	}
	for _, res := range results {
		if res.err != nil {
			continue
		}
		succ++
		for _, m := range res.msgs {
			if _, dup := r.delivered[m.ID]; dup || inPending[m.ID] {
				continue
			}
			inPending[m.ID] = true
			fresh = append(fresh, m)
			r.rememberDelivered(m.ID)
		}
	}
	if succ == 0 {
		r.boxMu.Unlock()
		r.stats.quorumFailures.Add(1)
		return nil, ErrUnavailable
	}
	box := append(r.pending[recipient], fresh...)
	sort.SliceStable(box, func(a, b int) bool {
		if !box[a].Sent.Equal(box[b].Sent) {
			return box[a].Sent.Before(box[b].Sent)
		}
		return box[a].ID < box[b].ID
	})
	if max <= 0 || max > len(box) {
		max = len(box)
	}
	out := make([]Message, max)
	copy(out, box[:max])
	rest := box[max:]
	if len(rest) == 0 {
		delete(r.pending, recipient)
	} else {
		r.pending[recipient] = append([]Message(nil), rest...)
	}
	r.boxMu.Unlock()
	r.stats.receives.Add(1)
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// rememberDelivered records a popped message ID in the bounded dedup window.
// Caller holds boxMu.
func (r *Replicated) rememberDelivered(id string) {
	r.delivered[id] = struct{}{}
	r.deliverLog = append(r.deliverLog, id)
	for len(r.deliverLog) > deliveredWindow {
		delete(r.delivered, r.deliverLog[0])
		r.deliverLog = r.deliverLog[1:]
	}
}

// --- batch calls ------------------------------------------------------------

// lockStripes locks the name stripes of keys in ascending index order and
// returns the matching unlock.
func (r *Replicated) lockStripes(keys []string) func() {
	idx := make([]int, 0, len(keys))
	seen := make(map[int]bool)
	for _, k := range keys {
		i := shardIndexOf(k, len(r.nameMu))
		if !seen[i] {
			seen[i] = true
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	for _, i := range idx {
		r.nameMu[i].Lock()
	}
	return func() {
		for j := len(idx) - 1; j >= 0; j-- {
			r.nameMu[idx[j]].Unlock()
		}
	}
}

// PutBlobs stores the whole batch on a write quorum of members — each member
// sees the batch as one call, so a durable member still pays one journal record
// and one barrier for it — and returns the element-wise maximum versions the
// acknowledging members assigned.
func (r *Replicated) PutBlobs(puts []BlobPut) ([]int, error) {
	r.maybeProbe()
	if len(puts) == 0 {
		return nil, nil
	}
	// Private copies: members and hint queues may outlive the caller's
	// buffers (see the PutBlob contract in cloud.go), so the caller may
	// recycle its buffers the moment the call returns even while a slow
	// member's write is still in flight.
	copied := make([]BlobPut, len(puts))
	for i, p := range puts {
		copied[i] = BlobPut{Name: p.Name, Data: append([]byte(nil), p.Data...)}
	}
	names := make([]string, len(copied))
	for i, p := range copied {
		names[i] = p.Name
	}
	// The stripes stay locked until every member call has returned (not
	// just the quorum this call waits for): a repair that cannot take a
	// stripe knows a write is still propagating and backs off, so a
	// straggler can never race a repair put and inflate versions.
	unlock := r.lockStripes(names)

	live := r.live()
	quar := r.quarantinedSet(live)
	if len(live)-len(quar) < r.opts.WriteQuorum {
		unlock()
		r.stats.quorumFailures.Add(1)
		return nil, fmt.Errorf("%w: %d of %d trusted members reachable, need %d",
			ErrQuorumFailed, len(live)-len(quar), len(r.members), r.opts.WriteQuorum)
	}
	hs := make([]hint, len(copied))
	for i, p := range copied {
		hs[i] = hint{kind: hintPut, name: p.Name, data: p.Data}
	}
	r.hintSkipped(live, hs...)
	// need counts quarantined members on top of W: their acks arrive but do
	// not count, so the early exit must wait for W trusted acks even when
	// every quarantined member answers first.
	results := r.fanout(live, r.opts.WriteQuorum+len(quar), func(i int, svc Service) fanResult {
		vers, err := svc.PutBlobs(copied)
		return fanResult{vers: vers, err: err}
	}, func(i int) { r.hintFailed(i, hs...) }, unlock)
	versions := make([]int, len(copied))
	acks := 0
	for _, res := range results {
		if res.err != nil || len(res.vers) != len(copied) || quar[res.idx] {
			continue
		}
		acks++
		for i, v := range res.vers {
			if v > versions[i] {
				versions[i] = v
			}
		}
	}
	if acks < r.opts.WriteQuorum {
		r.stats.quorumFailures.Add(1)
		return nil, fmt.Errorf("%w: %d of %d batch-put acks", ErrQuorumFailed, acks, r.opts.WriteQuorum)
	}
	r.stats.puts.Add(int64(len(copied)))
	return versions, nil
}

// GetBlobs reads the whole batch from a read quorum of members and merges
// element-wise by maximum version, repairing stale members on the way out.
// Missing names yield a zero Blob at their position.
func (r *Replicated) GetBlobs(names []string) ([]Blob, error) {
	return r.quorumRead(len(names), func(pos int) string { return names[pos] }, true,
		func(svc Service) ([]Blob, error) { return svc.GetBlobs(names) })
}

// GetBlobsIf implements Service: the element-wise maximum-version merge of
// a read quorum, shipping data only past the caller's version. The
// conditional path does not read-repair — it is the hot path of delta sync,
// and a member's unchanged answer carries no bytes to compare — so repairs
// ride on GetBlob/GetBlobs and the anti-entropy pass.
func (r *Replicated) GetBlobsIf(gets []CondGet) ([]Blob, error) {
	merged, err := r.quorumRead(len(gets), func(pos int) string { return gets[pos].Name }, false,
		func(svc Service) ([]Blob, error) { return svc.GetBlobsIf(gets) })
	for pos := range merged {
		if merged[pos].Version <= gets[pos].IfNewer {
			merged[pos].Data = nil
		}
	}
	return merged, err
}

// quorumRead is the layer's one read path: it fans a batched read of n
// blobs (read, the member call) out to a read quorum and merges the answers
// element-wise — per position the maximum version wins, ties toward the
// lowest member index, so conflict resolution is deterministic — naming
// each winner name(pos). With repair, stale responders are rewritten on
// the way out. The read fails with ErrQuorumFailed when fewer than R
// members answered error-free: a minority answer must never shadow an
// acknowledged write.
func (r *Replicated) quorumRead(n int, name func(pos int) string, repair bool, read func(Service) ([]Blob, error)) ([]Blob, error) {
	r.maybeProbe()
	if n == 0 {
		return nil, nil
	}
	live := r.readEligible()
	if len(live) < r.opts.ReadQuorum {
		r.stats.quorumFailures.Add(1)
		return nil, fmt.Errorf("%w: %d of %d members readable, need %d",
			ErrQuorumFailed, len(live), len(r.members), r.opts.ReadQuorum)
	}
	results := r.fanout(live, r.opts.ReadQuorum, func(i int, svc Service) fanResult {
		blobs, err := read(svc)
		if err == nil && len(blobs) != n {
			err = fmt.Errorf("cloud: replicated: member %d returned %d blobs for %d names", i, len(blobs), n)
		}
		return fanResult{blobs: blobs, err: err}
	}, nil, nil)
	ok := results[:0]
	for _, res := range results {
		if res.err == nil {
			ok = append(ok, res)
		}
	}
	if len(ok) < r.opts.ReadQuorum {
		r.stats.quorumFailures.Add(1)
		return nil, fmt.Errorf("%w: %d of %d read responses", ErrQuorumFailed, len(ok), r.opts.ReadQuorum)
	}
	sort.Slice(ok, func(a, b int) bool { return ok[a].idx < ok[b].idx })
	merged := make([]Blob, n)
	for pos := range merged {
		winner := ok[0].blobs[pos]
		for _, res := range ok[1:] {
			if res.blobs[pos].Version > winner.Version {
				winner = res.blobs[pos]
			}
		}
		if winner.Version > 0 {
			if repair {
				r.readRepair(name(pos), winner, ok, pos)
			}
			winner.Name = name(pos)
		}
		merged[pos] = winner
	}
	r.stats.gets.Add(int64(n))
	return merged, nil
}

// --- anti-entropy -----------------------------------------------------------

// AntiEntropy drains every hint queue, then scans the union of blob names —
// grouped by the same package-level FNV sharding that stripes Memory and
// Durable — comparing members shard by shard and rewriting stale copies with
// the winning blob. One pass converges every reachable member to the
// element-wise maximum state (including writes lost to hint-queue overflow).
//
// Quarantined members never contribute names or winning blobs — a convicted
// provider must not be able to launder rolled-back or forked state through
// repair. Instead a dedicated pass (repairQuarantined) overwrites their
// divergent copies with trusted winners and re-admits them once every blob
// byte-matches the trusted view and, when a Verifier is installed, the
// winners themselves pass verification.
func (r *Replicated) AntiEntropy() (RepairReport, error) {
	var report RepairReport
	report.HintsDrained = r.DrainHints()

	live := r.readEligible()
	if len(live) == 0 {
		return report, ErrUnavailable
	}
	seen := make(map[string]bool)
	reachable := make([]int, 0, len(live))
	for _, i := range live {
		svc := r.Member(i)
		names, err := boundedCall(r.opts.CallTimeout, func() ([]string, error) {
			return svc.ListBlobs("")
		})
		if err != nil {
			r.markFailure(r.members[i])
			continue
		}
		r.markSuccess(r.members[i])
		reachable = append(reachable, i)
		for _, n := range names {
			seen[n] = true
		}
	}
	if len(reachable) == 0 {
		return report, ErrUnavailable
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	report.Names = len(names)

	groups := groupKeysByShard(len(names), r.opts.SyncShards, func(i int) string { return names[i] })
	report.Shards = len(groups)
	for _, g := range groups {
		shardNames := make([]string, len(g.indices))
		for j, i := range g.indices {
			shardNames[j] = names[i]
		}
		if err := r.repairShard(shardNames, reachable, &report); err != nil {
			return report, err
		}
	}
	r.repairQuarantined(names, reachable, &report)
	return report, nil
}

// repairQuarantined is the probe-based re-admission path for members under
// Byzantine quarantine. For each live quarantined member with a drained hint
// queue it (1) builds the trusted fleet's winning view of every blob, (2)
// verifies the winners with the installed Verifier (if any), (3) overwrites
// every copy the member holds that differs byte-for-byte from the winner and
// (4) re-fetches everything; only a member whose entire store then matches
// the trusted view is re-admitted to read quorums. A member that still
// diverges — e.g. one whose version counters were inflated by a fork —
// stays quarantined until SwapMember replaces it.
func (r *Replicated) repairQuarantined(names []string, sources []int, report *RepairReport) {
	var quarantined []int
	for i := range r.members {
		m := r.members[i]
		m.mu.Lock()
		candidate := m.quarantined && !m.down && len(m.hints) == 0
		m.mu.Unlock()
		if candidate {
			quarantined = append(quarantined, i)
		}
	}
	if len(quarantined) == 0 || len(sources) == 0 {
		return
	}

	// Trusted winners: element-wise max-version view across the trusted
	// sources (the same rule repairShard uses, restricted to trusted members).
	winners := make([]Blob, len(names))
	for _, si := range sources {
		svc := r.Member(si)
		blobs, err := boundedCall(r.opts.CallTimeout, func() ([]Blob, error) {
			return svc.GetBlobs(names)
		})
		if err != nil || len(blobs) != len(names) {
			r.markFailure(r.members[si])
			continue
		}
		for pos, b := range blobs {
			if b.Version > winners[pos].Version {
				winners[pos] = b
			}
		}
	}

	// Re-admission requires the trusted winners themselves to verify: if the
	// catalog audit cannot vouch for the bytes we are about to declare
	// canonical, repairs still run but the quarantine flag stays set.
	verified := true
	if r.opts.Verifier != nil {
		for pos, w := range winners {
			if w.Version == 0 || len(w.Data) == 0 {
				continue
			}
			if err := r.opts.Verifier(names[pos], w.Data); err != nil {
				verified = false
				break
			}
		}
	}

	for _, qi := range quarantined {
		svc := r.Member(qi)
		held, err := boundedCall(r.opts.CallTimeout, func() ([]Blob, error) {
			return svc.GetBlobs(names)
		})
		if err != nil || len(held) != len(names) {
			r.markFailure(r.members[qi])
			continue
		}
		for pos, w := range winners {
			if w.Version == 0 {
				continue
			}
			if !bytes.Equal(held[pos].Data, w.Data) {
				puts := r.repairName(names[pos], w, []int{qi}, true)
				report.QuarantineRepairs += puts
				report.BytesMoved += int64(puts * len(w.Data))
			}
		}
		// Probe: re-fetch everything and compare bytes. Any residual
		// divergence (including a version counter the adversary inflated past
		// the trusted winner, which repairName cannot lower) keeps the member
		// out of read quorums.
		after, err := boundedCall(r.opts.CallTimeout, func() ([]Blob, error) {
			return svc.GetBlobs(names)
		})
		if err != nil || len(after) != len(names) {
			r.markFailure(r.members[qi])
			continue
		}
		clean := true
		for pos, w := range winners {
			if w.Version == 0 {
				continue
			}
			if !bytes.Equal(after[pos].Data, w.Data) {
				clean = false
				break
			}
		}
		if clean && verified {
			m := r.members[qi]
			m.mu.Lock()
			m.quarantined = false
			m.mu.Unlock()
			report.Readmitted++
		}
	}
}

// repairShard compares one shard's blobs across members and rewrites stale
// copies.
func (r *Replicated) repairShard(names []string, memberIdx []int, report *RepairReport) error {
	type view struct {
		idx   int
		blobs []Blob
	}
	views := make([]view, 0, len(memberIdx))
	for _, i := range memberIdx {
		svc := r.Member(i)
		blobs, err := boundedCall(r.opts.CallTimeout, func() ([]Blob, error) {
			return svc.GetBlobs(names)
		})
		if err != nil || len(blobs) != len(names) {
			r.markFailure(r.members[i])
			continue
		}
		views = append(views, view{idx: i, blobs: blobs})
	}
	if len(views) == 0 {
		return ErrUnavailable
	}
	for pos, name := range names {
		winner := views[0].blobs[pos]
		for _, v := range views[1:] {
			if v.blobs[pos].Version > winner.Version {
				winner = v.blobs[pos]
			}
		}
		if winner.Version == 0 {
			continue
		}
		targets := make([]int, 0, len(views))
		for _, v := range views {
			b := v.blobs[pos]
			stale := b.Version < winner.Version ||
				(b.Version == winner.Version && !bytes.Equal(b.Data, winner.Data))
			if stale {
				targets = append(targets, v.idx)
			}
		}
		puts := r.repairName(name, winner, targets, true)
		report.StalePuts += puts
		report.BytesMoved += int64(puts * len(winner.Data))
	}
	return nil
}

// StartAntiEntropy launches a background loop that runs DrainHints and
// AntiEntropy every interval until Close. It is idempotent: a second call
// replaces the previous loop.
func (r *Replicated) StartAntiEntropy(interval time.Duration) {
	r.loopMu.Lock()
	defer r.loopMu.Unlock()
	r.stopLoopLocked()
	stop := make(chan struct{})
	done := make(chan struct{})
	r.loopStop, r.loopDone = stop, done
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				_, _ = r.AntiEntropy()
			}
		}
	}()
}

// Close stops the background anti-entropy loop (members are not closed; the
// caller owns their lifecycles).
func (r *Replicated) Close() error {
	r.loopMu.Lock()
	defer r.loopMu.Unlock()
	r.stopLoopLocked()
	return nil
}

func (r *Replicated) stopLoopLocked() {
	if r.loopStop != nil {
		close(r.loopStop)
		<-r.loopDone
		r.loopStop, r.loopDone = nil, nil
	}
}

// String names the layer for logs.
func (r *Replicated) String() string {
	return fmt.Sprintf("replicated(%d members, W=%d, R=%d)", len(r.members), r.opts.WriteQuorum, r.opts.ReadQuorum)
}

// interface conformance
var (
	_ Service      = (*Replicated)(nil)
	_ fmt.Stringer = (*Replicated)(nil)
)
