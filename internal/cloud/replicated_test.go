package cloud

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestReplicatedConstruction is the quorum edge-case table: configurations
// that could never acknowledge safely must be rejected at construction, not
// discovered at the first write.
func TestReplicatedConstruction(t *testing.T) {
	three := func() []Service { return []Service{NewMemory(), NewMemory(), NewMemory()} }
	cases := []struct {
		name    string
		members []Service
		opts    ReplicatedOptions
		wantErr bool
	}{
		{"defaults", three(), ReplicatedOptions{}, false},
		{"explicit majority", three(), ReplicatedOptions{WriteQuorum: 2, ReadQuorum: 2}, false},
		{"W equals N", three(), ReplicatedOptions{WriteQuorum: 3, ReadQuorum: 1}, false},
		{"single member", []Service{NewMemory()}, ReplicatedOptions{}, false},
		{"no members", nil, ReplicatedOptions{}, true},
		{"nil member", []Service{NewMemory(), nil}, ReplicatedOptions{}, true},
		{"W greater than N", three(), ReplicatedOptions{WriteQuorum: 4}, true},
		{"R greater than N", three(), ReplicatedOptions{ReadQuorum: 4}, true},
		{"negative W", three(), ReplicatedOptions{WriteQuorum: -1}, true},
		{"negative R", three(), ReplicatedOptions{ReadQuorum: -1}, true},
		{"negative hint capacity", three(), ReplicatedOptions{HintCapacity: -5}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewReplicated(tc.members, tc.opts)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("construction succeeded, want error")
				}
				return
			}
			if err != nil {
				t.Fatalf("construction failed: %v", err)
			}
			defer r.Close()
			if _, err := r.PutBlob("smoke", []byte("x")); err != nil {
				t.Fatalf("smoke put: %v", err)
			}
			if b, err := r.GetBlob("smoke"); err != nil || string(b.Data) != "x" {
				t.Fatalf("smoke get: %+v %v", b, err)
			}
		})
	}
}

// hungService blocks every put until released — the "slowest member" of the
// quorum tests.
type hungService struct {
	*Memory
	release chan struct{}
}

func (h *hungService) PutBlobs(puts []BlobPut) ([]int, error) {
	<-h.release
	return h.Memory.PutBlobs(puts)
}

// TestReplicatedExactlyWAcksWithHungMember proves a write returns as soon as
// W members acknowledged: a member that hangs forever must not stall the
// caller, and must still receive the write once it wakes up.
func TestReplicatedExactlyWAcksWithHungMember(t *testing.T) {
	hung := &hungService{Memory: NewMemory(), release: make(chan struct{})}
	r, err := NewReplicated([]Service{NewMemory(), NewMemory(), hung},
		ReplicatedOptions{WriteQuorum: 2, ReadQuorum: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		v, err := r.PutBlob("doc", []byte("payload"))
		if err != nil || v != 1 {
			t.Errorf("PutBlob with hung member: v=%d err=%v", v, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("PutBlob blocked on the hung member instead of returning at W acks")
	}
	// Release the hung member; its in-flight write completes eventually.
	close(hung.release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if b, err := hung.Memory.GetBlob("doc"); err == nil && string(b.Data) == "payload" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("hung member never received the write after release")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplicatedReadRepair seeds members with diverged histories and checks a
// quorum read reconciles to the maximum version — and rewrites the stale
// member so the next read finds the fleet converged.
func TestReplicatedReadRepair(t *testing.T) {
	m0, m1 := NewMemory(), NewMemory()
	r, err := NewReplicated([]Service{m0, m1}, ReplicatedOptions{WriteQuorum: 2, ReadQuorum: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Diverge behind the layer's back: m0 saw one write, m1 saw two.
	if _, err := m0.PutBlob("doc", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.PutBlob("doc", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.PutBlob("doc", []byte("new")); err != nil {
		t.Fatal(err)
	}

	b, err := r.GetBlob("doc")
	if err != nil || b.Version != 2 || string(b.Data) != "new" {
		t.Fatalf("read did not reconcile to max: %+v %v", b, err)
	}
	got, err := m0.GetBlob("doc")
	if err != nil || got.Version != 2 || string(got.Data) != "new" {
		t.Fatalf("stale member not repaired: %+v %v", got, err)
	}
	if st := r.ReplicationStats(); st.ReadRepairs == 0 {
		t.Fatalf("repair not accounted: %+v", st)
	}
}

// TestReplicatedConflictSameVersion: two members at the same version with
// different bytes must converge deterministically (toward the lowest member
// index) within a bounded number of reads, without oscillating.
func TestReplicatedConflictSameVersion(t *testing.T) {
	m0, m1 := NewMemory(), NewMemory()
	r, err := NewReplicated([]Service{m0, m1}, ReplicatedOptions{WriteQuorum: 2, ReadQuorum: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if _, err := m0.PutBlob("doc", []byte("aaa")); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.PutBlob("doc", []byte("bbb")); err != nil {
		t.Fatal(err)
	}
	// Two reads: the first lifts the loser past the conflict, the second
	// settles the remaining member. Both must agree afterwards.
	for i := 0; i < 2; i++ {
		if _, err := r.GetBlob("doc"); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	b0, _ := m0.GetBlob("doc")
	b1, _ := m1.GetBlob("doc")
	if !bytes.Equal(b0.Data, b1.Data) || b0.Version != b1.Version {
		t.Fatalf("members did not converge: m0=%+v m1=%+v", b0, b1)
	}
	if string(b0.Data) != "aaa" {
		t.Fatalf("conflict resolved away from the deterministic winner: %q", b0.Data)
	}
}

// TestReplicatedHintOverflow drives more writes at a down member than its
// hint queue holds: the overflow must be counted, the drain must replay what
// survived, and anti-entropy must repair the writes the overflow dropped.
func TestReplicatedHintOverflow(t *testing.T) {
	faulty := NewFaulty(NewMemory(), FaultyOptions{})
	r, err := NewReplicated([]Service{NewMemory(), NewMemory(), faulty},
		ReplicatedOptions{WriteQuorum: 2, ReadQuorum: 2, HintCapacity: 4, FailThreshold: 1, ProbeEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	faulty.SetDown(true)
	const writes = 12
	for i := 0; i < writes; i++ {
		if _, err := r.PutBlob(fmt.Sprintf("doc-%03d", i), []byte(fmt.Sprintf("v-%03d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	st := r.ReplicationStats()
	if st.HintsDropped == 0 {
		t.Fatalf("overflow never dropped a hint: %+v", st)
	}
	if st.MembersDown != 1 {
		t.Fatalf("faulty member not marked down: %+v", st)
	}

	faulty.SetDown(false)
	drained := r.DrainHints()
	if drained == 0 || drained > 4 {
		t.Fatalf("drained %d hints, want 1..4 (capacity)", drained)
	}
	if r.MemberDown(2) {
		t.Fatal("member still down after drain")
	}

	// The dropped hints left holes; one anti-entropy pass must fill them.
	report, err := r.AntiEntropy()
	if err != nil {
		t.Fatalf("AntiEntropy: %v", err)
	}
	if report.StalePuts == 0 {
		t.Fatalf("anti-entropy repaired nothing: %+v", report)
	}
	inner := faulty.Inner()
	for i := 0; i < writes; i++ {
		name := fmt.Sprintf("doc-%03d", i)
		b, err := inner.GetBlob(name)
		if err != nil || string(b.Data) != fmt.Sprintf("v-%03d", i) {
			t.Fatalf("member missing %s after anti-entropy: %+v %v", name, b, err)
		}
	}
}

// TestReplicatedQuorumLoss: with more members down than the quorum tolerates,
// reads and writes must fail fast with ErrQuorumFailed — and recover once a
// member returns.
func TestReplicatedQuorumLoss(t *testing.T) {
	f1 := NewFaulty(NewMemory(), FaultyOptions{})
	f2 := NewFaulty(NewMemory(), FaultyOptions{})
	r, err := NewReplicated([]Service{NewMemory(), f1, f2},
		ReplicatedOptions{WriteQuorum: 2, ReadQuorum: 2, FailThreshold: 1, ProbeEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if _, err := r.PutBlob("doc", []byte("x")); err != nil {
		t.Fatal(err)
	}
	f1.SetDown(true)
	f2.SetDown(true)
	if _, err := r.PutBlob("doc", []byte("y")); !errors.Is(err, ErrQuorumFailed) {
		t.Fatalf("write without quorum: %v", err)
	}
	if _, err := r.GetBlob("doc"); !errors.Is(err, ErrQuorumFailed) {
		t.Fatalf("read without quorum: %v", err)
	}

	f1.SetDown(false)
	r.DrainHints()
	if _, err := r.PutBlob("doc", []byte("z")); err != nil {
		t.Fatalf("write after one member returned: %v", err)
	}
	if b, err := r.GetBlob("doc"); err != nil || string(b.Data) != "z" {
		t.Fatalf("read after recovery: %+v %v", b, err)
	}
}

// TestReplicatedKillDrill is the acceptance drill behind experiment E15: one
// of three providers is killed mid-workload; every acknowledged write must
// stay readable at quorum while the member is dead, and the returning member
// must converge through the hinted-handoff drain.
func TestReplicatedKillDrill(t *testing.T) {
	members := make([]*Faulty, 3)
	services := make([]Service, 3)
	for i := range members {
		members[i] = NewFaulty(NewMemory(), FaultyOptions{})
		services[i] = members[i]
	}
	r, err := NewReplicated(services, ReplicatedOptions{WriteQuorum: 2, ReadQuorum: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const (
		total  = 200
		killAt = 100
		victim = 2
	)
	type acked struct {
		name    string
		payload string
		version int
	}
	var log []acked
	for i := 0; i < total; i++ {
		if i == killAt {
			members[victim].SetDown(true) // kill -9 mid-workload
		}
		name := fmt.Sprintf("cell/doc-%04d", i)
		payload := fmt.Sprintf("sealed-%04d", i)
		v, err := r.PutBlob(name, []byte(payload))
		if err != nil {
			t.Fatalf("write %d failed during drill: %v", i, err)
		}
		log = append(log, acked{name, payload, v})
		// Sprinkle batched writes through the drill as well.
		if i%20 == 10 {
			batch := []BlobPut{
				{Name: name + "-b0", Data: []byte(payload + "-b0")},
				{Name: name + "-b1", Data: []byte(payload + "-b1")},
			}
			vers, err := r.PutBlobs(batch)
			if err != nil {
				t.Fatalf("batch write %d failed during drill: %v", i, err)
			}
			for j, p := range batch {
				log = append(log, acked{p.Name, string(p.Data), vers[j]})
			}
		}
	}

	// Phase 1: victim still dead — every acked write must be readable at
	// quorum with at least the acked version. Zero tolerance.
	lost := 0
	for _, a := range log {
		b, err := r.GetBlob(a.name)
		if err != nil || string(b.Data) != a.payload || b.Version < a.version {
			lost++
			t.Errorf("acked write lost while member down: %s (%+v, %v)", a.name, b, err)
		}
	}
	if lost != 0 {
		t.Fatalf("acked_loss = %d, want 0", lost)
	}
	if !r.MemberDown(victim) {
		t.Fatal("victim should be marked down during the drill")
	}

	// Phase 2: the member returns; the hint drain must converge its own
	// store — every write it missed, replayed, at the quorum version.
	members[victim].SetDown(false)
	drained := r.DrainHints()
	if drained == 0 {
		t.Fatal("no hints drained for the returning member")
	}
	if r.MemberDown(victim) {
		t.Fatal("victim still marked down after drain")
	}
	inner := members[victim].Inner()
	for _, a := range log {
		b, err := inner.GetBlob(a.name)
		if err != nil || string(b.Data) != a.payload {
			t.Fatalf("returning member missing %s after drain: %+v %v", a.name, b, err)
		}
	}
	st := r.ReplicationStats()
	if st.HintsQueued == 0 || st.HintsDrained == 0 {
		t.Fatalf("handoff accounting: %+v", st)
	}
}

// TestReplicatedMailboxWithDownMember: the mailbox contract must hold while a
// member is dead and after it returns — no losses, no duplicates, FIFO.
func TestReplicatedMailboxWithDownMember(t *testing.T) {
	faulty := NewFaulty(NewMemory(), FaultyOptions{})
	r, err := NewReplicated([]Service{NewMemory(), NewMemory(), faulty},
		ReplicatedOptions{WriteQuorum: 2, ReadQuorum: 2, FailThreshold: 1, ProbeEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for i := 0; i < 3; i++ {
		if err := r.Send(Message{From: "a", To: "bob", Body: []byte(fmt.Sprintf("m%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	faulty.SetDown(true)
	for i := 3; i < 6; i++ {
		if err := r.Send(Message{From: "a", To: "bob", Body: []byte(fmt.Sprintf("m%d", i))}); err != nil {
			t.Fatalf("send %d with down member: %v", i, err)
		}
	}
	msgs, err := r.Receive("bob", 4)
	if err != nil || len(msgs) != 4 {
		t.Fatalf("Receive: %d %v", len(msgs), err)
	}
	faulty.SetDown(false)
	r.DrainHints()
	rest, err := r.Receive("bob", 0)
	if err != nil || len(rest) != 2 {
		t.Fatalf("Receive after recovery: %d %v", len(rest), err)
	}
	all := append(msgs, rest...)
	for i, m := range all {
		if want := fmt.Sprintf("m%d", i); string(m.Body) != want {
			t.Fatalf("position %d = %q, want %q", i, m.Body, want)
		}
	}
	if extra, _ := r.Receive("bob", 0); len(extra) != 0 {
		t.Fatalf("duplicates after recovery: %d", len(extra))
	}
}

// TestReplicatedSwapMemberRecovery models a member whose process died and was
// restarted: a crashed Durable is reopened from its directory and swapped
// back in; the drain plus anti-entropy must bring it current.
func TestReplicatedSwapMemberRecovery(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, DurableOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReplicated([]Service{NewMemory(), NewMemory(), d},
		ReplicatedOptions{WriteQuorum: 2, ReadQuorum: 2, FailThreshold: 1, ProbeEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for i := 0; i < 10; i++ {
		if _, err := r.PutBlob(fmt.Sprintf("doc-%02d", i), []byte("pre")); err != nil {
			t.Fatal(err)
		}
	}
	d.Crash()
	for i := 10; i < 20; i++ {
		if _, err := r.PutBlob(fmt.Sprintf("doc-%02d", i), []byte("post")); err != nil {
			t.Fatalf("write %d after member crash: %v", i, err)
		}
	}

	d2, err := OpenDurable(dir, DurableOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	r.SwapMember(2, d2)
	if !r.MemberDown(2) {
		t.Fatal("swapped member should start down")
	}
	r.DrainHints()
	if _, err := r.AntiEntropy(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("doc-%02d", i)
		if _, err := d2.GetBlob(name); err != nil {
			t.Fatalf("reopened member missing %s: %v", name, err)
		}
	}
}

// TestReplicatedGetBlobReadQuorum: a read that gathers fewer error-free
// responses than R must fail with ErrQuorumFailed, never serve the minority
// answer — with R=2 and one member erroring on reads, a single "not found"
// response must not shadow an acknowledged write. (Regression: the merge
// accepted any nonzero number of responses.)
func TestReplicatedGetBlobReadQuorum(t *testing.T) {
	faulty := NewFaulty(NewMemory(), FaultyOptions{})
	r, err := NewReplicated([]Service{NewMemory(), faulty},
		ReplicatedOptions{WriteQuorum: 2, ReadQuorum: 2, FailThreshold: 1 << 30, ProbeEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if _, err := r.PutBlob("doc", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// The member stays in the live set (reads queue no hints and the fail
	// threshold is out of reach), but every read against it errors: only one
	// of the two required responses can arrive.
	faulty.SetMask(MaskReads)
	if _, err := r.GetBlob("doc"); !errors.Is(err, ErrQuorumFailed) {
		t.Fatalf("read with 1 of R=2 responses = %v, want ErrQuorumFailed", err)
	}
	faulty.SetMask(0)
	if b, err := r.GetBlob("doc"); err != nil || string(b.Data) != "x" {
		t.Fatalf("read after mask cleared: %+v %v", b, err)
	}
}

// TestReplicatedConcurrentDrains races many drains of the same member: every
// hint must be replayed exactly once. (Regression: two unserialized drains
// could both replay the head and then both pop it, discarding the next hint
// without ever applying it.)
func TestReplicatedConcurrentDrains(t *testing.T) {
	faulty := NewFaulty(NewMemory(), FaultyOptions{})
	r, err := NewReplicated([]Service{NewMemory(), NewMemory(), faulty},
		ReplicatedOptions{WriteQuorum: 2, ReadQuorum: 2, FailThreshold: 1, ProbeEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	faulty.SetDown(true)
	const writes = 200
	for i := 0; i < writes; i++ {
		if _, err := r.PutBlob(fmt.Sprintf("doc-%03d", i), []byte(fmt.Sprintf("v-%03d", i))); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	faulty.SetDown(false)

	var drained atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drained.Add(int64(r.DrainHints()))
		}()
	}
	wg.Wait()
	if drained.Load() != writes {
		t.Fatalf("concurrent drains replayed %d hints, want exactly %d", drained.Load(), writes)
	}
	if st := r.ReplicationStats(); st.HintsDrained != writes {
		t.Fatalf("drain accounting: %+v", st)
	}
	if r.MemberDown(2) {
		t.Fatal("member still down after drains")
	}
	inner := faulty.Inner()
	for i := 0; i < writes; i++ {
		name := fmt.Sprintf("doc-%03d", i)
		b, err := inner.GetBlob(name)
		if err != nil || string(b.Data) != fmt.Sprintf("v-%03d", i) {
			t.Fatalf("member missing %s after concurrent drains: %+v %v", name, b, err)
		}
	}
}

// TestReplicatedQuorumFailureQueuesNothing: an operation that fails its
// quorum check fast must leave no trace — no hint may later materialize a
// write the caller was told failed. (Regression: hints for down members were
// queued before the quorum check.)
func TestReplicatedQuorumFailureQueuesNothing(t *testing.T) {
	f1 := NewFaulty(NewMemory(), FaultyOptions{})
	f2 := NewFaulty(NewMemory(), FaultyOptions{})
	r, err := NewReplicated([]Service{NewMemory(), f1, f2},
		ReplicatedOptions{WriteQuorum: 2, ReadQuorum: 2, FailThreshold: 1, ProbeEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	f1.SetDown(true)
	f2.SetDown(true)
	// This write trips both members down. It fails quorum after fanning out,
	// so its call-failure hints are the documented partial-application path.
	if _, err := r.PutBlob("trip", []byte("x")); !errors.Is(err, ErrQuorumFailed) {
		t.Fatalf("tripping write: %v", err)
	}

	before := r.ReplicationStats().HintsQueued
	if _, err := r.PutBlob("ghost", []byte("boo")); !errors.Is(err, ErrQuorumFailed) {
		t.Fatalf("put without quorum: %v", err)
	}
	if err := r.DeleteBlob("ghost"); !errors.Is(err, ErrQuorumFailed) {
		t.Fatalf("delete without quorum: %v", err)
	}
	if err := r.Send(Message{From: "a", To: "bob", Body: []byte("hi")}); !errors.Is(err, ErrQuorumFailed) {
		t.Fatalf("send without quorum: %v", err)
	}
	if _, err := r.PutBlobs([]BlobPut{{Name: "ghost-b", Data: []byte("boo")}}); !errors.Is(err, ErrQuorumFailed) {
		t.Fatalf("batch put without quorum: %v", err)
	}
	if after := r.ReplicationStats().HintsQueued; after != before {
		t.Fatalf("fast-failed operations queued %d hints", after-before)
	}

	f1.SetDown(false)
	f2.SetDown(false)
	r.DrainHints()
	for i, m := range []*Faulty{f1, f2} {
		if _, err := m.Inner().GetBlob("ghost"); err != ErrBlobNotFound {
			t.Fatalf("failed write materialized on member %d: %v", i+1, err)
		}
	}
}

// hungDeleteService blocks DeleteBlob until released — the hung (not
// erroring) provider of the delete path, which waits for every live member.
type hungDeleteService struct {
	*Memory
	release chan struct{}
}

func (h *hungDeleteService) DeleteBlob(name string) error {
	<-h.release
	return h.Memory.DeleteBlob(name)
}

// TestReplicatedDeleteWithHungMember: DeleteBlob waits for all live members
// (no tombstones), so a member that hangs rather than errors must be cut
// loose by CallTimeout instead of blocking deletes forever — and must still
// converge through its hint once it wakes up. (Regression: a hung call never
// counted as a failure, so one hung provider blocked every delete.)
func TestReplicatedDeleteWithHungMember(t *testing.T) {
	hung := &hungDeleteService{Memory: NewMemory(), release: make(chan struct{})}
	r, err := NewReplicated([]Service{NewMemory(), NewMemory(), hung},
		ReplicatedOptions{WriteQuorum: 2, ReadQuorum: 2, CallTimeout: 50 * time.Millisecond, ProbeEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if _, err := r.PutBlob("doc", []byte("x")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- r.DeleteBlob("doc") }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("delete with hung member: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DeleteBlob blocked on the hung member past CallTimeout")
	}

	// The timed-out member earned a delete hint; once it wakes up, the drain
	// (or its own dangling call) removes the blob it still holds.
	close(hung.release)
	r.DrainHints()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := hung.Memory.GetBlob("doc"); err == ErrBlobNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("hung member never applied the delete after release")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplicatedConcurrentStress hammers the layer from many goroutines while
// a member flaps — run under -race in the CI availability job.
func TestReplicatedConcurrentStress(t *testing.T) {
	faulty := NewFaulty(NewMemory(), FaultyOptions{Seed: 3, ErrorRate: 0.1})
	faulty.SetFlap(20, 5)
	r, err := NewReplicated([]Service{NewMemory(), NewMemory(), faulty},
		ReplicatedOptions{WriteQuorum: 2, ReadQuorum: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const (
		workers = 8
		rounds  = 40
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("w%d/doc-%03d", w, i)
				if _, err := r.PutBlob(name, []byte(name)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if b, err := r.GetBlob(name); err != nil || string(b.Data) != name {
					t.Errorf("get %s: %+v %v", name, b, err)
					return
				}
				if i%4 == 0 {
					if _, err := r.PutBlobs([]BlobPut{
						{Name: name + "-b", Data: []byte("b")},
					}); err != nil {
						t.Errorf("batch put: %v", err)
						return
					}
				}
				if i%8 == 0 {
					if err := r.Send(Message{From: name, To: fmt.Sprintf("w%d", w), Body: []byte("ping")}); err != nil {
						t.Errorf("send: %v", err)
						return
					}
					if _, err := r.Receive(fmt.Sprintf("w%d", w), 4); err != nil {
						t.Errorf("receive: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	faulty.SetFlap(0, 0)
	if _, err := r.AntiEntropy(); err != nil {
		t.Fatal(err)
	}
	names, err := r.ListBlobs("")
	if err != nil {
		t.Fatal(err)
	}
	want := workers * (rounds + rounds/4)
	if len(names) != want {
		t.Fatalf("final blob count = %d, want %d", len(names), want)
	}
}
