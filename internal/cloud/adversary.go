package cloud

// Adversary wraps any Service with the Byzantine provider behaviours the
// threat model names: a weakly-malicious provider may observe, tamper with,
// replay, drop, roll back or fork the state it stores, as long as the attack
// is not trivially convictable. Historically the adversary lived inside the
// in-memory store; as a wrapper it composes with every backend — RAM, disk,
// wire, or one member of a Replicated fleet — so the durable paths face the
// same adversary the simulations do.
//
// The wrapper is deterministic for a fixed seed and call sequence. It keeps a
// bounded history of the payloads it forwarded per blob name; that history is
// the material the Replaying mode (stale version number and stale bytes) and
// the Rollback mode (stale bytes under the *current* version number, which
// defeats plain version checks) serve back. The Fork mode diverts writes into
// per-client branches obtained from ClientView, freezing the wrapped backend
// at the fork point — the equivocation attack of the fork-consistency
// literature. EndFork heals the split by flushing one branch's state to the
// backend, which is the moment a client of a losing branch can detect the
// equivocation (see the sync package's authenticated catalog).

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
)

// advHistoryCap bounds how many prior payloads the wrapper retains per blob
// name as replay/rollback material (oldest evicted first).
const advHistoryCap = 4

// forkBranch is one client's divergent state while Fork is active: the blobs
// the branch wrote since the fork point. Reads fall through to the frozen
// backend for everything the branch did not overwrite.
type forkBranch struct {
	blobs map[string]Blob
}

// Adversary is a Service wrapper injecting adversarial behaviour in front of
// any backend.
type Adversary struct {
	inner Service

	// mu guards mode, rng, versions, history and branches. It is held across
	// calls into the wrapped backend: the adversary serializes, which keeps
	// its decisions deterministic under concurrency (and its code simple); it
	// is a test-and-drill harness, not a production proxy.
	mu       sync.Mutex
	mode     AdversaryMode
	cfg      AdversaryConfig
	rng      *rand.Rand
	versions map[string]int
	history  map[string][]Blob
	branches map[string]*forkBranch

	obsMu        sync.Mutex
	observations [][]byte

	tampered, replayed, rolledBack, forked atomic.Int64
	droppedBlobs, droppedMsgs, observed    atomic.Int64
}

// NewAdversary wraps svc with the adversarial behaviour selected by cfg;
// callers can use it wherever they used the backend.
func NewAdversary(svc Service, cfg AdversaryConfig) *Adversary {
	return &Adversary{
		inner:    svc,
		mode:     cfg.Mode,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		versions: make(map[string]int),
		history:  make(map[string][]Blob),
		branches: make(map[string]*forkBranch),
	}
}

// Inner returns the wrapped backend, for drills that need to inspect the
// provider's true state behind the adversary's lies.
func (a *Adversary) Inner() Service { return a.inner }

// Mode returns the currently active adversary mode.
func (a *Adversary) Mode() AdversaryMode {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.mode
}

// SetMode switches the adversarial behaviour at runtime, so a drill can
// converge honestly and then turn the provider malicious. Switching away from
// Fork does not heal existing branches; use EndFork for that.
func (a *Adversary) SetMode(m AdversaryMode) {
	a.mu.Lock()
	a.mode = m
	a.mu.Unlock()
}

// chanceLocked draws an adversarial coin; the caller holds mu.
func (a *Adversary) chanceLocked(p float64) bool {
	if p <= 0 {
		return false
	}
	return a.rng.Float64() < p
}

// learnVersionsLocked records the backend's version of names the wrapper has
// never seen (0 when absent or unreadable), all in one backend read. The
// caller holds mu.
func (a *Adversary) learnVersionsLocked(names []string) {
	if len(names) == 0 {
		return
	}
	blobs, err := a.inner.GetBlobs(names)
	for i, n := range names {
		a.versions[n] = 0
		if err == nil {
			a.versions[n] = blobs[i].Version
		}
	}
}

// noteVersionLocked records an acknowledged or observed version.
func (a *Adversary) noteVersionLocked(name string, v int) {
	if v > a.versions[name] {
		a.versions[name] = v
	}
}

// recordHistoryLocked retains a private copy of a forwarded payload as future
// replay/rollback material, bounded by advHistoryCap.
func (a *Adversary) recordHistoryLocked(name string, v int, data []byte) {
	h := append(a.history[name], Blob{Name: name, Version: v, Data: append([]byte(nil), data...)})
	if len(h) > advHistoryCap {
		h = h[len(h)-advHistoryCap:]
	}
	a.history[name] = h
}

// staleLocked returns the oldest retained payload strictly older than cur,
// or false when the wrapper has no rollback material for the name.
func (a *Adversary) staleLocked(name string, cur int) (Blob, bool) {
	for _, old := range a.history[name] {
		if old.Version < cur {
			return old, true
		}
	}
	return Blob{}, false
}

// branchLocked returns (creating on demand) the fork branch for a client id.
func (a *Adversary) branchLocked(id string) *forkBranch {
	br, ok := a.branches[id]
	if !ok {
		br = &forkBranch{blobs: make(map[string]Blob)}
		a.branches[id] = br
	}
	return br
}

// frozenLocked reads, in one backend call, the frozen backend state of the
// names the branch has not overwritten (a name resolves to the branch's own
// write if it has one). The result is indexed like names; a name the branch
// holds, or the backend lacks or fails to serve, reads as the zero Blob.
func (a *Adversary) frozenLocked(br *forkBranch, names []string) []Blob {
	out := make([]Blob, len(names))
	var miss []string
	var at []int
	for i, n := range names {
		if _, ok := br.blobs[n]; !ok {
			miss = append(miss, n)
			at = append(at, i)
		}
	}
	if len(miss) == 0 {
		return out
	}
	if blobs, err := a.inner.GetBlobs(miss); err == nil {
		for j, b := range blobs {
			out[at[j]] = b
		}
	}
	return out
}

// EndFork heals a fork: the winner branch's writes are flushed to the backend
// in name order, every branch is dropped, and the mode returns to Honest.
// Clients of the losing branches now observe a history that excludes their
// acknowledged writes — the view-crossing moment an authenticated catalog
// detects.
func (a *Adversary) EndFork(winner string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	br := a.branches[winner]
	if br != nil {
		names := make([]string, 0, len(br.blobs))
		for n := range br.blobs {
			names = append(names, n)
		}
		sort.Strings(names)
		puts := make([]BlobPut, len(names))
		for i, n := range names {
			puts[i] = BlobPut{Name: n, Data: br.blobs[n].Data}
		}
		if _, err := a.inner.PutBlobs(puts); err != nil {
			return err
		}
	}
	a.branches = make(map[string]*forkBranch)
	a.versions = make(map[string]int)
	a.mode = Honest
	return nil
}

// putBatch applies one batch of writes on behalf of a client branch.
func (a *Adversary) putBatch(branch string, puts []BlobPut) ([]int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()

	versions := make([]int, len(puts))
	if a.mode == Fork {
		// Divert every write into the caller's branch; the backend freezes at
		// the fork point. Version numbers continue the branch's own history,
		// so each client sees a self-consistent world.
		br := a.branchLocked(branch)
		names := make([]string, len(puts))
		for i, p := range puts {
			names[i] = p.Name
		}
		frozen := a.frozenLocked(br, names)
		for i, p := range puts {
			base := frozen[i].Version
			if cur, ok := br.blobs[p.Name]; ok {
				base = cur.Version
			}
			b := Blob{Name: p.Name, Version: base + 1, Data: append([]byte(nil), p.Data...)}
			br.blobs[p.Name] = b
			versions[i] = b.Version
			a.forked.Add(1)
		}
		return versions, nil
	}

	// Draw the drops first, so the versions of dropped names the wrapper has
	// never seen come from one backend read.
	var drop []bool
	if a.mode == Dropping {
		drop = make([]bool, len(puts))
		var unseen []string
		for i, p := range puts {
			if drop[i] = a.chanceLocked(a.cfg.DropRate); drop[i] {
				if _, ok := a.versions[p.Name]; !ok {
					unseen = append(unseen, p.Name)
				}
			}
		}
		a.learnVersionsLocked(unseen)
	}
	fwd := make([]BlobPut, 0, len(puts))
	fwdIdx := make([]int, 0, len(puts))
	for i, p := range puts {
		if drop != nil && drop[i] {
			// Pretend success but do not store: a silently lossy provider.
			// The invented version continues the acknowledged sequence, so
			// the lie is only visible to a client that audits freshness.
			v := a.versions[p.Name] + 1
			a.versions[p.Name] = v
			versions[i] = v
			a.droppedBlobs.Add(1)
			continue
		}
		data := append([]byte(nil), p.Data...)
		if a.mode == Tampering && len(data) > 0 && a.chanceLocked(a.cfg.TamperRate) {
			data[a.rng.Intn(len(data))] ^= 0xFF
			a.tampered.Add(1)
		}
		if a.mode == HonestButCurious {
			a.obsMu.Lock()
			a.observations = append(a.observations, append([]byte(nil), p.Data...))
			a.obsMu.Unlock()
			a.observed.Add(1)
		}
		fwd = append(fwd, BlobPut{Name: p.Name, Data: data})
		fwdIdx = append(fwdIdx, i)
	}
	if len(fwd) > 0 {
		vs, err := a.inner.PutBlobs(fwd)
		if err != nil {
			return nil, err
		}
		for j, v := range vs {
			i := fwdIdx[j]
			versions[i] = v
			a.noteVersionLocked(fwd[j].Name, v)
			a.recordHistoryLocked(fwd[j].Name, v, fwd[j].Data)
		}
	}
	return versions, nil
}

// serveLocked applies the read-path substitutions (replay, rollback) to one
// blob the backend shipped with data. The caller holds mu.
func (a *Adversary) serveLocked(b Blob) Blob {
	a.noteVersionLocked(b.Name, b.Version)
	switch a.mode {
	case Replaying:
		if olds := a.olderLocked(b.Name, b.Version); len(olds) > 0 && a.chanceLocked(a.cfg.ReplayRate) {
			a.replayed.Add(1)
			return cloneBlob(olds[a.rng.Intn(len(olds))])
		}
	case Rollback:
		if old, ok := a.staleLocked(b.Name, b.Version); ok && a.chanceLocked(a.cfg.RollbackRate) {
			a.rolledBack.Add(1)
			// Stale bytes under the current version number: version checks
			// pass, only authenticated freshness catches the lie.
			served := cloneBlob(old)
			served.Version = b.Version
			served.Stored = b.Stored
			return served
		}
	}
	return b
}

// olderLocked lists the retained payloads strictly older than cur.
func (a *Adversary) olderLocked(name string, cur int) []Blob {
	var out []Blob
	for _, old := range a.history[name] {
		if old.Version < cur {
			out = append(out, old)
		}
	}
	return out
}

// readBatch serves one batched read for a client branch. Under Fork it
// answers from the branch; otherwise fetch reads the backend (GetBlobs or
// GetBlobsIf: over a Replicated backend the two differ) and the replay and
// rollback substitutions apply to every blob that shipped data.
func (a *Adversary) readBatch(branch string, gets []CondGet, fetch func() ([]Blob, error)) ([]Blob, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.mode == Fork {
		br := a.branchLocked(branch)
		names := make([]string, len(gets))
		for i, g := range gets {
			names[i] = g.Name
		}
		frozen := a.frozenLocked(br, names)
		blobs := make([]Blob, len(gets))
		for i, g := range gets {
			b, ok := br.blobs[g.Name]
			if !ok {
				b = frozen[i]
			}
			if b.Version == 0 {
				continue
			}
			if b.Version <= g.IfNewer {
				blobs[i] = Blob{Name: b.Name, Version: b.Version, Stored: b.Stored}
				continue
			}
			blobs[i] = cloneBlob(b)
		}
		return blobs, nil
	}
	blobs, err := fetch()
	if err != nil {
		return nil, err
	}
	for i := range blobs {
		if blobs[i].Version > 0 && len(blobs[i].Data) > 0 {
			blobs[i] = a.serveLocked(blobs[i])
		}
	}
	return blobs, nil
}

// getBatch serves one unconditional batched read for a client branch.
func (a *Adversary) getBatch(branch string, names []string) ([]Blob, error) {
	return a.readBatch(branch, unconditional(names), func() ([]Blob, error) { return a.inner.GetBlobs(names) })
}

// condBatch serves one conditional batched read for a client branch.
func (a *Adversary) condBatch(branch string, gets []CondGet) ([]Blob, error) {
	return a.readBatch(branch, gets, func() ([]Blob, error) { return a.inner.GetBlobsIf(gets) })
}

// PutBlob implements Service: a batch of one.
func (a *Adversary) PutBlob(name string, data []byte) (int, error) { return putOne(a, name, data) }

// GetBlob implements Service: a batch of one.
func (a *Adversary) GetBlob(name string) (Blob, error) { return getOne(a, name) }

// DeleteBlob implements Service. Under Fork the delete lands in the caller's
// branch only (a divergent delete); otherwise it is forwarded.
func (a *Adversary) DeleteBlob(name string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.mode == Fork {
		delete(a.branchLocked("").blobs, name)
		return nil
	}
	delete(a.history, name)
	delete(a.versions, name)
	return a.inner.DeleteBlob(name)
}

// ListBlobs implements Service. Under Fork the listing is the union of the
// frozen backend and the caller's branch.
func (a *Adversary) ListBlobs(prefix string) ([]string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	names, err := a.inner.ListBlobs(prefix)
	if err != nil {
		return nil, err
	}
	if a.mode != Fork {
		return names, nil
	}
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		seen[n] = true
	}
	for n := range a.branchLocked("").blobs {
		if len(n) >= len(prefix) && n[:len(prefix)] == prefix && !seen[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Send implements Service; a Dropping adversary loses messages too.
func (a *Adversary) Send(msg Message) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.mode == Dropping && a.chanceLocked(a.cfg.DropRate) {
		a.droppedMsgs.Add(1)
		return nil
	}
	return a.inner.Send(msg)
}

// Receive implements Service.
func (a *Adversary) Receive(recipient string, max int) ([]Message, error) {
	return a.inner.Receive(recipient, max)
}

// Stats implements Service: the backend's counters plus the adversarial
// actions this wrapper performed.
func (a *Adversary) Stats() Stats {
	st := a.inner.Stats()
	st.TamperedBlobs += a.tampered.Load()
	st.ReplayedBlobs += a.replayed.Load()
	st.DroppedBlobs += a.droppedBlobs.Load()
	st.DroppedMessages += a.droppedMsgs.Load()
	st.ObservedBlobs += a.observed.Load()
	st.RolledBackBlobs += a.rolledBack.Load()
	st.ForkedBlobs += a.forked.Load()
	return st
}

// Observations returns what an honest-but-curious provider captured. The
// confidentiality tests assert that none of it is plaintext.
func (a *Adversary) Observations() [][]byte {
	a.obsMu.Lock()
	defer a.obsMu.Unlock()
	out := make([][]byte, len(a.observations))
	for i, o := range a.observations {
		out[i] = append([]byte(nil), o...)
	}
	return out
}

// PutBlobs implements Service.
func (a *Adversary) PutBlobs(puts []BlobPut) ([]int, error) { return a.putBatch("", puts) }

// GetBlobs implements Service.
func (a *Adversary) GetBlobs(names []string) ([]Blob, error) { return a.getBatch("", names) }

// GetBlobsIf implements Service.
func (a *Adversary) GetBlobsIf(gets []CondGet) ([]Blob, error) { return a.condBatch("", gets) }

// ClientView returns the Service through which one client (a connection, a
// tenant, a replica) talks to the provider. Views are how the Fork mode keys
// its equivocation: each view reads and writes its own branch while the fork
// is active, and behaves identically to the parent otherwise.
func (a *Adversary) ClientView(id string) *AdversaryView {
	return &AdversaryView{a: a, id: id}
}

// AdversaryView is one client's handle onto a forking provider; see
// Adversary.ClientView.
type AdversaryView struct {
	a  *Adversary
	id string
}

// PutBlob implements Service: a batch of one.
func (v *AdversaryView) PutBlob(name string, data []byte) (int, error) { return putOne(v, name, data) }

// GetBlob implements Service: a batch of one.
func (v *AdversaryView) GetBlob(name string) (Blob, error) { return getOne(v, name) }

// DeleteBlob implements Service.
func (v *AdversaryView) DeleteBlob(name string) error { return v.a.DeleteBlob(name) }

// ListBlobs implements Service.
func (v *AdversaryView) ListBlobs(prefix string) ([]string, error) { return v.a.ListBlobs(prefix) }

// Send implements Service.
func (v *AdversaryView) Send(msg Message) error { return v.a.Send(msg) }

// Receive implements Service.
func (v *AdversaryView) Receive(recipient string, max int) ([]Message, error) {
	return v.a.Receive(recipient, max)
}

// Stats implements Service.
func (v *AdversaryView) Stats() Stats { return v.a.Stats() }

// PutBlobs implements Service.
func (v *AdversaryView) PutBlobs(puts []BlobPut) ([]int, error) { return v.a.putBatch(v.id, puts) }

// GetBlobs implements Service.
func (v *AdversaryView) GetBlobs(names []string) ([]Blob, error) { return v.a.getBatch(v.id, names) }

// GetBlobsIf implements Service.
func (v *AdversaryView) GetBlobsIf(gets []CondGet) ([]Blob, error) { return v.a.condBatch(v.id, gets) }
