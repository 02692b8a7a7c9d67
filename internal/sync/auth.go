package sync

// Authenticated catalog: rollback and fork detection for the sharded delta
// protocol. The AEAD envelope (codec.go, shardAD) already convicts a provider
// that *modifies* a shard blob — but a provider that re-serves an old, validly
// sealed blob (rollback), or shows different clients different histories
// (fork/equivocation), never breaks a seal. This file closes that gap.
//
// Every blob a push writes — a segment, or the base and segment of a
// compaction — is stamped with an attestation: a Merkle root over the whole
// logical shard (the base with the segment over it, which is every document
// of the writer's shard), countersigned together with a monotonic per-shard
// epoch under a key the provider never holds; each blob takes a fresh epoch.
// Replicas witness the attestations they merge and audit every fetched blob
// against that witness set:
//
//	rule 1 (freshness) — the provider serves a blob *below* the version it
//	    acknowledged for our own last write of that blob. On a single
//	    provider version numbers are monotonic per name, so this is guilt,
//	    classified as rollback or fork by whether the served history carries
//	    epochs newer than our witness set.
//	rule 2 (stale epochs) — the blob's version advanced past everything we
//	    merged under its name, yet it carries no epoch newer than our witness
//	    set as it stood before the round: old content re-served under a
//	    bumped version number.
//	rule 3 (equivocation) — one (replica, epoch) pair signed over two
//	    different roots. Signing keys live only in the cells, so this proves
//	    a forked history was joined back together.
//
// Rules 1 and 2 are sound against an honest *single* provider (Memory,
// Durable, a tccloud server) but not against a replicated quorum: quorum reads
// may legally regress below an acknowledged version when the write quorum and
// read quorum intersect only in members that have not yet drained their hints,
// and anti-entropy repairs can bump member version counters without new
// content. Replicas syncing over cloud.Replicated therefore run with
// SetStrictFreshness(false) — violations count as suspicions, the suspected
// blob is not merged, and the shard is re-dirtied (republishing heals benign
// races) — and Byzantine members are instead convicted per member via
// CheckBlob and quarantined by the replication layer (see
// cloud/replicated.go and experiment E17).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"strconv"
	"strings"

	"trustedcells/internal/cloud"
	"trustedcells/internal/crypto"
	"trustedcells/internal/datamodel"
)

// Errors the freshness audit convicts with. Both unwrap to ErrIntegrity, so
// existing callers that fail closed on integrity violations keep doing so.
var (
	// ErrRollbackDetected reports a provider serving stale catalog state
	// under a current (or advanced) version number.
	ErrRollbackDetected = errors.New("sync: provider rollback detected")
	// ErrForkDetected reports a provider showing this replica a history that
	// diverged from one it already acknowledged or served elsewhere.
	ErrForkDetected = errors.New("sync: provider fork detected")
)

// Attestation is one replica's signed commitment to a shard's content at one
// epoch: a Merkle root over the shard's documents plus a monotonic per-shard
// counter, HMAC-signed under a key derived from the user's master secret. The
// provider stores attestations inside the sealed blob and cannot forge, strip
// or replay them without tripping rule 2 or rule 3.
type Attestation struct {
	Epoch uint64
	Root  []byte
	Sig   []byte
}

// RollbackError is the typed evidence behind ErrRollbackDetected.
type RollbackError struct {
	Shard int
	// Replica and the epochs identify the attestation whose staleness
	// convicted the provider (empty when conviction came from version
	// regression alone).
	Replica        string
	WitnessedEpoch uint64
	ServedEpoch    uint64
	// AckedVersion is the blob version the provider acknowledged for this
	// replica's own last push; ServedVersion is what it served instead.
	AckedVersion  int
	ServedVersion int
}

func (e *RollbackError) Error() string {
	return fmt.Sprintf("sync: provider rollback detected on shard %d (acked v%d, served v%d, witnessed epoch %d, served epoch %d)",
		e.Shard, e.AckedVersion, e.ServedVersion, e.WitnessedEpoch, e.ServedEpoch)
}

// Unwrap makes errors.Is(err, ErrRollbackDetected) and errors.Is(err,
// ErrIntegrity) both true: a rollback is an integrity violation with a name.
func (e *RollbackError) Unwrap() []error { return []error{ErrRollbackDetected, ErrIntegrity} }

// ForkError is the typed evidence behind ErrForkDetected.
type ForkError struct {
	Shard          int
	Replica        string
	WitnessedEpoch uint64
	ServedEpoch    uint64
	AckedVersion   int
	ServedVersion  int
}

func (e *ForkError) Error() string {
	return fmt.Sprintf("sync: provider fork detected on shard %d (replica %q epoch %d vs witnessed %d, acked v%d, served v%d)",
		e.Shard, e.Replica, e.ServedEpoch, e.WitnessedEpoch, e.AckedVersion, e.ServedVersion)
}

func (e *ForkError) Unwrap() []error { return []error{ErrForkDetected, ErrIntegrity} }

// divergenceError is the internal rule-1 verdict raised under the state mutex:
// guilt is established (the provider served a shard below our acknowledged
// version), but rollback-vs-fork classification needs a cloud refetch, so
// push/pull translate it outside the lock via classifyDivergence.
type divergenceError struct {
	shard  int
	blob   int
	acked  int
	served int
}

func (e *divergenceError) Error() string {
	return fmt.Sprintf("sync: shard %d blob %d served at v%d below acknowledged v%d", e.shard, e.blob, e.served, e.acked)
}

// SetStrictFreshness selects what a freshness violation (rules 1 and 2) does:
// strict (default) returns a typed RollbackError/ForkError from the sync
// round; lenient counts a suspicion, leaves the suspected blob unmerged and
// re-dirties the shard so the next push republishes the newest state. Strict
// is sound against a single provider; replicas syncing over a replicated
// quorum must run lenient (see the package comment above).
func (r *Replica) SetStrictFreshness(on bool) {
	r.mu.Lock()
	r.strict = on
	r.mu.Unlock()
}

// SetEpochSource installs an external monotonic counter for attestation
// epochs, called once per blob a push writes. Cells back it with the TEE's
// tamper-resistant counters (tamper.TEE.CounterIncrement), which survive
// restarts; without a source the replica uses an in-memory counter resuming
// past its own witnessed epochs.
func (r *Replica) SetEpochSource(fn func(shard int) (uint64, error)) {
	r.mu.Lock()
	r.epochSource = fn
	r.mu.Unlock()
}

// Suspicions returns how many freshness violations the replica absorbed in
// lenient mode (SetStrictFreshness(false)). Honest runs — even with benign
// quorum races — keep this at zero over Memory and Durable backends; over a
// replicated quorum a nonzero count is the signal to audit members.
func (r *Replica) Suspicions() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.suspicions
}

// attestMsg is the byte string a shard attestation signs: domain tag, user,
// shard layout, shard index, author replica, epoch and root. Binding the
// layout and index means an attestation cannot be transplanted across shards
// or across replicas configured with different shard counts.
func (r *Replica) attestMsg(si int, replica string, epoch uint64, root []byte) []byte {
	b := make([]byte, 0, 64+len(root))
	b = datamodel.AppendString(b, "sync-attest")
	b = datamodel.AppendString(b, r.userID)
	b = binary.AppendUvarint(b, uint64(len(r.shards)))
	b = binary.AppendUvarint(b, uint64(si))
	b = datamodel.AppendString(b, replica)
	b = binary.AppendUvarint(b, epoch)
	b = binary.AppendUvarint(b, uint64(len(root)))
	return append(b, root...)
}

// signAttest signs one attestation message under the replica's audit key.
func (r *Replica) signAttest(si int, replica string, epoch uint64, root []byte) []byte {
	return crypto.HMAC(r.authKey, r.attestMsg(si, replica, epoch, root))
}

// nextEpochLocked issues the epoch for one outgoing attestation. The external
// source wins when installed; otherwise the in-memory counter continues past
// the replica's own witnessed epochs, so a replica rebuilt from replicated
// state (which pulls before its first push) does not reuse epochs it already
// published.
func (r *Replica) nextEpochLocked(si int) (uint64, error) {
	if r.epochSource != nil {
		return r.epochSource(si)
	}
	sh := r.shards[si]
	e := sh.epoch
	if own, ok := sh.attests[r.id]; ok && own.Epoch > e {
		e = own.Epoch
	}
	sh.epoch = e + 1
	return sh.epoch, nil
}

// attestLocked stamps one outgoing blob of shard si: a fresh epoch and the
// root signed by this replica, alongside the latest witnessed attestation of
// every other replica (so pullers learn the whole fleet's freshness frontier
// from any single push). The replica witnesses its own attestation
// immediately — an upload that then fails merely burns an epoch. The caller
// holds the state mutex.
func (r *Replica) attestLocked(si int, root []byte, st *shardState) error {
	epoch, err := r.nextEpochLocked(si)
	if err != nil {
		return fmt.Errorf("sync: epoch source for shard %d: %w", si, err)
	}
	sh := r.shards[si]
	sh.attests[r.id] = Attestation{Epoch: epoch, Root: root, Sig: r.signAttest(si, r.id, epoch, root)}
	st.Writer = r.id
	st.Attests = maps.Clone(sh.attests)
	return nil
}

// suspectLocked records a lenient-mode freshness violation and re-dirties the
// shard: republishing the newest local state is the anti-entropy move that
// heals a benign regression and re-asserts the truth over a malicious one.
func (r *Replica) suspectLocked(si int) {
	r.suspicions++
	r.shards[si].dirty = true
}

// auditFetchedLocked runs rules 2 and 3 over fetched blob kind of shard si,
// whose version advanced past everything previously merged under its name,
// and reports whether it may merge. It returns a typed conviction for proven
// misbehaviour and ErrIntegrity for a state its writer did not attest; in
// lenient mode it records a suspicion instead of convicting rule 2, and the
// blob does not merge. The caller holds the state mutex.
func (r *Replica) auditFetchedLocked(si, kind int, st shardState, b cloud.Blob) (bool, error) {
	if _, ok := st.Attests[st.Writer]; !ok {
		return false, ErrIntegrity
	}
	sh := r.shards[si]
	acked := sh.fresh[kind].acked
	fresh := false
	for rep, att := range st.Attests {
		// The AEAD seal already stops the provider from minting attestations,
		// so a bad signature here means key/layout confusion or a corrupted
		// replica — fail closed either way.
		if !crypto.VerifyHMAC(r.authKey, r.attestMsg(si, rep, att.Epoch, att.Root), att.Sig) {
			return false, ErrIntegrity
		}
		w, witnessed := sh.attests[rep]
		if witnessed && att.Epoch == w.Epoch && !bytes.Equal(att.Root, w.Root) {
			// Rule 3: one (replica, epoch) attesting two different roots.
			return false, &ForkError{
				Shard: si, Replica: rep,
				WitnessedEpoch: w.Epoch, ServedEpoch: att.Epoch,
				AckedVersion: acked, ServedVersion: b.Version,
			}
		}
		if !witnessed || att.Epoch > w.Epoch {
			fresh = true
		}
	}
	if !fresh {
		// Rule 2: the version number advanced, the content frontier did not.
		if r.strict {
			rep := st.Writer
			var we, se uint64
			if att, ok := st.Attests[rep]; ok {
				se = att.Epoch
			}
			if w, ok := sh.attests[rep]; ok {
				we = w.Epoch
			}
			return false, &RollbackError{
				Shard: si, Replica: rep,
				WitnessedEpoch: we, ServedEpoch: se,
				AckedVersion: acked, ServedVersion: b.Version,
			}
		}
		r.suspectLocked(si)
	}
	return fresh, nil
}

// witnessAttestsLocked advances the shard's witness set to the newest
// attestation seen per replica.
func witnessAttestsLocked(sh *replicaShard, attests map[string]Attestation) {
	for rep, att := range attests {
		if w, ok := sh.attests[rep]; !ok || att.Epoch > w.Epoch {
			sh.attests[rep] = att
		}
	}
}

// classifyDivergence turns rule-1 guilt into a rollback or fork conviction.
// Guilt is already established — the provider served shard si below the
// version it acknowledged — so every path returns an error; the refetch only
// decides which. A served history carrying epochs beyond our witness set means
// the provider kept advancing a *different* branch after acknowledging ours:
// a fork. A refetch that fails, or a history frozen at witnessed epochs, is a
// rollback.
func (r *Replica) classifyDivergence(d *divergenceError) error {
	rollback := &RollbackError{Shard: d.shard, AckedVersion: d.acked, ServedVersion: d.served}
	b, err := r.cloud.GetBlob(r.shards[d.shard].names[d.blob])
	if err != nil || len(b.Data) == 0 {
		return rollback
	}
	st, err := r.decodeShard(d.shard, d.blob, b.Data, nil)
	if err != nil {
		return rollback
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sh := r.shards[d.shard]
	for rep, att := range st.Attests {
		if w, ok := sh.attests[rep]; !ok || att.Epoch > w.Epoch {
			return &ForkError{
				Shard: d.shard, Replica: rep,
				WitnessedEpoch: w.Epoch, ServedEpoch: att.Epoch,
				AckedVersion: d.acked, ServedVersion: d.served,
			}
		}
	}
	return rollback
}

// finishDetection maps a divergenceError raised under the lock to its public
// conviction (or suspicion) and passes every other error through.
func (r *Replica) finishDetection(err error) error {
	var d *divergenceError
	if !errors.As(err, &d) {
		return err
	}
	return r.classifyDivergence(d)
}

// CheckBlob audits one sync blob of this replica's user, named as the cloud
// stores it, without merging it: decode, verify every attestation signature,
// and run the equivocation and stale-epoch rules against the replica's
// current witness set. A blob passes the stale-epoch rule when it is the
// version of its name this replica merged or wrote last — the same writer at
// the same epoch — or carries an epoch newer than the witness set. The audit
// never mutates replica state and never convicts on version numbers (member
// version counters are not comparable across a replicated fleet) — it
// answers "could this blob be an honest copy of the current one?" The
// replication layer's quarantine verifier is built from exactly this check
// (see cloud.ReplicatedOptions.Verifier). A name that is not one of the
// replica's blobs is an error.
func (r *Replica) CheckBlob(name string, data []byte) error {
	si, kind, ok := r.blobByName(name)
	if !ok {
		return fmt.Errorf("sync: %q is not a sync blob of this replica", name)
	}
	if len(data) == 0 {
		return nil
	}
	st, err := r.decodeShard(si, kind, data, nil)
	if err != nil {
		return err
	}
	if _, ok := st.Attests[st.Writer]; !ok {
		return ErrIntegrity
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	sh := r.shards[si]
	fresh := st.ref() == sh.fresh[kind].ref
	for rep, att := range st.Attests {
		if !crypto.VerifyHMAC(r.authKey, r.attestMsg(si, rep, att.Epoch, att.Root), att.Sig) {
			return ErrIntegrity
		}
		w, witnessed := sh.attests[rep]
		if witnessed && att.Epoch == w.Epoch && !bytes.Equal(att.Root, w.Root) {
			return &ForkError{Shard: si, Replica: rep, WitnessedEpoch: w.Epoch, ServedEpoch: att.Epoch}
		}
		if !witnessed || att.Epoch > w.Epoch {
			fresh = true
		}
	}
	if !fresh {
		var we uint64
		if w, ok := sh.attests[st.Writer]; ok {
			we = w.Epoch
		}
		return &RollbackError{Shard: si, Replica: st.Writer, WitnessedEpoch: we}
	}
	return nil
}

// blobByName maps one of the replica's blob names to its shard and kind.
func (r *Replica) blobByName(name string) (si, kind int, ok bool) {
	for kind, dir := range [2]string{"/syncshard/", "/syncseg/"} {
		rest, found := strings.CutPrefix(name, r.userID+dir)
		if !found {
			continue
		}
		si, err := strconv.Atoi(rest)
		if err != nil || si < 0 || si >= len(r.shards) || r.shards[si].names[kind] != name {
			return 0, 0, false
		}
		return si, kind, true
	}
	return 0, 0, false
}
