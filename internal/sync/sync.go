// Package sync implements the synchronization of a user's personal digital
// space across her trusted cells (the fixed home gateway, the portable
// token, the smartphone) through the untrusted cloud, tolerating the weak and
// intermittent connectivity the paper lists among its challenges
// ("asynchrony problems must also be addressed").
//
// Each cell keeps a replica of the metadata catalog plus a per-document
// revision counter. The replica is partitioned into shards by FNV-1a hash of
// the document ID — the same striping the sharded cloud store uses — and each
// shard carries a version vector (replica ID → local update count). Push
// seals and uploads only the dirty shards in one batched exchange; Pull asks
// the provider for every shard conditionally (one conditional batched
// exchange) and receives bytes only for the shards whose remote version
// advanced. Sync cost is therefore O(changed shards), not O(catalog).
//
// Conflicts (the same document updated on two cells while disconnected) are
// resolved deterministically by highest revision, then lexicographically
// greatest replica ID. Every resolved conflict is recorded under a
// deterministic key in its shard's replicated conflict set, so once replicas
// converge they also agree on the number of conflicts resolved — the count is
// state, not a local observation.
package sync

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"time"

	"trustedcells/internal/cloud"
	"trustedcells/internal/crypto"
	"trustedcells/internal/datamodel"
)

// Errors returned by the synchronizer.
var (
	ErrDisconnected = errors.New("sync: replica is disconnected")
	ErrIntegrity    = errors.New("sync: replicated state failed integrity verification")
)

// DefaultShardCount is the number of replication shards of a replica built by
// NewReplica. More shards mean finer deltas (fewer bytes per sync when
// updates are localized) at the cost of more blobs; experiment E11 measures
// the trade-off at 10k-document catalogs.
const DefaultShardCount = 64

// VersionedDoc is a document plus its replication metadata.
type VersionedDoc struct {
	Doc      *datamodel.Document
	Revision uint64
	Replica  string
	Updated  time.Time
	Deleted  bool
}

// shardState is the replicated state of one shard: its documents, its version
// vector (replica ID → count of local updates that replica applied to this
// shard), and the set of conflict-resolution records discovered on documents
// of the shard. All three merge commutatively, which is what lets concurrent
// pushes converge instead of clobbering.
type shardState struct {
	Docs      map[string]VersionedDoc
	VV        map[string]uint64
	Conflicts map[string]bool
	// Writer is the replica that pushed this state; Attests carries the
	// newest signed (epoch, Merkle root) commitment the writer held for each
	// replica — the freshness evidence the rollback/fork audit in auth.go
	// verifies. Every push sets both; they are empty only on a snapshot
	// that has not been stamped yet.
	Writer  string
	Attests map[string]Attestation
}

// replicaShard is one in-memory partition of a replica, guarded by the
// replica's state mutex.
type replicaShard struct {
	docs      map[string]VersionedDoc
	vv        map[string]uint64
	conflicts map[string]bool
	// dirty marks local information the cloud copy may lack: local updates
	// since the last successful push, or a merge that found the remote state
	// behind this replica's version vector.
	dirty bool
	// seen is the cloud blob version last merged or written, so Pull can skip
	// shards that did not advance.
	seen int
	// acked is the blob version the provider acknowledged for this replica's
	// own last push. Unlike seen (which merges can advance), acked is set
	// only from our own write acknowledgements, so a later read below it is
	// provider guilt on any single-provider backend (freshness rule 1).
	acked int
	// attests is the witness set: the newest verified attestation per
	// replica, advanced only by shard merges and our own pushes.
	attests map[string]Attestation
	// epoch backs the in-memory attestation counter when no external epoch
	// source is installed.
	epoch uint64
}

// Replica is one cell's view of the replicated personal space.
//
// Two mutexes split its concerns: mu guards the in-memory state and is never
// held across cloud I/O, so local Upsert/Get/Delete proceed at memory speed
// while a sync round waits on a slow or partitioned provider; syncMu
// serializes Push/Pull/Sync against each other, so two overlapping sync
// rounds cannot interleave their read-merge-write cycles.
type Replica struct {
	mu     sync.Mutex
	syncMu sync.Mutex

	id        string
	userID    string
	key       crypto.SymmetricKey
	cloud     cloud.Service
	shards    []*replicaShard
	connected bool
	clock     func() time.Time

	// Authenticated-catalog state (auth.go): authKey signs shard roots,
	// strict selects convict-vs-suspect on freshness violations,
	// epochSource optionally backs epochs with a tamper-resistant counter,
	// suspicions counts lenient-mode violations.
	authKey     crypto.SymmetricKey
	strict      bool
	epochSource func(shard int) (uint64, error)
	suspicions  int

	pushes, pulls              int
	bytesPushed, bytesPulled   int64
	shardsPushed, shardsPulled int64

	// changed accumulates the IDs of documents rewritten by remote merges
	// since the last DrainChanges call, so an embedding cell can fold exactly
	// the replicated deltas into its catalog (see core.Cell.SyncCatalog).
	changed map[string]bool
}

// Change is one document-level change a merge applied from remote state.
type Change struct {
	DocID string
	// Doc is the document metadata (nil for a tombstone whose metadata this
	// replica never saw).
	Doc     *datamodel.Document
	Deleted bool
}

// Transfer is a snapshot of a replica's synchronization traffic counters.
type Transfer struct {
	Pushes, Pulls              int
	BytesPushed, BytesPulled   int64
	ShardsPushed, ShardsPulled int64
}

// Bytes returns the total sealed bytes the replica moved in both directions.
func (t Transfer) Bytes() int64 { return t.BytesPushed + t.BytesPulled }

// NewReplica creates a replica of userID's space named id (e.g.
// "alice/gateway") with DefaultShardCount replication shards. All replicas of
// a user derive the same sealing key from the user's master secret, so the
// cloud only ever sees ciphertext, and all replicas of a user must agree on
// the shard count (see NewReplicaShards).
func NewReplica(id, userID string, key crypto.SymmetricKey, svc cloud.Service, clock func() time.Time) *Replica {
	return NewReplicaShards(id, userID, key, svc, clock, DefaultShardCount)
}

// NewReplicaShards creates a replica with the given shard count. shards < 1
// is clamped to 1; a single shard reproduces full-state economics under the
// delta protocol. Every replica of one user must use the same count — the
// shard index is part of the cloud blob name and of the sealed associated
// data.
func NewReplicaShards(id, userID string, key crypto.SymmetricKey, svc cloud.Service, clock func() time.Time, shards int) *Replica {
	if clock == nil {
		clock = time.Now
	}
	if shards < 1 {
		shards = 1
	}
	r := &Replica{
		id:        id,
		userID:    userID,
		key:       key,
		cloud:     svc,
		shards:    make([]*replicaShard, shards),
		connected: true,
		clock:     clock,
		changed:   make(map[string]bool),
		authKey:   crypto.DeriveKey(key, "sync-root", userID),
		strict:    true,
	}
	for i := range r.shards {
		r.shards[i] = &replicaShard{
			docs:      make(map[string]VersionedDoc),
			vv:        make(map[string]uint64),
			conflicts: make(map[string]bool),
			attests:   make(map[string]Attestation),
		}
	}
	return r
}

// ID returns the replica identifier.
func (r *Replica) ID() string { return r.id }

// ShardCount returns the number of replication shards.
func (r *Replica) ShardCount() int { return len(r.shards) }

// shardIndex maps a document ID onto a shard, mirroring the FNV-1a striping
// of the sharded cloud store.
func (r *Replica) shardIndex(docID string) int {
	if len(r.shards) == 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(docID))
	return int(h.Sum32() % uint32(len(r.shards)))
}

func (r *Replica) shardFor(docID string) *replicaShard {
	return r.shards[r.shardIndex(docID)]
}

// SetConnected toggles connectivity (weakly connected trusted sources).
func (r *Replica) SetConnected(up bool) {
	r.mu.Lock()
	r.connected = up
	r.mu.Unlock()
}

// Connected reports the current connectivity.
func (r *Replica) Connected() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.connected
}

// Upsert records a local create/update of a document.
func (r *Replica) Upsert(doc *datamodel.Document) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.shardFor(doc.ID)
	cur := s.docs[doc.ID]
	s.docs[doc.ID] = VersionedDoc{
		Doc:      doc.Clone(),
		Revision: cur.Revision + 1,
		Replica:  r.id,
		Updated:  r.clock(),
	}
	s.vv[r.id]++
	s.dirty = true
}

// Delete records a local deletion (kept as a tombstone for replication).
func (r *Replica) Delete(docID string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.shardFor(docID)
	cur := s.docs[docID]
	s.docs[docID] = VersionedDoc{
		Doc:      cur.Doc,
		Revision: cur.Revision + 1,
		Replica:  r.id,
		Updated:  r.clock(),
		Deleted:  true,
	}
	s.vv[r.id]++
	s.dirty = true
}

// Get returns the live document with the given ID, if present.
func (r *Replica) Get(docID string) (*datamodel.Document, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.shardFor(docID).docs[docID]
	if !ok || v.Deleted || v.Doc == nil {
		return nil, false
	}
	return v.Doc.Clone(), true
}

// LiveCount returns the number of live (non-deleted) documents.
func (r *Replica) LiveCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.shards {
		for _, v := range s.docs {
			if !v.Deleted {
				n++
			}
		}
	}
	return n
}

// DirtyShards returns how many shards hold local information the cloud copy
// may lack.
func (r *Replica) DirtyShards() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.shards {
		if s.dirty {
			n++
		}
	}
	return n
}

// ConflictsResolved returns how many conflicting updates have been resolved
// on documents this replica knows about. The count is part of the replicated
// state, so converged replicas report the same number.
func (r *Replica) ConflictsResolved() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.shards {
		n += len(s.conflicts)
	}
	return n
}

// Traffic returns the number of pushes and pulls performed.
func (r *Replica) Traffic() (pushes, pulls int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pushes, r.pulls
}

// TransferStats returns a snapshot of all synchronization traffic counters,
// including the sealed bytes and shard blobs moved in each direction —
// experiment E11's primary metric.
func (r *Replica) TransferStats() Transfer {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Transfer{
		Pushes: r.pushes, Pulls: r.pulls,
		BytesPushed: r.bytesPushed, BytesPulled: r.bytesPulled,
		ShardsPushed: r.shardsPushed, ShardsPulled: r.shardsPulled,
	}
}

// noteChangedLocked records that a merge rewrote a document from remote
// state.
func (r *Replica) noteChangedLocked(docID string) {
	r.changed[docID] = true
}

// DrainChanges returns the documents rewritten by remote merges since the
// last call, with cloned metadata, and resets the set. Embedding layers use
// it to fold replicated deltas into their own indexes without rescanning the
// whole replica.
func (r *Replica) DrainChanges() []Change {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.changed) == 0 {
		return nil
	}
	out := make([]Change, 0, len(r.changed))
	for id := range r.changed {
		v, ok := r.shardFor(id).docs[id]
		if !ok {
			continue
		}
		ch := Change{DocID: id, Deleted: v.Deleted}
		if v.Doc != nil {
			ch.Doc = v.Doc.Clone()
		}
		out = append(out, ch)
	}
	r.changed = make(map[string]bool)
	return out
}

// RequeueChanges puts drained changes back into the pending set, so a caller
// that failed to apply some of them can return an error without losing the
// rest — the next DrainChanges will hand them out again (with the document's
// state as of that moment).
func (r *Replica) RequeueChanges(chs []Change) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ch := range chs {
		r.changed[ch.DocID] = true
	}
}

// conflictKey is the deterministic identity of one resolved conflict: every
// replica that witnesses (or receives) the resolution records the same key,
// so conflict counts converge with the data.
func conflictKey(docID string, revision uint64, loser string) string {
	return docID + "@" + strconv.FormatUint(revision, 10) + ":" + loser
}

// recordConflictLocked adds a conflict record to the shard and marks it dirty
// so the record propagates to the other replicas.
func (r *Replica) recordConflictLocked(s *replicaShard, key string) {
	if s.conflicts[key] {
		return
	}
	s.conflicts[key] = true
	s.dirty = true
}

// mergeShardLocked merges a remote shard state into the local shard,
// resolving document conflicts deterministically (highest revision, then
// lexicographically greatest replica ID), unioning the conflict records, and
// joining the version vectors. If the local shard holds updates the remote
// state has not seen — its vector does not dominate ours — the shard is
// marked dirty so the next push re-publishes the merged state; this is the
// anti-entropy step that recovers from concurrent pushes overwriting each
// other at the blob store.
func (r *Replica) mergeShardLocked(s *replicaShard, remote shardState) {
	behind := false
	for k, v := range s.vv {
		if remote.VV[k] < v {
			behind = true
			break
		}
	}
	for id, rv := range remote.Docs {
		lv, exists := s.docs[id]
		if !exists {
			s.docs[id] = rv
			r.noteChangedLocked(id)
			continue
		}
		switch {
		case rv.Revision > lv.Revision:
			// A higher revision supersedes ours. Count it as a conflict only
			// when the overwritten entry was authored here and the remote
			// state's version vector lacks some of our updates to this shard
			// — evidence the remote side did not build on everything we
			// wrote. The vector is per-shard, not per-document, so an
			// unpushed local update to a *different* document in the shard
			// can make a causally-built overwrite look concurrent; the
			// approximation errs toward counting, is deterministic, and a
			// remote vector that dominates ours proves causality exactly.
			if lv.Replica == r.id && rv.Replica != r.id && remote.VV[r.id] < s.vv[r.id] {
				r.recordConflictLocked(s, conflictKey(id, rv.Revision, lv.Replica))
			}
			s.docs[id] = rv
			r.noteChangedLocked(id)
		case rv.Revision == lv.Revision && rv.Replica != lv.Replica:
			// True concurrent conflict: deterministic winner, recorded under a
			// key both sides derive identically.
			loser := lv.Replica
			if rv.Replica < lv.Replica {
				loser = rv.Replica
			}
			r.recordConflictLocked(s, conflictKey(id, rv.Revision, loser))
			if rv.Replica > lv.Replica {
				s.docs[id] = rv
				r.noteChangedLocked(id)
			}
		}
	}
	for key := range remote.Conflicts {
		if !s.conflicts[key] {
			s.conflicts[key] = true
		}
	}
	for k, v := range remote.VV {
		if s.vv[k] < v {
			s.vv[k] = v
		}
	}
	if behind {
		s.dirty = true
	}
}

// snapshotShardLocked deep-copies a shard's replicated state for sealing
// outside the state mutex.
func snapshotShardLocked(s *replicaShard) shardState {
	out := shardState{
		Docs:      make(map[string]VersionedDoc, len(s.docs)),
		VV:        make(map[string]uint64, len(s.vv)),
		Conflicts: make(map[string]bool, len(s.conflicts)),
	}
	for id, v := range s.docs {
		out.Docs[id] = v
	}
	for k, v := range s.vv {
		out.VV[k] = v
	}
	for k := range s.conflicts {
		out.Conflicts[k] = true
	}
	return out
}

// mapCloudErr folds provider unavailability into the replica's disconnected
// error, matching how a weakly connected cell experiences an outage.
func mapCloudErr(op string, err error) error {
	if errors.Is(err, cloud.ErrUnavailable) {
		return ErrDisconnected
	}
	return fmt.Errorf("sync: %s: %w", op, err)
}

// shardBufs recycles the scratch buffers of shard encode/decode: the binary
// payload and the sealed envelope on push, the decrypted plaintext on pull.
// Both stay within one call (the provider copies puts, the binary decoder
// copies strings out), so the pool keeps steady-state sync free of
// per-exchange buffer churn.
var shardBufs crypto.BufPool

// encodeShard seals one shard state for upload: binary-encode into a pooled
// scratch buffer, seal into a second pooled buffer in one pass. The caller
// owns the returned buffer and must hand it back to releaseShardBuf once the
// bytes have been shipped.
func (r *Replica) encodeShard(si int, st shardState) (*[]byte, error) {
	pb := shardBufs.Get()
	defer shardBufs.Put(pb)
	payload, err := appendShardState(*pb, st)
	if err != nil {
		return nil, fmt.Errorf("sync: encode shard %d: %w", si, err)
	}
	*pb = payload
	sb := shardBufs.Get()
	sealed, err := crypto.SealTo(*sb, r.key, payload, r.shardAD(si))
	if err != nil {
		shardBufs.Put(sb)
		return nil, fmt.Errorf("sync: seal shard %d: %w", si, err)
	}
	*sb = sealed
	return sb, nil
}

// releaseShardBufs recycles the sealed buffers of one push exchange.
func releaseShardBufs(bufs []*[]byte) {
	for _, b := range bufs {
		if b != nil {
			shardBufs.Put(b)
		}
	}
}

// decodeShard opens and verifies one sealed shard blob. The decrypted
// plaintext lives in a pooled buffer for the duration of the decode — the
// binary codec copies every field out.
func (r *Replica) decodeShard(si int, sealed []byte) (shardState, error) {
	pb := shardBufs.Get()
	defer shardBufs.Put(pb)
	plain, ad, err := crypto.OpenTo(*pb, r.key, sealed)
	if err != nil {
		return shardState{}, ErrIntegrity
	}
	*pb = plain
	if string(ad) != string(r.shardAD(si)) {
		return shardState{}, ErrIntegrity
	}
	st, err := decodeShardState(plain)
	if err != nil {
		return shardState{}, ErrIntegrity
	}
	return st, nil
}

// shardBlobName is the cloud name of one replication shard.
func (r *Replica) shardBlobName(si int) string {
	return r.userID + "/syncshard/" + fmt.Sprintf("%04d", si)
}

// shardAD binds a sealed shard to its user, the replica's shard count and the
// shard index: the untrusted provider can neither splice shards across users
// nor across positions, and a replica misconfigured with a different shard
// count fails loudly with ErrIntegrity instead of silently misrouting
// documents.
func (r *Replica) shardAD(si int) []byte {
	return []byte("syncshard:" + r.userID + ":" + strconv.Itoa(len(r.shards)) + ":" + strconv.Itoa(si))
}

// DocIDs returns the sorted IDs of live documents (for convergence checks).
func (r *Replica) DocIDs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ids []string
	for _, s := range r.shards {
		for id, v := range s.docs {
			if !v.Deleted {
				ids = append(ids, id)
			}
		}
	}
	sort.Strings(ids)
	return ids
}

// liveVersions returns one "<id>@<revision>:<replica>" entry per live
// document, sorted — the convergence fingerprint Equal compares.
func (r *Replica) liveVersions() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, s := range r.shards {
		for id, v := range s.docs {
			if !v.Deleted {
				out = append(out, conflictKey(id, v.Revision, v.Replica))
			}
		}
	}
	sort.Strings(out)
	return out
}

// Equal reports whether two replicas have converged to the same live state:
// the same documents at the same winning (revision, replica) versions.
// Comparing versions, not just IDs, matters for workloads that only update
// existing documents — ID sets would agree the whole time while the replicas
// still disagree on content.
func Equal(a, b *Replica) bool {
	av, bv := a.liveVersions(), b.liveVersions()
	if len(av) != len(bv) {
		return false
	}
	for i := range av {
		if av[i] != bv[i] {
			return false
		}
	}
	return true
}
