// Package sync implements the synchronization of a user's personal digital
// space across her trusted cells (the fixed home gateway, the portable
// token, the smartphone) through the untrusted cloud, tolerating the weak and
// intermittent connectivity the paper lists among its challenges
// ("asynchrony problems must also be addressed").
//
// Each cell keeps a replica of the metadata catalog plus a per-document
// revision counter. The replica is partitioned into shards by FNV-1a hash of
// the document ID — the same striping the sharded cloud store uses — and each
// shard carries a version vector (replica ID → local update count). In the
// cloud a shard is two sealed blobs: a base holding its whole state at the
// last compaction, and a segment holding every entry written since. Push
// seals and uploads only the segments of the dirty shards in one batched
// exchange, and writes a new base only once a segment grows past a fixed
// share of its base; Pull asks the provider for every blob conditionally (one
// conditional batched exchange) and receives bytes only for the blobs whose
// remote version advanced. Sync cost is therefore O(changed documents), not
// O(catalog) nor O(changed shards × shard size).
//
// Conflicts (the same document updated on two cells while disconnected) are
// resolved deterministically by highest revision, then lexicographically
// greatest replica ID. Every resolved conflict is recorded under a
// deterministic key in its shard's replicated conflict set, so once replicas
// converge they also agree on the number of conflicts resolved — the count is
// state, not a local observation.
package sync

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
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

// segmentRatio is the compaction threshold: a push writes a segment while its
// entries stay within 1/segmentRatio of the bytes of the base it extends, and
// a new base with an empty segment once they pass it (DESIGN.md §5.2).
const segmentRatio = 8

// The two blobs of a shard, as indexes of its per-blob state: the base holds
// the shard's whole state at its last compaction, the segment every entry
// written since.
const (
	baseBlob = iota
	segmentBlob
)

// VersionedDoc is a document plus its replication metadata.
type VersionedDoc struct {
	Doc      *datamodel.Document
	Revision uint64
	Replica  string
	Updated  time.Time
	Deleted  bool

	// wire and leaf cache this version's canonical shard entry (key
	// included) and its Merkle leaf hash; an empty wire means no cache.
	// They are filled under the replica's state mutex when a push snapshots
	// the shard and when a pulled entry is decoded. Every write to a shard's
	// docs map replaces the whole value (replicaShard.setDoc), so a cache
	// never outlives its version, and the bytes are never modified once
	// filled, so a snapshot may share them outside the mutex.
	wire []byte
	leaf [sha256.Size]byte
}

// shardEntry is one document of a shard state under its ID.
type shardEntry struct {
	ID string
	VersionedDoc
}

// shardState is the content of one shard blob: documents, the writer's version
// vector (replica ID → count of local updates that replica applied to this
// shard), and the set of conflict-resolution records discovered on documents
// of the shard. All three merge commutatively, which is what lets concurrent
// pushes converge instead of clobbering. A base holds every document of the
// shard; a segment holds the writer's documents that the base it names lacks,
// beside the writer's whole vector and conflict set.
type shardState struct {
	// Segment marks a segment, and Base names the base it extends.
	Segment bool
	Base    baseRef
	// Docs is sorted by ID without repeats. A state decoded against the
	// local shard holds only the entries that differ from it. A push
	// snapshot leaves it nil and carries the encoded entries instead
	// (shardSnapshot).
	Docs      []shardEntry
	VV        map[string]uint64
	Conflicts map[string]bool
	// Writer is the replica that pushed this state; Attests carries the
	// newest signed (epoch, Merkle root) commitment the writer held for each
	// replica — the freshness evidence the rollback/fork audit in auth.go
	// verifies. Every push sets both; they are empty only on a snapshot
	// that has not been stamped yet.
	Writer  string
	Attests map[string]Attestation
	// n is the number of doc entries a decoded blob holds, skipped ones
	// included, and size their encoded bytes.
	n, size int
}

// baseRef names a base blob by its writer and the epoch the writer signed it
// under; a segment records the ref of the base it extends.
type baseRef struct {
	Writer string
	Epoch  uint64
}

// ref names a blob state by its writer and the epoch the writer signed it
// under; for a base, that is the name segments extend it by.
func (st *shardState) ref() baseRef {
	return baseRef{Writer: st.Writer, Epoch: st.Attests[st.Writer].Epoch}
}

// blobFreshness is what a replica knows of one of a shard's blobs.
type blobFreshness struct {
	// seen is the cloud blob version last merged or written, so Pull can
	// skip a blob that did not advance.
	seen int
	// acked is the blob version the provider acknowledged for this
	// replica's own last write of it. Unlike seen (which merges can
	// advance), acked is set only from our own write acknowledgements, so
	// a later read below it is provider guilt on any single-provider
	// backend (freshness rule 1).
	acked int
	// ref names the version last merged or written by its writer and epoch.
	ref baseRef
}

// replicaShard is one in-memory partition of a replica, guarded by the
// replica's state mutex.
type replicaShard struct {
	// docs is written only through setDoc, which keeps order, tree and
	// changed in step with it.
	docs map[string]VersionedDoc
	// order is the sorted IDs of docs and tree the Merkle tree over their
	// cached leaves, in that order; a push snapshot builds both when they
	// are nil. IDs are never deleted from docs (Delete keeps a tombstone),
	// so only a new ID invalidates them.
	order []string
	tree  *crypto.MerkleHashTree
	// changed holds the order positions of the cached entries replaced
	// since the tree last took their leaves. A position whose entry has no
	// cache yet is there already: every entry had one when the tree was
	// built.
	changed   []int
	vv        map[string]uint64
	conflicts map[string]bool
	// dirty marks local information the cloud copy may lack: local updates
	// since the last successful push, or a merge that found the remote state
	// behind this replica's version vector.
	dirty bool
	// names and ads are the cloud names and the sealing associated data of
	// the shard's blobs, indexed by blob kind; both are fixed at creation.
	names [2]string
	ads   [2][]byte
	// fresh is the freshness state of each blob, indexed by blob kind.
	fresh [2]blobFreshness
	// baseSize is the bytes of the doc entries of the shard's base, the one
	// fresh[baseBlob].ref names. delta is the sorted IDs whose local version
	// that base lacks: what the next segment carries.
	baseSize int
	delta    []string
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
		// The names and associated data bind each blob to its user, the
		// replica's shard count and the shard index: the untrusted provider
		// can splice blobs neither across users nor across positions nor
		// between a base and a segment, and a replica misconfigured with a
		// different shard count fails loudly with ErrIntegrity instead of
		// silently misrouting documents.
		index := fmt.Sprintf("%04d", i)
		layout := ":" + userID + ":" + strconv.Itoa(shards) + ":" + strconv.Itoa(i)
		r.shards[i] = &replicaShard{
			names:     [2]string{userID + "/syncshard/" + index, userID + "/syncseg/" + index},
			ads:       [2][]byte{[]byte("syncshard" + layout), []byte("syncseg" + layout)},
			docs:      make(map[string]VersionedDoc),
			vv:        make(map[string]uint64),
			conflicts: make(map[string]bool),
			attests:   make(map[string]Attestation),
		}
	}
	return r
}

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

// Upsert records a local create/update of a document.
func (r *Replica) Upsert(doc *datamodel.Document) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.shardFor(doc.ID)
	cur := s.docs[doc.ID]
	s.setDoc(doc.ID, VersionedDoc{
		Doc:      doc.Clone(),
		Revision: cur.Revision + 1,
		Replica:  r.id,
		Updated:  r.clock(),
	})
	s.addDelta(doc.ID)
	s.vv[r.id]++
	s.dirty = true
}

// Delete records a local deletion (kept as a tombstone for replication).
func (r *Replica) Delete(docID string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.shardFor(docID)
	cur := s.docs[docID]
	s.setDoc(docID, VersionedDoc{
		Doc:      cur.Doc,
		Revision: cur.Revision + 1,
		Replica:  r.id,
		Updated:  r.clock(),
		Deleted:  true,
	})
	s.addDelta(docID)
	s.vv[r.id]++
	s.dirty = true
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

// mergeShardLocked merges a remote base or segment into the local shard,
// resolving document conflicts deterministically (highest revision, then
// lexicographically greatest replica ID), unioning the conflict records, and
// joining the version vectors. Every document it takes joins the delta; a
// base merge recomputes the delta afterwards (rebaseLocked). It reports
// whether the local shard holds updates the remote state has not seen — its
// vector does not dominate ours — in which case the caller marks the shard
// dirty so the next push re-publishes them; this is the anti-entropy step
// that recovers from concurrent pushes overwriting each other at the blob
// store.
func (r *Replica) mergeShardLocked(s *replicaShard, remote shardState) (behind bool) {
	for k, v := range s.vv {
		if remote.VV[k] < v {
			behind = true
			break
		}
	}
	take := func(id string, rv VersionedDoc) {
		s.setDoc(id, rv)
		s.addDelta(id)
		r.noteChangedLocked(id)
	}
	for _, e := range remote.Docs {
		id, rv := e.ID, e.VersionedDoc
		lv, exists := s.docs[id]
		if !exists {
			take(id, rv)
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
			take(id, rv)
		case rv.Revision == lv.Revision && rv.Replica != lv.Replica:
			// True concurrent conflict: deterministic winner, recorded under a
			// key both sides derive identically.
			loser := lv.Replica
			if rv.Replica < lv.Replica {
				loser = rv.Replica
			}
			r.recordConflictLocked(s, conflictKey(id, rv.Revision, loser))
			if rv.Replica > lv.Replica {
				take(id, rv)
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
	return behind
}

// rebaseLocked recomputes the delta of shard si against base st, just merged
// into it, as every local entry that base lacks. An entry the
// decode skipped equals the base's; a decoded one stays only where the local
// version beat it; and when the shard holds more IDs than the base, a full
// decode of the sealed base finds the ones it lacks.
func (r *Replica) rebaseLocked(si int, st shardState, sealed []byte) error {
	sh := r.shards[si]
	var delta []string
	for _, e := range st.Docs {
		if v := sh.docs[e.ID]; v.Revision != e.Revision || v.Replica != e.Replica {
			delta = append(delta, e.ID)
		}
	}
	if len(sh.docs) > st.n {
		full, err := r.decodeShard(si, baseBlob, sealed, nil)
		if err != nil {
			return err
		}
		in := make(map[string]bool, len(full.Docs))
		for _, e := range full.Docs {
			in[e.ID] = true
		}
		for id := range sh.docs {
			if !in[id] {
				delta = append(delta, id)
			}
		}
	}
	slices.Sort(delta)
	sh.delta, sh.baseSize = delta, st.size
	return nil
}

// addDelta records that the local version of id is not in the shard's base.
func (s *replicaShard) addDelta(id string) {
	if i, found := slices.BinarySearch(s.delta, id); !found {
		s.delta = slices.Insert(s.delta, i, id)
	}
}

// setDoc is the one write to a shard's document map. A new ID drops the
// order and the tree. Replacing a cached entry marks its position changed,
// until as many positions are marked as the shard has documents: then
// rebuilding the tree costs no more than re-hashing their paths, so the tree
// is dropped instead.
func (s *replicaShard) setDoc(id string, v VersionedDoc) {
	old, exists := s.docs[id]
	switch {
	case !exists:
		s.order, s.tree = nil, nil
	case s.tree == nil || len(old.wire) == 0:
		// The next snapshot builds the tree, or has the position already.
	case len(s.changed) < len(s.order):
		i, _ := slices.BinarySearch(s.order, id)
		s.changed = append(s.changed, i)
	default:
		s.tree = nil
	}
	s.docs[id] = v
}

// cachedLocked returns the entry under id with its wire and leaf cache
// filled, encoding through scratch.
func (s *replicaShard) cachedLocked(id string, scratch *[]byte) (VersionedDoc, error) {
	v := s.docs[id]
	if len(v.wire) == 0 {
		var err error
		if *scratch, err = cacheEntry(id, &v, *scratch); err != nil {
			return v, err
		}
		s.setDoc(id, v)
	}
	return v, nil
}

// rootLocked returns the Merkle root over every entry of the shard — its
// logical state, the base with the delta over it — filling the cache of each
// entry written since the last push. Only a new ID since then costs a sort
// of the ID order and a tree build; otherwise the tree re-hashes the paths
// of the changed leaves.
func (s *replicaShard) rootLocked() ([]byte, error) {
	var scratch []byte
	if s.order == nil {
		s.order = make([]string, 0, len(s.docs))
		for id := range s.docs {
			s.order = append(s.order, id)
		}
		slices.Sort(s.order)
		s.tree = nil
	}
	if s.tree == nil {
		leaves := make([][sha256.Size]byte, len(s.order))
		for i, id := range s.order {
			v, err := s.cachedLocked(id, &scratch)
			if err != nil {
				return nil, err
			}
			leaves[i] = v.leaf
		}
		s.tree = crypto.NewMerkleHashTree(leaves)
	} else {
		for _, i := range s.changed {
			v, err := s.cachedLocked(s.order[i], &scratch)
			if err != nil {
				return nil, err
			}
			s.tree.Set(i, v.leaf)
		}
	}
	s.changed = s.changed[:0]
	root := s.tree.Root()
	return root[:], nil
}

// wiresLocked returns the cached encodings of the given entries, in order,
// and their total length. rootLocked has filled every cache.
func (s *replicaShard) wiresLocked(ids []string) ([][]byte, int) {
	wires := make([][]byte, len(ids))
	n := 0
	for i, id := range ids {
		wires[i] = s.docs[id].wire
		n += len(wires[i])
	}
	return wires, n
}

// shardSnapshot is one blob as a push seals it: which shard and blob, the
// entries' cached encodings in ID order, shared with the shard, and a copy
// of the rest of the state, stamped by attestLocked.
type shardSnapshot struct {
	shard, kind int
	entries     [][]byte
	state       shardState
}

// snapshotLocked takes what a push writes for shard si. That is a segment of
// the delta while its entries stay within 1/segmentRatio of the base's bytes,
// and otherwise — or when the shard has no base yet — a compaction: a new
// base of every entry, and an empty segment naming it, after which the shard
// has an empty delta (and the new base once the upload is acknowledged).
// Every blob is stamped with a fresh epoch over the root of the whole shard.
// The caller holds the state mutex.
func (r *Replica) snapshotLocked(si int) ([]shardSnapshot, error) {
	sh := r.shards[si]
	root, err := sh.rootLocked()
	if err != nil {
		return nil, err
	}
	seg := shardSnapshot{shard: si, kind: segmentBlob, state: shardState{
		Segment: true, Base: sh.fresh[baseBlob].ref, VV: maps.Clone(sh.vv), Conflicts: maps.Clone(sh.conflicts),
	}}
	var segBytes int
	seg.entries, segBytes = sh.wiresLocked(sh.delta)
	if seg.state.Base.Writer != "" && segBytes*segmentRatio <= sh.baseSize {
		if err := r.attestLocked(si, root, &seg.state); err != nil {
			return nil, err
		}
		return []shardSnapshot{seg}, nil
	}
	base := shardSnapshot{shard: si, kind: baseBlob, state: shardState{VV: seg.state.VV, Conflicts: seg.state.Conflicts}}
	base.entries, _ = sh.wiresLocked(sh.order)
	if err := r.attestLocked(si, root, &base.state); err != nil {
		return nil, err
	}
	sh.delta = nil
	seg.entries, seg.state.Base = nil, base.state.ref()
	if err := r.attestLocked(si, root, &seg.state); err != nil {
		return nil, err
	}
	return []shardSnapshot{base, seg}, nil
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

// encodeShard seals one outgoing blob: binary-encode into a pooled scratch
// buffer, seal into a second pooled buffer in one pass. The caller owns the
// returned buffer and must hand it back to releaseShardBufs once the bytes
// have been shipped.
func (r *Replica) encodeShard(snap shardSnapshot) (*[]byte, error) {
	pb := shardBufs.Get()
	defer shardBufs.Put(pb)
	payload := appendShardState(*pb, snap.entries, snap.state)
	*pb = payload
	sb := shardBufs.Get()
	sealed, err := crypto.SealTo(*sb, r.key, payload, r.shards[snap.shard].ads[snap.kind])
	if err != nil {
		shardBufs.Put(sb)
		return nil, fmt.Errorf("sync: seal shard %d: %w", snap.shard, err)
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

// decodeShard opens and verifies one sealed blob of shard si, decoding it
// against known (see decodeShardState). The decrypted plaintext lives in a
// pooled buffer for the duration of the decode — the binary codec copies every
// field out. A blob in a codec version this replica does not read comes back
// as its ShardVersionError; every other failure as ErrIntegrity.
func (r *Replica) decodeShard(si, kind int, sealed []byte, known map[string]VersionedDoc) (shardState, error) {
	pb := shardBufs.Get()
	defer shardBufs.Put(pb)
	plain, ad, err := crypto.OpenTo(*pb, r.key, sealed)
	if err != nil {
		return shardState{}, ErrIntegrity
	}
	*pb = plain
	if string(ad) != string(r.shards[si].ads[kind]) {
		return shardState{}, ErrIntegrity
	}
	st, err := decodeShardState(plain, known)
	var ve *ShardVersionError
	switch {
	case errors.As(err, &ve):
		return shardState{}, ve
	case err != nil || st.Segment != (kind == segmentBlob):
		return shardState{}, ErrIntegrity
	}
	return st, nil
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
