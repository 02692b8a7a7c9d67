package sync

// This file implements the base-plus-segment protocol — Push and Pull — on top
// of the state and merge machinery in sync.go. Each shard is two blobs in the
// cloud: a base with the shard's whole state at its last compaction, and a
// segment with every entry its writer holds that the base lacks, naming that
// base (DESIGN.md §5.2). The shape of every round trip:
//
//	Push:  one conditional batched fetch of the *dirty* shards' blobs (merge
//	       what advanced remotely, read-modify-write), then one batched
//	       upload: a segment per dirty shard, or a new base and an empty
//	       segment where the segment outgrew 1/segmentRatio of its base.
//	Pull:  one conditional batched fetch over *all* blobs; the provider
//	       ships bytes only for blobs whose version advanced past what the
//	       replica last merged. A base merges before the segment, and a
//	       segment merges only over the base it names.
//
// Neither operation holds the state mutex across a cloud exchange: local
// Upsert/Get/Delete never wait on the network. A local update that lands
// between the snapshot and the upload simply re-marks its shard dirty, and
// the next push republishes it; a remote push that lands between our fetch
// and our upload is overwritten at the blob store, but its author detects
// the loss on its next sync (the fetched version vector no longer dominates
// its own) and republishes its segment. Repeated rounds therefore converge —
// anti-entropy — without any cross-replica locking, which the
// intermittently connected cells of the paper could not provide anyway.

import "trustedcells/internal/cloud"

// Push uploads the replica's dirty shards to the cloud after merging the
// remote state of those shards (read-modify-write), all through batched
// exchanges. A replica with no dirty shards performs no cloud I/O at all.
func (r *Replica) Push() error {
	r.syncMu.Lock()
	defer r.syncMu.Unlock()
	return r.push()
}

// Pull fetches the blobs whose remote version advanced since the last sync —
// one conditional batched exchange — and merges them into the replica.
func (r *Replica) Pull() error {
	r.syncMu.Lock()
	defer r.syncMu.Unlock()
	return r.pull()
}

// Sync is Pull followed by Push, as one serialized anti-entropy round.
func (r *Replica) Sync() error {
	r.syncMu.Lock()
	defer r.syncMu.Unlock()
	if err := r.pull(); err != nil {
		return err
	}
	return r.push()
}

// push implements Push; the caller holds syncMu.
func (r *Replica) push() error {
	r.mu.Lock()
	if !r.connected {
		r.mu.Unlock()
		return ErrDisconnected
	}
	dirty := r.dirtyShardIndexesLocked()
	r.mu.Unlock()
	if len(dirty) == 0 {
		return nil
	}
	// Read-modify-write: learn what the cloud holds for the shards we are
	// about to write. No state lock across the exchange.
	if err := r.fetchMerge("push", dirty, true); err != nil {
		return err
	}

	r.mu.Lock()
	if !r.connected {
		r.mu.Unlock()
		return ErrDisconnected
	}
	// The merge (or a concurrent local update) may have dirtied more shards;
	// push everything dirty now. Attestations are stamped before any dirty
	// flag clears so an epoch-source failure loses nothing.
	dirty = r.dirtyShardIndexesLocked()
	// A compaction empties the delta; a failed push puts it back.
	deltas := make([][]string, len(dirty))
	var snaps []shardSnapshot
	for i, si := range dirty {
		deltas[i] = r.shards[si].delta
		out, err := r.snapshotLocked(si)
		if err != nil {
			r.failPushLocked(dirty[:i+1], deltas)
			r.mu.Unlock()
			return err
		}
		snaps = append(snaps, out...)
	}
	// Clear the flags so updates arriving while the upload is in flight
	// re-mark their shard.
	for _, si := range dirty {
		r.shards[si].dirty = false
	}
	r.mu.Unlock()

	puts := make([]cloud.BlobPut, len(snaps))
	bufs := make([]*[]byte, len(snaps))
	for i, snap := range snaps {
		sealed, err := r.encodeShard(snap)
		if err != nil {
			releaseShardBufs(bufs)
			r.mu.Lock()
			r.failPushLocked(dirty, deltas)
			r.mu.Unlock()
			return err
		}
		bufs[i] = sealed
		puts[i] = cloud.BlobPut{Name: r.shards[snap.shard].names[snap.kind], Data: *sealed}
	}
	versions, err := r.cloud.PutBlobs(puts)
	// The provider copied (or shipped) every blob; the sealed buffers can be
	// recycled. The traffic accounting below only reads slice-header lengths.
	releaseShardBufs(bufs)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.failPushLocked(dirty, deltas)
		return mapCloudErr("push", err)
	}
	for i, snap := range snaps {
		sh := r.shards[snap.shard]
		f := &sh.fresh[snap.kind]
		if versions[i] > f.seen {
			f.seen = versions[i]
		}
		if versions[i] > f.acked {
			// The provider acknowledged this version for our own write; a
			// later read below it is the freshness audit's rule-1 evidence.
			f.acked = versions[i]
			f.ref = snap.state.ref()
			if snap.kind == baseBlob {
				sh.baseSize = 0
				for _, e := range snap.entries {
					sh.baseSize += len(e)
				}
			}
		}
		r.bytesPushed += int64(len(puts[i].Data))
		r.shardsPushed++
	}
	r.pushes++
	return nil
}

// failPushLocked restores the dirty flag of the shards of a failed push and
// their deltas as they were before it, plus whatever was written since: a
// compaction that never reached the cloud leaves the shard on its old base.
func (r *Replica) failPushLocked(dirty []int, deltas [][]string) {
	for i, si := range dirty {
		sh := r.shards[si]
		sh.dirty = true
		for _, id := range deltas[i] {
			sh.addDelta(id)
		}
	}
}

// pull implements Pull; the caller holds syncMu.
func (r *Replica) pull() error {
	all := make([]int, len(r.shards))
	for si := range all {
		all[si] = si
	}
	if err := r.fetchMerge("pull", all, true); err != nil {
		return err
	}
	r.mu.Lock()
	r.pulls++
	r.mu.Unlock()
	return nil
}

// fetchMerge fetches both blobs of the given shards in one conditional
// batched exchange and merges what advanced. A segment that names a base
// this replica has not merged is held back, and on the first pass its shards
// are fetched once more, so that a base written just before the segment
// merges first. A segment that still names another base after that is stale
// — written over a base since replaced — and its shard is marked dirty, so
// the next push writes a segment over the current base in its place.
func (r *Replica) fetchMerge(op string, shards []int, retry bool) error {
	r.mu.Lock()
	if !r.connected {
		r.mu.Unlock()
		return ErrDisconnected
	}
	gets := make([]cloud.CondGet, 0, 2*len(shards))
	for _, si := range shards {
		sh := r.shards[si]
		for kind, name := range sh.names {
			gets = append(gets, cloud.CondGet{Name: name, IfNewer: sh.fresh[kind].seen})
		}
	}
	r.mu.Unlock()

	blobs, err := r.cloud.GetBlobsIf(gets)
	if err != nil {
		return mapCloudErr(op, err)
	}

	r.mu.Lock()
	if !r.connected {
		r.mu.Unlock()
		return ErrDisconnected
	}
	var held []int
	for i, si := range shards {
		named, err := r.mergeFetchedLocked(si, blobs[2*i], blobs[2*i+1])
		if err != nil {
			r.mu.Unlock()
			// A rule-1 freshness verdict needs a refetch to classify as
			// rollback or fork; other errors pass through unchanged.
			return r.finishDetection(err)
		}
		switch {
		case named:
		case retry:
			held = append(held, si)
		default:
			r.shards[si].dirty = true
		}
	}
	r.mu.Unlock()
	if len(held) > 0 {
		return r.fetchMerge(op, held, false)
	}
	return nil
}

// mergeFetchedLocked folds the conditionally fetched base and segment of
// shard si into the replica — shared by push (read-modify-write half) and
// pull so the skip condition and traffic accounting cannot diverge. Each blob
// is first held to its own freshness state (fetchedStateLocked). Every blob
// that advanced is then audited against the witness set as it stood before
// either merged, so the base and segment of one compaction cannot convict
// each other; a blob that fails to verify aborts with ErrIntegrity. Then the
// base merges, and the delta is recomputed against it, before the segment,
// which merges only over the base it names. The result is false when an
// advanced segment names a base this replica has not merged. The caller
// holds the state mutex.
func (r *Replica) mergeFetchedLocked(si int, base, seg cloud.Blob) (bool, error) {
	sh := r.shards[si]
	blobs := [2]cloud.Blob{base, seg}
	var states [2]*shardState
	for kind, b := range blobs {
		st, err := r.fetchedStateLocked(si, kind, b)
		if err != nil {
			return false, err
		}
		states[kind] = st
	}
	ref := sh.fresh[baseBlob].ref
	if states[baseBlob] != nil {
		ref = states[baseBlob].ref()
	}
	named := true
	if st := states[segmentBlob]; st != nil && st.Base != ref {
		states[segmentBlob], named = nil, false
	}
	for kind, st := range states {
		if st == nil {
			continue
		}
		fresh, err := r.auditFetchedLocked(si, kind, *st, blobs[kind])
		if err != nil {
			return false, err
		}
		if !fresh {
			states[kind] = nil
		}
	}
	behind := false
	if st := states[baseBlob]; st != nil {
		behind = r.mergeShardLocked(sh, *st)
		if err := r.rebaseLocked(si, *st, base.Data); err != nil {
			return false, err
		}
		r.mergedLocked(si, baseBlob, *st, base)
	}
	if st := states[segmentBlob]; st != nil {
		if st.Base != sh.fresh[baseBlob].ref {
			// The base it names arrived but failed its audit.
			return false, nil
		}
		behind = r.mergeShardLocked(sh, *st)
		r.mergedLocked(si, segmentBlob, *st, seg)
	}
	if behind {
		sh.dirty = true
	}
	return named, nil
}

// mergedLocked records that blob kind of shard si, fetched as b and decoded
// as st, merged: its attestations are witnessed and its version seen.
func (r *Replica) mergedLocked(si, kind int, st shardState, b cloud.Blob) {
	sh := r.shards[si]
	witnessAttestsLocked(sh, st.Attests)
	sh.fresh[kind].seen, sh.fresh[kind].ref = b.Version, st.ref()
	r.bytesPulled += int64(len(b.Data))
	r.shardsPulled++
}

// fetchedStateLocked holds one fetched blob to its own freshness state and
// decodes it when it advanced past the version last merged; it returns nil
// when the blob did not advance. A blob that did not advance (or was never
// written) is a no-op — unless it fell below the version the provider
// acknowledged for our own write of it, which is the freshness audit's rule 1
// (auth.go). Decoding against the local shard leaves out the entries this
// replica already holds, so the merge sees only what changed; an equal entry
// would be a no-op there anyway.
func (r *Replica) fetchedStateLocked(si, kind int, b cloud.Blob) (*shardState, error) {
	f := r.shards[si].fresh[kind]
	if b.Version <= f.seen {
		if b.Version < f.acked {
			// Served below our acknowledged write, or (version 0) claimed
			// never written at all.
			if r.strict {
				return nil, &divergenceError{shard: si, blob: kind, acked: f.acked, served: b.Version}
			}
			r.suspectLocked(si)
		}
		return nil, nil
	}
	if len(b.Data) == 0 {
		// An advanced version must carry bytes on the conditional-get
		// contract; an empty advanced entry is provider misbehaviour.
		if r.strict {
			return nil, &RollbackError{Shard: si, AckedVersion: f.acked, ServedVersion: b.Version}
		}
		r.suspectLocked(si)
		return nil, nil
	}
	st, err := r.decodeShard(si, kind, b.Data, r.shards[si].docs)
	if err != nil {
		return nil, err
	}
	return &st, nil
}

// dirtyShardIndexesLocked lists the shards holding unpublished local state.
func (r *Replica) dirtyShardIndexesLocked() []int {
	var dirty []int
	for si, s := range r.shards {
		if s.dirty {
			dirty = append(dirty, si)
		}
	}
	return dirty
}
