package sync

// This file implements the sharded delta protocol — the default Push/Pull —
// on top of the state and merge machinery in sync.go. The shape of every
// round trip:
//
//	Push:  one conditional batched fetch of the *dirty* shards (merge any
//	       that advanced remotely, read-modify-write), then one batched
//	       upload of their merged, sealed states.
//	Pull:  one conditional batched fetch over *all* shards; the provider
//	       ships bytes only for shards whose version advanced past what the
//	       replica last merged.
//
// Neither operation holds the state mutex across a cloud exchange: local
// Upsert/Get/Delete never wait on the network. A local update that lands
// between the snapshot and the upload simply re-marks its shard dirty, and
// the next push republishes it; a remote push that lands between our fetch
// and our upload is overwritten at the blob store, but its author detects
// the loss on its next sync (the fetched version vector no longer dominates
// its own) and republishes the merged state. Repeated rounds therefore
// converge — anti-entropy — without any cross-replica locking, which the
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

// Pull fetches the shards whose remote version advanced since the last sync
// — one conditional batched exchange — and merges them into the replica.
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
	if len(dirty) == 0 {
		r.mu.Unlock()
		return nil
	}
	gets := make([]cloud.CondGet, len(dirty))
	for i, si := range dirty {
		gets[i] = cloud.CondGet{Name: r.shardBlobName(si), IfNewer: r.shards[si].seen}
	}
	r.mu.Unlock()

	// Read-modify-write: learn what the cloud holds for the shards we are
	// about to overwrite. No state lock across the exchange.
	remote, err := cloud.GetBlobsIfVia(r.cloud, gets)
	if err != nil {
		return mapCloudErr("push", err)
	}

	r.mu.Lock()
	if !r.connected {
		r.mu.Unlock()
		return ErrDisconnected
	}
	for i, si := range dirty {
		if err := r.mergeFetchedLocked(si, remote[i]); err != nil {
			r.mu.Unlock()
			// A rule-1 freshness verdict needs a refetch to classify as
			// rollback or fork; other errors pass through unchanged.
			return r.finishDetection(err)
		}
	}
	// The merge (or a concurrent local update) may have dirtied more shards;
	// push everything dirty now. Attestations are stamped before any dirty
	// flag clears so an epoch-source failure loses nothing.
	dirty = r.dirtyShardIndexesLocked()
	snaps := make([]shardState, len(dirty))
	for i, si := range dirty {
		snaps[i] = snapshotShardLocked(r.shards[si])
		if err := r.attestSnapshotLocked(si, &snaps[i]); err != nil {
			r.mu.Unlock()
			return err
		}
	}
	// Clear the flags so updates arriving while the upload is in flight
	// re-mark their shard.
	for _, si := range dirty {
		r.shards[si].dirty = false
	}
	r.mu.Unlock()

	puts := make([]cloud.BlobPut, len(dirty))
	bufs := make([]*[]byte, len(dirty))
	for i, si := range dirty {
		sealed, err := r.encodeShard(si, snaps[i])
		if err != nil {
			releaseShardBufs(bufs)
			r.remarkDirty(dirty)
			return err
		}
		bufs[i] = sealed
		puts[i] = cloud.BlobPut{Name: r.shardBlobName(si), Data: *sealed}
	}
	versions, err := cloud.PutBlobsVia(r.cloud, puts)
	// The provider copied (or shipped) every blob; the sealed buffers can be
	// recycled. The traffic accounting below only reads slice-header lengths.
	releaseShardBufs(bufs)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		for _, si := range dirty {
			r.shards[si].dirty = true
		}
		return mapCloudErr("push", err)
	}
	for i, si := range dirty {
		if versions[i] > r.shards[si].seen {
			r.shards[si].seen = versions[i]
		}
		if versions[i] > r.shards[si].acked {
			// The provider acknowledged this version for our own write; a
			// later read below it is the freshness audit's rule-1 evidence.
			r.shards[si].acked = versions[i]
		}
		r.bytesPushed += int64(len(puts[i].Data))
		r.shardsPushed++
	}
	r.pushes++
	return nil
}

// pull implements Pull; the caller holds syncMu.
func (r *Replica) pull() error {
	r.mu.Lock()
	if !r.connected {
		r.mu.Unlock()
		return ErrDisconnected
	}
	gets := make([]cloud.CondGet, len(r.shards))
	for si := range r.shards {
		gets[si] = cloud.CondGet{Name: r.shardBlobName(si), IfNewer: r.shards[si].seen}
	}
	r.mu.Unlock()

	blobs, err := cloud.GetBlobsIfVia(r.cloud, gets)
	if err != nil {
		return mapCloudErr("pull", err)
	}

	r.mu.Lock()
	if !r.connected {
		r.mu.Unlock()
		return ErrDisconnected
	}
	for si, b := range blobs {
		if err := r.mergeFetchedLocked(si, b); err != nil {
			r.mu.Unlock()
			return r.finishDetection(err)
		}
	}
	r.pulls++
	r.mu.Unlock()
	return nil
}

// mergeFetchedLocked folds one conditionally fetched shard blob into the
// replica — shared by push (read-modify-write half) and pull so the skip
// condition and traffic accounting cannot diverge. A blob that did not
// advance past the last merged version (or was never pushed) is a no-op —
// unless it fell below the version the provider acknowledged for our own
// push, which is the freshness audit's rule 1 (auth.go). A blob that did
// advance is audited for stale epochs and equivocation before it merges; a
// blob that fails to verify aborts with ErrIntegrity. The caller holds the
// state mutex.
func (r *Replica) mergeFetchedLocked(si int, b cloud.Blob) error {
	sh := r.shards[si]
	if b.Version == 0 {
		if sh.acked > 0 {
			// The provider acknowledged our push of this shard and now claims
			// the blob does not exist at all.
			if r.strict {
				return &divergenceError{shard: si, acked: sh.acked, served: 0}
			}
			r.suspectLocked(si)
		}
		return nil
	}
	if b.Version <= sh.seen {
		if b.Version < sh.acked {
			if r.strict {
				return &divergenceError{shard: si, acked: sh.acked, served: b.Version}
			}
			r.suspectLocked(si)
		}
		return nil
	}
	if len(b.Data) == 0 {
		// An advanced version must carry bytes on the conditional-get
		// contract; an empty advanced entry is provider misbehaviour.
		if r.strict {
			return &RollbackError{Shard: si, AckedVersion: sh.acked, ServedVersion: b.Version}
		}
		r.suspectLocked(si)
		return nil
	}
	st, err := r.decodeShard(si, b.Data)
	if err != nil {
		return err
	}
	if err := r.auditFetchedLocked(si, st, b); err != nil {
		return err
	}
	r.mergeShardLocked(sh, st)
	witnessAttestsLocked(sh, st.Attests)
	sh.seen = b.Version
	r.bytesPulled += int64(len(b.Data))
	r.shardsPulled++
	return nil
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

// remarkDirty restores the dirty flag of the given shards after a failed
// upload.
func (r *Replica) remarkDirty(indexes []int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, si := range indexes {
		r.shards[si].dirty = true
	}
}
