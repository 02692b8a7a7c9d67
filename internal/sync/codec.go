package sync

// Binary shard codec: the one wire form of a shard's two blobs, the base and
// the segment (DESIGN.md §5.2). It embeds the datamodel binary document codec
// and always carries the authenticated-catalog section, so a replica never
// writes an unattested blob. The whole-shard version 2 and every form before
// it are refused with a ShardVersionError.
//
// Wire format (integers are unsigned varints):
//
//	[1] magic: 0xD6 base, 0xD7 segment
//	[1] codec version: 3 base, 1 segment
//	segment only: the base it extends — writer string, that writer's epoch
//	docs:      count + per entry: key string, revision, replica string,
//	           updated (uvarint length + time.MarshalBinary), flags byte
//	           (bit0 deleted, bit1 metadata present), [binary document]
//	vv:        count + (replica string, counter) pairs
//	conflicts: count + strings
//	writer:    string
//	attests:   count + per entry: replica string, epoch, root bytes, sig bytes
//
// Doc keys, vector keys, conflict keys and attestation keys are sorted, so
// equal states encode to equal bytes on every replica. The decoder accepts
// only what the encoder writes — keys strictly increasing, minimal varints,
// no unknown flag bits — so an accepted state re-encodes to the same bytes.
//
// A replica keeps each doc entry's bytes beside the document
// (VersionedDoc.wire): a push copies an unchanged entry instead of encoding
// it, and a pull skips an entry equal to the local one instead of decoding
// it (DESIGN.md §5.2).

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"trustedcells/internal/crypto"
	"trustedcells/internal/datamodel"
)

const (
	shardCodecMagic     = 0xD6
	shardCodecVersion   = 3
	segmentCodecMagic   = 0xD7
	segmentCodecVersion = 1

	shardFlagDeleted = 1 << 0
	shardFlagHasDoc  = 1 << 1

	// Smallest encodings, for checking a count against the bytes left before
	// it sizes an allocation.
	minDocEntryWire    = 20 // empty key, revision, empty replica, 15-byte time + its length, flags
	minVVEntryWire     = 2  // empty replica, counter
	minConflictWire    = 1  // empty key
	minAttestEntryWire = 4  // empty replica, epoch, empty root, empty sig
)

// appendBytes writes a length-prefixed byte string.
func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// consumeBytes reads a length-prefixed byte string, copying it out of the
// (pooled, transient) decode buffer.
func consumeBytes(b []byte) ([]byte, []byte, error) {
	n, b, err := datamodel.ConsumeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(b)) {
		return nil, nil, errShardCodec
	}
	return append([]byte(nil), b[:n]...), b[n:], nil
}

// appendShardEntry appends the canonical encoding of one doc entry, key
// included. It is the only entry encoder: a push snapshot caches its output on
// the entry (cacheEntry), and appendShardState copies the caches.
func appendShardEntry(dst []byte, id string, v *VersionedDoc) ([]byte, error) {
	dst = datamodel.AppendString(dst, id)
	dst = binary.AppendUvarint(dst, v.Revision)
	dst = datamodel.AppendString(dst, v.Replica)
	var err error
	if dst, err = datamodel.AppendTime(dst, v.Updated); err != nil {
		return nil, fmt.Errorf("sync: encode doc %s: %w", id, err)
	}
	var flags byte
	if v.Deleted {
		flags |= shardFlagDeleted
	}
	if v.Doc != nil {
		flags |= shardFlagHasDoc
	}
	dst = append(dst, flags)
	if v.Doc != nil {
		if dst, err = v.Doc.AppendBinary(dst); err != nil {
			return nil, fmt.Errorf("sync: encode doc %s: %w", id, err)
		}
	}
	return dst, nil
}

// shardLeaf is the Merkle leaf hash of one doc entry: its ID, revision,
// authoring replica and tombstone flag. A shard's attested root is the tree
// over its leaves in ID order (replicaShard.tree). Content bytes are already
// covered by the AEAD seal; the root pins which versions the shard holds,
// which is exactly what rollback and fork attacks manipulate.
func shardLeaf(id string, v *VersionedDoc) [sha256.Size]byte {
	var buf [128]byte
	leaf := datamodel.AppendString(buf[:0], id)
	leaf = binary.AppendUvarint(leaf, v.Revision)
	leaf = datamodel.AppendString(leaf, v.Replica)
	var flags byte
	if v.Deleted {
		flags |= shardFlagDeleted
	}
	return crypto.MerkleLeaf(append(leaf, flags))
}

// cacheEntry fills v's wire and leaf cache, encoding through scratch, which
// it returns for reuse. The caller stores v back under id.
func cacheEntry(id string, v *VersionedDoc, scratch []byte) ([]byte, error) {
	scratch, err := appendShardEntry(scratch[:0], id, v)
	if err != nil {
		return scratch, err
	}
	v.wire = append([]byte(nil), scratch...)
	v.leaf = shardLeaf(id, v)
	return scratch, nil
}

// appendShardState appends the binary encoding of a shard state to dst — a
// segment when st.Segment is set, a base otherwise: entries are its doc
// entries' canonical encodings (appendShardEntry's output) sorted by ID
// without repeats, and st supplies the rest; st.Docs is not read.
func appendShardState(dst []byte, entries [][]byte, st shardState) []byte {
	if st.Segment {
		dst = append(dst, segmentCodecMagic, segmentCodecVersion)
		dst = datamodel.AppendString(dst, st.Base.Writer)
		dst = binary.AppendUvarint(dst, st.Base.Epoch)
	} else {
		dst = append(dst, shardCodecMagic, shardCodecVersion)
	}

	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for _, e := range entries {
		dst = append(dst, e...)
	}

	vvKeys := make([]string, 0, len(st.VV))
	for k := range st.VV {
		vvKeys = append(vvKeys, k)
	}
	sort.Strings(vvKeys)
	dst = binary.AppendUvarint(dst, uint64(len(vvKeys)))
	for _, k := range vvKeys {
		dst = datamodel.AppendString(dst, k)
		dst = binary.AppendUvarint(dst, st.VV[k])
	}

	conflicts := make([]string, 0, len(st.Conflicts))
	for k := range st.Conflicts {
		conflicts = append(conflicts, k)
	}
	sort.Strings(conflicts)
	dst = binary.AppendUvarint(dst, uint64(len(conflicts)))
	for _, k := range conflicts {
		dst = datamodel.AppendString(dst, k)
	}

	dst = datamodel.AppendString(dst, st.Writer)
	reps := make([]string, 0, len(st.Attests))
	for rep := range st.Attests {
		reps = append(reps, rep)
	}
	sort.Strings(reps)
	dst = binary.AppendUvarint(dst, uint64(len(reps)))
	for _, rep := range reps {
		a := st.Attests[rep]
		dst = datamodel.AppendString(dst, rep)
		dst = binary.AppendUvarint(dst, a.Epoch)
		dst = appendBytes(dst, a.Root)
		dst = appendBytes(dst, a.Sig)
	}
	return dst
}

var errShardCodec = fmt.Errorf("sync: malformed shard state")

// ShardVersionError refuses a sync blob whose magic names a shard codec in a
// version this replica does not read, such as a whole-shard version 2 blob
// written before bases and segments. It is an integrity failure: a replica
// cannot merge what it cannot read.
type ShardVersionError struct {
	Magic, Version byte
}

func (e *ShardVersionError) Error() string {
	return fmt.Sprintf("sync: shard codec %#x version %d is not read", e.Magic, e.Version)
}

// Unwrap makes the refusal match ErrIntegrity and the codec's own error.
func (e *ShardVersionError) Unwrap() []error { return []error{ErrIntegrity, errShardCodec} }

// consumeCount reads a list count and refuses one the bytes left cannot hold
// at minWire bytes per entry.
func consumeCount(b []byte, minWire int) (uint64, []byte, error) {
	n, b, err := datamodel.ConsumeUvarint(b)
	if err != nil {
		return 0, nil, err
	}
	if n > uint64(len(b)/minWire) {
		return 0, nil, errShardCodec
	}
	return n, b, nil
}

// consumeKey reads one map key, which must sort strictly after prev (the
// previous key of the same list, ignored for the first). The key aliases b.
func consumeKey(b []byte, first bool, prev []byte) ([]byte, []byte, error) {
	n, b, err := datamodel.ConsumeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(b)) {
		return nil, nil, errShardCodec
	}
	k := b[:n]
	if !first && bytes.Compare(k, prev) <= 0 {
		return nil, nil, fmt.Errorf("%w: keys out of order", errShardCodec)
	}
	return k, b[n:], nil
}

// decodeShardState parses a base or segment written by appendShardState.
// known is the local shard's documents (nil for none): a doc entry whose
// bytes equal the cached entry of the known document under its key is the
// same version, so it is skipped — not decoded, not returned. Every other
// entry comes back with its cache filled from the input. Skipping changes no
// verdict: keys are checked for order before the lookup, and a skipped entry
// is a canonical encoding, so the input is accepted exactly when a plain
// decode accepts it.
func decodeShardState(data []byte, known map[string]VersionedDoc) (shardState, error) {
	if len(data) < 2 {
		return shardState{}, errShardCodec
	}
	var st shardState
	b := data[2:]
	var err error
	switch {
	case data[0] == shardCodecMagic && data[1] == shardCodecVersion:
	case data[0] == segmentCodecMagic && data[1] == segmentCodecVersion:
		st.Segment = true
		if st.Base.Writer, b, err = datamodel.ConsumeString(b); err != nil {
			return shardState{}, err
		}
		if st.Base.Epoch, b, err = datamodel.ConsumeUvarint(b); err != nil {
			return shardState{}, err
		}
	case data[0] == shardCodecMagic || data[0] == segmentCodecMagic:
		return shardState{}, &ShardVersionError{Magic: data[0], Version: data[1]}
	default:
		return shardState{}, errShardCodec
	}

	nDocs, b, err := consumeCount(b, minDocEntryWire)
	if err != nil {
		return shardState{}, err
	}
	st.Docs = make([]shardEntry, 0, nDocs-min(nDocs, uint64(len(known))))
	st.n = int(nDocs)
	docsStart := len(b)
	var key []byte
	for i := uint64(0); i < nDocs; i++ {
		entry := b
		if key, b, err = consumeKey(b, i == 0, key); err != nil {
			return shardState{}, err
		}
		if lv, ok := known[string(key)]; ok && len(lv.wire) > 0 && bytes.HasPrefix(entry, lv.wire) {
			b = entry[len(lv.wire):]
			continue
		}
		e := shardEntry{ID: string(key)}
		v := &e.VersionedDoc
		if v.Revision, b, err = datamodel.ConsumeUvarint(b); err != nil {
			return shardState{}, err
		}
		if v.Replica, b, err = datamodel.ConsumeString(b); err != nil {
			return shardState{}, err
		}
		if v.Updated, b, err = datamodel.ConsumeTime(b); err != nil {
			return shardState{}, fmt.Errorf("%w: updated: %v", errShardCodec, err)
		}
		if len(b) < 1 || b[0]&^(shardFlagDeleted|shardFlagHasDoc) != 0 {
			return shardState{}, errShardCodec
		}
		flags := b[0]
		b = b[1:]
		v.Deleted = flags&shardFlagDeleted != 0
		if flags&shardFlagHasDoc != 0 {
			if v.Doc, b, err = datamodel.DecodeDocumentPrefix(b); err != nil {
				return shardState{}, fmt.Errorf("%w: doc %s: %v", errShardCodec, e.ID, err)
			}
		}
		v.wire = append([]byte(nil), entry[:len(entry)-len(b)]...)
		v.leaf = shardLeaf(e.ID, v)
		st.Docs = append(st.Docs, e)
	}
	st.size = docsStart - len(b)

	nVV, b, err := consumeCount(b, minVVEntryWire)
	if err != nil {
		return shardState{}, err
	}
	if nVV > 0 {
		st.VV = make(map[string]uint64, nVV)
		var k []byte
		for i := uint64(0); i < nVV; i++ {
			if k, b, err = consumeKey(b, i == 0, k); err != nil {
				return shardState{}, err
			}
			if st.VV[string(k)], b, err = datamodel.ConsumeUvarint(b); err != nil {
				return shardState{}, err
			}
		}
	}

	nConflicts, b, err := consumeCount(b, minConflictWire)
	if err != nil {
		return shardState{}, err
	}
	if nConflicts > 0 {
		st.Conflicts = make(map[string]bool, nConflicts)
		var k []byte
		for i := uint64(0); i < nConflicts; i++ {
			if k, b, err = consumeKey(b, i == 0, k); err != nil {
				return shardState{}, err
			}
			st.Conflicts[string(k)] = true
		}
	}

	if st.Writer, b, err = datamodel.ConsumeString(b); err != nil {
		return shardState{}, err
	}
	nAtt, b, err := consumeCount(b, minAttestEntryWire)
	if err != nil {
		return shardState{}, err
	}
	if nAtt > 0 {
		st.Attests = make(map[string]Attestation, nAtt)
		var rep []byte
		for i := uint64(0); i < nAtt; i++ {
			if rep, b, err = consumeKey(b, i == 0, rep); err != nil {
				return shardState{}, err
			}
			var a Attestation
			if a.Epoch, b, err = datamodel.ConsumeUvarint(b); err != nil {
				return shardState{}, err
			}
			if a.Root, b, err = consumeBytes(b); err != nil {
				return shardState{}, err
			}
			if a.Sig, b, err = consumeBytes(b); err != nil {
				return shardState{}, err
			}
			st.Attests[string(rep)] = a
		}
	}
	if len(b) != 0 {
		return shardState{}, errShardCodec
	}
	return st, nil
}
