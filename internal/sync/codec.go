package sync

// Binary shard codec: the one wire form of a shard state. It embeds the
// datamodel binary document codec and always carries the authenticated-catalog
// section, so a replica never writes an unattested shard. The unattested
// version 1 and the JSON form before it are refused.
//
// Wire format (integers are unsigned varints):
//
//	[1] magic 0xD6
//	[1] codec version (2)
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

import (
	"encoding/binary"
	"fmt"
	"sort"

	"trustedcells/internal/datamodel"
)

const (
	shardCodecMagic   = 0xD6
	shardCodecVersion = 2

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

// appendShardState appends the binary encoding of st to dst.
func appendShardState(dst []byte, st shardState) ([]byte, error) {
	dst = append(dst, shardCodecMagic, shardCodecVersion)

	ids := make([]string, 0, len(st.Docs))
	for id := range st.Docs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		v := st.Docs[id]
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
	return dst, nil
}

var errShardCodec = fmt.Errorf("sync: malformed shard state")

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
// previous key of the same list, ignored for the first).
func consumeKey(b []byte, first bool, prev string) (string, []byte, error) {
	k, b, err := datamodel.ConsumeString(b)
	if err != nil {
		return "", nil, err
	}
	if !first && k <= prev {
		return "", nil, fmt.Errorf("%w: keys out of order", errShardCodec)
	}
	return k, b, nil
}

// decodeShardState parses a shard blob written by appendShardState.
func decodeShardState(data []byte) (shardState, error) {
	if len(data) < 2 || data[0] != shardCodecMagic || data[1] != shardCodecVersion {
		return shardState{}, errShardCodec
	}
	b := data[2:]

	nDocs, b, err := consumeCount(b, minDocEntryWire)
	if err != nil {
		return shardState{}, err
	}
	st := shardState{Docs: make(map[string]VersionedDoc, nDocs)}
	var id string
	for i := uint64(0); i < nDocs; i++ {
		if id, b, err = consumeKey(b, i == 0, id); err != nil {
			return shardState{}, err
		}
		var v VersionedDoc
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
				return shardState{}, fmt.Errorf("%w: doc %s: %v", errShardCodec, id, err)
			}
		}
		st.Docs[id] = v
	}

	nVV, b, err := consumeCount(b, minVVEntryWire)
	if err != nil {
		return shardState{}, err
	}
	if nVV > 0 {
		st.VV = make(map[string]uint64, nVV)
		var k string
		for i := uint64(0); i < nVV; i++ {
			if k, b, err = consumeKey(b, i == 0, k); err != nil {
				return shardState{}, err
			}
			if st.VV[k], b, err = datamodel.ConsumeUvarint(b); err != nil {
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
		var k string
		for i := uint64(0); i < nConflicts; i++ {
			if k, b, err = consumeKey(b, i == 0, k); err != nil {
				return shardState{}, err
			}
			st.Conflicts[k] = true
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
		var rep string
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
			st.Attests[rep] = a
		}
	}
	if len(b) != 0 {
		return shardState{}, errShardCodec
	}
	return st, nil
}
