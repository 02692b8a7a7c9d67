package sync

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"maps"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"trustedcells/internal/cloud"
	"trustedcells/internal/crypto"
	"trustedcells/internal/datamodel"
)

func codecTestState() shardState {
	updated := time.Date(2013, 1, 7, 9, 0, 0, 0, time.UTC)
	return shardState{
		Docs: []shardEntry{
			{ID: "doc-live", VersionedDoc: VersionedDoc{
				Doc: &datamodel.Document{ID: "doc-live", Owner: "alice", Type: "note",
					Title: "live", Keywords: []string{"k1"}, Tags: map[string]string{"a": "b"},
					CreatedAt: updated, Class: datamodel.ClassAuthored},
				Revision: 3, Replica: "alice/gateway", Updated: updated,
			}},
			{ID: "doc-tombstone", VersionedDoc: VersionedDoc{Revision: 5, Replica: "alice/phone", Updated: updated, Deleted: true}},
		},
		VV:        map[string]uint64{"alice/gateway": 7, "alice/phone": 2},
		Conflicts: map[string]bool{"doc-live@2:alice/phone": true},
	}
}

func statesEquivalent(t *testing.T, want, got shardState) {
	t.Helper()
	if len(want.Docs) != len(got.Docs) {
		t.Fatalf("doc count differs: %d != %d", len(want.Docs), len(got.Docs))
	}
	for i, we := range want.Docs {
		id, wv, gv := we.ID, we.VersionedDoc, got.Docs[i].VersionedDoc
		if got.Docs[i].ID != id {
			t.Fatalf("entry %d is %s, want %s", i, got.Docs[i].ID, id)
		}
		if wv.Revision != gv.Revision || wv.Replica != gv.Replica || wv.Deleted != gv.Deleted {
			t.Fatalf("doc %s metadata differs: %+v != %+v", id, wv, gv)
		}
		if !wv.Updated.Equal(gv.Updated) {
			t.Fatalf("doc %s updated differs: %v != %v", id, wv.Updated, gv.Updated)
		}
		if (wv.Doc == nil) != (gv.Doc == nil) {
			t.Fatalf("doc %s presence differs", id)
		}
		if wv.Doc != nil && (wv.Doc.ID != gv.Doc.ID || wv.Doc.Title != gv.Doc.Title) {
			t.Fatalf("doc %s content differs: %+v != %+v", id, wv.Doc, gv.Doc)
		}
	}
	if !reflect.DeepEqual(want.VV, got.VV) {
		t.Fatalf("version vectors differ: %v != %v", want.VV, got.VV)
	}
	if !reflect.DeepEqual(want.Conflicts, got.Conflicts) {
		t.Fatalf("conflict sets differ: %v != %v", want.Conflicts, got.Conflicts)
	}
}

func TestShardCodecRoundTrip(t *testing.T) {
	want := codecTestState()
	data, err := encodeState(want)
	if err != nil {
		t.Fatalf("encodeState: %v", err)
	}
	got, err := decodeShardState(data, nil)
	if err != nil {
		t.Fatalf("decodeShardState: %v", err)
	}
	statesEquivalent(t, want, got)
}

// legacyShardForms returns the two wire forms of st that replicas wrote
// before every shard carried its attestation section: the unattested binary
// codec (version 1) and JSON.
func legacyShardForms(t *testing.T, st shardState) map[string][]byte {
	t.Helper()
	st.Writer, st.Attests = "", nil
	v2, err := encodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	// Version 1 is version 2 without the trailing empty writer and empty
	// attestation count.
	v1 := append([]byte{shardCodecMagic, 1}, v2[2:len(v2)-2]...)
	js, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"v1": v1, "json": js}
}

// TestShardCodecJSONFallback pins that the JSON fallback, and the unattested
// version 1 codec beside it, are gone: both are refused as malformed.
// (legacyShardForms leaves out version 2, which TestShardCodecRefusesV2
// covers.)
func TestShardCodecJSONFallback(t *testing.T) {
	for name, data := range legacyShardForms(t, codecTestState()) {
		if _, err := decodeShardState(data, nil); !errors.Is(err, errShardCodec) {
			t.Fatalf("%s: decodeShardState = %v, want errShardCodec", name, err)
		}
	}
}

// TestShardCodecRefusesV2 pins the refusal of the whole-shard version 2, the
// form every shard blob took before bases and segments: a typed
// ShardVersionError from the codec, and from a sealed blob under the base's
// name, which a pull refuses as an integrity failure.
func TestShardCodecRefusesV2(t *testing.T) {
	st := codecTestState()
	st.Writer = "alice/gateway"
	st.Attests = map[string]Attestation{"alice/gateway": {Epoch: 1, Root: []byte{1}, Sig: []byte{2}}}
	v3, err := encodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	// Version 2 laid a shard out exactly as a version 3 base does.
	v2 := append([]byte{shardCodecMagic, 2}, v3[2:]...)
	var ve *ShardVersionError
	if _, err := decodeShardState(v2, nil); !errors.As(err, &ve) || ve.Magic != shardCodecMagic || ve.Version != 2 {
		t.Fatalf("decodeShardState(v2) = %v, want a ShardVersionError for %#x version 2", err, shardCodecMagic)
	}
	svc := cloud.NewMemory()
	a, b := authPair(svc)
	name := a.shards[0].names[baseBlob]
	sealed, err := crypto.Seal(a.key, v2, a.shards[0].ads[baseBlob])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.PutBlob(name, sealed); err != nil {
		t.Fatal(err)
	}
	if err := b.Pull(); !errors.As(err, &ve) || !errors.Is(err, ErrIntegrity) {
		t.Fatalf("Pull of a v2 blob = %v, want a ShardVersionError matching ErrIntegrity", err)
	}
	if err := b.CheckBlob(name, sealed); !errors.As(err, &ve) {
		t.Fatalf("CheckBlob of a v2 blob = %v, want a ShardVersionError", err)
	}
	if liveCount(b) != 0 {
		t.Fatal("a refused v2 blob merged documents")
	}
}

func TestShardCodecDeterministic(t *testing.T) {
	st := codecTestState()
	a, _ := encodeState(st)
	b, _ := encodeState(st)
	if string(a) != string(b) {
		t.Fatal("two encodings of the same state differ")
	}
}

func TestShardCodecRejectsTruncation(t *testing.T) {
	for _, data := range truncationCases(t) {
		if _, err := decodeShardState(data, nil); err == nil {
			t.Fatalf("malformed %d-byte state accepted: %x", len(data), data)
		}
	}
}

// truncationCases is every proper prefix of an encoded state, plus the
// state with a trailing byte.
func truncationCases(t testing.TB) [][]byte {
	data, err := encodeState(codecTestState())
	if err != nil {
		t.Fatal(err)
	}
	var cases [][]byte
	for n := 0; n < len(data); n++ {
		cases = append(cases, data[:n])
	}
	return append(cases, append(data, 0x00))
}

// shardCountBomb claims n doc entries and backs them with n zero bytes: one
// byte per entry, where a real entry takes at least minDocEntryWire.
func shardCountBomb(n int) []byte {
	b := binary.AppendUvarint([]byte{shardCodecMagic, shardCodecVersion}, uint64(n))
	return append(b, make([]byte, n)...)
}

func TestShardCodecBoundsCounts(t *testing.T) {
	data := shardCountBomb(100000)
	var err error
	grew := allocatedBy(func() { _, err = decodeShardState(data, nil) })
	if !errors.Is(err, errShardCodec) {
		t.Fatalf("decodeShardState = %v, want errShardCodec", err)
	}
	if grew > uint64(len(data)) {
		t.Fatalf("refusing a %d-byte state allocated %d bytes", len(data), grew)
	}
}

func TestShardCodecRejectsNonCanonical(t *testing.T) {
	st := codecTestState()
	data, err := encodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	// The vector's two keys swapped: "alice/phone" then "alice/gateway".
	gw := datamodel.AppendString(nil, "alice/gateway")
	ph := datamodel.AppendString(nil, "alice/phone")
	vv := append(append(append([]byte{2}, gw...), 7), append(ph, 2)...)
	swapped := append(append([]byte{2}, ph...), 2)
	swapped = append(append(swapped, gw...), 7)
	unsorted := bytes.Replace(data, vv, swapped, 1)
	if bytes.Equal(unsorted, data) {
		t.Fatal("version vector not found in the encoding")
	}
	// An unknown flag bit on the one doc entry that carries a document: its
	// flags byte directly precedes the embedded document's magic and version.
	flagged := append([]byte(nil), data...)
	at := bytes.Index(flagged, []byte{shardFlagHasDoc, datamodel.DocCodecMagic, 1})
	if at < 0 {
		t.Fatal("doc entry not found in the encoding")
	}
	flagged[at] |= 0x80
	for name, in := range map[string][]byte{"unsorted keys": unsorted, "unknown flag": flagged} {
		if _, err := decodeShardState(in, nil); !errors.Is(err, errShardCodec) {
			t.Fatalf("%s: decodeShardState = %v, want errShardCodec", name, err)
		}
	}
}

func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// oracleShardState is the whole-state encoder from before doc entries carried
// their own encoding: it sorts and encodes every field itself and ignores the
// entry caches. Shard blobs must stay byte-identical to its output; for a
// segment it writes the segment header first.
func oracleShardState(st shardState) ([]byte, error) {
	docs := docsOf(st)
	dst := []byte{shardCodecMagic, shardCodecVersion}
	if st.Segment {
		dst = []byte{segmentCodecMagic, segmentCodecVersion}
		dst = datamodel.AppendString(dst, st.Base.Writer)
		dst = binary.AppendUvarint(dst, st.Base.Epoch)
	}
	dst = binary.AppendUvarint(dst, uint64(len(docs)))
	for _, id := range sortedKeys(docs) {
		v := docs[id]
		dst = datamodel.AppendString(dst, id)
		dst = binary.AppendUvarint(dst, v.Revision)
		dst = datamodel.AppendString(dst, v.Replica)
		var err error
		if dst, err = datamodel.AppendTime(dst, v.Updated); err != nil {
			return nil, err
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
				return nil, err
			}
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(st.VV)))
	for _, k := range sortedKeys(st.VV) {
		dst = datamodel.AppendString(dst, k)
		dst = binary.AppendUvarint(dst, st.VV[k])
	}
	dst = binary.AppendUvarint(dst, uint64(len(st.Conflicts)))
	for _, k := range sortedKeys(st.Conflicts) {
		dst = datamodel.AppendString(dst, k)
	}
	dst = datamodel.AppendString(dst, st.Writer)
	dst = binary.AppendUvarint(dst, uint64(len(st.Attests)))
	for _, rep := range sortedKeys(st.Attests) {
		a := st.Attests[rep]
		dst = datamodel.AppendString(dst, rep)
		dst = binary.AppendUvarint(dst, a.Epoch)
		dst = appendBytes(dst, a.Root)
		dst = appendBytes(dst, a.Sig)
	}
	return dst, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// encodeState encodes a decoded or hand-built state the way a push does:
// each entry's cache, or its encoding when it has none, then the rest.
func encodeState(st shardState) ([]byte, error) {
	entries := make([][]byte, len(st.Docs))
	for i := range st.Docs {
		e := &st.Docs[i]
		entries[i] = e.wire
		if len(e.wire) == 0 {
			var err error
			if entries[i], err = appendShardEntry(nil, e.ID, &e.VersionedDoc); err != nil {
				return nil, err
			}
		}
	}
	return appendShardState(nil, entries, st), nil
}

// withoutCache returns a copy of st whose entries carry no cache.
func withoutCache(st shardState) shardState {
	st.Docs = slices.Clone(st.Docs)
	for i := range st.Docs {
		st.Docs[i].wire, st.Docs[i].leaf = nil, [32]byte{}
	}
	return st
}

// docsOf indexes a state's entries by ID, caches included.
func docsOf(st shardState) map[string]VersionedDoc {
	docs := make(map[string]VersionedDoc, len(st.Docs))
	for _, e := range st.Docs {
		docs[e.ID] = e.VersionedDoc
	}
	return docs
}

// TestShardCodecRefusesRepeatedLastEntry pins what the shard Merkle root
// relies on: the root over [a,b,c] equals the root over [a,b,c,c], so a state
// whose last doc entry appears twice must never decode, with or without the
// local shard to skip against.
func TestShardCodecRefusesRepeatedLastEntry(t *testing.T) {
	st := codecTestState()
	data, err := encodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	last := st.Docs[len(st.Docs)-1]
	entry, err := appendShardEntry(nil, last.ID, &last.VersionedDoc)
	if err != nil {
		t.Fatal(err)
	}
	end := bytes.Index(data, entry) + len(entry)
	if data[2] != byte(len(st.Docs)) || end < len(entry) {
		t.Fatal("doc section not found in the encoding")
	}
	dup := append([]byte{shardCodecMagic, shardCodecVersion, byte(len(st.Docs) + 1)}, data[3:end]...)
	dup = append(append(dup, entry...), data[end:]...)
	known, err := decodeShardState(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, docs := range map[string]map[string]VersionedDoc{"plain": nil, "against itself": docsOf(known)} {
		if _, err := decodeShardState(dup, docs); !errors.Is(err, errShardCodec) {
			t.Fatalf("%s: decodeShardState = %v, want errShardCodec", name, err)
		}
	}
}

// flipDecodes returns the documents of data with the low bit of byte at
// flipped, if that still decodes.
func flipDecodes(data []byte, at int) (map[string]VersionedDoc, bool) {
	mut := bytes.Clone(data)
	mut[at] ^= 1
	st, err := decodeShardState(mut, nil)
	if err != nil {
		return nil, false
	}
	return docsOf(st), true
}

// checkAgainstKnownSets runs checkKnownDecode for an accepted state against
// three kinds of local shard: its own documents, those of every one-bit
// mutation of it that still decodes, and none.
func checkAgainstKnownSets(t *testing.T, data []byte, full shardState) {
	t.Helper()
	checkKnownDecode(t, data, full, docsOf(full))
	checkKnownDecode(t, data, full, map[string]VersionedDoc{})
	for at := range data {
		if known, ok := flipDecodes(data, at); ok {
			checkKnownDecode(t, data, full, known)
		}
	}
}

// checkKnownDecode decodes data against known, merges the result into a
// shard holding known, and requires the same shard a plain decode then merge
// gives: same entries (each cache the canonical encoding), vector, conflicts,
// dirty flag and changed documents.
func checkKnownDecode(t *testing.T, data []byte, full shardState, known map[string]VersionedDoc) {
	t.Helper()
	partial, err := decodeShardState(data, known)
	if err != nil {
		t.Fatalf("decode against %d known documents refused an accepted state: %v", len(known), err)
	}
	merged := func(st shardState) (*replicaShard, map[string]bool) {
		r := NewReplicaShards("alice/gateway", "alice", crypto.SymmetricKey{}, nil, nil, 1)
		sh := &replicaShard{docs: maps.Clone(known), vv: map[string]uint64{}, conflicts: map[string]bool{}}
		sh.dirty = r.mergeShardLocked(sh, st)
		return sh, r.changed
	}
	got, gotChanged := merged(partial)
	want, wantChanged := merged(full)
	if len(got.docs) != len(want.docs) || !maps.Equal(gotChanged, wantChanged) ||
		!maps.Equal(got.vv, want.vv) || !maps.Equal(got.conflicts, want.conflicts) || got.dirty != want.dirty ||
		!slices.Equal(got.delta, want.delta) {
		t.Fatalf("merge after skip-decode differs: %d/%d docs, changed %v/%v, delta %v/%v",
			len(got.docs), len(want.docs), gotChanged, wantChanged, got.delta, want.delta)
	}
	for id, w := range want.docs {
		g := got.docs[id]
		canon, err := appendShardEntry(nil, id, &g)
		if err != nil || !bytes.Equal(g.wire, w.wire) || !bytes.Equal(g.wire, canon) || g.leaf != shardLeaf(id, &g) {
			t.Fatalf("doc %s after skip-decode: cache %x, plain %x, canonical %x", id, g.wire, w.wire, canon)
		}
	}
}

// segmentSeeds are segment encodings for the fuzzer to start from: the test
// state as a signed segment, and as an empty one naming its base — what a
// compaction writes beside the base.
func segmentSeeds(t testing.TB) [][]byte {
	seg := codecTestState()
	seg.Segment, seg.Base = true, baseRef{Writer: "alice/phone", Epoch: 4}
	seg.Writer = "alice/gateway"
	seg.Attests = map[string]Attestation{"alice/gateway": {Epoch: 5, Root: []byte{1, 2}, Sig: []byte{3}}}
	empty := seg
	empty.Docs = nil
	var out [][]byte
	for _, st := range []shardState{seg, empty} {
		data, err := encodeState(st)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// FuzzShardState throws arbitrary bytes at the shard decoder, bases and
// segments alike: it must never panic, must not let a count size an
// allocation the input cannot back, and anything it accepts must re-encode
// to the same bytes — through the oracle and through the entry encoder. Decoding an accepted state against local
// shards (its own documents, those of its one-bit mutations, none) and
// merging must equal a plain decode then merge.
func FuzzShardState(f *testing.F) {
	for _, data := range truncationCases(f) {
		f.Add(data)
	}
	signed := codecTestState()
	signed.Writer = "alice/gateway"
	signed.Attests = map[string]Attestation{"alice/gateway": {Epoch: 3, Root: []byte{1, 2}, Sig: []byte{3}}}
	if data, err := encodeState(signed); err == nil {
		f.Add(data)
	}
	f.Add(shardCountBomb(200))
	for _, data := range segmentSeeds(f) {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Longer states only repeat the same paths, and the fuzzer's
		// minimization of an interesting input is quadratic in its length.
		if len(data) > 256 {
			return
		}
		limit := uint64(64*len(data) + 64<<10)
		var st shardState
		var err error
		if grew := allocatedBy(func() { st, err = decodeShardState(data, nil) }); grew > limit {
			t.Fatalf("decodeShardState allocated %d bytes for a %d-byte state", grew, len(data))
		}
		if err != nil {
			return
		}
		encoders := map[string]func(shardState) ([]byte, error){
			"oracle":  oracleShardState,
			"entries": func(st shardState) ([]byte, error) { return encodeState(withoutCache(st)) },
			"cached":  func(st shardState) ([]byte, error) { return encodeState(st) },
		}
		for name, encode := range encoders {
			again, err := encode(st)
			if err != nil {
				t.Fatalf("%s: accepted state does not encode: %v", name, err)
			}
			if !bytes.Equal(again, data) {
				t.Fatalf("%s: accepted state re-encodes differently:\n in  %x\n out %x", name, data, again)
			}
		}
		if self, err := decodeShardState(data, docsOf(st)); err != nil || len(self.Docs) != 0 {
			t.Fatalf("decode against itself kept %d entries (err %v), want none", len(self.Docs), err)
		}
		checkAgainstKnownSets(t, data, st)
	})
}
