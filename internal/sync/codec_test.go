package sync

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"trustedcells/internal/datamodel"
)

func codecTestState() shardState {
	updated := time.Date(2013, 1, 7, 9, 0, 0, 0, time.UTC)
	return shardState{
		Docs: map[string]VersionedDoc{
			"doc-live": {
				Doc: &datamodel.Document{ID: "doc-live", Owner: "alice", Type: "note",
					Title: "live", Keywords: []string{"k1"}, Tags: map[string]string{"a": "b"},
					CreatedAt: updated, Class: datamodel.ClassAuthored},
				Revision: 3, Replica: "alice/gateway", Updated: updated,
			},
			"doc-tombstone": {Revision: 5, Replica: "alice/phone", Updated: updated, Deleted: true},
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
	for id, wv := range want.Docs {
		gv, ok := got.Docs[id]
		if !ok {
			t.Fatalf("missing doc %s", id)
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
	data, err := appendShardState(nil, want)
	if err != nil {
		t.Fatalf("appendShardState: %v", err)
	}
	got, err := decodeShardState(data)
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
	v2, err := appendShardState(nil, st)
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
func TestShardCodecJSONFallback(t *testing.T) {
	for name, data := range legacyShardForms(t, codecTestState()) {
		if _, err := decodeShardState(data); !errors.Is(err, errShardCodec) {
			t.Fatalf("%s: decodeShardState = %v, want errShardCodec", name, err)
		}
	}
}

func TestShardCodecDeterministic(t *testing.T) {
	st := codecTestState()
	a, _ := appendShardState(nil, st)
	b, _ := appendShardState(nil, st)
	if string(a) != string(b) {
		t.Fatal("two encodings of the same state differ")
	}
}

func TestShardCodecRejectsTruncation(t *testing.T) {
	for _, data := range truncationCases(t) {
		if _, err := decodeShardState(data); err == nil {
			t.Fatalf("malformed %d-byte state accepted: %x", len(data), data)
		}
	}
}

// truncationCases is every proper prefix of an encoded state, plus the
// state with a trailing byte.
func truncationCases(t testing.TB) [][]byte {
	data, err := appendShardState(nil, codecTestState())
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
	grew := allocatedBy(func() { _, err = decodeShardState(data) })
	if !errors.Is(err, errShardCodec) {
		t.Fatalf("decodeShardState = %v, want errShardCodec", err)
	}
	if grew > uint64(len(data)) {
		t.Fatalf("refusing a %d-byte state allocated %d bytes", len(data), grew)
	}
}

func TestShardCodecRejectsNonCanonical(t *testing.T) {
	st := codecTestState()
	data, err := appendShardState(nil, st)
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
		if _, err := decodeShardState(in); !errors.Is(err, errShardCodec) {
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

// FuzzShardState throws arbitrary bytes at the shard decoder: it must never
// panic, must not let a count size an allocation the input cannot back, and
// anything it accepts must re-encode to the same bytes.
func FuzzShardState(f *testing.F) {
	for _, data := range truncationCases(f) {
		f.Add(data)
	}
	signed := codecTestState()
	signed.Writer = "alice/gateway"
	signed.Attests = map[string]Attestation{"alice/gateway": {Epoch: 3, Root: []byte{1, 2}, Sig: []byte{3}}}
	if data, err := appendShardState(nil, signed); err == nil {
		f.Add(data)
	}
	f.Add(shardCountBomb(200))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Longer states only repeat the same paths, and the fuzzer's
		// minimization of an interesting input is quadratic in its length.
		if len(data) > 256 {
			return
		}
		limit := uint64(64*len(data) + 64<<10)
		var st shardState
		var err error
		if grew := allocatedBy(func() { st, err = decodeShardState(data) }); grew > limit {
			t.Fatalf("decodeShardState allocated %d bytes for a %d-byte state", grew, len(data))
		}
		if err != nil {
			return
		}
		again, err := appendShardState(nil, st)
		if err != nil {
			t.Fatalf("accepted state does not encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted state re-encodes differently:\n in  %x\n out %x", data, again)
		}
	})
}
