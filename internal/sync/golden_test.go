package sync

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"trustedcells/internal/datamodel"
)

var update = flag.Bool("update", false, "rewrite the format goldens under testdata/formats from the current encoder")

// goldenState is the shard state every format golden encodes: a live
// document with metadata, a tombstone, a vector, a conflict record, and the
// attestations of two replicas.
func goldenState() shardState {
	at := time.Date(2013, 1, 7, 9, 0, 0, 0, time.UTC)
	return shardState{
		Docs: []shardEntry{
			{ID: "doc-live", VersionedDoc: VersionedDoc{
				Doc: &datamodel.Document{ID: "doc-live", Owner: "alice", Type: "note", Title: "live",
					Keywords: []string{"k1"}, Tags: map[string]string{"a": "b"}, CreatedAt: at,
					Class: datamodel.ClassAuthored, Size: 42, ContentHash: "c0ffee", KeyFingerprint: "f00d"},
				Revision: 3, Replica: "alice/gateway", Updated: at,
			}},
			{ID: "doc-tombstone", VersionedDoc: VersionedDoc{Revision: 5, Replica: "alice/phone", Updated: at, Deleted: true}},
		},
		VV:        map[string]uint64{"alice/gateway": 7, "alice/phone": 2},
		Conflicts: map[string]bool{"doc-live@2:alice/phone": true},
		Writer:    "alice/gateway",
		Attests: map[string]Attestation{
			"alice/gateway": {Epoch: 9, Root: bytes.Repeat([]byte{0xAB}, 32), Sig: bytes.Repeat([]byte{0xCD}, 32)},
			"alice/phone":   {Epoch: 4, Root: bytes.Repeat([]byte{0x12}, 32), Sig: bytes.Repeat([]byte{0x34}, 32)},
		},
	}
}

// formatGoldens are the current shard formats, each under
// testdata/formats/<name>.{bin,json}: the encoding, and the decoded value.
func formatGoldens() map[string]shardState {
	seg := goldenState()
	seg.Segment, seg.Base = true, baseRef{Writer: "alice/phone", Epoch: 8}
	seg.Docs = seg.Docs[:1]
	return map[string]shardState{"shard-v3": goldenState(), "segment-v1": seg}
}

// TestFormatGoldens holds the shard codec to its committed goldens: each
// .bin decodes to its .json, and the .json encodes to its .bin, so a change
// to the wire form fails here unless it bumps a version and adds a golden.
// go test -run TestFormatGoldens -update ./internal/sync rewrites them.
func TestFormatGoldens(t *testing.T) {
	for name, st := range formatGoldens() {
		binPath := filepath.Join("testdata", "formats", name+".bin")
		jsonPath := filepath.Join("testdata", "formats", name+".json")
		if *update {
			bin, err := encodeState(st)
			if err != nil {
				t.Fatal(err)
			}
			js, err := json.MarshalIndent(st, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(binPath, bin, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(jsonPath, append(js, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		bin, err := os.ReadFile(binPath)
		if err != nil {
			t.Fatal(err)
		}
		js, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := decodeShardState(bin, nil)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		got, err := json.MarshalIndent(decoded, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(got, '\n'), js) {
			t.Fatalf("%s: decode(bin) differs from the golden value:\n%s", name, got)
		}
		var fromJSON shardState
		if err := json.Unmarshal(js, &fromJSON); err != nil {
			t.Fatal(err)
		}
		enc, err := encodeState(fromJSON)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, bin) {
			t.Fatalf("%s: encode(json) differs from the golden bytes:\n got  %x\n want %x", name, enc, bin)
		}
	}
}

// TestFormatGoldenV2Refused holds the decoder to the last whole-shard blob:
// testdata/formats/shard-v2.bin, written by the version 2 encoder before
// bases and segments, is refused with a ShardVersionError.
func TestFormatGoldenV2Refused(t *testing.T) {
	bin, err := os.ReadFile(filepath.Join("testdata", "formats", "shard-v2.bin"))
	if err != nil {
		t.Fatal(err)
	}
	var ve *ShardVersionError
	if _, err := decodeShardState(bin, nil); !errors.As(err, &ve) || ve.Magic != shardCodecMagic || ve.Version != 2 {
		t.Fatalf("decode of a version 2 shard = %v, want a ShardVersionError", err)
	}
}
