package cloud

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// wireCases is one request and one response per op, covering the shapes the
// codec has a special case for: nil Data on a conditional get, empty (not
// nil) Data, zero Stored and Sent times, a missing blob in a batch, negative
// and large varints, and every error code.
func wireCases() (reqs []rpcRequest, resps []rpcResponse) {
	stored := time.Unix(1_700_000_000, 123_456_789)
	msg := Message{ID: "m-1", From: "alice", To: "bob", Kind: "share", Body: []byte("sealed"), Sent: stored, Seq: 1<<63 + 5}
	bare := Message{To: "bob", Body: []byte{}} // as a client sends it: no id, no time yet
	reqs = []rpcRequest{
		{Op: "putb", Puts: []BlobPut{{Name: "vault/1", Data: []byte("ciphertext")}}}, // PutBlob: a batch of one
		{Op: "putb", Puts: []BlobPut{{Name: "vault/empty", Data: []byte{}}}},
		{Op: "getb", Names: []string{"vault/1"}}, // GetBlob: a batch of one
		{Op: "delete", Name: "vault/1"},
		{Op: "list", Prefix: "vault/"},
		{Op: "list"},
		{Op: "putb", Puts: []BlobPut{{Name: "a", Data: []byte("x")}, {Name: "b", Data: []byte{}}, {Name: "", Data: bytes.Repeat([]byte{0xCB}, 30)}}},
		{Op: "getb", Names: []string{"a", "", "c"}},
		{Op: "getc", Gets: []CondGet{{Name: "a", IfNewer: 0}, {Name: "b", IfNewer: 1 << 40}, {Name: "c", IfNewer: -1}}},
		{Op: "send", Message: msg},
		{Op: "send", Message: bare},
		{Op: "receive", Recipient: "bob", Max: 300},
		{Op: "receive", Recipient: "bob", Max: -1},
		{Op: "stats"},
		{Op: opHello, Name: "tenant-0"},
	}
	stats := Stats{Puts: 1, Gets: 2, Deletes: 3, Lists: 4, Sends: 5, Receives: 6, BytesStored: 1 << 50,
		TamperedBlobs: 8, ReplayedBlobs: 9, DroppedBlobs: 10, DroppedMessages: 11, ObservedBlobs: 12,
		RolledBackBlobs: 13, ForkedBlobs: -14}
	resps = []rpcResponse{
		{},
		{Versions: []int{7}},
		{Blobs: []Blob{{Name: "vault/1", Version: 3, Data: []byte("ciphertext"), Stored: stored}}},
		{Blobs: []Blob{{}}}, // GetBlob of a missing name
		{Names: []string{"vault/1", "vault/2", ""}},
		{Versions: []int{1, 2, 1 << 40}},
		{Blobs: []Blob{
			{Name: "a", Version: 2, Data: []byte("x"), Stored: stored},
			{},                      // missing blob
			{Name: "c", Version: 5}, // conditional get, unchanged: nil Data, zero Stored
			{Name: "d", Version: 1, Data: []byte{}, Stored: time.Unix(0, 0)}, // empty is not nil; the epoch is not the zero time
		}},
		{Messages: []Message{msg, {To: "bob", Seq: 2}}},
		{Stats: &stats},
		{Stats: &Stats{}},
		{Err: "boom", Code: codeOther},
		{Err: ErrBlobNotFound.Error(), Code: codeNotFound},
		{Err: "replica 2: " + ErrUnavailable.Error(), Code: codeUnavailable},
		{Err: ErrMailboxEmpty.Error(), Code: codeMailboxEmpty},
		{Err: "cloud: overloaded; retry after 40ms", Code: codeOverloaded, RetryAfterMs: 40},
		{Err: `cloud: tenant "acme" over ops quota`, Code: codeQuota, RetryAfterMs: 1, Tenant: "acme", Resource: "ops"},
		{Err: ErrWireVersion.Error(), Code: codeWireVersion},
		{Err: ErrNoTenant.Error(), Code: codeNoTenant},
	}
	return reqs, resps
}

// roundTripRequest encodes req, decodes the bytes and re-encodes the result:
// the value and the bytes must both survive.
func roundTripRequest(t testing.TB, req rpcRequest) {
	t.Helper()
	enc, err := appendRequest(nil, &req)
	if err != nil {
		t.Fatalf("encode %+v: %v", req, err)
	}
	var got rpcRequest
	if err := decodeRequest(enc, &got); err != nil {
		t.Fatalf("decode %+v: %v", req, err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("request changed on the wire:\n sent %+v\n got  %+v", req, got)
	}
}

func roundTripResponse(t testing.TB, resp rpcResponse) {
	t.Helper()
	enc := appendResponse(nil, &resp)
	var got rpcResponse
	if err := decodeResponse(enc, &got); err != nil {
		t.Fatalf("decode %+v: %v", resp, err)
	}
	if !reflect.DeepEqual(got, resp) {
		t.Fatalf("response changed on the wire:\n sent %+v\n got  %+v", resp, got)
	}
}

func TestFrameCodecRoundTrip(t *testing.T) {
	reqs, resps := wireCases()
	for _, req := range reqs {
		roundTripRequest(t, req)
	}
	for _, resp := range resps {
		roundTripResponse(t, resp)
	}
	if _, err := appendRequest(nil, &rpcRequest{Op: "bogus"}); err == nil {
		t.Fatal("encoded a request whose op has no wire code")
	}
}

// TestFrameCodecRejects feeds the decoders payloads that are wrong in one
// specific way each.
func TestFrameCodecRejects(t *testing.T) {
	good, err := appendRequest(nil, &rpcRequest{Op: "getb", Names: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	hugeCount := binary.AppendUvarint([]byte{wireMagic, 6, reqNames}, 1<<40)
	for name, tc := range map[string]struct {
		payload []byte
		want    error
	}{
		"empty":           {nil, ErrWireVersion},
		"json":            {[]byte(`{"op":"get","name":"x"}`), ErrWireVersion},
		"next version":    {append([]byte{wireMagic + 1}, good[1:]...), ErrWireVersion},
		"magic only":      {[]byte{wireMagic}, errMalformedPayload},
		"truncated":       {good[:len(good)-1], errMalformedPayload},
		"trailing byte":   {append(append([]byte{}, good...), 0), errMalformedPayload},
		"unknown field":   {[]byte{wireMagic, 2, 0x80, 0x04}, errMalformedPayload},
		"count past end":  {hugeCount, errMalformedPayload},
		"string past end": {[]byte{wireMagic, 3, reqName, 200, 'x'}, errMalformedPayload},
		"retired data":    {[]byte{wireMagic, 5, reqRetiredData, 1, 'x'}, errMalformedPayload},
	} {
		var req rpcRequest
		if err := decodeRequest(tc.payload, &req); !errors.Is(err, tc.want) {
			t.Errorf("%s: decodeRequest = %v, want %v", name, err, tc.want)
		}
	}
	for _, op := range []byte{0x7F, 1, 2} { // 1 and 2 are the retired single put and get
		var req rpcRequest
		if err := decodeRequest([]byte{wireMagic, op, 0}, &req); err == nil || !strings.Contains(err.Error(), "unknown op") {
			t.Errorf("op code %#02x: decodeRequest = %v", op, err)
		}
	}
	var resp rpcResponse
	if err := decodeResponse([]byte(`{"err":"x"}`), &resp); !errors.Is(err, ErrWireVersion) {
		t.Errorf("json response: decodeResponse = %v, want %v", err, ErrWireVersion)
	}
	if err := decodeResponse([]byte{wireMagic, 0, respBlobs, 0xFF, 0xFF, 0xFF, 0x7F}, &resp); !errors.Is(err, errMalformedPayload) {
		t.Errorf("blob count past end: decodeResponse = %v", err)
	}
	if err := decodeResponse([]byte{wireMagic, 0, respBlobs, 1, 0x04, 0, 0}, &resp); !errors.Is(err, errMalformedPayload) {
		t.Errorf("unknown blob flag: decodeResponse = %v", err)
	}
	for _, bit := range []byte{respRetiredVersion, respRetiredBlob} {
		if err := decodeResponse([]byte{wireMagic, 0, bit, 2}, &resp); !errors.Is(err, errMalformedPayload) {
			t.Errorf("retired mask bit %#02x: decodeResponse = %v", bit, err)
		}
	}
}

// TestFrameCodecAliasing pins the ownership rules: blob data is a view of the
// payload with its capacity capped, names and message bodies are copies.
func TestFrameCodecAliasing(t *testing.T) {
	req := rpcRequest{Op: "putb", Puts: []BlobPut{{Name: "a", Data: []byte("first")}, {Name: "b", Data: []byte("second")}}}
	enc, _ := appendRequest(nil, &req)
	var got rpcRequest
	if err := decodeRequest(enc, &got); err != nil {
		t.Fatal(err)
	}
	_ = append(got.Puts[0].Data, "OVERFLOW"...) // must reallocate, not run into put "b"
	if got.Puts[1].Name != "b" || string(got.Puts[1].Data) != "second" {
		t.Fatalf("appending to one put's data overwrote its neighbour: %+v", got.Puts[1])
	}
	clear(enc)
	if got.Puts[0].Name != "a" {
		t.Fatalf("a decoded name is a view of the payload: %q", got.Puts[0].Name)
	}
	if !bytes.Equal(got.Puts[0].Data, make([]byte, 5)) {
		t.Fatalf("decoded put data is a copy; the server path depends on it being a view: %q", got.Puts[0].Data)
	}

	send := rpcRequest{Op: "send", Message: Message{To: "bob", Body: []byte("body")}}
	enc, _ = appendRequest(nil, &send)
	got = rpcRequest{}
	if err := decodeRequest(enc, &got); err != nil {
		t.Fatal(err)
	}
	clear(enc)
	if string(got.Message.Body) != "body" {
		t.Fatalf("a decoded message body is a view of the payload: %q", got.Message.Body)
	}
}

// wireAllocCase is the frontdoor benchmark's request shape: 16 documents a
// batch, names as the fleet generator makes them.
func wireAllocCase(docBytes int) (names []string, puts []BlobPut, blobs []Blob) {
	stored := time.Unix(1_700_000_000, 0)
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("fleet/c%07d/d%07d", 4242, i)
		data := bytes.Repeat([]byte{byte(i)}, docBytes)
		names = append(names, name)
		puts = append(puts, BlobPut{Name: name, Data: data})
		blobs = append(blobs, Blob{Name: name, Version: i + 1, Data: data, Stored: stored})
	}
	return names, puts, blobs
}

// TestFrameCodecAllocs pins the allocation count of the two hot shapes. The
// counts are exact, not statistical: encoding into a buffer with room costs
// nothing; decoding costs the list, one string per name, and nothing for the
// data, which stays in the payload.
func TestFrameCodecAllocs(t *testing.T) {
	_, puts, blobs := wireAllocCase(1100)
	buf := make([]byte, 0, 64<<10)

	putb := rpcRequest{Op: "putb", Puts: puts}
	var req rpcRequest
	got := testing.AllocsPerRun(100, func() {
		enc, err := appendRequest(buf[:0], &putb)
		if err != nil {
			t.Fatal(err)
		}
		req = rpcRequest{}
		if err := decodeRequest(enc, &req); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(1 + len(puts)); got > want {
		t.Errorf("16-put putb request round trip: %.0f allocations, want at most %.0f (the Puts slice and one string a name)", got, want)
	}

	getb := rpcResponse{Blobs: blobs}
	var resp rpcResponse
	got = testing.AllocsPerRun(100, func() {
		enc := appendResponse(buf[:0], &getb)
		resp = rpcResponse{}
		if err := decodeResponse(enc, &resp); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(1 + len(blobs)); got > want {
		t.Errorf("16-blob getb response round trip: %.0f allocations, want at most %.0f (the Blobs slice and one string a name)", got, want)
	}
	if len(req.Puts) != 16 || len(resp.Blobs) != 16 {
		t.Fatal("round trip lost elements")
	}
}

// allocatedBy reports the bytes the process allocated while f ran. The tests
// of this package run one at a time, but the runtime allocates a little on
// its own, so callers leave slack.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// randomWireValues builds a request and a response from a seed, so the fuzzer
// explores values as well as bytes.
func randomWireValues(seed int64) (rpcRequest, rpcResponse) {
	rng := rand.New(rand.NewSource(seed))
	str := func() string {
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		return string(b)
	}
	data := func() []byte {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return []byte{}
		}
		b := make([]byte, 1+rng.Intn(200))
		rng.Read(b)
		return b
	}
	when := func() time.Time {
		if rng.Intn(3) == 0 {
			return time.Time{}
		}
		return time.Unix(0, rng.Int63()-rng.Int63())
	}
	num := func() int { return int(rng.Int63()>>uint(rng.Intn(64))) - rng.Intn(2) }
	message := func() Message {
		return Message{ID: str(), From: str(), To: str(), Kind: str(), Body: data(), Sent: when(), Seq: rng.Uint64()}
	}
	blob := func() Blob {
		return Blob{Name: str(), Version: num(), Data: data(), Stored: when()}
	}

	var req rpcRequest
	for req.Op == "" { // skip the unused and retired codes
		req.Op = wireOps[rng.Intn(len(wireOps))]
	}
	if rng.Intn(2) == 0 {
		req.Name, req.Prefix, req.Recipient, req.Max = str(), str(), str(), num()
	}
	if rng.Intn(2) == 0 {
		req.Message = message()
	}
	for i := rng.Intn(4); i > 0; i-- {
		d := data()
		if d == nil {
			d = []byte{} // put data has no nil on the wire
		}
		req.Puts = append(req.Puts, BlobPut{Name: str(), Data: d})
		req.Names = append(req.Names, str())
		req.Gets = append(req.Gets, CondGet{Name: str(), IfNewer: num()})
	}

	var resp rpcResponse
	if rng.Intn(3) == 0 {
		resp.Code = errCode(1 + rng.Intn(int(codeNoTenant)))
		resp.Err, resp.Tenant, resp.Resource = str(), str(), str()
		resp.RetryAfterMs = rng.Int63()
	}
	if rng.Intn(2) == 0 {
		resp.Stats = new(Stats)
		for _, c := range resp.Stats.counters() {
			*c = int64(num())
		}
	}
	for i := rng.Intn(4); i > 0; i-- {
		resp.Versions = append(resp.Versions, num())
		resp.Blobs = append(resp.Blobs, blob())
		resp.Names = append(resp.Names, str())
		resp.Messages = append(resp.Messages, message())
	}
	return req, resp
}

// FuzzFrameCodec holds the codec to two properties. Arbitrary bytes: the
// decoders never panic and never allocate more than a constant factor of the
// input (a count is not believed until the bytes that would hold it are
// there); what they accept re-encodes to something they accept again, to the
// same value. Values: encode then decode is the identity, for every op.
func FuzzFrameCodec(f *testing.F) {
	reqs, resps := wireCases()
	for i, req := range reqs {
		enc, err := appendRequest(nil, &req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc, int64(i))
	}
	for i, resp := range resps {
		f.Add(appendResponse(nil, &resp), int64(-i))
	}
	f.Add([]byte(`{"op":"get"}`), int64(0))
	f.Add(binary.AppendUvarint([]byte{wireMagic, 5, reqPuts}, 1<<62), int64(0))
	f.Add([]byte{wireMagic, 1, reqName | reqRetiredData, 1, 'x', 1, 'y'}, int64(0)) // a retired single put
	f.Add([]byte{wireMagic, 0, respRetiredVersion, 2}, int64(0))                    // a retired single put's answer

	f.Fuzz(func(t *testing.T, payload []byte, seed int64) {
		// The largest element a byte of input can stand for is a Blob (three
		// bytes on the wire); anything near this bound means a count was
		// trusted.
		limit := uint64(64*len(payload) + 64<<10)

		var req rpcRequest
		var err error
		if grew := allocatedBy(func() { err = decodeRequest(payload, &req) }); grew > limit {
			t.Fatalf("decodeRequest allocated %d bytes for a %d-byte payload", grew, len(payload))
		}
		if err == nil {
			enc, err := appendRequest(nil, &req)
			if err != nil {
				t.Fatalf("decoded request does not encode: %v", err)
			}
			var again rpcRequest
			if err := decodeRequest(enc, &again); err != nil || !reflect.DeepEqual(again, req) {
				t.Fatalf("accepted request is not stable:\n first  %+v\n second %+v (%v)", req, again, err)
			}
		}

		var resp rpcResponse
		if grew := allocatedBy(func() { err = decodeResponse(payload, &resp) }); grew > limit {
			t.Fatalf("decodeResponse allocated %d bytes for a %d-byte payload", grew, len(payload))
		}
		if err == nil {
			var again rpcResponse
			if err := decodeResponse(appendResponse(nil, &resp), &again); err != nil || !reflect.DeepEqual(again, resp) {
				t.Fatalf("accepted response is not stable:\n first  %+v\n second %+v (%v)", resp, again, err)
			}
		}

		rreq, rresp := randomWireValues(seed)
		roundTripRequest(t, rreq)
		roundTripResponse(t, rresp)
	})
}
