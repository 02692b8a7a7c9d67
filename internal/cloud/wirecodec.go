package cloud

// Binary payload codec of the framed protocol (frame.go): the bytes after a
// frame's 12-byte header, encoding one rpcRequest or rpcResponse without
// reflection or per-field allocations.
//
// Layout (DESIGN.md §11.2). uvarint/varint are encoding/binary's; a string or
// byte string is a uvarint length followed by that many raw bytes; a list is
// a uvarint count followed by its elements.
//
//	request:  [0xCB] [op] [uvarint field mask] fields present in the mask, in
//	          bit order: puts, names, gets, name, (bit 4 retired), prefix,
//	          message, recipient, max
//	response: [0xCB] [error code] [field mask]
//	          code != 0: err string, uvarint retry-after ms, tenant, resource
//	          then the fields present in the mask, in bit order: versions,
//	          blobs, (bits 2 and 3 retired), names, messages, stats
//	put:      name, data            cond get: name, varint if-newer
//	blob:     [flags] name, varint version, [data], [varint stored unix ns]
//	message:  [flags] id, from, to, kind, [body], [varint sent unix ns],
//	          uvarint seq
//	stats:    the fourteen counters of Stats as varints, in field order
//
// Single-blob calls travel as batches of one (putb, getb). The single put
// and get ops (codes 1 and 2) and the fields only they used — the request's
// data, the response's version and blob — are retired and never reused: a
// retired op code is refused as an unknown op, a retired mask bit as a
// malformed payload.
//
// The first byte is the codec's magic and version in one: it is not a byte
// JSON text can start with, so a peer still speaking the old JSON payload is
// recognised and refused (ErrWireVersion) instead of misparsed. A field is in
// the mask when it is non-zero, so zero fields cost nothing. Flag bits carry
// what a length cannot: nil-versus-empty Data (a conditional get answers an
// unchanged blob with nil Data) and the zero time (which has no unix-nano
// representation; other times travel as unix nanoseconds, years 1678–2262).
//
// Decoding never trusts a count: every list length is checked against the
// bytes left, at the smallest size an element can encode to, before the list
// is allocated, so a payload cannot make the decoder allocate more than a
// constant factor of its own size.
//
// Buffer ownership: decoded byte strings that stand for blob data — a
// request's Puts[i].Data and a response's Blobs[i].Data —
// alias the payload they were decoded from (capacity capped, so appending to
// one never overwrites its neighbour). Names are copied into strings and
// message bodies into their own slices, because stores keep those.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// wireMagic is the first payload byte: codec magic and version 1 in one.
const wireMagic = 0xCB

// ErrWireVersion reports a frame payload that does not start with this
// build's wire magic: the peer speaks another version of the protocol (or
// the JSON payload the framed protocol carried before it had its own codec).
// The connection is closed after it; match with errors.Is.
var ErrWireVersion = errors.New("cloud: unsupported wire version")

// errMalformedPayload is what a payload that has the right magic but does
// not parse decodes to. The frame around it was intact, so the connection
// stays usable.
var errMalformedPayload = errors.New("cloud: malformed frame payload")

// rpcRequest is one Service call as it travels in a request frame.
type rpcRequest struct {
	Op        string
	Name      string
	Prefix    string
	Recipient string
	Max       int
	Message   Message
	Puts      []BlobPut
	Names     []string
	Gets      []CondGet
}

// rpcResponse is the answer to one rpcRequest. A failed call carries the
// error's text in Err and its type in Code; RetryAfterMs, Tenant and
// Resource carry the fields of typed overload/quota rejections so respError
// can reconstruct them client-side.
type rpcResponse struct {
	Err          string
	Code         errCode
	RetryAfterMs int64
	Tenant       string
	Resource     string
	Names        []string
	Messages     []Message
	Stats        *Stats
	Versions     []int
	Blobs        []Blob
}

// errCode says which typed error a response's Err text stands for, so the
// client rebuilds the error from the code and never from the text.
type errCode uint8

const (
	codeOK errCode = iota
	codeOther
	codeNotFound
	codeUnavailable
	codeMailboxEmpty
	codeOverloaded
	codeQuota
	codeWireVersion
	codeNoTenant
)

// codeSentinels maps the codes that stand for a sentinel error to it.
var codeSentinels = [...]error{
	codeNotFound:     ErrBlobNotFound,
	codeUnavailable:  ErrUnavailable,
	codeMailboxEmpty: ErrMailboxEmpty,
	codeWireVersion:  ErrWireVersion,
	codeNoTenant:     ErrNoTenant,
}

// applyRespError serializes err into resp: its text, the code of the typed
// error it is (or wraps), and the fields of overload/quota rejections.
func applyRespError(resp *rpcResponse, err error) {
	if err == nil {
		return
	}
	resp.Err = err.Error()
	resp.Code = codeOther
	var retry time.Duration
	var oe *OverloadError
	var qe *QuotaError
	switch {
	case errors.As(err, &oe):
		resp.Code = codeOverloaded
		retry = oe.RetryAfter
	case errors.As(err, &qe):
		resp.Code = codeQuota
		resp.Tenant, resp.Resource = qe.Tenant, qe.Resource
		retry = qe.RetryAfter
	default:
		for code, sentinel := range codeSentinels {
			if sentinel != nil && errors.Is(err, sentinel) {
				resp.Code = errCode(code)
			}
		}
		return
	}
	resp.RetryAfterMs = retry.Milliseconds()
	if resp.RetryAfterMs == 0 && retry > 0 {
		resp.RetryAfterMs = 1 // round sub-millisecond hints up, not to zero
	}
}

// respError turns a wire response back into the error the server-side
// Service returned, from the response's error code: the typed sentinels and
// the retry-after carrying OverloadError/QuotaError come back as themselves,
// so errors.Is/As work across the wire. The text is only ever displayed.
func respError(resp rpcResponse) error {
	if resp.Err == "" && resp.Code == codeOK {
		return nil
	}
	retry := time.Duration(resp.RetryAfterMs) * time.Millisecond
	switch resp.Code {
	case codeOverloaded:
		return &OverloadError{RetryAfter: retry}
	case codeQuota:
		return &QuotaError{Tenant: resp.Tenant, Resource: resp.Resource, RetryAfter: retry}
	}
	if int(resp.Code) < len(codeSentinels) && codeSentinels[resp.Code] != nil {
		sentinel := codeSentinels[resp.Code]
		if resp.Err == sentinel.Error() {
			return sentinel
		}
		return &remoteError{text: resp.Err, sentinel: sentinel}
	}
	return errors.New(resp.Err)
}

// remoteError is a server-side error that wrapped a sentinel: it keeps the
// server's text and still matches the sentinel with errors.Is.
type remoteError struct {
	text     string
	sentinel error
}

func (e *remoteError) Error() string { return e.text }
func (e *remoteError) Unwrap() error { return e.sentinel }

// wireOps maps the one-byte op code to the op name dispatch switches on.
// Code 0 is unused so that a zeroed payload is not a valid request; codes 1
// and 2 (the retired single put and get) are refused and never reused.
var wireOps = [...]string{
	3: "delete", 4: "list", 5: "putb", 6: "getb",
	7: "getc", 8: "send", 9: "receive", 10: "stats", 11: opHello,
}

// Field mask bits; the batch fields sit lowest so the hot requests and
// responses keep a one-byte mask. Retired bits keep their place, so every
// other field keeps its bit, but leave the known masks: a payload that sets
// one is malformed.
const (
	reqPuts = 1 << iota
	reqNames
	reqGets
	reqName
	reqRetiredData
	reqPrefix
	reqMessage
	reqRecipient
	reqMax

	reqKnown = (reqMax<<1 - 1) &^ reqRetiredData
)

const (
	respVersions = 1 << iota
	respBlobs
	respRetiredVersion
	respRetiredBlob
	respNames
	respMessages
	respStats

	respKnown = (respStats<<1 - 1) &^ (respRetiredVersion | respRetiredBlob)
)

const (
	flagHasData = 1 << iota // Blob.Data / Message.Body is non-nil
	flagHasTime             // Blob.Stored / Message.Sent is not the zero time
)

// Smallest encodings, for checking a list count against the bytes left.
const (
	minStringWire  = 1 // empty string: its length
	minIntWire     = 1
	minPutWire     = 2 // empty name, empty data
	minCondGetWire = 2 // empty name, if-newer 0
	minBlobWire    = 3 // flags, empty name, version 0
	minMessageWire = 6 // flags, four empty strings, seq 0
)

// maskBit is bit when the field it stands for is present.
func maskBit(bit uint64, present bool) uint64 {
	if present {
		return bit
	}
	return 0
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// appendTimed appends the optional data and time tails of a blob or message.
func appendTimed(dst []byte, flags byte, data []byte, t time.Time) []byte {
	if flags&flagHasData != 0 {
		dst = appendBytes(dst, data)
	}
	if flags&flagHasTime != 0 {
		dst = binary.AppendVarint(dst, t.UnixNano())
	}
	return dst
}

func timedFlags(data []byte, t time.Time) byte {
	var flags byte
	if data != nil {
		flags |= flagHasData
	}
	if !t.IsZero() {
		flags |= flagHasTime
	}
	return flags
}

func appendBlob(dst []byte, b *Blob) []byte {
	flags := timedFlags(b.Data, b.Stored)
	dst = append(dst, flags)
	dst = appendString(dst, b.Name)
	dst = binary.AppendVarint(dst, int64(b.Version))
	return appendTimed(dst, flags, b.Data, b.Stored)
}

func appendMessage(dst []byte, m *Message) []byte {
	flags := timedFlags(m.Body, m.Sent)
	dst = append(dst, flags)
	dst = appendString(dst, m.ID)
	dst = appendString(dst, m.From)
	dst = appendString(dst, m.To)
	dst = appendString(dst, m.Kind)
	dst = appendTimed(dst, flags, m.Body, m.Sent)
	return binary.AppendUvarint(dst, m.Seq)
}

// counters lists the Stats fields in wire order.
func (s *Stats) counters() [14]*int64 {
	return [...]*int64{
		&s.Puts, &s.Gets, &s.Deletes, &s.Lists, &s.Sends, &s.Receives,
		&s.BytesStored, &s.TamperedBlobs, &s.ReplayedBlobs, &s.DroppedBlobs,
		&s.DroppedMessages, &s.ObservedBlobs, &s.RolledBackBlobs, &s.ForkedBlobs,
	}
}

// appendRequest appends req's payload to dst. It fails only for an op the
// wire has no code for.
func appendRequest(dst []byte, req *rpcRequest) ([]byte, error) {
	op := 0
	for code, name := range wireOps {
		if name == req.Op {
			op = code // code 0 is the empty name: still "no code"
			break
		}
	}
	if op == 0 {
		return dst, fmt.Errorf("cloud: unknown op %q", req.Op)
	}
	mask := maskBit(reqPuts, len(req.Puts) > 0) |
		maskBit(reqNames, len(req.Names) > 0) |
		maskBit(reqGets, len(req.Gets) > 0) |
		maskBit(reqName, req.Name != "") |
		maskBit(reqPrefix, req.Prefix != "") |
		maskBit(reqMessage, !messageIsZero(&req.Message)) |
		maskBit(reqRecipient, req.Recipient != "") |
		maskBit(reqMax, req.Max != 0)

	dst = append(dst, wireMagic, byte(op))
	dst = binary.AppendUvarint(dst, mask)
	if mask&reqPuts != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(req.Puts)))
		for i := range req.Puts {
			dst = appendString(dst, req.Puts[i].Name)
			dst = appendBytes(dst, req.Puts[i].Data)
		}
	}
	if mask&reqNames != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(req.Names)))
		for _, name := range req.Names {
			dst = appendString(dst, name)
		}
	}
	if mask&reqGets != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(req.Gets)))
		for _, g := range req.Gets {
			dst = appendString(dst, g.Name)
			dst = binary.AppendVarint(dst, int64(g.IfNewer))
		}
	}
	if mask&reqName != 0 {
		dst = appendString(dst, req.Name)
	}
	if mask&reqPrefix != 0 {
		dst = appendString(dst, req.Prefix)
	}
	if mask&reqMessage != 0 {
		dst = appendMessage(dst, &req.Message)
	}
	if mask&reqRecipient != 0 {
		dst = appendString(dst, req.Recipient)
	}
	if mask&reqMax != 0 {
		dst = binary.AppendVarint(dst, int64(req.Max))
	}
	return dst, nil
}

func messageIsZero(m *Message) bool {
	return m.ID == "" && m.From == "" && m.To == "" && m.Kind == "" &&
		m.Body == nil && m.Sent.IsZero() && m.Seq == 0
}

// appendResponse appends resp's payload to dst.
func appendResponse(dst []byte, resp *rpcResponse) []byte {
	code := resp.Code
	if code == codeOK && resp.Err != "" {
		code = codeOther
	}
	mask := maskBit(respVersions, len(resp.Versions) > 0) |
		maskBit(respBlobs, len(resp.Blobs) > 0) |
		maskBit(respNames, len(resp.Names) > 0) |
		maskBit(respMessages, len(resp.Messages) > 0) |
		maskBit(respStats, resp.Stats != nil)

	dst = append(dst, wireMagic, byte(code))
	dst = binary.AppendUvarint(dst, mask)
	if code != codeOK {
		dst = appendString(dst, resp.Err)
		dst = binary.AppendUvarint(dst, uint64(max(resp.RetryAfterMs, 0)))
		dst = appendString(dst, resp.Tenant)
		dst = appendString(dst, resp.Resource)
	}
	if mask&respVersions != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(resp.Versions)))
		for _, v := range resp.Versions {
			dst = binary.AppendVarint(dst, int64(v))
		}
	}
	if mask&respBlobs != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(resp.Blobs)))
		for i := range resp.Blobs {
			dst = appendBlob(dst, &resp.Blobs[i])
		}
	}
	if mask&respNames != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(resp.Names)))
		for _, name := range resp.Names {
			dst = appendString(dst, name)
		}
	}
	if mask&respMessages != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(resp.Messages)))
		for i := range resp.Messages {
			dst = appendMessage(dst, &resp.Messages[i])
		}
	}
	if mask&respStats != 0 {
		for _, c := range resp.Stats.counters() {
			dst = binary.AppendVarint(dst, *c)
		}
	}
	return dst
}

// wireReader consumes a payload front to back. The first failure sticks:
// every later read returns zero values, and the caller checks err once.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail() {
	r.err = errMalformedPayload
	r.b = nil
}

func (r *wireReader) byte() byte {
	if len(r.b) == 0 {
		r.fail()
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *wireReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// int reads a varint that must fit the platform's int.
func (r *wireReader) int() int {
	v := r.varint()
	if v < math.MinInt || v > math.MaxInt {
		r.fail()
		return 0
	}
	return int(v)
}

// bytes returns the next length-prefixed byte string as a view of the
// payload, its capacity capped at its length.
func (r *wireReader) bytes() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

func (r *wireReader) str() string { return string(r.bytes()) }

// count reads a list length and refuses one the remaining bytes could not
// hold at minWire bytes an element.
func (r *wireReader) count(minWire int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minWire) {
		r.fail()
		return 0
	}
	return int(n)
}

// timed reads the optional data and time tails written by appendTimed.
func (r *wireReader) timed(flags byte) (data []byte, t time.Time) {
	if flags&^(flagHasData|flagHasTime) != 0 {
		r.fail()
		return nil, t
	}
	if flags&flagHasData != 0 {
		data = r.bytes()
	}
	if flags&flagHasTime != 0 {
		t = time.Unix(0, r.varint())
	}
	return data, t
}

func (r *wireReader) blob(b *Blob) {
	flags := r.byte()
	b.Name = r.str()
	b.Version = r.int()
	b.Data, b.Stored = r.timed(flags)
}

func (r *wireReader) message(m *Message) {
	flags := r.byte()
	m.ID, m.From, m.To, m.Kind = r.str(), r.str(), r.str(), r.str()
	var body []byte
	body, m.Sent = r.timed(flags)
	if body != nil {
		m.Body = append([]byte{}, body...) // mailboxes keep bodies: never a view
	}
	m.Seq = r.uvarint()
}

func (r *wireReader) strings() []string {
	n := r.count(minStringWire)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.str()
	}
	return out
}

// header checks the magic and returns the second byte and the field mask.
func (r *wireReader) header(knownMask uint64) (second byte, mask uint64, err error) {
	if len(r.b) == 0 || r.b[0] != wireMagic {
		return 0, 0, ErrWireVersion
	}
	r.b = r.b[1:]
	second = r.byte()
	mask = r.uvarint()
	if mask&^knownMask != 0 {
		r.fail()
	}
	return second, mask, r.err
}

// finish reports the sticky error, or trailing bytes as malformed.
func (r *wireReader) finish() error {
	if r.err == nil && len(r.b) != 0 {
		r.fail()
	}
	return r.err
}

// decodeRequest parses a request payload into req, which must be zero.
// Puts[i].Data are views of payload: they are valid until payload's buffer
// is reused and must not be retained past that.
func decodeRequest(payload []byte, req *rpcRequest) error {
	r := wireReader{b: payload}
	op, mask, err := r.header(reqKnown)
	if err != nil {
		return err
	}
	if int(op) >= len(wireOps) || wireOps[op] == "" {
		return fmt.Errorf("cloud: unknown op %#02x", op)
	}
	req.Op = wireOps[op]
	if mask&reqPuts != 0 {
		if n := r.count(minPutWire); n > 0 {
			req.Puts = make([]BlobPut, n)
			for i := range req.Puts {
				req.Puts[i].Name = r.str()
				req.Puts[i].Data = r.bytes()
			}
		}
	}
	if mask&reqNames != 0 {
		req.Names = r.strings()
	}
	if mask&reqGets != 0 {
		if n := r.count(minCondGetWire); n > 0 {
			req.Gets = make([]CondGet, n)
			for i := range req.Gets {
				req.Gets[i].Name = r.str()
				req.Gets[i].IfNewer = r.int()
			}
		}
	}
	if mask&reqName != 0 {
		req.Name = r.str()
	}
	if mask&reqPrefix != 0 {
		req.Prefix = r.str()
	}
	if mask&reqMessage != 0 {
		r.message(&req.Message)
	}
	if mask&reqRecipient != 0 {
		req.Recipient = r.str()
	}
	if mask&reqMax != 0 {
		req.Max = r.int()
	}
	return r.finish()
}

// decodeResponse parses a response payload into resp, which must be zero.
// Blobs[i].Data are views of payload, so the caller hands the payload's
// buffer over to whoever receives resp.
func decodeResponse(payload []byte, resp *rpcResponse) error {
	r := wireReader{b: payload}
	code, mask, err := r.header(respKnown)
	if err != nil {
		return err
	}
	if resp.Code = errCode(code); resp.Code != codeOK {
		resp.Err = r.str()
		retry := r.uvarint()
		if retry > math.MaxInt64 {
			r.fail()
		}
		resp.RetryAfterMs = int64(retry)
		resp.Tenant, resp.Resource = r.str(), r.str()
	}
	if mask&respVersions != 0 {
		if n := r.count(minIntWire); n > 0 {
			resp.Versions = make([]int, n)
			for i := range resp.Versions {
				resp.Versions[i] = r.int()
			}
		}
	}
	if mask&respBlobs != 0 {
		if n := r.count(minBlobWire); n > 0 {
			resp.Blobs = make([]Blob, n)
			for i := range resp.Blobs {
				r.blob(&resp.Blobs[i])
			}
		}
	}
	if mask&respNames != 0 {
		resp.Names = r.strings()
	}
	if mask&respMessages != 0 {
		if n := r.count(minMessageWire); n > 0 {
			resp.Messages = make([]Message, n)
			for i := range resp.Messages {
				r.message(&resp.Messages[i])
			}
		}
	}
	if mask&respStats != 0 {
		resp.Stats = new(Stats)
		for _, c := range resp.Stats.counters() {
			*c = r.varint()
		}
	}
	return r.finish()
}
