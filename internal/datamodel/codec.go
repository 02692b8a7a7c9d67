package datamodel

// Binary document codec. Every document crossing the sealed boundary in a
// shard replication blob is written in the compact length-prefixed form below,
// which roughly halves the bytes of the JSON it replaced and removes the
// reflection cost from the sealing hot path. JSON input is refused.
//
// Wire format (all integers are unsigned varints unless noted):
//
//	[1] magic 0xD0
//	[1] codec version (currently 1)
//	7 length-prefixed strings: ID, Owner, Type, Title, ContentHash,
//	                           BlobRef, KeyFingerprint
//	class (uvarint)
//	size  (uvarint; Validate rejects negative sizes)
//	created-at: uvarint length + time.MarshalBinary bytes
//	keywords: uvarint count + length-prefixed strings
//	tags:     uvarint count + length-prefixed key/value pairs, sorted by key
//	          (so equal documents encode to equal bytes)
//
// The decoder accepts only what the encoder writes: minimal varints, tag
// keys in strictly increasing order and canonical times, so an accepted
// document re-encodes to the same bytes.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"
)

const (
	// DocCodecMagic is the first byte of every binary-encoded document.
	DocCodecMagic = 0xD0

	docCodecVersion = 1
)

// ErrCodec reports a malformed binary document.
var ErrCodec = errors.New("datamodel: malformed binary document")

// AppendString appends a uvarint-length-prefixed string — the shared
// primitive of this codec and the sync shard codec that embeds it.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBinary appends the document's binary encoding to dst and returns the
// extended slice. With a pre-sized dst the only allocation is the small
// time.MarshalBinary scratch.
func (d *Document) AppendBinary(dst []byte) ([]byte, error) {
	if d.Size < 0 {
		return nil, fmt.Errorf("%w: negative size", ErrInvalidDoc)
	}
	dst = append(dst, DocCodecMagic, docCodecVersion)
	dst = AppendString(dst, d.ID)
	dst = AppendString(dst, d.Owner)
	dst = AppendString(dst, d.Type)
	dst = AppendString(dst, d.Title)
	dst = AppendString(dst, d.ContentHash)
	dst = AppendString(dst, d.BlobRef)
	dst = AppendString(dst, d.KeyFingerprint)
	dst = binary.AppendUvarint(dst, uint64(d.Class))
	dst = binary.AppendUvarint(dst, uint64(d.Size))
	dst, err := AppendTime(dst, d.CreatedAt)
	if err != nil {
		return nil, fmt.Errorf("datamodel: encode created_at: %w", err)
	}
	dst = binary.AppendUvarint(dst, uint64(len(d.Keywords)))
	for _, k := range d.Keywords {
		dst = AppendString(dst, k)
	}
	dst = binary.AppendUvarint(dst, uint64(len(d.Tags)))
	if len(d.Tags) > 0 {
		keys := make([]string, 0, len(d.Tags))
		for k := range d.Tags {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			dst = AppendString(dst, k)
			dst = AppendString(dst, d.Tags[k])
		}
	}
	return dst, nil
}

// EncodeBinary returns the document's binary encoding.
func (d *Document) EncodeBinary() ([]byte, error) { return d.AppendBinary(nil) }

// AppendTime appends t as a uvarint length plus its time.MarshalBinary bytes.
func AppendTime(dst []byte, t time.Time) ([]byte, error) {
	tb, err := t.MarshalBinary()
	if err != nil {
		return nil, err
	}
	dst = binary.AppendUvarint(dst, uint64(len(tb)))
	return append(dst, tb...), nil
}

// ConsumeTime parses one time written by AppendTime, accepting only the
// encoding AppendTime would produce for the decoded value.
func ConsumeTime(b []byte) (time.Time, []byte, error) {
	n, b, err := ConsumeUvarint(b)
	if err != nil {
		return time.Time{}, nil, err
	}
	if n > uint64(len(b)) {
		return time.Time{}, nil, ErrCodec
	}
	var t time.Time
	if err := t.UnmarshalBinary(b[:n]); err != nil {
		return time.Time{}, nil, fmt.Errorf("%w: time: %v", ErrCodec, err)
	}
	if again, err := t.MarshalBinary(); err != nil || !bytes.Equal(again, b[:n]) {
		return time.Time{}, nil, fmt.Errorf("%w: non-canonical time", ErrCodec)
	}
	return t, b[n:], nil
}

// ConsumeUvarint parses one uvarint from the front of b, returning the value
// and the remaining bytes (ErrCodec on malformed, truncated or non-minimal
// input: a final byte of zero means the encoder did not write it).
func ConsumeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 || (n > 1 && b[n-1] == 0) {
		return 0, nil, ErrCodec
	}
	return v, b[n:], nil
}

// ConsumeString parses one length-prefixed string from the front of b. The
// length is bounds-checked against the remaining input before allocating.
func ConsumeString(b []byte) (string, []byte, error) {
	n, b, err := ConsumeUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(b)) {
		return "", nil, ErrCodec
	}
	return string(b[:n]), b[n:], nil
}

// DecodeDocumentPrefix parses one binary document from the front of data and
// returns it together with the remaining bytes. Embedding codecs (the sync
// shard format) use it to decode documents in place; it does not run
// Validate.
func DecodeDocumentPrefix(data []byte) (*Document, []byte, error) {
	if len(data) < 2 || data[0] != DocCodecMagic {
		return nil, nil, ErrCodec
	}
	if data[1] != docCodecVersion {
		return nil, nil, fmt.Errorf("%w: unsupported codec version %d", ErrCodec, data[1])
	}
	b := data[2:]
	var d Document
	var err error
	for _, field := range []*string{&d.ID, &d.Owner, &d.Type, &d.Title, &d.ContentHash, &d.BlobRef, &d.KeyFingerprint} {
		if *field, b, err = ConsumeString(b); err != nil {
			return nil, nil, err
		}
	}
	class, b, err := ConsumeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	d.Class = DataClass(class)
	size, b, err := ConsumeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	d.Size = int64(size)
	if d.Size < 0 {
		return nil, nil, ErrCodec
	}
	if d.CreatedAt, b, err = ConsumeTime(b); err != nil {
		return nil, nil, err
	}
	nKeywords, b, err := ConsumeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	// Every keyword costs at least one byte on the wire, so the count can be
	// sanity-checked before allocating (keeps fuzzed inputs from forcing huge
	// slices).
	if nKeywords > uint64(len(b)) {
		return nil, nil, ErrCodec
	}
	if nKeywords > 0 {
		d.Keywords = make([]string, nKeywords)
		for i := range d.Keywords {
			if d.Keywords[i], b, err = ConsumeString(b); err != nil {
				return nil, nil, err
			}
		}
	}
	nTags, b, err := ConsumeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	// A tag is a key and a value, two bytes at least.
	if nTags > uint64(len(b))/2 {
		return nil, nil, ErrCodec
	}
	if nTags > 0 {
		d.Tags = make(map[string]string, nTags)
		prev := ""
		for i := uint64(0); i < nTags; i++ {
			var k, v string
			if k, b, err = ConsumeString(b); err != nil {
				return nil, nil, err
			}
			if i > 0 && k <= prev {
				return nil, nil, fmt.Errorf("%w: tags out of order", ErrCodec)
			}
			if v, b, err = ConsumeString(b); err != nil {
				return nil, nil, err
			}
			d.Tags[k] = v
			prev = k
		}
	}
	return &d, b, nil
}

// DecodeDocument parses a complete binary-encoded document, rejecting
// trailing bytes and validating the result.
func DecodeDocument(data []byte) (*Document, error) {
	d, rest, err := DecodeDocumentPrefix(data)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCodec, len(rest))
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}
