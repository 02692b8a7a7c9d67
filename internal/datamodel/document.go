// Package datamodel defines the personal data space of a trusted cell: the
// documents it manages, their provenance classes (the paper's three-way
// classification of sensed, external and authored data), and the metadata
// catalog that lets the cell answer queries before touching the encrypted
// payloads stored in the cloud.
package datamodel

import (
	"errors"
	"fmt"
	"time"

	"trustedcells/internal/crypto"
)

// DataClass is the provenance classification introduced in the paper's
// motivation section.
type DataClass int

const (
	// ClassSensed is data produced by smart sensors installed by companies in
	// the user's home or environment (power meter, GPS tracking box).
	ClassSensed DataClass = iota
	// ClassExternal is data produced or inferred by external systems
	// (purchase receipts, medical records, pay slips).
	ClassExternal
	// ClassAuthored is data authored by the user herself (photos, mails,
	// documents).
	ClassAuthored
)

// String names the class.
func (c DataClass) String() string {
	switch c {
	case ClassSensed:
		return "sensed"
	case ClassExternal:
		return "external"
	case ClassAuthored:
		return "authored"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Errors returned by the catalog.
var (
	ErrDocNotFound = errors.New("datamodel: document not found")
	ErrDuplicateID = errors.New("datamodel: duplicate document id")
	ErrInvalidDoc  = errors.New("datamodel: invalid document")
)

// Document is the metadata describing one item of the personal data space.
// The payload itself is encrypted and stored separately (locally or in the
// cloud); the document references it by content hash so integrity can be
// verified on retrieval.
type Document struct {
	// ID is the unique document identifier within the owner's space.
	ID string `json:"id"`
	// Owner is the identifier of the owning cell/user.
	Owner string `json:"owner"`
	// Class records the provenance of the data.
	Class DataClass `json:"class"`
	// Type is an application-level type tag, e.g. "power-series", "photo",
	// "medical-record", "receipt".
	Type string `json:"type"`
	// Title is a human-readable label.
	Title string `json:"title"`
	// Keywords index the document for metadata-first search.
	Keywords []string `json:"keywords"`
	// Tags carry application attributes (e.g. "year=2013", "device=linky").
	Tags map[string]string `json:"tags"`
	// CreatedAt is the document creation time.
	CreatedAt time.Time `json:"created_at"`
	// Size is the plaintext payload size in bytes.
	Size int64 `json:"size"`
	// ContentHash is the SHA-256 of the plaintext payload.
	ContentHash string `json:"content_hash"`
	// BlobRef locates the encrypted payload (a cloud blob name or a local
	// cache key). Empty while the document has no externalized payload.
	BlobRef string `json:"blob_ref"`
	// KeyFingerprint identifies (without revealing) the encryption key.
	KeyFingerprint string `json:"key_fingerprint"`
}

// Validate checks the structural invariants of a document.
func (d *Document) Validate() error {
	switch {
	case d.ID == "":
		return fmt.Errorf("%w: empty id", ErrInvalidDoc)
	case d.Owner == "":
		return fmt.Errorf("%w: empty owner", ErrInvalidDoc)
	case d.Type == "":
		return fmt.Errorf("%w: empty type", ErrInvalidDoc)
	case d.Size < 0:
		return fmt.Errorf("%w: negative size", ErrInvalidDoc)
	}
	return nil
}

// NewDocumentID derives a unique, unguessable document identifier from the
// owner, type and content hash.
func NewDocumentID(owner, docType string, contentHash string) string {
	h := crypto.HashString([]byte(owner + "\x00" + docType + "\x00" + contentHash))
	return "doc-" + h[:24]
}

// Clone returns a deep copy of the document.
func (d *Document) Clone() *Document {
	c := *d
	c.Keywords = append([]string(nil), d.Keywords...)
	c.Tags = make(map[string]string, len(d.Tags))
	for k, v := range d.Tags {
		c.Tags[k] = v
	}
	return &c
}
