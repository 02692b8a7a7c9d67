// Package crypto provides the cryptographic building blocks used by trusted
// cells: symmetric envelope encryption, message authentication, signatures,
// key derivation and diversification, secret sharing, hash chains and Merkle
// trees.
//
// Every primitive is built on the Go standard library (crypto/aes,
// crypto/cipher, crypto/sha256, crypto/ed25519, crypto/hmac). The package
// deliberately exposes small, typed wrappers rather than raw byte slices so
// that higher layers (storage, sharing, commons) cannot accidentally mix key
// material of different purposes.
package crypto

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
)

// KeySize is the size in bytes of all symmetric keys (AES-256 and HMAC-SHA256).
const KeySize = 32

// Errors returned by the key helpers.
var (
	ErrBadKeySize   = errors.New("crypto: invalid key size")
	ErrBadSignature = errors.New("crypto: signature verification failed")
	ErrDecrypt      = errors.New("crypto: decryption failed or ciphertext tampered")
)

// SymmetricKey is a 256-bit key used for encryption or MAC computation.
type SymmetricKey [KeySize]byte

// NewSymmetricKey generates a fresh random symmetric key.
func NewSymmetricKey() (SymmetricKey, error) {
	var k SymmetricKey
	if _, err := io.ReadFull(rand.Reader, k[:]); err != nil {
		return SymmetricKey{}, fmt.Errorf("crypto: generating key: %w", err)
	}
	return k, nil
}

// SymmetricKeyFromBytes copies b into a SymmetricKey. b must be KeySize bytes.
func SymmetricKeyFromBytes(b []byte) (SymmetricKey, error) {
	var k SymmetricKey
	if len(b) != KeySize {
		return k, ErrBadKeySize
	}
	copy(k[:], b)
	return k, nil
}

// String renders a short fingerprint of the key, never the key itself.
func (k SymmetricKey) String() string {
	h := sha256.Sum256(k[:])
	return "key:" + hex.EncodeToString(h[:4])
}

// Fingerprint returns a stable hex fingerprint (8 bytes of SHA-256) usable as
// a key identifier in metadata without revealing key material.
func (k SymmetricKey) Fingerprint() string {
	h := sha256.Sum256(k[:])
	return hex.EncodeToString(h[:8])
}

// SigningKey is an Ed25519 private key used by cells and trusted sources to
// certify data (e.g. certified meter readings) and to sign protocol messages.
type SigningKey struct {
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey
}

// VerifyKey is the public half of a SigningKey.
type VerifyKey struct {
	pub ed25519.PublicKey
}

// NewSigningKey generates a fresh Ed25519 key pair.
func NewSigningKey() (*SigningKey, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("crypto: generating signing key: %w", err)
	}
	return &SigningKey{priv: priv, pub: pub}, nil
}

// SigningKeyFromSeed derives a deterministic signing key from a 32-byte seed.
// It is used by the simulator to create reproducible populations of cells.
func SigningKeyFromSeed(seed []byte) (*SigningKey, error) {
	if len(seed) != ed25519.SeedSize {
		return nil, ErrBadKeySize
	}
	priv := ed25519.NewKeyFromSeed(seed)
	return &SigningKey{priv: priv, pub: priv.Public().(ed25519.PublicKey)}, nil
}

// Public returns the verification key.
func (s *SigningKey) Public() VerifyKey { return VerifyKey{pub: s.pub} }

// Sign signs msg and returns the detached signature.
func (s *SigningKey) Sign(msg []byte) []byte { return ed25519.Sign(s.priv, msg) }

// Verify checks sig over msg.
func (v VerifyKey) Verify(msg, sig []byte) error {
	if len(v.pub) != ed25519.PublicKeySize || !ed25519.Verify(v.pub, msg, sig) {
		return ErrBadSignature
	}
	return nil
}

// Bytes returns the raw public key bytes.
func (v VerifyKey) Bytes() []byte {
	out := make([]byte, len(v.pub))
	copy(out, v.pub)
	return out
}

// VerifyKeyFromBytes rebuilds a VerifyKey from its raw bytes.
func VerifyKeyFromBytes(b []byte) (VerifyKey, error) {
	if len(b) != ed25519.PublicKeySize {
		return VerifyKey{}, ErrBadKeySize
	}
	pub := make(ed25519.PublicKey, ed25519.PublicKeySize)
	copy(pub, b)
	return VerifyKey{pub: pub}, nil
}

// Equal reports whether two verify keys are the same key.
func (v VerifyKey) Equal(o VerifyKey) bool { return v.pub.Equal(o.pub) }

// HKDF-style key derivation (extract-and-expand with HMAC-SHA256). We
// implement it directly because the module is stdlib-only.

// hkdfExtract computes PRK = HMAC-Hash(salt, ikm).
func hkdfExtract(salt, ikm []byte) []byte {
	if len(salt) == 0 {
		salt = make([]byte, sha256.Size)
	}
	m := hmac.New(sha256.New, salt)
	m.Write(ikm)
	return m.Sum(nil)
}

// hkdfExpand expands prk with info to length bytes.
func hkdfExpand(prk, info []byte, length int) []byte {
	var (
		out  []byte
		prev []byte
	)
	for i := byte(1); len(out) < length; i++ {
		m := hmac.New(sha256.New, prk)
		m.Write(prev)
		m.Write(info)
		m.Write([]byte{i})
		prev = m.Sum(nil)
		out = append(out, prev...)
	}
	return out[:length]
}

// DeriveKey derives a purpose-bound subkey from a master key. The purpose and
// context strings bind the derived key to its use (e.g. "document-encryption",
// document ID) so that a leaked subkey never reveals sibling keys — this is
// the key-diversification mechanism that contains class-break attacks.
func DeriveKey(master SymmetricKey, purpose, context string) SymmetricKey {
	prk := hkdfExtract([]byte("trustedcells/v1"), master[:])
	info := make([]byte, 0, len(purpose)+len(context)+1)
	info = append(info, purpose...)
	info = append(info, 0x00)
	info = append(info, context...)
	var out SymmetricKey
	copy(out[:], hkdfExpand(prk, info, KeySize))
	return out
}

// DeriveKeyN derives a numbered subkey; convenient for per-epoch keys.
func DeriveKeyN(master SymmetricKey, purpose string, n uint64) SymmetricKey {
	var ctx [8]byte
	binary.BigEndian.PutUint64(ctx[:], n)
	return DeriveKey(master, purpose, string(ctx[:]))
}

// KeyHierarchy manages the tree of keys rooted at a cell's master secret.
// The master secret never leaves the tamper-resistant store; higher layers
// request purpose-bound keys by name.
type KeyHierarchy struct {
	master SymmetricKey
}

// NewKeyHierarchy builds a hierarchy rooted at master.
func NewKeyHierarchy(master SymmetricKey) *KeyHierarchy {
	return &KeyHierarchy{master: master}
}

// DocumentKey returns the encryption key for a document.
func (h *KeyHierarchy) DocumentKey(docID string) SymmetricKey {
	return DeriveKey(h.master, "doc-enc", docID)
}

// MetadataKey returns the key protecting the metadata store.
func (h *KeyHierarchy) MetadataKey() SymmetricKey {
	return DeriveKey(h.master, "metadata", "")
}

// RandomBytes returns n cryptographically random bytes.
func RandomBytes(n int) ([]byte, error) {
	b := make([]byte, n)
	if _, err := io.ReadFull(rand.Reader, b); err != nil {
		return nil, fmt.Errorf("crypto: random bytes: %w", err)
	}
	return b, nil
}

// Hash returns the SHA-256 digest of data.
func Hash(data []byte) []byte {
	h := sha256.Sum256(data)
	return h[:]
}

// HashString returns the hex-encoded SHA-256 digest of data.
func HashString(data []byte) string {
	return hex.EncodeToString(Hash(data))
}

// HashMatchesHex reports whether the hex-encoded SHA-256 digest of data
// equals hexDigest, without allocating — the hot read path verifies every
// payload's content hash, so the comparison runs once per document opened.
func HashMatchesHex(data []byte, hexDigest string) bool {
	if len(hexDigest) != 2*sha256.Size {
		return false
	}
	sum := sha256.Sum256(data)
	var buf [2 * sha256.Size]byte
	hex.Encode(buf[:], sum[:])
	return string(buf[:]) == hexDigest
}

// HMAC computes HMAC-SHA256 over data with key.
func HMAC(key SymmetricKey, data []byte) []byte {
	m := hmac.New(sha256.New, key[:])
	m.Write(data)
	return m.Sum(nil)
}

// VerifyHMAC checks mac against the HMAC of data under key in constant time.
func VerifyHMAC(key SymmetricKey, data, mac []byte) bool {
	return hmac.Equal(HMAC(key, data), mac)
}
