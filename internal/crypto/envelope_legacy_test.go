package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
)

// sealLegacy is the seed implementation of Seal, kept as the differential
// oracle of the envelope fuzzers: it rebuilds the AES-GCM cipher on every
// call, reads the nonce straight from crypto/rand, and builds the envelope
// through several intermediate allocations.
func sealLegacy(key SymmetricKey, plaintext, associated []byte) ([]byte, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("crypto: seal: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("crypto: seal: %w", err)
	}
	nonce := make([]byte, gcmNonceSize)
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, fmt.Errorf("crypto: seal nonce: %w", err)
	}
	header := make([]byte, 0, 1+gcmNonceSize+4+len(associated))
	header = append(header, envelopeVersion)
	header = append(header, nonce...)
	var adLen [4]byte
	binary.BigEndian.PutUint32(adLen[:], uint32(len(associated)))
	header = append(header, adLen[:]...)
	header = append(header, associated...)

	ct := gcm.Seal(nil, nonce, plaintext, header)
	return append(header, ct...), nil
}

// openLegacy is the seed implementation of Open: per-call cipher
// construction and a defensive copy of the associated data.
func openLegacy(key SymmetricKey, sealed []byte) (plaintext, associated []byte, err error) {
	if len(sealed) < 1+gcmNonceSize+4 {
		return nil, nil, ErrDecrypt
	}
	if sealed[0] != envelopeVersion {
		return nil, nil, fmt.Errorf("crypto: unsupported envelope version %d", sealed[0])
	}
	nonce := sealed[1 : 1+gcmNonceSize]
	adLen := binary.BigEndian.Uint32(sealed[1+gcmNonceSize : 1+gcmNonceSize+4])
	// The one divergence from the seed: bound-check adLen before the int
	// conversion, which went negative on 32-bit platforms (a panic, not an
	// error, on attacker-controlled input — the differential fuzz harness
	// requires both implementations to reject it cleanly).
	if uint64(adLen) > uint64(len(sealed)-(1+gcmNonceSize+4)) {
		return nil, nil, ErrDecrypt
	}
	headerEnd := 1 + gcmNonceSize + 4 + int(adLen)
	header := sealed[:headerEnd]
	associated = make([]byte, adLen)
	copy(associated, sealed[1+gcmNonceSize+4:headerEnd])

	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, nil, fmt.Errorf("crypto: open: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, nil, fmt.Errorf("crypto: open: %w", err)
	}
	plaintext, err = gcm.Open(nil, nonce, sealed[headerEnd:], header)
	if err != nil {
		return nil, nil, ErrDecrypt
	}
	return plaintext, associated, nil
}
