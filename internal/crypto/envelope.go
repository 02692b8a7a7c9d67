package crypto

// Envelope is an authenticated-encryption container. The trusted cell stores
// every piece of data that leaves the tamper-resistant boundary (cloud blobs,
// cached payloads, audit records) inside an envelope.
//
// Layout of the sealed byte slice:
//
//	[1]  version
//	[12] nonce
//	[4]  associated-data length
//	[n]  associated data (in clear, authenticated)
//	[..] AES-256-GCM ciphertext (includes the 16-byte tag)
//
// Associated data typically carries the owner, document identifier and schema
// version so that the cloud cannot splice ciphertexts across documents.
const envelopeVersion = 1

const gcmNonceSize = 12

// envelopeHeaderBase is the fixed part of the header: version byte, nonce,
// associated-data length.
const envelopeHeaderBase = 1 + gcmNonceSize + 4

// Seal encrypts plaintext under key, binding the associated data. It is
// SealTo(nil, ...): the whole envelope is produced in a single allocation,
// with the cipher served by the process-wide AEAD cache and the nonce drawn
// from the bulk randomness source. Hot paths that recycle buffers should call
// SealTo directly and allocate nothing at all.
func Seal(key SymmetricKey, plaintext, associated []byte) ([]byte, error) {
	return SealTo(nil, key, plaintext, associated)
}

// Open decrypts a sealed envelope, returning the plaintext and the associated
// data that was authenticated with it. Any modification of the envelope —
// header, associated data or ciphertext — fails: with ErrDecrypt, or with a
// descriptive versioning error when the version byte names an envelope
// format this implementation does not speak.
//
// The returned associated data aliases the sealed input (it was stored in
// clear inside the envelope, so no copy is needed); it is valid as long as
// sealed is and must not be modified.
func Open(key SymmetricKey, sealed []byte) (plaintext, associated []byte, err error) {
	return OpenTo(nil, key, sealed)
}

// EnvelopeOverhead is the number of bytes Seal adds on top of the plaintext
// for a given associated-data length. Useful for storage sizing.
func EnvelopeOverhead(associatedLen int) int {
	return envelopeHeaderBase + associatedLen + 16 // 16 = GCM tag
}
