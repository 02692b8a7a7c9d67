package crypto

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewSymmetricKeyUnique(t *testing.T) {
	k1, err := NewSymmetricKey()
	if err != nil {
		t.Fatalf("NewSymmetricKey: %v", err)
	}
	k2, err := NewSymmetricKey()
	if err != nil {
		t.Fatalf("NewSymmetricKey: %v", err)
	}
	if k1 == k2 {
		t.Fatal("two freshly generated keys are identical")
	}
	if k1 == (SymmetricKey{}) || k2 == (SymmetricKey{}) {
		t.Fatal("freshly generated key is zero")
	}
}

func TestSymmetricKeyFromBytes(t *testing.T) {
	b := make([]byte, KeySize)
	for i := range b {
		b[i] = byte(i)
	}
	k, err := SymmetricKeyFromBytes(b)
	if err != nil {
		t.Fatalf("SymmetricKeyFromBytes: %v", err)
	}
	if !bytes.Equal(k[:], b) {
		t.Fatal("round trip mismatch")
	}
	if _, err := SymmetricKeyFromBytes(b[:10]); err != ErrBadKeySize {
		t.Fatalf("expected ErrBadKeySize, got %v", err)
	}
}

func TestSymmetricKeyStringDoesNotLeak(t *testing.T) {
	k, _ := NewSymmetricKey()
	s := k.String()
	if len(s) == 0 || !strings.HasPrefix(s, "key:") {
		t.Fatalf("unexpected key string %q", s)
	}
	// The rendered string must not contain the hex of the raw key.
	raw := k[:]
	if strings.Contains(s, string(raw)) {
		t.Fatal("String leaks raw key material")
	}
}

func TestKeyFingerprintStable(t *testing.T) {
	k, _ := NewSymmetricKey()
	if k.Fingerprint() != k.Fingerprint() {
		t.Fatal("fingerprint is not deterministic")
	}
	k2, _ := NewSymmetricKey()
	if k.Fingerprint() == k2.Fingerprint() {
		t.Fatal("different keys share a fingerprint")
	}
}

func TestSigningRoundTrip(t *testing.T) {
	sk, err := NewSigningKey()
	if err != nil {
		t.Fatalf("NewSigningKey: %v", err)
	}
	msg := []byte("certified reading: 12.5 kWh")
	sig := sk.Sign(msg)
	if err := sk.Public().Verify(msg, sig); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if err := sk.Public().Verify([]byte("tampered"), sig); err == nil {
		t.Fatal("verification of tampered message succeeded")
	}
	sig[0] ^= 0xff
	if err := sk.Public().Verify(msg, sig); err == nil {
		t.Fatal("verification of tampered signature succeeded")
	}
}

func TestSigningKeyFromSeedDeterministic(t *testing.T) {
	seed := make([]byte, 32)
	for i := range seed {
		seed[i] = byte(i * 3)
	}
	a, err := SigningKeyFromSeed(seed)
	if err != nil {
		t.Fatalf("SigningKeyFromSeed: %v", err)
	}
	b, err := SigningKeyFromSeed(seed)
	if err != nil {
		t.Fatalf("SigningKeyFromSeed: %v", err)
	}
	if !a.Public().Equal(b.Public()) {
		t.Fatal("same seed produced different keys")
	}
	if _, err := SigningKeyFromSeed(seed[:5]); err == nil {
		t.Fatal("short seed accepted")
	}
}

func TestVerifyKeyBytesRoundTrip(t *testing.T) {
	sk, _ := NewSigningKey()
	vk := sk.Public()
	rebuilt, err := VerifyKeyFromBytes(vk.Bytes())
	if err != nil {
		t.Fatalf("VerifyKeyFromBytes: %v", err)
	}
	if !rebuilt.Equal(vk) {
		t.Fatal("round-tripped verify key differs")
	}
	msg := []byte("hello")
	if err := rebuilt.Verify(msg, sk.Sign(msg)); err != nil {
		t.Fatalf("Verify with rebuilt key: %v", err)
	}
	if _, err := VerifyKeyFromBytes([]byte("short")); err == nil {
		t.Fatal("short verify key accepted")
	}
}

func TestDeriveKeyPurposeSeparation(t *testing.T) {
	master, _ := NewSymmetricKey()
	a := DeriveKey(master, "doc-enc", "doc-1")
	b := DeriveKey(master, "doc-enc", "doc-2")
	c := DeriveKey(master, "metadata", "doc-1")
	d := DeriveKey(master, "doc-enc", "doc-1")
	if a == b || a == c || b == c {
		t.Fatal("derived keys for different purposes/contexts collide")
	}
	if a != d {
		t.Fatal("derivation is not deterministic")
	}
	if a == master {
		t.Fatal("derived key equals master")
	}
}

func TestDeriveKeyNDistinct(t *testing.T) {
	master, _ := NewSymmetricKey()
	seen := make(map[SymmetricKey]bool)
	for i := uint64(0); i < 100; i++ {
		k := DeriveKeyN(master, "epoch", i)
		if seen[k] {
			t.Fatalf("epoch key collision at %d", i)
		}
		seen[k] = true
	}
}

func TestKeyHierarchy(t *testing.T) {
	master, _ := NewSymmetricKey()
	h := NewKeyHierarchy(master)
	keys := []SymmetricKey{
		h.DocumentKey("doc-1"),
		h.DocumentKey("doc-2"),
		h.MetadataKey(),
	}
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if keys[i] == keys[j] {
				t.Fatalf("key %d and %d collide", i, j)
			}
		}
	}
	// Deterministic: a second hierarchy over the same master yields same keys.
	h2 := NewKeyHierarchy(master)
	if h.DocumentKey("doc-1") != h2.DocumentKey("doc-1") {
		t.Fatal("hierarchy not deterministic")
	}
}

func TestHMACVerify(t *testing.T) {
	k, _ := NewSymmetricKey()
	data := []byte("some payload")
	mac := HMAC(k, data)
	if !VerifyHMAC(k, data, mac) {
		t.Fatal("valid MAC rejected")
	}
	if VerifyHMAC(k, []byte("other payload"), mac) {
		t.Fatal("MAC accepted for different data")
	}
	other, _ := NewSymmetricKey()
	if VerifyHMAC(other, data, mac) {
		t.Fatal("MAC accepted under different key")
	}
}

func TestRandomBytesLength(t *testing.T) {
	for _, n := range []int{0, 1, 16, 1024} {
		b, err := RandomBytes(n)
		if err != nil {
			t.Fatalf("RandomBytes(%d): %v", n, err)
		}
		if len(b) != n {
			t.Fatalf("RandomBytes(%d) returned %d bytes", n, len(b))
		}
	}
}

func TestHashDeterministic(t *testing.T) {
	a := Hash([]byte("x"))
	b := Hash([]byte("x"))
	c := Hash([]byte("y"))
	if !bytes.Equal(a, b) {
		t.Fatal("hash not deterministic")
	}
	if bytes.Equal(a, c) {
		t.Fatal("hash collision on different inputs")
	}
	if HashString([]byte("x")) == HashString([]byte("y")) {
		t.Fatal("hash string collision")
	}
}

// Property: derived keys never equal the master and are deterministic.
func TestDeriveKeyProperties(t *testing.T) {
	master, _ := NewSymmetricKey()
	f := func(purpose, context string) bool {
		k1 := DeriveKey(master, purpose, context)
		k2 := DeriveKey(master, purpose, context)
		return k1 == k2 && k1 != master
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: purpose/context boundary cannot be confused (purpose "a"+context
// "bc" differs from purpose "ab"+context "c").
func TestDeriveKeyNoAmbiguity(t *testing.T) {
	master, _ := NewSymmetricKey()
	a := DeriveKey(master, "a", "bc")
	b := DeriveKey(master, "ab", "c")
	if a == b {
		t.Fatal("purpose/context concatenation is ambiguous")
	}
}
