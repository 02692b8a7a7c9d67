package crypto

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestSealOpenRoundTrip(t *testing.T) {
	key, _ := NewSymmetricKey()
	pt := []byte("the secret life of Alice")
	ad := []byte("owner=alice;doc=1")
	sealed, err := Seal(key, pt, ad)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	got, gotAD, err := Open(key, sealed)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatalf("plaintext mismatch: %q != %q", got, pt)
	}
	if !bytes.Equal(gotAD, ad) {
		t.Fatalf("associated data mismatch: %q != %q", gotAD, ad)
	}
}

func TestOpenWrongKeyFails(t *testing.T) {
	key, _ := NewSymmetricKey()
	other, _ := NewSymmetricKey()
	sealed, _ := Seal(key, []byte("data"), nil)
	if _, _, err := Open(other, sealed); err == nil {
		t.Fatal("decryption with wrong key succeeded")
	}
}

func TestOpenDetectsTampering(t *testing.T) {
	key, _ := NewSymmetricKey()
	sealed, _ := Seal(key, []byte("payload payload payload"), []byte("ad"))
	for i := 0; i < len(sealed); i += 7 {
		mutated := make([]byte, len(sealed))
		copy(mutated, sealed)
		mutated[i] ^= 0x01
		if _, _, err := Open(key, mutated); err == nil {
			t.Fatalf("tampering at byte %d not detected", i)
		}
	}
}

func TestOpenTruncated(t *testing.T) {
	key, _ := NewSymmetricKey()
	sealed, _ := Seal(key, []byte("payload"), []byte("ad"))
	for _, n := range []int{0, 1, 5, len(sealed) - 1} {
		if _, _, err := Open(key, sealed[:n]); err == nil {
			t.Fatalf("truncated envelope of %d bytes accepted", n)
		}
	}
}

func TestSealEmptyPlaintextAndAD(t *testing.T) {
	key, _ := NewSymmetricKey()
	sealed, err := Seal(key, nil, nil)
	if err != nil {
		t.Fatalf("Seal empty: %v", err)
	}
	pt, ad, err := Open(key, sealed)
	if err != nil {
		t.Fatalf("Open empty: %v", err)
	}
	if len(pt) != 0 || len(ad) != 0 {
		t.Fatalf("expected empty plaintext and AD, got %d/%d bytes", len(pt), len(ad))
	}
}

func TestEnvelopeNonceUniqueness(t *testing.T) {
	key, _ := NewSymmetricKey()
	a, _ := Seal(key, []byte("same"), nil)
	b, _ := Seal(key, []byte("same"), nil)
	if bytes.Equal(a, b) {
		t.Fatal("two seals of identical plaintext produced identical ciphertexts")
	}
}

func TestEnvelopeOverhead(t *testing.T) {
	key, _ := NewSymmetricKey()
	ad := []byte("context-string")
	pt := []byte("0123456789")
	sealed, _ := Seal(key, pt, ad)
	if got, want := len(sealed)-len(pt), EnvelopeOverhead(len(ad)); got != want {
		t.Fatalf("overhead %d, EnvelopeOverhead reports %d", got, want)
	}
}

// Property-based: Seal/Open round-trips arbitrary payloads and AD.
func TestSealOpenProperty(t *testing.T) {
	key, _ := NewSymmetricKey()
	f := func(pt, ad []byte) bool {
		sealed, err := Seal(key, pt, ad)
		if err != nil {
			return false
		}
		got, gotAD, err := Open(key, sealed)
		if err != nil {
			return false
		}
		return bytes.Equal(got, pt) && bytes.Equal(gotAD, ad)
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSeal1KiB(b *testing.B) {
	key, _ := NewSymmetricKey()
	pt := make([]byte, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Seal(key, pt, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpen1KiB(b *testing.B) {
	key, _ := NewSymmetricKey()
	pt := make([]byte, 1024)
	sealed, _ := Seal(key, pt, nil)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Open(key, sealed); err != nil {
			b.Fatal(err)
		}
	}
}
