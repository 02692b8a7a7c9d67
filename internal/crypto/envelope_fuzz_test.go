package crypto

import (
	"bytes"
	"testing"
)

// fuzzKey derives a deterministic key from one fuzz byte, so the fuzzer can
// explore key-dependent behavior without carrying 32 bytes of input.
func fuzzKey(b byte) SymmetricKey {
	var master SymmetricKey
	master[0] = b
	return DeriveKeyN(master, "fuzz-envelope", uint64(b))
}

// FuzzSealOpenRoundTrip drives arbitrary plaintext/associated-data pairs
// through both envelope implementations and checks that (1) every seal opens
// back to the same bytes on either implementation, and (2) single-byte
// corruption and truncation are always rejected.
func FuzzSealOpenRoundTrip(f *testing.F) {
	f.Add([]byte("payload"), []byte("owner=alice;doc=1"), byte(0))
	f.Add([]byte{}, []byte{}, byte(7))
	f.Add(bytes.Repeat([]byte{0xAA}, 1024), []byte("long associated data value"), byte(255))
	f.Add([]byte("x"), []byte(nil), byte(42))

	f.Fuzz(func(t *testing.T, pt, ad []byte, keyByte byte) {
		key := fuzzKey(keyByte)
		fast, err := Seal(key, pt, ad)
		if err != nil {
			t.Fatalf("Seal: %v", err)
		}
		legacy, err := sealLegacy(key, pt, ad)
		if err != nil {
			t.Fatalf("sealLegacy: %v", err)
		}
		for _, sealed := range [][]byte{fast, legacy} {
			gotPT, gotAD, err := Open(key, sealed)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if !bytes.Equal(gotPT, pt) || !bytes.Equal(gotAD, ad) {
				t.Fatalf("round trip mismatch: pt %d/%d bytes, ad %d/%d bytes",
					len(gotPT), len(pt), len(gotAD), len(ad))
			}
			lPT, lAD, err := openLegacy(key, sealed)
			if err != nil {
				t.Fatalf("openLegacy: %v", err)
			}
			if !bytes.Equal(lPT, pt) || !bytes.Equal(lAD, ad) {
				t.Fatal("legacy open disagrees with fast open")
			}

			// Corruption at a position derived from the input must be caught.
			mutated := append([]byte(nil), sealed...)
			pos := (len(pt) + len(ad) + int(keyByte)) % len(mutated)
			mutated[pos] ^= 0x01
			if _, _, err := Open(key, mutated); err == nil {
				t.Fatalf("corruption at byte %d not detected", pos)
			}
			// Truncation must be caught.
			if _, _, err := Open(key, sealed[:len(sealed)-1]); err == nil {
				t.Fatal("truncated envelope accepted")
			}
		}
	})
}

// FuzzEnvelopeOpen feeds arbitrary bytes to both Open implementations: they
// must never panic, must reject garbage, and must agree with each other on
// success and on the decoded contents (differential fuzzing of the fast path
// against the seed implementation).
func FuzzEnvelopeOpen(f *testing.F) {
	key := fuzzKey(3)
	valid, _ := Seal(key, []byte("seed corpus plaintext"), []byte("seed-ad"))
	f.Add(valid, byte(3))
	f.Add(valid[:len(valid)-5], byte(3))
	f.Add([]byte{}, byte(3))
	f.Add([]byte{envelopeVersion}, byte(3))
	f.Add(bytes.Repeat([]byte{0xFF}, 64), byte(9))
	// Header claiming more associated data than the envelope holds.
	f.Add(append([]byte{envelopeVersion}, bytes.Repeat([]byte{0xFF}, 20)...), byte(3))

	f.Fuzz(func(t *testing.T, data []byte, keyByte byte) {
		k := fuzzKey(keyByte)
		fastPT, fastAD, fastErr := Open(k, data)
		legacyPT, legacyAD, legacyErr := openLegacy(k, data)
		if (fastErr == nil) != (legacyErr == nil) {
			t.Fatalf("implementations disagree: fast err=%v legacy err=%v", fastErr, legacyErr)
		}
		if fastErr == nil {
			if !bytes.Equal(fastPT, legacyPT) || !bytes.Equal(fastAD, legacyAD) {
				t.Fatal("implementations decoded different contents")
			}
		}
	})
}
