package crypto

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestSealToOpenToRoundTrip(t *testing.T) {
	key, _ := NewSymmetricKey()
	pt := []byte("fast path payload")
	ad := []byte("owner=alice;doc=7")

	buf := make([]byte, 0, 256)
	sealed, err := SealTo(buf, key, pt, ad)
	if err != nil {
		t.Fatalf("SealTo: %v", err)
	}
	if len(sealed) != len(pt)+EnvelopeOverhead(len(ad)) {
		t.Fatalf("sealed length %d, want %d", len(sealed), len(pt)+EnvelopeOverhead(len(ad)))
	}
	ptBuf := make([]byte, 0, 256)
	got, gotAD, err := OpenTo(ptBuf, key, sealed)
	if err != nil {
		t.Fatalf("OpenTo: %v", err)
	}
	if !bytes.Equal(got, pt) || !bytes.Equal(gotAD, ad) {
		t.Fatalf("round trip mismatch: %q / %q", got, gotAD)
	}
}

// TestSealToAppends verifies the append contract: existing dst content is
// preserved, and the envelope lands after it.
func TestSealToAppends(t *testing.T) {
	key, _ := NewSymmetricKey()
	prefix := []byte("prefix-")
	sealed, err := SealTo(append([]byte(nil), prefix...), key, []byte("pt"), []byte("ad"))
	if err != nil {
		t.Fatalf("SealTo: %v", err)
	}
	if !bytes.HasPrefix(sealed, prefix) {
		t.Fatalf("prefix clobbered: %q", sealed[:len(prefix)])
	}
	pt, ad, err := Open(key, sealed[len(prefix):])
	if err != nil || string(pt) != "pt" || string(ad) != "ad" {
		t.Fatalf("envelope after prefix does not open: %q %q %v", pt, ad, err)
	}
}

// TestCrossPathCompatibility proves the fast and legacy implementations
// produce interchangeable envelopes: either side opens what the other sealed.
func TestCrossPathCompatibility(t *testing.T) {
	key, _ := NewSymmetricKey()
	pt := []byte("cross-path payload")
	ad := []byte("ad-bytes")

	fast, err := Seal(key, pt, ad)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	legacy, err := sealLegacy(key, pt, ad)
	if err != nil {
		t.Fatalf("sealLegacy: %v", err)
	}
	for name, sealed := range map[string][]byte{"fast": fast, "legacy": legacy} {
		gotPT, gotAD, err := Open(key, sealed)
		if err != nil || !bytes.Equal(gotPT, pt) || !bytes.Equal(gotAD, ad) {
			t.Fatalf("Open(%s): %q %q %v", name, gotPT, gotAD, err)
		}
		gotPT, gotAD, err = openLegacy(key, sealed)
		if err != nil || !bytes.Equal(gotPT, pt) || !bytes.Equal(gotAD, ad) {
			t.Fatalf("openLegacy(%s): %q %q %v", name, gotPT, gotAD, err)
		}
	}
}

func TestSealToZeroAlloc(t *testing.T) {
	key, _ := NewSymmetricKey()
	pt := make([]byte, 1024)
	ad := []byte("alloc-test")
	// Warm the AEAD cache and size the buffers.
	sealed, err := Seal(key, pt, ad)
	if err != nil {
		t.Fatal(err)
	}
	sealBuf := make([]byte, 0, len(sealed)+64)
	ptBuf := make([]byte, 0, len(pt)+64)

	allocs := testing.AllocsPerRun(200, func() {
		out, err := SealTo(sealBuf, key, pt, ad)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := OpenTo(ptBuf, key, out)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(pt) {
			t.Fatal("short plaintext")
		}
	})
	if allocs > 0 {
		t.Fatalf("seal+open fast path allocated %.1f times per op, want 0", allocs)
	}
}

func TestAEADCacheBoundedAndCoherent(t *testing.T) {
	c := NewAEADCache(64)
	master, _ := NewSymmetricKey()
	for i := 0; i < 1000; i++ {
		key := DeriveKey(master, "cache-test", fmt.Sprintf("doc-%d", i))
		if _, err := c.Get(key); err != nil {
			t.Fatalf("Get: %v", err)
		}
	}
	if n := c.Len(); n > 64 {
		t.Fatalf("cache grew to %d entries, cap 64", n)
	}
	hits, misses := c.Stats()
	if misses != 1000 || hits != 0 {
		t.Fatalf("expected 1000 cold misses, got hits=%d misses=%d", hits, misses)
	}
	key := DeriveKey(master, "cache-test", "doc-999")
	if _, err := c.Get(key); err != nil {
		t.Fatal(err)
	}
	if hits, _ := c.Stats(); hits != 1 {
		t.Fatalf("expected a hit on the most recent key, got %d", hits)
	}
}

// TestAEADCacheConcurrent hammers one cache from many goroutines over a small
// key set (run under -race in CI).
func TestAEADCacheConcurrent(t *testing.T) {
	c := NewAEADCache(32)
	master, _ := NewSymmetricKey()
	keys := make([]SymmetricKey, 8)
	for i := range keys {
		keys[i] = DeriveKeyN(master, "concurrent", uint64(i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pt := []byte("concurrent payload")
			for i := 0; i < 200; i++ {
				key := keys[(w+i)%len(keys)]
				aead, err := c.Get(key)
				if err != nil {
					t.Error(err)
					return
				}
				_ = aead.Overhead()
				sealed, err := Seal(key, pt, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if _, _, err := Open(key, sealed); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestNonceSourceUnique(t *testing.T) {
	seen := make(map[string]bool)
	var n [gcmNonceSize]byte
	for i := 0; i < 1000; i++ {
		if err := nonces.next(n[:]); err != nil {
			t.Fatalf("nonce: %v", err)
		}
		if seen[string(n[:])] {
			t.Fatalf("duplicate nonce after %d draws", i)
		}
		seen[string(n[:])] = true
	}
}

func TestBufPoolRecycles(t *testing.T) {
	var p BufPool
	b := p.Get()
	*b = append(*b, make([]byte, 2048)...)
	p.Put(b)
	b2 := p.Get()
	if len(*b2) != 0 {
		t.Fatalf("pooled buffer not reset: len %d", len(*b2))
	}
	// Oversized buffers are dropped rather than pinned.
	huge := make([]byte, 0, maxPooledBufCap+1)
	p.Put(&huge)
}

func TestHashMatchesHex(t *testing.T) {
	data := []byte("hash me")
	if !HashMatchesHex(data, HashString(data)) {
		t.Fatal("digest of data should match")
	}
	if HashMatchesHex(data, HashString([]byte("other"))) {
		t.Fatal("digest of other data should not match")
	}
	if HashMatchesHex(data, "short") {
		t.Fatal("malformed digest should not match")
	}
}

func BenchmarkSealOpenLegacy1KiB(b *testing.B) {
	key, _ := NewSymmetricKey()
	pt := make([]byte, 1024)
	b.SetBytes(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sealed, err := sealLegacy(key, pt, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := openLegacy(key, sealed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSealOpenFast1KiB(b *testing.B) {
	key, _ := NewSymmetricKey()
	pt := make([]byte, 1024)
	sealBuf := make([]byte, 0, 2048)
	ptBuf := make([]byte, 0, 2048)
	b.SetBytes(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sealed, err := SealTo(sealBuf, key, pt, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := OpenTo(ptBuf, key, sealed); err != nil {
			b.Fatal(err)
		}
	}
}
