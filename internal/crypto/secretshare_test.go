package crypto

import (
	"bytes"
	"math/big"
	"testing"
	"testing/quick"
)

func TestAdditiveSharesSumToValue(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 100} {
		shares, err := AdditiveShares(123456789, n)
		if err != nil {
			t.Fatalf("AdditiveShares(n=%d): %v", n, err)
		}
		if len(shares) != n {
			t.Fatalf("expected %d shares, got %d", n, len(shares))
		}
		sum := CombineAggregates(shares)
		if sum != 123456789 {
			t.Fatalf("n=%d: shares sum to %v, want 123456789", n, sum)
		}
	}
}

func TestAdditiveSharesInvalidN(t *testing.T) {
	if _, err := AdditiveShares(1, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := AdditiveShares(1, -3); err == nil {
		t.Fatal("negative n accepted")
	}
}

func TestAdditiveSharesHideValue(t *testing.T) {
	// With n=2, a single share should essentially never equal the secret
	// (probability ~2^-127); check across several draws.
	for i := 0; i < 20; i++ {
		shares, err := AdditiveShares(42, 2)
		if err != nil {
			t.Fatal(err)
		}
		if shares[0].Cmp(big.NewInt(42)) == 0 && shares[1].Sign() == 0 {
			t.Fatal("share trivially reveals the secret")
		}
	}
}

func TestCombineAggregates(t *testing.T) {
	// Three cells, two aggregators: aggregator totals must recombine to the
	// global sum.
	values := []uint64{10, 20, 12}
	aggTotals := []*big.Int{new(big.Int), new(big.Int)}
	for _, v := range values {
		shares, err := AdditiveShares(v, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range shares {
			aggTotals[i].Add(aggTotals[i], s)
			aggTotals[i].Mod(aggTotals[i], ShareModulus())
		}
	}
	if got := CombineAggregates(aggTotals); got != 42 {
		t.Fatalf("combined aggregate = %d, want 42", got)
	}
}

func TestAdditiveSharesProperty(t *testing.T) {
	f := func(v uint64, nRaw uint8) bool {
		n := int(nRaw%16) + 1
		shares, err := AdditiveShares(v, n)
		if err != nil {
			return false
		}
		return CombineAggregates(shares) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitRecoverSecret(t *testing.T) {
	secret := []byte("master secret of Alice's home gateway")
	shares, err := SplitSecret(secret, 5, 3)
	if err != nil {
		t.Fatalf("SplitSecret: %v", err)
	}
	if len(shares) != 5 {
		t.Fatalf("expected 5 shares, got %d", len(shares))
	}
	got, err := RecoverSecret(shares[1:4], 3)
	if err != nil {
		t.Fatalf("RecoverSecret: %v", err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatalf("recovered %q, want %q", got, secret)
	}
	// Any 3 of 5 shares work.
	got, err = RecoverSecret([]ShamirShare{shares[0], shares[2], shares[4]}, 3)
	if err != nil {
		t.Fatalf("RecoverSecret subset: %v", err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatal("recovery from non-contiguous subset failed")
	}
}

func TestRecoverSecretBelowThreshold(t *testing.T) {
	secret := []byte("short")
	shares, _ := SplitSecret(secret, 4, 3)
	if _, err := RecoverSecret(shares[:2], 3); err != ErrNotEnoughShares {
		t.Fatalf("expected ErrNotEnoughShares, got %v", err)
	}
}

func TestSplitSecretParameterValidation(t *testing.T) {
	secret := []byte("x")
	cases := []struct{ n, k int }{{1, 2}, {3, 1}, {2, 3}, {300, 2}}
	for _, c := range cases {
		if _, err := SplitSecret(secret, c.n, c.k); err == nil {
			t.Fatalf("SplitSecret(n=%d,k=%d) accepted", c.n, c.k)
		}
	}
}

func TestSplitSecretEmpty(t *testing.T) {
	shares, err := SplitSecret([]byte{}, 3, 2)
	if err != nil {
		t.Fatalf("SplitSecret empty: %v", err)
	}
	got, err := RecoverSecret(shares, 2)
	if err != nil {
		t.Fatalf("RecoverSecret empty: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("expected empty secret, got %d bytes", len(got))
	}
}

func TestGFInverse(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := gfInv(byte(a))
		if gfMul(byte(a), inv) != 1 {
			t.Fatalf("gfInv(%d) = %d is not an inverse", a, inv)
		}
	}
	if gfInv(0) != 0 {
		t.Fatal("gfInv(0) should be 0 by convention")
	}
}

func TestShamirProperty(t *testing.T) {
	f := func(secret []byte) bool {
		if len(secret) > 64 {
			secret = secret[:64]
		}
		shares, err := SplitSecret(secret, 6, 4)
		if err != nil {
			return false
		}
		got, err := RecoverSecret(shares[2:6], 4)
		if err != nil {
			return false
		}
		return bytes.Equal(got, secret)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAdditiveShares10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := AdditiveShares(uint64(i), 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShamirSplit32B(b *testing.B) {
	secret := make([]byte, 32)
	for i := 0; i < b.N; i++ {
		if _, err := SplitSecret(secret, 5, 3); err != nil {
			b.Fatal(err)
		}
	}
}
