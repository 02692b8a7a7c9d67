package crypto

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// This file implements the two secret-sharing flavours of the system:
//
//   - Additive shares over a large prime field, used for the commons secure
//     sum (each cell splits its contribution into one share per aggregator;
//     the sum of shares equals the secret).
//   - Shamir threshold shares, used for master-secret recovery ("master
//     secrets must be restorable in case of crash/loss of a trusted cell").

// shareModulus is a 127-bit prime (2^127 - 1, a Mersenne prime). All additive
// shares are taken modulo this prime, which comfortably holds 64-bit counters
// summed over millions of cells.
var shareModulus = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 127), big.NewInt(1))

// ErrNotEnoughShares indicates a reconstruction attempt below the threshold.
var ErrNotEnoughShares = errors.New("crypto: not enough shares to reconstruct secret")

// AdditiveShares splits value into n shares that sum to value modulo the
// share modulus. Any n-1 shares reveal nothing about the value.
func AdditiveShares(value uint64, n int) ([]*big.Int, error) {
	if n <= 0 {
		return nil, fmt.Errorf("crypto: additive shares: n must be positive, got %d", n)
	}
	shares := make([]*big.Int, n)
	sum := new(big.Int)
	for i := 0; i < n-1; i++ {
		r, err := rand.Int(rand.Reader, shareModulus)
		if err != nil {
			return nil, fmt.Errorf("crypto: additive shares: %w", err)
		}
		shares[i] = r
		sum.Add(sum, r)
		sum.Mod(sum, shareModulus)
	}
	last := new(big.Int).SetUint64(value)
	last.Sub(last, sum)
	last.Mod(last, shareModulus)
	shares[n-1] = last
	return shares, nil
}

// CombineAggregates adds per-aggregator totals modulo the share modulus and
// reduces the result to a uint64 sum of the original values. It is valid as
// long as the true sum fits in 64 bits, which the commons protocol
// guarantees by clamping contributions.
func CombineAggregates(totals []*big.Int) uint64 {
	sum := new(big.Int)
	for _, t := range totals {
		sum.Add(sum, t)
		sum.Mod(sum, shareModulus)
	}
	return sum.Uint64()
}

// ShareModulus returns a copy of the prime modulus, exposed for tests.
func ShareModulus() *big.Int { return new(big.Int).Set(shareModulus) }

// ShamirShare is one point of a Shamir polynomial.
type ShamirShare struct {
	X byte
	Y []byte // same length as the secret
}

// SplitSecret splits secret into n Shamir shares with reconstruction
// threshold k, working byte-wise over GF(256).
func SplitSecret(secret []byte, n, k int) ([]ShamirShare, error) {
	if k < 2 || n < k || n > 255 {
		return nil, fmt.Errorf("crypto: split secret: invalid parameters n=%d k=%d", n, k)
	}
	shares := make([]ShamirShare, n)
	for i := range shares {
		shares[i] = ShamirShare{X: byte(i + 1), Y: make([]byte, len(secret))}
	}
	coeffs := make([]byte, k-1)
	for byteIdx, s := range secret {
		if _, err := io.ReadFull(rand.Reader, coeffs); err != nil {
			return nil, fmt.Errorf("crypto: split secret: %w", err)
		}
		for i := range shares {
			x := shares[i].X
			// Evaluate polynomial s + c1*x + c2*x^2 + ... via Horner.
			y := byte(0)
			for j := len(coeffs) - 1; j >= 0; j-- {
				y = gfMul(y, x) ^ coeffs[j]
			}
			y = gfMul(y, x) ^ s
			shares[i].Y[byteIdx] = y
		}
	}
	return shares, nil
}

// RecoverSecret reconstructs the secret from at least k shares.
func RecoverSecret(shares []ShamirShare, k int) ([]byte, error) {
	if len(shares) < k {
		return nil, ErrNotEnoughShares
	}
	use := shares[:k]
	length := len(use[0].Y)
	for _, s := range use {
		if len(s.Y) != length {
			return nil, errors.New("crypto: recover secret: inconsistent share lengths")
		}
	}
	secret := make([]byte, length)
	for byteIdx := 0; byteIdx < length; byteIdx++ {
		var val byte
		for i := range use {
			num, den := byte(1), byte(1)
			for j := range use {
				if i == j {
					continue
				}
				num = gfMul(num, use[j].X)
				den = gfMul(den, use[i].X^use[j].X)
			}
			if den == 0 {
				return nil, errors.New("crypto: recover secret: duplicate share x-coordinates")
			}
			lagrange := gfMul(num, gfInv(den))
			val ^= gfMul(use[i].Y[byteIdx], lagrange)
		}
		secret[byteIdx] = val
	}
	return secret, nil
}

// GF(256) arithmetic with the AES polynomial 0x11b.

func gfMul(a, b byte) byte {
	var p byte
	for b > 0 {
		if b&1 == 1 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1b
		}
		b >>= 1
	}
	return p
}

func gfInv(a byte) byte {
	if a == 0 {
		return 0
	}
	// a^254 = a^-1 in GF(256).
	result := byte(1)
	base := a
	exp := 254
	for exp > 0 {
		if exp&1 == 1 {
			result = gfMul(result, base)
		}
		base = gfMul(base, base)
		exp >>= 1
	}
	return result
}
