package crypto

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func makeLeaves(n int) [][]byte {
	leaves := make([][]byte, n)
	for i := range leaves {
		leaves[i] = []byte(fmt.Sprintf("blob-%04d", i))
	}
	return leaves
}

func TestMerkleRootDeterministic(t *testing.T) {
	leaves := makeLeaves(7)
	a := NewMerkleTree(leaves).Root()
	b := NewMerkleTree(leaves).Root()
	if !bytes.Equal(a, b) {
		t.Fatal("same leaves yield different roots")
	}
	leaves[3] = []byte("tampered")
	c := NewMerkleTree(leaves).Root()
	if bytes.Equal(a, c) {
		t.Fatal("modified leaf did not change the root")
	}
}

func TestMerkleProofAllLeaves(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 9, 16, 33} {
		leaves := makeLeaves(n)
		tree := NewMerkleTree(leaves)
		root := tree.Root()
		for i := 0; i < n; i++ {
			proof, err := tree.proof(i)
			if err != nil {
				t.Fatalf("n=%d Proof(%d): %v", n, i, err)
			}
			if err := verifyProof(root, leaves[i], proof); err != nil {
				t.Fatalf("n=%d leaf %d: proof rejected: %v", n, i, err)
			}
			// Proof must not verify for a different leaf value.
			if err := verifyProof(root, []byte("forged"), proof); err == nil {
				t.Fatalf("n=%d leaf %d: forged leaf accepted", n, i)
			}
		}
	}
}

func TestMerkleProofOutOfRange(t *testing.T) {
	tree := NewMerkleTree(makeLeaves(4))
	if _, err := tree.proof(-1); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := tree.proof(4); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestMerkleEmpty(t *testing.T) {
	tree := NewMerkleTree(nil)
	if len(tree.levels[0]) != 1 {
		t.Fatalf("empty tree should have a single sentinel leaf, got %d", len(tree.levels[0]))
	}
	if len(tree.Root()) == 0 {
		t.Fatal("empty tree has empty root")
	}
}

func TestMerkleSecondPreimageResistanceShape(t *testing.T) {
	// A tree over [a,b] must not share a root with a single leaf equal to
	// hash(a)||hash(b) — domain separation between leaves and nodes.
	leaves := makeLeaves(2)
	tree := NewMerkleTree(leaves)
	concat := append(hashLeaf(leaves[0]), hashLeaf(leaves[1])...)
	fake := NewMerkleTree([][]byte{concat})
	if bytes.Equal(tree.Root(), fake.Root()) {
		t.Fatal("leaf/node domain separation missing")
	}
}

func TestHashChainAppend(t *testing.T) {
	c := NewHashChain()
	if c.n != 0 {
		t.Fatalf("fresh chain has length %d", c.n)
	}
	h1 := c.Append([]byte("entry-1"))
	h2 := c.Append([]byte("entry-2"))
	if bytes.Equal(h1, h2) {
		t.Fatal("chain head did not change after append")
	}
	if c.n != 2 {
		t.Fatalf("chain length = %d, want 2", c.n)
	}
	if !bytes.Equal(c.Head(), h2) {
		t.Fatal("Head() does not match the last append result")
	}
}

func TestHashChainVerify(t *testing.T) {
	payloads := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	c := NewHashChain()
	for _, p := range payloads {
		c.Append(p)
	}
	if !verifyChain(payloads, c.Head()) {
		t.Fatal("valid chain rejected")
	}
	tampered := [][]byte{[]byte("a"), []byte("X"), []byte("c")}
	if verifyChain(tampered, c.Head()) {
		t.Fatal("tampered chain accepted")
	}
	reordered := [][]byte{[]byte("b"), []byte("a"), []byte("c")}
	if verifyChain(reordered, c.Head()) {
		t.Fatal("reordered chain accepted")
	}
	truncated := payloads[:2]
	if verifyChain(truncated, c.Head()) {
		t.Fatal("truncated chain accepted")
	}
}

func TestResumeHashChain(t *testing.T) {
	c := NewHashChain()
	c.Append([]byte("a"))
	c.Append([]byte("b"))
	resumed := resumeHashChain(c.Head(), c.n)
	h1 := resumed.Append([]byte("c"))
	c.Append([]byte("c"))
	if !bytes.Equal(h1, c.Head()) {
		t.Fatal("resumed chain diverges from original")
	}
	if resumed.n != 3 {
		t.Fatalf("resumed length = %d, want 3", resumed.n)
	}
}

func TestMerkleProperty(t *testing.T) {
	f := func(raw [][]byte) bool {
		if len(raw) == 0 || len(raw) > 64 {
			return true
		}
		tree := NewMerkleTree(raw)
		root := tree.Root()
		for i := range raw {
			proof, err := tree.proof(i)
			if err != nil {
				return false
			}
			if err := verifyProof(root, raw[i], proof); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMerkleBuild1000(b *testing.B) {
	leaves := makeLeaves(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewMerkleTree(leaves)
	}
}

func BenchmarkMerkleProofVerify(b *testing.B) {
	leaves := makeLeaves(1024)
	tree := NewMerkleTree(leaves)
	root := tree.Root()
	proof, _ := tree.proof(511)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := verifyProof(root, leaves[511], proof); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMerkleSingleLeaf(t *testing.T) {
	leaf := []byte("only")
	tree := NewMerkleTree([][]byte{leaf})
	if got := len(tree.levels[0]); got != 1 {
		t.Fatalf("NumLeaves = %d, want 1", got)
	}
	// A single-leaf tree's root is the leaf hash and its proof is empty.
	if !bytes.Equal(tree.Root(), hashLeaf(leaf)) {
		t.Fatal("single-leaf root is not the leaf hash")
	}
	proof, err := tree.proof(0)
	if err != nil {
		t.Fatalf("Proof(0): %v", err)
	}
	if len(proof) != 0 {
		t.Fatalf("single-leaf proof has %d steps, want 0", len(proof))
	}
	if err := verifyProof(tree.Root(), leaf, proof); err != nil {
		t.Fatalf("single-leaf proof rejected: %v", err)
	}
	if err := verifyProof(tree.Root(), []byte("other"), proof); err == nil {
		t.Fatal("single-leaf proof accepted a different leaf")
	}
}

func TestMerkleEmptyTreeProof(t *testing.T) {
	// The empty tree is a single sentinel (nil) leaf: it must be provable,
	// and distinguishable from a tree over one empty-but-present leaf set
	// sibling shapes.
	tree := NewMerkleTree(nil)
	proof, err := tree.proof(0)
	if err != nil {
		t.Fatalf("Proof(0) on empty tree: %v", err)
	}
	if err := verifyProof(tree.Root(), nil, proof); err != nil {
		t.Fatalf("empty-tree sentinel proof rejected: %v", err)
	}
	if _, err := tree.proof(1); err == nil {
		t.Fatal("empty tree accepted a proof index past the sentinel")
	}
	if bytes.Equal(tree.Root(), NewMerkleTree(makeLeaves(1)).Root()) {
		t.Fatal("empty tree shares a root with a non-empty tree")
	}
}

func TestMerkleOddLeafSelfPairing(t *testing.T) {
	// With an odd level the last node is promoted by pairing with itself:
	// the root over [a,b,c] must equal hash(hash(a,b), hash(c,c)).
	leaves := makeLeaves(3)
	tree := NewMerkleTree(leaves)
	ab := hashNode(hashLeaf(leaves[0]), hashLeaf(leaves[1]))
	cc := hashNode(hashLeaf(leaves[2]), hashLeaf(leaves[2]))
	if !bytes.Equal(tree.Root(), hashNode(ab, cc)) {
		t.Fatal("odd-leaf promotion does not self-pair")
	}
	// The odd leaf's proof carries itself as its sibling and still verifies.
	proof, err := tree.proof(2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(proof[0].Hash, hashLeaf(leaves[2])) || !proof[0].Right {
		t.Fatalf("odd leaf's first sibling should be itself on the right: %+v", proof[0])
	}
	if err := verifyProof(tree.Root(), leaves[2], proof); err != nil {
		t.Fatalf("odd-leaf proof rejected: %v", err)
	}
	// Self-pairing must not make [a,b,c] collide with [a,b,c,c].
	padded := NewMerkleTree(append(makeLeaves(3), leaves[2]))
	if !bytes.Equal(tree.Root(), padded.Root()) {
		// This is the documented shape of the promotion rule: [a,b,c] and
		// [a,b,c,c] do share a root, so a root alone does not pin the leaf
		// count. MerkleRootOf's comment says what its callers rely on instead.
		t.Fatal("promotion shape changed: [a,b,c] no longer matches [a,b,c,c]")
	}
	if len(tree.levels[0]) == len(padded.levels[0]) {
		t.Fatal("leaf count failed to distinguish promoted from padded tree")
	}
}

func TestMerkleRootOfMatchesTree(t *testing.T) {
	for n := 0; n <= 300; n++ {
		leaves := makeLeaves(n)
		hashes := make([][32]byte, n)
		for i, l := range leaves {
			hashes[i] = MerkleLeaf(l)
		}
		if got := MerkleRootOf(hashes); !bytes.Equal(got[:], NewMerkleTree(leaves).Root()) {
			t.Fatalf("n=%d: MerkleRootOf differs from NewMerkleTree's root", n)
		}
	}
}

func TestMerkleRootOfAllocatesNothing(t *testing.T) {
	leaves := makeLeaves(157)
	hashes := make([][32]byte, len(leaves))
	allocs := testing.AllocsPerRun(20, func() {
		for i, l := range leaves {
			hashes[i] = MerkleLeaf(l)
		}
		MerkleRootOf(hashes)
	})
	if allocs != 0 {
		t.Fatalf("MerkleLeaf + MerkleRootOf over %d leaves: %.1f allocations, want 0", len(leaves), allocs)
	}
}

// TestMerkleHashTreeMatchesRootOf holds the incremental tree to MerkleRootOf
// for 0 to 300 leaves: once built, then after each of several rounds of Set
// calls, which repeat leaves and rewrite some with the hash they already hold.
func TestMerkleHashTreeMatchesRootOf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rootOf := func(leaves [][32]byte) [32]byte { return MerkleRootOf(slices.Clone(leaves)) }
	for n := 0; n <= 300; n++ {
		leaves := make([][32]byte, n)
		for i, l := range makeLeaves(n) {
			leaves[i] = MerkleLeaf(l)
		}
		want := rootOf(leaves)
		tree := NewMerkleHashTree(slices.Clone(leaves))
		if got := tree.Root(); got != want {
			t.Fatalf("n=%d: built root differs from MerkleRootOf", n)
		}
		for round := 0; n > 0 && round < 4; round++ {
			for k := rng.Intn(n) + 1; k > 0; k-- {
				i := rng.Intn(n)
				if rng.Intn(4) > 0 {
					leaves[i] = MerkleLeaf([]byte(fmt.Sprintf("r%d-%d", round, k)))
				}
				tree.Set(i, leaves[i])
			}
			if got, want := tree.Root(), rootOf(leaves); got != want {
				t.Fatalf("n=%d round %d: root after Set differs from MerkleRootOf", n, round)
			}
		}
	}
}

// FuzzMerkleProof drives arbitrary leaf sets through build/prove/verify: a
// genuine proof must verify, a proof with any bit of any step flipped must
// fail, and a different leaf value must fail against the genuine proof.
func FuzzMerkleProof(f *testing.F) {
	f.Add([]byte("seed-corpus-blob"), uint8(5), uint8(2), uint16(9))
	f.Add([]byte{}, uint8(1), uint8(0), uint16(0))
	f.Add([]byte{0xff, 0x00, 0xff}, uint8(33), uint8(32), uint16(255))
	f.Fuzz(func(t *testing.T, data []byte, n, idx uint8, flip uint16) {
		leaves := make([][]byte, int(n%64)+1)
		for i := range leaves {
			end := len(data) * (i + 1) / len(leaves)
			leaves[i] = data[len(data)*i/len(leaves) : end]
		}
		tree := NewMerkleTree(leaves)
		root := tree.Root()
		i := int(idx) % len(leaves)
		proof, err := tree.proof(i)
		if err != nil {
			t.Fatalf("Proof(%d) of %d leaves: %v", i, len(leaves), err)
		}
		if err := verifyProof(root, leaves[i], proof); err != nil {
			t.Fatalf("genuine proof rejected: %v", err)
		}
		forged := append(append([]byte{}, leaves[i]...), 0xA5)
		if err := verifyProof(root, forged, proof); err == nil {
			t.Fatal("forged leaf accepted under genuine proof")
		}
		if len(proof) > 0 {
			step := int(flip) % len(proof)
			bit := int(flip) % (len(proof[step].Hash) * 8)
			proof[step].Hash[bit/8] ^= 1 << (bit % 8)
			if err := verifyProof(root, leaves[i], proof); err == nil {
				t.Fatal("bit-flipped proof step accepted")
			}
		}
	})
}
