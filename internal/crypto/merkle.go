package crypto

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"slices"
)

// Merkle trees are used by cells to verify the integrity of collections of
// blobs stored on the untrusted cloud without downloading every blob, and by
// the audit subsystem to commit to log segments.

// MerkleTree is a binary hash tree over a list of leaves.
type MerkleTree struct {
	levels [][][]byte // levels[0] = leaf hashes, last level = single root
}

// leafPrefix and nodePrefix provide domain separation so a leaf value cannot
// be confused with an interior node (second-preimage hardening).
const (
	leafPrefix = 0x00
	nodePrefix = 0x01
)

// errBadProof reports a Merkle proof that does not verify.
var errBadProof = errors.New("crypto: merkle proof verification failed")

// merkleSum is the one hash of every tree: SHA-256 over a domain prefix and
// the concatenation of a and b. It hashes from a stack buffer, so a node (two
// child hashes) and a leaf of up to 127 bytes cost no allocation.
func merkleSum(prefix byte, a, b []byte) [sha256.Size]byte {
	var buf [128]byte
	return sha256.Sum256(append(append(append(buf[:0], prefix), a...), b...))
}

func hashLeaf(data []byte) []byte {
	h := merkleSum(leafPrefix, data, nil)
	return h[:]
}

func hashNode(left, right []byte) []byte {
	h := merkleSum(nodePrefix, left, right)
	return h[:]
}

// MerkleLeaf returns the hash NewMerkleTree gives the leaf data.
func MerkleLeaf(data []byte) [sha256.Size]byte { return merkleSum(leafPrefix, data, nil) }

// MerkleRootOf returns the root NewMerkleTree builds over the leaves whose
// MerkleLeaf hashes are given, without building the tree: it reduces the
// hashes in place, so the slice is overwritten, and allocates nothing.
//
// Like the tree, it pairs an odd node with itself, so the leaf lists [a,b,c]
// and [a,b,c,c] share a root. A caller must keep its leaf list free of such
// repeats on its own: the sync shard root is sound only because the shard
// decoder refuses a repeated document key.
func MerkleRootOf(hashes [][sha256.Size]byte) [sha256.Size]byte {
	if len(hashes) == 0 {
		return MerkleLeaf(nil)
	}
	for n := len(hashes); n > 1; n = (n + 1) / 2 {
		for i := 0; i < n; i += 2 {
			j := min(i+1, n-1)
			hashes[i/2] = merkleSum(nodePrefix, hashes[i][:], hashes[j][:])
		}
	}
	return hashes[0]
}

// MerkleHashTree is the tree MerkleRootOf reduces, with every level kept:
// after Set changes k of its n leaf hashes, Root re-hashes only their paths,
// at most k·⌈log2 n⌉ node hashes instead of n-1. Its root equals MerkleRootOf
// over the same leaves, odd-node rule included.
type MerkleHashTree struct {
	levels [][][sha256.Size]byte // levels[0] = leaf hashes, last level = root
	dirty  []int                 // leaves Set to a new hash since the last Root
}

// NewMerkleHashTree builds the tree over the given leaf hashes. It keeps the
// slice as its leaf level, so the caller must not modify it afterwards.
func NewMerkleHashTree(leaves [][sha256.Size]byte) *MerkleHashTree {
	t := &MerkleHashTree{levels: [][][sha256.Size]byte{leaves}}
	for level := leaves; len(level) > 1; {
		next := make([][sha256.Size]byte, (len(level)+1)/2)
		for i := range next {
			next[i] = parentOf(level, i)
		}
		t.levels = append(t.levels, next)
		level = next
	}
	return t
}

// parentOf returns node i of the level above level, pairing an odd last
// node with itself.
func parentOf(level [][sha256.Size]byte, i int) [sha256.Size]byte {
	l := 2 * i
	r := min(l+1, len(level)-1)
	return merkleSum(nodePrefix, level[l][:], level[r][:])
}

// Set replaces leaf i's hash. The path above it is re-hashed by the next Root.
func (t *MerkleHashTree) Set(i int, leaf [sha256.Size]byte) {
	if t.levels[0][i] != leaf {
		t.levels[0][i] = leaf
		t.dirty = append(t.dirty, i)
	}
}

// Root returns the root over the current leaves, re-hashing each node above
// a leaf Set since the last call once.
func (t *MerkleHashTree) Root() [sha256.Size]byte {
	if len(t.levels[0]) == 0 {
		return MerkleLeaf(nil)
	}
	slices.Sort(t.dirty)
	nodes := t.dirty
	for lvl := 1; lvl < len(t.levels); lvl++ {
		// Parents of sorted children come out sorted, so a repeat is always
		// the previous entry.
		n := 0
		for _, i := range nodes {
			if p := i / 2; n == 0 || nodes[n-1] != p {
				nodes[n] = p
				n++
			}
		}
		nodes = nodes[:n]
		for _, p := range nodes {
			t.levels[lvl][p] = parentOf(t.levels[lvl-1], p)
		}
	}
	t.dirty = t.dirty[:0]
	return t.levels[len(t.levels)-1][0]
}

// NewMerkleTree builds a tree over the given leaves. An empty leaf set yields
// a tree whose root is the hash of the empty leaf.
func NewMerkleTree(leaves [][]byte) *MerkleTree {
	if len(leaves) == 0 {
		leaves = [][]byte{nil}
	}
	level := make([][]byte, len(leaves))
	for i, l := range leaves {
		level[i] = hashLeaf(l)
	}
	t := &MerkleTree{levels: [][][]byte{level}}
	for len(level) > 1 {
		next := make([][]byte, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, hashNode(level[i], level[i+1]))
			} else {
				// Odd node is promoted by pairing with itself.
				next = append(next, hashNode(level[i], level[i]))
			}
		}
		t.levels = append(t.levels, next)
		level = next
	}
	return t
}

// Root returns the Merkle root.
func (t *MerkleTree) Root() []byte {
	top := t.levels[len(t.levels)-1]
	out := make([]byte, len(top[0]))
	copy(out, top[0])
	return out
}

// proofStep is one sibling hash in an inclusion proof.
type proofStep struct {
	Hash  []byte
	Right bool // true if the sibling is the right child
}

// proof returns the inclusion proof for leaf index i.
func (t *MerkleTree) proof(i int) ([]proofStep, error) {
	if i < 0 || i >= len(t.levels[0]) {
		return nil, errors.New("crypto: merkle proof: leaf index out of range")
	}
	var proof []proofStep
	idx := i
	for lvl := 0; lvl < len(t.levels)-1; lvl++ {
		level := t.levels[lvl]
		var sib []byte
		var right bool
		if idx%2 == 0 {
			if idx+1 < len(level) {
				sib = level[idx+1]
			} else {
				sib = level[idx]
			}
			right = true
		} else {
			sib = level[idx-1]
			right = false
		}
		step := proofStep{Hash: make([]byte, len(sib)), Right: right}
		copy(step.Hash, sib)
		proof = append(proof, step)
		idx /= 2
	}
	return proof, nil
}

// verifyProof checks that leaf is included under root given the proof.
func verifyProof(root, leaf []byte, proof []proofStep) error {
	h := hashLeaf(leaf)
	for _, step := range proof {
		if step.Right {
			h = hashNode(h, step.Hash)
		} else {
			h = hashNode(step.Hash, h)
		}
	}
	if !bytes.Equal(h, root) {
		return errBadProof
	}
	return nil
}

// HashChain is an append-only chain of hashes: each entry commits to the
// previous head and the entry payload. The audit log uses it to make
// tampering with history detectable.
type HashChain struct {
	head []byte
	n    uint64
}

// NewHashChain creates an empty chain with a deterministic genesis head.
func NewHashChain() *HashChain {
	genesis := sha256.Sum256([]byte("trustedcells/hashchain/genesis"))
	return &HashChain{head: genesis[:]}
}

// resumeHashChain resumes a chain from a known head and length, e.g. after a
// restart when the head was persisted in the tamper-resistant store.
func resumeHashChain(head []byte, n uint64) *HashChain {
	h := make([]byte, len(head))
	copy(h, head)
	return &HashChain{head: h, n: n}
}

// Append extends the chain with payload and returns the new head.
func (c *HashChain) Append(payload []byte) []byte {
	h := sha256.New()
	h.Write([]byte{nodePrefix})
	h.Write(c.head)
	h.Write(payload)
	c.head = h.Sum(nil)
	c.n++
	out := make([]byte, len(c.head))
	copy(out, c.head)
	return out
}

// Head returns the current chain head.
func (c *HashChain) Head() []byte {
	out := make([]byte, len(c.head))
	copy(out, c.head)
	return out
}

// verifyChain recomputes the chain over payloads starting from genesis and
// reports whether it ends at expectedHead.
func verifyChain(payloads [][]byte, expectedHead []byte) bool {
	c := NewHashChain()
	for _, p := range payloads {
		c.Append(p)
	}
	return bytes.Equal(c.Head(), expectedHead)
}
