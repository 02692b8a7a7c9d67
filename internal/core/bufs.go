package core

// Pooled buffers of the cell's envelope hot paths. Every ingest and read
// historically allocated a fresh cache key ("payload/"+docID), a fresh
// associated-data string and a fresh envelope buffer per document; the pools
// below make those steady-state costs allocation-free. Safety rests on the
// stores' copy-on-write contract: cloud.Memory duplicates blob data on put
// and the cache engine's memtable duplicates both key and value, so a pooled
// buffer may be recycled as soon as the call that shipped it returns
// (DESIGN.md §7).

import "trustedcells/internal/crypto"

// sealBufs recycles envelope-sized buffers: sealed output on ingest, decrypted
// plaintext on batch aggregates.
var sealBufs crypto.BufPool

// keyBufs recycles the small scratch buffers of cache keys and associated
// data.
var keyBufs crypto.BufPool

// appendPayloadKey appends the local-cache key of a document payload.
func appendPayloadKey(dst []byte, docID string) []byte {
	return append(append(dst, "payload/"...), docID...)
}

// appendAssociatedData appends the associated data binding a sealed payload
// to its owner and document — the append-style twin of the seed's
// associatedData helper.
func appendAssociatedData(dst []byte, owner, docID string) []byte {
	dst = append(dst, "doc:"...)
	dst = append(dst, owner...)
	dst = append(dst, ':')
	return append(dst, docID...)
}

// matchesAssociatedData reports whether ad equals the associated data of
// (owner, docID) without materializing it.
func matchesAssociatedData(ad []byte, owner, docID string) bool {
	if len(ad) != len("doc:")+len(owner)+1+len(docID) {
		return false
	}
	if string(ad[:4]) != "doc:" {
		return false
	}
	if string(ad[4:4+len(owner)]) != owner {
		return false
	}
	if ad[4+len(owner)] != ':' {
		return false
	}
	return string(ad[4+len(owner)+1:]) == docID
}
