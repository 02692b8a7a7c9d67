package core

import (
	"fmt"
	"time"

	"trustedcells/internal/audit"
	"trustedcells/internal/cloud"
	"trustedcells/internal/crypto"
	"trustedcells/internal/datamodel"
	"trustedcells/internal/storage"
)

// IngestItem is one document of a batched ingest.
type IngestItem struct {
	Payload []byte
	Opts    IngestOptions
}

// sealedItem is the output of the sealing stage for one item, or its error.
// sealed lives in a pooled buffer (buf) until the batch has flushed it to the
// cloud and the local cache — both copy on put — after which IngestBatch
// recycles it.
type sealedItem struct {
	doc    datamodel.Document
	sealed []byte
	buf    *[]byte
	err    error
}

// IngestBatch acquires many payloads in one operation. Sealing — the AES
// envelope over each payload, the CPU hot path of ingestion — fans out across
// a bounded worker pool, and the resulting ciphertexts are flushed to the
// cloud through the batch API (one round-trip for the whole batch, see
// cloud.Service.PutBlobs). The local cache, catalog and audit updates then
// apply in item order, so a batch is observationally equivalent to a sequence
// of Ingest calls.
//
// The batch fails as a unit before any upload: an error while sealing, or
// two items hashing to the same document ID, leaves the cell and the cloud
// untouched. Errors after that point mirror a sequence of Ingest calls: the
// documents committed before the failure are returned alongside the error,
// and already-uploaded blobs of uncommitted items are harmless (sealed,
// unreferenced) and garbage-collected by the next vault sync.
//
// IngestBatch is an owner operation.
func (c *Cell) IngestBatch(items []IngestItem) ([]*datamodel.Document, error) {
	if c.tee.Locked() {
		return nil, ErrNotOwner
	}
	if len(items) == 0 {
		return nil, nil
	}
	sealed, err := c.sealAll(items)
	// Recycle every pooled envelope once the batch settles: by then the cloud
	// and the cache hold their own copies of each committed item, and
	// uncommitted envelopes are no longer referenced.
	defer func() {
		for i := range sealed {
			sealBufs.Put(sealed[i].buf)
		}
	}()
	if err != nil {
		return nil, err
	}
	if len(sealed) > 1 {
		ids := make(map[string]int, len(sealed))
		for i, s := range sealed {
			if j, dup := ids[s.doc.ID]; dup {
				return nil, fmt.Errorf("core: ingest: items %d and %d are identical (document %s)", j, i, s.doc.ID)
			}
			ids[s.doc.ID] = i
		}
	}

	if c.cloud != nil {
		puts := make([]cloud.BlobPut, len(sealed))
		for i, s := range sealed {
			puts[i] = cloud.BlobPut{Name: s.doc.BlobRef, Data: s.sealed}
		}
		if _, err := c.cloud.PutBlobs(puts); err != nil {
			return nil, fmt.Errorf("core: ingest: cloud put: %w", err)
		}
	}

	// One cache batch for the whole ingest. The keys share one pooled buffer:
	// a key sliced off before the buffer grew still points at the old array,
	// whose bytes are never rewritten, and the memtable copies every key.
	ops := make([]storage.Op, len(sealed))
	kb := keyBufs.Get()
	for i, s := range sealed {
		start := len(*kb)
		*kb = appendPayloadKey(*kb, s.doc.ID)
		ops[i] = storage.Op{Key: (*kb)[start:], Value: s.sealed}
	}
	err = c.cache.Apply(ops)
	keyBufs.Put(kb)
	if err != nil {
		return nil, fmt.Errorf("core: ingest: cache: %w", err)
	}

	docs := make([]*datamodel.Document, 0, len(sealed))
	for i := range sealed {
		doc := &sealed[i].doc
		if err := c.catalog.Add(doc); err != nil {
			return docs, fmt.Errorf("core: ingest: catalog: %w", err)
		}
		c.mirrorToReplica(doc)
		c.appendAudit(c.id, "ingest", doc.ID, audit.OutcomeAllowed, "owner ingest", "")
		docs = append(docs, doc.Clone())
	}
	return docs, nil
}

// sealAll runs the CPU-bound stage of IngestBatch: metadata construction, key
// derivation and envelope encryption for every item, spread over the shared
// bounded worker pool.
func (c *Cell) sealAll(items []IngestItem) ([]sealedItem, error) {
	now := c.clock() // one timestamp for the whole batch
	out := make([]sealedItem, len(items))
	parallelDo(len(items), maxCryptoWorkers, func(i int) {
		out[i] = c.sealOne(items[i], now)
	})
	for _, s := range out {
		if s.err != nil {
			for i := range out {
				sealBufs.Put(out[i].buf)
			}
			return nil, s.err
		}
	}
	return out, nil
}

// sealOne builds the document metadata and seals the payload of one item.
// It only reads immutable cell state (id, key hierarchy, clock value), so it
// is safe to run from many workers at once.
func (c *Cell) sealOne(item IngestItem, now time.Time) sealedItem {
	contentHash := crypto.HashString(item.Payload)
	doc := datamodel.Document{
		ID:          datamodel.NewDocumentID(c.id, item.Opts.Type, contentHash),
		Owner:       c.id,
		Class:       item.Opts.Class,
		Type:        item.Opts.Type,
		Title:       item.Opts.Title,
		Keywords:    item.Opts.Keywords,
		Tags:        item.Opts.Tags,
		CreatedAt:   now,
		Size:        int64(len(item.Payload)),
		ContentHash: contentHash,
	}
	key := c.keys.DocumentKey(doc.ID)
	doc.KeyFingerprint = key.Fingerprint()
	scratch := keyBufs.Get()
	*scratch = appendAssociatedData(*scratch, c.id, doc.ID)
	sb := sealBufs.Get()
	sealed, err := crypto.SealTo(*sb, key, item.Payload, *scratch)
	keyBufs.Put(scratch)
	if err != nil {
		sealBufs.Put(sb)
		return sealedItem{err: fmt.Errorf("core: ingest: %w", err)}
	}
	*sb = sealed
	doc.BlobRef = c.blobName(doc.ID)
	return sealedItem{doc: doc, sealed: sealed, buf: sb}
}
