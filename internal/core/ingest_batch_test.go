package core

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"trustedcells/internal/cloud"
	"trustedcells/internal/datamodel"
	"trustedcells/internal/policy"
	"trustedcells/internal/tamper"
)

func newBatchTestCell(t *testing.T, svc cloud.Service) *Cell {
	t.Helper()
	cell, err := New(Config{ID: "batch-cell", Class: tamper.ClassHomeGateway,
		Cloud: svc, Seed: []byte("batch-cell"), Clock: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	if err := cell.AddRule(policy.Rule{ID: "owner", Effect: policy.EffectAllow,
		SubjectIDs: []string{"owner"}, Actions: []policy.Action{policy.ActionRead}}); err != nil {
		t.Fatal(err)
	}
	return cell
}

// TestIngestBatchMatchesIngest compares a batch of N with N batches of one on
// twin cells: the same documents, audit records and cache state, one cloud
// exchange against N.
func TestIngestBatchMatchesIngest(t *testing.T) {
	items := make([]IngestItem, 10)
	for i := range items {
		items[i] = IngestItem{
			Payload: []byte(fmt.Sprintf("payload-%02d", i)),
			Opts:    IngestOptions{Class: datamodel.ClassAuthored, Type: "note", Title: fmt.Sprintf("n%d", i)},
		}
	}
	batchSvc := &countingService{Memory: cloud.NewMemory()}
	batched := newBatchTestCell(t, batchSvc)
	docs, err := batched.IngestBatch(items)
	if err != nil {
		t.Fatalf("IngestBatch: %v", err)
	}
	oneSvc := &countingService{Memory: cloud.NewMemory()}
	ones := newBatchTestCell(t, oneSvc)
	for i, item := range items {
		one, err := ones.IngestBatch([]IngestItem{item})
		if err != nil {
			t.Fatalf("IngestBatch of one: %v", err)
		}
		if !reflect.DeepEqual(one[0], docs[i]) {
			t.Fatalf("doc %d: batch %+v, batch of one %+v", i, docs[i], one[0])
		}
	}
	if batched.Catalog().Len() != len(items) || ones.Catalog().Len() != len(items) {
		t.Fatalf("catalogs = %d / %d", batched.Catalog().Len(), ones.Catalog().Len())
	}
	if batchSvc.puts != 1 || oneSvc.puts != len(items) {
		t.Fatalf("cloud put exchanges = %d / %d, want 1 / %d", batchSvc.puts, oneSvc.puts, len(items))
	}
	if batchSvc.Stats().Puts != int64(len(items)) || oneSvc.Stats().Puts != int64(len(items)) {
		t.Fatalf("cloud blob puts = %d / %d", batchSvc.Stats().Puts, oneSvc.Stats().Puts)
	}
	if !reflect.DeepEqual(batched.AuditLog().Records(), ones.AuditLog().Records()) {
		t.Fatal("audit records differ between a batch and batches of one")
	}
	if batched.cache.Stats() != ones.cache.Stats() {
		t.Fatalf("cache state: %+v / %+v", batched.cache.Stats(), ones.cache.Stats())
	}
	for i, doc := range docs {
		plain, err := batched.Read("owner", doc.ID, AccessContext{})
		if err != nil || !bytes.Equal(plain, items[i].Payload) {
			t.Fatalf("payload %d round-trip: %q %v", i, plain, err)
		}
	}
}

func TestIngestBatchRejectsDuplicateItems(t *testing.T) {
	svc := cloud.NewMemory()
	cell := newBatchTestCell(t, svc)
	same := IngestItem{Payload: []byte("twin"), Opts: IngestOptions{Class: datamodel.ClassAuthored, Type: "note"}}
	docs, err := cell.IngestBatch([]IngestItem{same, same})
	if err == nil {
		t.Fatal("identical items must fail the batch")
	}
	if len(docs) != 0 {
		t.Fatalf("no documents should commit: %v", docs)
	}
	// The failure happened before any upload or local commit.
	if cell.Catalog().Len() != 0 || svc.Stats().Puts != 0 {
		t.Fatalf("batch was partially applied: catalog=%d puts=%d", cell.Catalog().Len(), svc.Stats().Puts)
	}
}

func TestIngestBatchEmptyAndLocked(t *testing.T) {
	cell := newBatchTestCell(t, cloud.NewMemory())
	docs, err := cell.IngestBatch(nil)
	if err != nil || docs != nil {
		t.Fatalf("empty batch: %v %v", docs, err)
	}
	cell.TEE().Lock()
	if _, err := cell.IngestBatch([]IngestItem{{Payload: []byte("x")}}); err != ErrNotOwner {
		t.Fatalf("locked cell must refuse batched ingest: %v", err)
	}
}

// countingService counts the batched uploads and downloads a cell makes.
type countingService struct {
	*cloud.Memory
	mu         sync.Mutex
	puts, gets int
}

func (c *countingService) PutBlobs(puts []cloud.BlobPut) ([]int, error) {
	c.mu.Lock()
	c.puts++
	c.mu.Unlock()
	return c.Memory.PutBlobs(puts)
}

func (c *countingService) GetBlobs(names []string) ([]cloud.Blob, error) {
	c.mu.Lock()
	c.gets++
	c.mu.Unlock()
	return c.Memory.GetBlobs(names)
}

func TestIngestBatchUsesBatchAPI(t *testing.T) {
	svc := &countingService{Memory: cloud.NewMemory()}
	cell, err := New(Config{ID: "batch-cell", Class: tamper.ClassHomeGateway,
		Cloud: svc, Seed: []byte("batch-cell")})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]IngestItem, 6)
	for i := range items {
		items[i] = IngestItem{Payload: []byte(fmt.Sprintf("p%d", i)),
			Opts: IngestOptions{Class: datamodel.ClassAuthored, Type: "note"}}
	}
	if _, err := cell.IngestBatch(items); err != nil {
		t.Fatal(err)
	}
	if svc.puts != 1 {
		t.Fatalf("batch uploads = %d, want 1", svc.puts)
	}
}

// TestIngestBatchConcurrentStress runs batched and individual ingests on the
// same cell from many goroutines; under -race it is the regression test for
// the parallel sealing pool sharing the cell's substrates.
func TestIngestBatchConcurrentStress(t *testing.T) {
	svc := cloud.NewMemory()
	cell := newBatchTestCell(t, svc)
	const (
		workers  = 8
		perBatch = 8
		batches  = 3
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				items := make([]IngestItem, perBatch)
				for i := range items {
					items[i] = IngestItem{
						Payload: []byte(fmt.Sprintf("w%02d-b%02d-i%02d", w, b, i)),
						Opts:    IngestOptions{Class: datamodel.ClassSensed, Type: "reading"},
					}
				}
				if _, err := cell.IngestBatch(items); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				// Interleave a single ingest to mix both paths.
				if _, err := cell.Ingest([]byte(fmt.Sprintf("solo-w%02d-b%02d", w, b)),
					IngestOptions{Class: datamodel.ClassAuthored, Type: "note"}); err != nil {
					t.Errorf("worker %d solo: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	want := workers * batches * (perBatch + 1)
	if got := cell.Catalog().Len(); got != want {
		t.Fatalf("catalog = %d, want %d", got, want)
	}
	// Spot-check a few documents end to end.
	docs, err := cell.Search(datamodel.Query{})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs[:10] {
		if _, err := cell.Read("owner", doc.ID, AccessContext{}); err != nil {
			t.Fatalf("read-back %s: %v", doc.ID, err)
		}
	}
}
