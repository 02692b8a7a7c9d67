package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"trustedcells/internal/audit"
	"trustedcells/internal/cloud"
	"trustedcells/internal/datamodel"
	"trustedcells/internal/policy"
	"trustedcells/internal/storage"
	"trustedcells/internal/tamper"
	"trustedcells/internal/timeseries"
	"trustedcells/internal/ucon"
)

// coldReadCell ingests n notes on a builder cell, syncs the vault, and
// returns a fresh cell of the same user restored from the cloud: its catalog
// is full but its payload cache is empty, so every read must go to the cloud.
func coldReadCell(t *testing.T, svc cloud.Service, n int) (*Cell, []string, [][]byte) {
	t.Helper()
	builder, err := New(Config{ID: "reader-cell", Class: tamper.ClassHomeGateway,
		Cloud: svc, Seed: []byte("reader-cell"), Clock: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]IngestItem, n)
	payloads := make([][]byte, n)
	for i := range items {
		payloads[i] = []byte(fmt.Sprintf("payload-%03d", i))
		items[i] = IngestItem{Payload: payloads[i],
			Opts: IngestOptions{Class: datamodel.ClassAuthored, Type: "note", Title: fmt.Sprintf("n%d", i)}}
	}
	docs, err := builder.IngestBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := builder.SyncVault(); err != nil {
		t.Fatal(err)
	}
	cold, err := New(Config{ID: "reader-cell", Class: tamper.ClassHomeGateway,
		Cloud: svc, Seed: []byte("reader-cell"), Clock: fixedClock()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.RestoreVault(); err != nil {
		t.Fatal(err)
	}
	if err := cold.AddRule(policy.Rule{ID: "owner", Effect: policy.EffectAllow,
		SubjectIDs: []string{"owner"}, Actions: []policy.Action{policy.ActionRead}}); err != nil {
		t.Fatal(err)
	}
	ids := make([]string, n)
	for i, d := range docs {
		ids[i] = d.ID
	}
	return cold, ids, payloads
}

// TestReadBatchMatchesRead compares a batch of N with N batches of one on
// twin cold cells: the same payloads, errors and audit records, one cloud
// exchange against N.
func TestReadBatchMatchesRead(t *testing.T) {
	batchSvc := &countingService{Memory: cloud.NewMemory()}
	batched, ids, payloads := coldReadCell(t, batchSvc, 8)
	oneSvc := &countingService{Memory: cloud.NewMemory()}
	ones, _, _ := coldReadCell(t, oneSvc, 8)

	req := append(append([]string{}, ids...), "doc-missing")
	results := batched.ReadBatch("owner", req, AccessContext{})
	if len(results) != len(req) {
		t.Fatalf("results = %d, want %d", len(results), len(req))
	}
	for i, id := range req {
		one := ones.ReadBatch("owner", []string{id}, AccessContext{})[0]
		if one.DocID != results[i].DocID || !bytes.Equal(one.Payload, results[i].Payload) ||
			fmt.Sprint(one.Err) != fmt.Sprint(results[i].Err) {
			t.Fatalf("doc %d: batch %+v, batch of one %+v", i, results[i], one)
		}
	}
	for i := range ids {
		if results[i].Err != nil || !bytes.Equal(results[i].Payload, payloads[i]) {
			t.Fatalf("doc %d: %q %v", i, results[i].Payload, results[i].Err)
		}
	}
	if !errors.Is(results[len(req)-1].Err, ErrUnknownDocument) {
		t.Fatalf("unknown doc error = %v", results[len(req)-1].Err)
	}
	if batchSvc.gets != 1 || oneSvc.gets != len(ids) {
		t.Fatalf("cloud get exchanges = %d / %d, want 1 / %d", batchSvc.gets, oneSvc.gets, len(ids))
	}
	// A batch audits in argument order, refusals included: its log is the
	// log of the same reads made one at a time, record for record.
	if b, o := batched.AuditLog().Records(), ones.AuditLog().Records(); !reflect.DeepEqual(b, o) {
		t.Fatalf("audit records differ:\n%+v\n%+v", b, o)
	}

	// A stranger is denied per document, and the denials are audited.
	denied := batched.ReadBatch("stranger", ids[:3], AccessContext{})
	for _, r := range denied {
		if !errors.Is(r.Err, ErrAccessDenied) {
			t.Fatalf("stranger result %v", r.Err)
		}
	}
	deniedAudits := 0
	for _, r := range batched.AuditLog().Records() {
		if r.Actor == "stranger" && r.Outcome == "denied" {
			deniedAudits++
		}
	}
	if deniedAudits != 3 {
		t.Fatalf("denied audit records = %d", deniedAudits)
	}
}

// TestSingleCallIsBatchOfOne drives twin cells, one through Ingest, Read and
// Aggregate and one through one-element IngestBatch, ReadBatch and
// AggregateBatch, over cold reads, a usage cap, a refusal and an unknown
// document: documents, results, cloud exchanges, cache state and audit
// records must all agree.
func TestSingleCallIsBatchOfOne(t *testing.T) {
	s := timeseries.NewSeries("power", "W")
	for i := 0; i < 120; i++ {
		_ = s.AppendValue(testTime.Add(time.Duration(i)*time.Minute), float64(i))
	}
	seriesPayload, err := encodeSeries(s)
	if err != nil {
		t.Fatal(err)
	}
	items := []IngestItem{
		{Payload: []byte("a note"), Opts: IngestOptions{Class: datamodel.ClassAuthored, Type: "note", Title: "n"}},
		{Payload: seriesPayload, Opts: IngestOptions{Class: datamodel.ClassSensed, Type: SeriesDocType, Title: "s"}},
	}
	type observed struct {
		docs                []*datamodel.Document
		reads, aggs         []string
		puts, gets          int
		builderLog, log     []audit.Record
		builderCache, cache storage.Stats
	}
	drive := func(single bool) observed {
		var o observed
		svc := &countingService{Memory: cloud.NewMemory()}
		builder := newTestCell(t, "twin-cell", svc)
		for _, item := range items {
			var doc *datamodel.Document
			if single {
				doc, err = builder.Ingest(item.Payload, item.Opts)
			} else {
				var docs []*datamodel.Document
				if docs, err = builder.IngestBatch([]IngestItem{item}); err == nil {
					doc = docs[0]
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			o.docs = append(o.docs, doc)
		}
		if _, err := builder.SyncVault(); err != nil {
			t.Fatal(err)
		}
		cold := newTestCell(t, "twin-cell", svc)
		if _, err := cold.RestoreVault(); err != nil {
			t.Fatal(err)
		}
		if err := cold.AddRule(policy.Rule{ID: "owner", Effect: policy.EffectAllow, SubjectIDs: []string{"owner"},
			Actions: []policy.Action{policy.ActionRead, policy.ActionAggregate}}); err != nil {
			t.Fatal(err)
		}
		if err := cold.AttachUsagePolicy(ucon.Policy{ObjectID: o.docs[0].ID, MaxUses: 1}); err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{o.docs[0].ID, o.docs[0].ID, o.docs[1].ID, "doc-missing"} {
			r := ReadResult{DocID: id}
			if single {
				r.Payload, r.Err = cold.Read("owner", id, AccessContext{})
			} else {
				r = cold.ReadBatch("owner", []string{id}, AccessContext{})[0]
			}
			o.reads = append(o.reads, fmt.Sprintf("%q %v", r.Payload, r.Err))
		}
		for _, subject := range []string{"owner", "stranger"} {
			r := AggregateResult{DocID: o.docs[1].ID}
			if single {
				r.Series, r.Err = cold.Aggregate(subject, o.docs[1].ID, timeseries.GranularityHour, timeseries.AggregateMean, AccessContext{})
			} else {
				r = cold.AggregateBatch(subject, []string{o.docs[1].ID}, timeseries.GranularityHour, timeseries.AggregateMean, AccessContext{})[0]
			}
			var points []timeseries.Point
			if r.Series != nil {
				points = r.Series.Points()
			}
			o.aggs = append(o.aggs, fmt.Sprintf("%v %v", points, r.Err))
		}
		o.puts, o.gets = svc.puts, svc.gets
		o.builderLog, o.log = builder.AuditLog().Records(), cold.AuditLog().Records()
		o.builderCache, o.cache = builder.CacheStats(), cold.CacheStats()
		return o
	}
	single, batch := drive(true), drive(false)
	if !reflect.DeepEqual(single.docs, batch.docs) {
		t.Fatalf("documents differ:\n%+v\n%+v", single.docs, batch.docs)
	}
	if !reflect.DeepEqual(single.reads, batch.reads) || !reflect.DeepEqual(single.aggs, batch.aggs) {
		t.Fatalf("results differ:\n%v %v\n%v %v", single.reads, single.aggs, batch.reads, batch.aggs)
	}
	if single.puts != batch.puts || single.gets != batch.gets {
		t.Fatalf("cloud exchanges: puts %d/%d gets %d/%d", single.puts, batch.puts, single.gets, batch.gets)
	}
	if single.builderCache != batch.builderCache || single.cache != batch.cache {
		t.Fatalf("cache state differs: %+v %+v / %+v %+v", single.builderCache, single.cache, batch.builderCache, batch.cache)
	}
	if !reflect.DeepEqual(single.builderLog, batch.builderLog) || !reflect.DeepEqual(single.log, batch.log) {
		t.Fatal("audit records differ")
	}
	// The script itself: the capped second read and the stranger's aggregate
	// are refused, and each document is downloaded once.
	if !strings.Contains(single.reads[1], ErrAccessDenied.Error()) || !strings.Contains(single.aggs[1], ErrAccessDenied.Error()) {
		t.Fatalf("refusals not observed: %v %v", single.reads, single.aggs)
	}
	if single.gets != 2 {
		t.Fatalf("cloud get exchanges = %d, want 2 (note, series)", single.gets)
	}
}

func TestReadBatchSingleCloudExchangeAndCacheWarming(t *testing.T) {
	svc := &countingService{Memory: cloud.NewMemory()}
	cell, ids, _ := coldReadCell(t, svc, 12)

	gets0 := svc.Stats().Gets
	results := cell.ReadBatch("owner", ids, AccessContext{})
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if svc.gets != 1 {
		t.Fatalf("batched downloads = %d, want 1", svc.gets)
	}
	if d := svc.Stats().Gets - gets0; d != int64(len(ids)) {
		t.Fatalf("blob gets = %d, want %d", d, len(ids))
	}

	// Second batch: the first one warmed the cache, nothing touches the cloud.
	gets1 := svc.Stats().Gets
	results = cell.ReadBatch("owner", ids, AccessContext{})
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if svc.gets != 1 || svc.Stats().Gets != gets1 {
		t.Fatalf("second batch hit the cloud: batches=%d gets=%d", svc.gets, svc.Stats().Gets-gets1)
	}
}

// TestReadWarmsCacheAfterCloudFetch proves the single-document path also
// writes a cloud-fetched payload back to the local cache: the second read of
// the same document does not touch the cloud.
func TestReadWarmsCacheAfterCloudFetch(t *testing.T) {
	svc := cloud.NewMemory()
	cell, ids, _ := coldReadCell(t, svc, 1)

	gets0 := svc.Stats().Gets
	if _, err := cell.Read("owner", ids[0], AccessContext{}); err != nil {
		t.Fatal(err)
	}
	if d := svc.Stats().Gets - gets0; d != 1 {
		t.Fatalf("first read gets = %d, want 1", d)
	}
	gets1 := svc.Stats().Gets
	if _, err := cell.Read("owner", ids[0], AccessContext{}); err != nil {
		t.Fatal(err)
	}
	if d := svc.Stats().Gets - gets1; d != 0 {
		t.Fatalf("second read still hit the cloud (%d gets)", d)
	}
}

func TestAggregateBatchMatchesAggregate(t *testing.T) {
	start := time.Date(2013, 1, 7, 0, 0, 0, 0, time.UTC)
	cell, err := New(Config{ID: "agg-cell", Class: tamper.ClassHomeGateway,
		Cloud: cloud.NewMemory(), Seed: []byte("agg-cell"),
		Clock: func() time.Time { return start }})
	if err != nil {
		t.Fatal(err)
	}
	if err := cell.AddRule(policy.Rule{ID: "household", Effect: policy.EffectAllow,
		SubjectGroups: []string{"household"}, Actions: []policy.Action{policy.ActionAggregate},
		Resource: policy.Resource{Type: SeriesDocType}, MaxGranularity: time.Hour}); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for d := 0; d < 3; d++ {
		s := timeseries.NewSeries("power", "W")
		for i := 0; i < 24; i++ {
			_ = s.AppendValue(start.Add(time.Duration(i)*time.Hour), float64(100*(d+1)))
		}
		doc, err := cell.IngestSeries(s, "day", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, doc.ID)
	}
	ctx := AccessContext{Groups: []string{"household"}}

	// A batch of N answers like N batches of one, bucket for bucket.
	results := cell.AggregateBatch("bob", ids, timeseries.GranularityHour, timeseries.AggregateMean, ctx)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("doc %d: %v", i, r.Err)
		}
		one := cell.AggregateBatch("bob", ids[i:i+1], timeseries.GranularityHour, timeseries.AggregateMean, ctx)[0]
		if one.Err != nil || r.DocID != one.DocID || !reflect.DeepEqual(r.Series.Points(), one.Series.Points()) {
			t.Fatalf("doc %d batch/batch-of-one mismatch: %v", i, one.Err)
		}
		if r.Series.Len() != 24 || r.Series.At(0).Value != float64(100*(i+1)) {
			t.Fatalf("doc %d: %d buckets, first %v", i, r.Series.Len(), r.Series.At(0).Value)
		}
	}

	// The granularity cap applies per document inside the batch too.
	capped := cell.AggregateBatch("bob", ids, timeseries.GranularityMinute, timeseries.AggregateMean, ctx)
	for _, r := range capped {
		if !errors.Is(r.Err, ErrGranularity) {
			t.Fatalf("cap not enforced in batch: %v", r.Err)
		}
	}

	// Non-series documents are rejected per document, once a rule lets the
	// subject aggregate them at all.
	note, err := cell.Ingest([]byte("note"), IngestOptions{Class: datamodel.ClassAuthored, Type: "note"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cell.AddRule(policy.Rule{ID: "household-notes", Effect: policy.EffectAllow,
		SubjectGroups: []string{"household"}, Actions: []policy.Action{policy.ActionAggregate},
		Resource: policy.Resource{Type: "note"}}); err != nil {
		t.Fatal(err)
	}
	mixed := cell.AggregateBatch("bob", []string{ids[0], note.ID}, timeseries.GranularityHour, timeseries.AggregateMean, ctx)
	if mixed[0].Err != nil || !errors.Is(mixed[1].Err, ErrNotSeries) {
		t.Fatalf("mixed batch = %v / %v", mixed[0].Err, mixed[1].Err)
	}
}

// TestAggregateBatchDuplicateIDsRespectUsageCap proves usage control governs
// aggregates, duplicates included: an owner's MaxUses=1 policy on their own
// series allows one aggregate of a batch naming it twice.
func TestAggregateBatchDuplicateIDsRespectUsageCap(t *testing.T) {
	cell := newBatchTestCell(t, cloud.NewMemory())
	if err := cell.AddRule(policy.Rule{ID: "owner-agg", Effect: policy.EffectAllow,
		SubjectIDs: []string{"owner"}, Actions: []policy.Action{policy.ActionAggregate}}); err != nil {
		t.Fatal(err)
	}
	s := timeseries.NewSeries("power", "W")
	for i := 0; i < 4; i++ {
		_ = s.AppendValue(testTime.Add(time.Duration(i)*time.Hour), 1)
	}
	doc, err := cell.IngestSeries(s, "rationed", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cell.AttachUsagePolicy(ucon.Policy{ObjectID: doc.ID, MaxUses: 1}); err != nil {
		t.Fatal(err)
	}
	results := cell.AggregateBatch("owner", []string{doc.ID, doc.ID}, timeseries.GranularityHour, timeseries.AggregateSum, AccessContext{})
	if results[0].Err != nil {
		t.Fatalf("first use: %v", results[0].Err)
	}
	if !errors.Is(results[1].Err, ErrAccessDenied) || results[1].Series != nil {
		t.Fatalf("second use of a MaxUses=1 series must be denied, got %v", results[1].Err)
	}
	if n := cell.Usage().UseCount(doc.ID, "owner"); n != 1 {
		t.Fatalf("use count = %d, want 1", n)
	}
}

// TestConcurrentReadSearchIngestStress interleaves concurrent Read, Search,
// SearchPlan, ReadBatch and IngestBatch traffic on one cell; under -race it
// is the regression test for the planned catalog indexes and the batched
// read pipeline sharing the cell's substrates with writers.
func TestConcurrentReadSearchIngestStress(t *testing.T) {
	svc := cloud.NewMemory()
	cell := newBatchTestCell(t, svc)

	// A first wave of documents gives the readers something to chew on.
	seedItems := make([]IngestItem, 16)
	for i := range seedItems {
		seedItems[i] = IngestItem{Payload: []byte(fmt.Sprintf("seed-%02d", i)),
			Opts: IngestOptions{Class: datamodel.ClassSensed, Type: "reading",
				Keywords: []string{"seed"}, Tags: map[string]string{"wave": "0"}}}
	}
	seeded, err := cell.IngestBatch(seedItems)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(seeded))
	for i, d := range seeded {
		ids[i] = d.ID
	}

	const loops = 30
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) { // ingestors
			defer wg.Done()
			for b := 0; b < loops/3; b++ {
				items := make([]IngestItem, 4)
				for i := range items {
					items[i] = IngestItem{Payload: []byte(fmt.Sprintf("w%d-b%d-i%d", w, b, i)),
						Opts: IngestOptions{Class: datamodel.ClassSensed, Type: "reading",
							Keywords: []string{"stress"}, Tags: map[string]string{"wave": "1"}}}
				}
				if _, err := cell.IngestBatch(items); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) { // single readers
			defer wg.Done()
			for i := 0; i < loops; i++ {
				if _, err := cell.Read("owner", ids[(w+i)%len(ids)], AccessContext{}); err != nil {
					t.Errorf("read: %v", err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() { // batch readers
			defer wg.Done()
			for i := 0; i < loops/2; i++ {
				for _, r := range cell.ReadBatch("owner", ids, AccessContext{}) {
					if r.Err != nil {
						t.Errorf("read batch: %v", r.Err)
						return
					}
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() { // searchers exercising every index
			defer wg.Done()
			for i := 0; i < loops; i++ {
				if _, err := cell.Search(datamodel.Query{Type: "reading"}); err != nil {
					t.Errorf("search: %v", err)
					return
				}
				if _, _, err := cell.SearchPlan(datamodel.Query{Keyword: "stress", TagKey: "wave"}); err != nil {
					t.Errorf("search plan: %v", err)
					return
				}
				if _, err := cell.Search(datamodel.Query{Before: cell.Clock().Add(time.Hour)}); err != nil {
					t.Errorf("time search: %v", err)
					return
				}
				if _, err := cell.KeywordCounts([]string{"seed", "stress"}); err != nil {
					t.Errorf("keyword counts: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	want := len(seedItems) + 3*(loops/3)*4
	if got := cell.Catalog().Len(); got != want {
		t.Fatalf("catalog = %d, want %d", got, want)
	}
}

// TestReadBatchDuplicateIDsRespectUsageCap proves a batch repeating the same
// document ID cannot slip past a MaxUses usage cap: the duplicates settle
// through the sequential path after the batch, exactly as two Read calls.
func TestReadBatchDuplicateIDsRespectUsageCap(t *testing.T) {
	svc := cloud.NewMemory()
	cell := newBatchTestCell(t, svc)
	doc, err := cell.Ingest([]byte("rationed"), IngestOptions{Class: datamodel.ClassAuthored, Type: "note"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cell.AttachUsagePolicy(ucon.Policy{ObjectID: doc.ID, MaxUses: 1}); err != nil {
		t.Fatal(err)
	}
	results := cell.ReadBatch("owner", []string{doc.ID, doc.ID}, AccessContext{})
	if results[0].Err != nil {
		t.Fatalf("first use: %v", results[0].Err)
	}
	if !errors.Is(results[1].Err, ErrAccessDenied) {
		t.Fatalf("second use of a MaxUses=1 document must be denied, got %v", results[1].Err)
	}
	if n := cell.Usage().UseCount(doc.ID, "owner"); n != 1 {
		t.Fatalf("use count = %d, want 1", n)
	}
}

// TestFailedReadRevokesUsageSession proves a read that passes the gate but
// fails to open (integrity violation on the cloud payload) does not leave a
// usage session active forever, and does not count as a completed use.
func TestFailedReadRevokesUsageSession(t *testing.T) {
	svc := cloud.NewMemory()
	cell, ids, _ := coldReadCell(t, svc, 2)
	for _, id := range ids {
		if err := cell.AttachUsagePolicy(ucon.Policy{ObjectID: id, MaxUses: 5}); err != nil {
			t.Fatal(err)
		}
	}
	// The weakly-malicious provider corrupts every stored payload.
	for _, id := range ids {
		blob, err := svc.GetBlob("reader-cell/vault/" + id)
		if err != nil {
			t.Fatal(err)
		}
		blob.Data[len(blob.Data)/2] ^= 0x01
		if _, err := svc.PutBlob("reader-cell/vault/"+id, blob.Data); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range cell.ReadBatch("owner", ids, AccessContext{}) {
		if !errors.Is(r.Err, ErrIntegrity) {
			t.Fatalf("corrupted payload not detected: %v", r.Err)
		}
	}
	if n := cell.Usage().ActiveSessions(); n != 0 {
		t.Fatalf("failed batch leaked %d active usage sessions", n)
	}
	for _, id := range ids {
		if n := cell.Usage().UseCount(id, "owner"); n != 0 {
			t.Fatalf("failed read counted as a use (%d)", n)
		}
	}
}

// TestCorruptCloudPayloadNotCached proves a payload that fails verification
// is never written to the local cache: once the provider serves honest bytes
// again, the next read succeeds instead of replaying the poisoned copy.
func TestCorruptCloudPayloadNotCached(t *testing.T) {
	svc := cloud.NewMemory()
	cell, ids, payloads := coldReadCell(t, svc, 1)
	name := "reader-cell/vault/" + ids[0]
	honest, err := svc.GetBlob(name)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), honest.Data...)
	corrupt[len(corrupt)/2] ^= 0x01
	if _, err := svc.PutBlob(name, corrupt); err != nil {
		t.Fatal(err)
	}
	if _, err := cell.Read("owner", ids[0], AccessContext{}); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("corruption not detected: %v", err)
	}
	if r := cell.ReadBatch("owner", ids, AccessContext{}); !errors.Is(r[0].Err, ErrIntegrity) {
		t.Fatalf("batch corruption not detected: %v", r[0].Err)
	}
	// The provider repents; the cell must fetch fresh bytes, not a cached
	// poisoned copy.
	if _, err := svc.PutBlob(name, honest.Data); err != nil {
		t.Fatal(err)
	}
	got, err := cell.Read("owner", ids[0], AccessContext{})
	if err != nil || !bytes.Equal(got, payloads[0]) {
		t.Fatalf("recovery read: %q %v", got, err)
	}
}
