package datamodel

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

var planBase = time.Date(2013, 1, 7, 0, 0, 0, 0, time.UTC)

// planCatalog builds a catalog of n documents: every 10th is a "power-series"
// owned by alice tagged home=h<i%4>, the rest are notes owned by bob.
func planCatalog(t testing.TB, n int) *Catalog {
	t.Helper()
	cat := NewCatalog()
	for i := 0; i < n; i++ {
		d := &Document{
			ID:        fmt.Sprintf("doc-%05d", i),
			Owner:     "bob",
			Type:      "note",
			Class:     ClassAuthored,
			Keywords:  []string{"common"},
			CreatedAt: planBase.Add(time.Duration(i) * time.Minute),
		}
		if i%10 == 0 {
			d.Owner = "alice"
			d.Type = "power-series"
			d.Class = ClassSensed
			d.Keywords = []string{"common", "energy"}
			d.Tags = map[string]string{"home": fmt.Sprintf("h%d", i%4)}
		}
		if err := cat.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func TestSearchPlanUsesMostSelectiveIndex(t *testing.T) {
	cat := planCatalog(t, 1000)

	// Type filter: the type index must drive, and nothing close to the full
	// document map may be scanned.
	docs, plan := cat.SearchPlan(Query{Type: "power-series"})
	if len(docs) != 100 {
		t.Fatalf("type search returned %d docs", len(docs))
	}
	if plan.Index != "type" || plan.Candidates != 100 || plan.Scanned != 100 {
		t.Fatalf("type plan = %+v", plan)
	}

	// Tag filter with value: the (key, value) index drives with exactly the
	// value's 50 documents, and none is scanned in vain.
	docs, plan = cat.SearchPlan(Query{TagKey: "home", TagValue: "h0"})
	if plan.Index != "tag" || plan.Candidates != 50 || plan.Scanned != 50 || len(docs) != 50 {
		t.Fatalf("tag plan = %+v (%d docs)", plan, len(docs))
	}
	for _, d := range docs {
		if d.Tags["home"] != "h0" {
			t.Fatalf("tag value filter leaked %v", d.Tags)
		}
	}

	// Time range: the time index drives and only the range is scanned.
	docs, plan = cat.SearchPlan(Query{
		After:  planBase.Add(100 * time.Minute),
		Before: planBase.Add(200 * time.Minute),
	})
	if plan.Index != "time" || plan.Candidates != 100 || len(docs) != 100 {
		t.Fatalf("time plan = %+v (%d docs)", plan, len(docs))
	}

	// Conjunction: the smallest index drives, the others are intersected.
	docs, plan = cat.SearchPlan(Query{Type: "power-series", Owner: "alice", Keyword: "energy"})
	if len(docs) != 100 || plan.Index == "scan" || len(plan.Intersected) != 2 {
		t.Fatalf("conjunction plan = %+v (%d docs)", plan, len(docs))
	}

	// The whole block above must never have fallen back to a full scan.
	st := cat.IndexStats()
	if st.FullScans != 0 || st.IndexScans != st.Searches {
		t.Fatalf("planner stats %+v", st)
	}
	if st.DocsScanned >= int64(cat.Len()) {
		t.Fatalf("scanned %d docs across all searches, catalog has %d", st.DocsScanned, cat.Len())
	}

	// An unfiltered search is the one legitimate full scan.
	cat.ResetIndexStats()
	if docs := cat.Search(Query{}); len(docs) != 1000 {
		t.Fatalf("unfiltered search returned %d", len(docs))
	}
	if st := cat.IndexStats(); st.FullScans != 1 {
		t.Fatalf("unfiltered stats %+v", st)
	}
}

// searchScan answers q by walking the whole document map, with no index:
// the seed's search path, kept as the planner's oracle.
func (c *Catalog) searchScan(q Query) []*Document {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var matched []*Document
	for _, d := range c.docs {
		if matches(d, q) {
			matched = append(matched, d)
		}
	}
	docs, _ := c.finishLocked(matched, q, PlanInfo{})
	return docs
}

func TestSearchPlanMatchesScanBaseline(t *testing.T) {
	cat := planCatalog(t, 500)
	queries := []Query{
		{},
		{Type: "power-series"},
		{Type: "note", Limit: 7},
		{Owner: "alice", TagKey: "home"},
		{TagKey: "home", TagValue: "h2"},
		{Keyword: "ENERGY"},
		{Keyword: "energy", Type: "power-series", Owner: "alice"},
		{After: planBase.Add(17 * time.Minute)},
		{Before: planBase.Add(42 * time.Minute)},
		{After: planBase.Add(10 * time.Minute), Before: planBase.Add(260 * time.Minute), Type: "power-series"},
		{Keyword: "missing"},
		{Type: "photo"},
		{TagKey: "nope"},
		{Owner: "alice", Limit: 3},
	}
	for _, q := range queries {
		want := cat.searchScan(q)
		got := cat.Search(q)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %+v: planner disagrees with scan baseline\n got %d docs\nwant %d docs", q, len(got), len(want))
		}
	}
}

func TestSearchPlanEmptyEqualityIndexShortCircuits(t *testing.T) {
	cat := planCatalog(t, 100)
	docs, plan := cat.SearchPlan(Query{Type: "power-series", Owner: "nobody"})
	if len(docs) != 0 || plan.Candidates != 0 || plan.Scanned != 0 {
		t.Fatalf("expected empty short-circuit, plan = %+v (%d docs)", plan, len(docs))
	}
}

func TestSearchPlanLimitTruncation(t *testing.T) {
	cat := planCatalog(t, 200)
	docs, plan := cat.SearchPlan(Query{Type: "note", Limit: 5})
	if len(docs) != 5 || !plan.Truncated || plan.Matched != 180 {
		t.Fatalf("limit plan = %+v (%d docs)", plan, len(docs))
	}
	// Newest-first order must hold across the truncation.
	for i := 1; i < len(docs); i++ {
		if docs[i].CreatedAt.After(docs[i-1].CreatedAt) {
			t.Fatalf("results out of order")
		}
	}
}

func TestTimeIndexSurvivesOutOfOrderInsertsAndRemoves(t *testing.T) {
	cat := NewCatalog()
	// Insert in reverse creation order to dirty the lazy-sorted index.
	for i := 9; i >= 0; i-- {
		err := cat.Add(&Document{
			ID: fmt.Sprintf("doc-%02d", i), Owner: "o", Type: "note",
			CreatedAt: planBase.Add(time.Duration(i) * time.Hour),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	docs, plan := cat.SearchPlan(Query{After: planBase.Add(2 * time.Hour), Before: planBase.Add(5 * time.Hour)})
	if len(docs) != 3 || plan.Index != "time" {
		t.Fatalf("after re-sort: %d docs, plan %+v", len(docs), plan)
	}
	if err := cat.Remove("doc-03"); err != nil {
		t.Fatal(err)
	}
	if docs = cat.Search(Query{After: planBase.Add(2 * time.Hour), Before: planBase.Add(5 * time.Hour)}); len(docs) != 2 {
		t.Fatalf("after remove: %d docs", len(docs))
	}
	// Update moves a document in time; the range must follow it.
	moved := &Document{ID: "doc-04", Owner: "o", Type: "note", CreatedAt: planBase.Add(40 * time.Hour)}
	if err := cat.Update(moved); err != nil {
		t.Fatal(err)
	}
	if docs = cat.Search(Query{After: planBase.Add(2 * time.Hour), Before: planBase.Add(5 * time.Hour)}); len(docs) != 1 {
		t.Fatalf("after update: %d docs", len(docs))
	}
}

func TestCatalogConcurrentSearchAndMutate(t *testing.T) {
	cat := planCatalog(t, 200)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = cat.Add(&Document{
					ID: fmt.Sprintf("new-%d-%03d", w, i), Owner: "bob", Type: "note",
					CreatedAt: planBase.Add(-time.Duration(i) * time.Second), // out of order
				})
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				cat.Search(Query{Type: "power-series"})
				cat.Search(Query{After: planBase, Before: planBase.Add(time.Hour)})
			}
		}()
	}
	wg.Wait()
	if got := cat.Len(); got != 200+4*50 {
		t.Fatalf("len after concurrent adds = %d", got)
	}
}

// fuzzDoc builds document id from two input bytes: a picks the type, owner
// and an optional second tag; b picks the creation minute (repeats and out of
// order inserts included) and the home tag's value.
func fuzzDoc(id string, a, b byte) *Document {
	d := &Document{
		ID:        id,
		Owner:     []string{"alice", "bob"}[a>>2&1],
		Type:      []string{"note", "series", "photo"}[a%3],
		Keywords:  []string{"energy"},
		CreatedAt: planBase.Add(time.Duration(b%8) * time.Minute),
		Tags:      map[string]string{"home": fmt.Sprintf("h%d", b>>3%3)},
	}
	if a>>3&1 != 0 {
		d.Tags["room"] = []string{"", "r1"}[a>>4&1]
	}
	return d
}

// fuzzQuery builds a filter from two input bytes: each bit of a sets one
// field, b picks the values. A tag value without a key is included on
// purpose: the filter ignores it.
func fuzzQuery(a, b byte) Query {
	var q Query
	if a&1 != 0 {
		q.TagKey = []string{"home", "room", "nope"}[b%3]
	}
	if a&2 != 0 {
		q.TagValue = []string{"h0", "h1", "h2", "r1"}[b>>2%4]
	}
	if a&4 != 0 {
		q.Type = []string{"note", "series", "photo"}[b>>4%3]
	}
	if a&8 != 0 {
		q.After = planBase.Add(time.Duration(b%8) * time.Minute)
	}
	if a&16 != 0 {
		q.Before = planBase.Add(time.Duration(b>>3%8) * time.Minute)
	}
	if a&32 != 0 {
		q.Owner = "alice"
	}
	if a&64 != 0 {
		q.Keyword = "energy"
	}
	if a&128 != 0 {
		q.Limit = int(b%4) + 1
	}
	return q
}

// FuzzCatalogPlan runs a sequence of Add, Update, Remove and search steps
// decoded from the input over a catalog of at most 16 documents, and holds
// every planned search to the scan oracle. Updates may move a document to
// another tag value, another type or another time, which is what would leave
// a stale entry in an index.
func FuzzCatalogPlan(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x03, 0x00})
	// Add doc-00 as home=h0, move it to home=h1, ask for home=h0.
	f.Add([]byte{0x00, 0x00, 0x00, 0x01, 0x00, 0x08, 0x03, 0x03, 0x00})
	f.Add([]byte{0x10, 0x09, 0x08, 0x11, 0x09, 0x10, 0x03, 0x03, 0x00, 0x03, 0x03, 0x04})
	f.Add([]byte{0x20, 0x04, 0x07, 0x21, 0x04, 0x0f, 0x23, 0xff, 0x08, 0x32, 0x03, 0x1f, 0x2b})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return
		}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		cat := NewCatalog()
		for len(data) > 0 {
			op := next()
			id := fmt.Sprintf("doc-%02d", op>>4)
			switch op % 4 {
			case 0:
				_ = cat.Add(fuzzDoc(id, next(), next()))
			case 1:
				_ = cat.Update(fuzzDoc(id, next(), next()))
			case 2:
				_ = cat.Remove(id)
			case 3:
				q := fuzzQuery(next(), next())
				got, plan := cat.SearchPlan(q)
				if want := cat.searchScan(q); !reflect.DeepEqual(got, want) {
					t.Fatalf("query %+v: plan %+v returned %d docs, scan %d", q, plan, len(got), len(want))
				}
			}
		}
	})
}

// BenchmarkCatalogTagQuery is the series query of the benchmark's cell_vault
// workload against its catalog shape: 10k documents, half of them series in
// tag partitions of 10, each query naming one partition and the series type.
func BenchmarkCatalogTagQuery(b *testing.B) {
	const docs, partitionDocs = 10_000, 10
	cat := NewCatalog()
	for i := 0; i < docs; i++ {
		d := &Document{
			ID: fmt.Sprintf("doc-%05d", i), Owner: "cell", Type: "note", Class: ClassAuthored,
			CreatedAt: planBase.Add(time.Duration(i) * time.Second),
		}
		if i%2 == 0 {
			d.Type, d.Class = "series", ClassSensed
			d.Keywords = []string{"energy"}
			d.Tags = map[string]string{"home": fmt.Sprintf("h%04d", i/2/partitionDocs)}
		}
		if err := cat.Add(d); err != nil {
			b.Fatal(err)
		}
	}
	parts := docs / 2 / partitionDocs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := Query{Type: "series", TagKey: "home", TagValue: fmt.Sprintf("h%04d", i%parts)}
		if got := cat.Search(q); len(got) != partitionDocs {
			b.Fatalf("partition query returned %d docs", len(got))
		}
	}
}
