package datamodel

import (
	"fmt"
	"testing"
	"time"
)

var base = time.Date(2013, 1, 7, 12, 0, 0, 0, time.UTC)

func sampleDoc(i int, class DataClass) *Document {
	return &Document{
		ID:        fmt.Sprintf("doc-%04d", i),
		Owner:     "alice",
		Class:     class,
		Type:      "power-series",
		Title:     fmt.Sprintf("Readings %d", i),
		Keywords:  []string{"energy", "linky", fmt.Sprintf("day-%d", i)},
		Tags:      map[string]string{"device": "linky", "year": "2013"},
		CreatedAt: base.Add(time.Duration(i) * time.Hour),
		Size:      1024,
	}
}

func TestDataClassStringParse(t *testing.T) {
	for _, c := range []DataClass{ClassSensed, ClassExternal, ClassAuthored} {
		parsed, err := ParseDataClass(c.String())
		if err != nil || parsed != c {
			t.Fatalf("round trip of %v failed: %v %v", c, parsed, err)
		}
	}
	if _, err := ParseDataClass("nonsense"); err == nil {
		t.Fatal("ParseDataClass accepted nonsense")
	}
	if DataClass(9).String() == "" {
		t.Fatal("unknown class should still render")
	}
}

func TestDocumentValidate(t *testing.T) {
	good := sampleDoc(1, ClassSensed)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid doc rejected: %v", err)
	}
	cases := []func(*Document){
		func(d *Document) { d.ID = "" },
		func(d *Document) { d.Owner = "" },
		func(d *Document) { d.Type = "" },
		func(d *Document) { d.Size = -1 },
	}
	for i, mutate := range cases {
		d := sampleDoc(1, ClassSensed)
		mutate(d)
		if err := d.Validate(); err == nil {
			t.Fatalf("case %d: invalid doc accepted", i)
		}
	}
}

func TestNewDocumentIDDeterministicAndDistinct(t *testing.T) {
	a := NewDocumentID("alice", "photo", "hash1")
	b := NewDocumentID("alice", "photo", "hash1")
	c := NewDocumentID("alice", "photo", "hash2")
	d := NewDocumentID("bob", "photo", "hash1")
	if a != b {
		t.Fatal("document ID not deterministic")
	}
	if a == c || a == d {
		t.Fatal("document ID collisions")
	}
}

func TestDocumentEncodeDecode(t *testing.T) {
	d := sampleDoc(3, ClassExternal)
	enc, err := d.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDocument(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != d.ID || got.Class != d.Class || got.Tags["device"] != "linky" {
		t.Fatalf("decoded doc differs: %+v", got)
	}
	invalid, err := (&Document{Owner: "alice", Type: "note"}).EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeDocument(invalid); err == nil {
		t.Fatal("invalid decoded doc accepted")
	}
	if _, err := DecodeDocument([]byte("not a document")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestDocumentCloneIsDeep(t *testing.T) {
	d := sampleDoc(1, ClassAuthored)
	c := d.Clone()
	c.Tags["device"] = "changed"
	c.Keywords[0] = "changed"
	if d.Tags["device"] == "changed" || d.Keywords[0] == "changed" {
		t.Fatal("Clone shares state with the original")
	}
}

func TestCatalogAddGetRemove(t *testing.T) {
	cat := NewCatalog()
	d := sampleDoc(1, ClassSensed)
	if err := cat.Add(d); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := cat.Add(d); err != ErrDuplicateID {
		t.Fatalf("duplicate Add: %v", err)
	}
	got, err := cat.Get(d.ID)
	if err != nil || got.Title != d.Title {
		t.Fatalf("Get: %v %v", got, err)
	}
	// Returned doc is a copy.
	got.Title = "mutated"
	again, _ := cat.Get(d.ID)
	if again.Title == "mutated" {
		t.Fatal("Get returns a shared pointer")
	}
	if err := cat.Remove(d.ID); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := cat.Get(d.ID); err != ErrDocNotFound {
		t.Fatalf("Get after remove: %v", err)
	}
	if err := cat.Remove(d.ID); err != ErrDocNotFound {
		t.Fatalf("Remove twice: %v", err)
	}
	if cat.Len() != 0 {
		t.Fatalf("Len = %d", cat.Len())
	}
}

func TestCatalogUpdate(t *testing.T) {
	cat := NewCatalog()
	d := sampleDoc(1, ClassSensed)
	_ = cat.Add(d)
	if err := cat.Update(sampleDoc(99, ClassSensed)); err != ErrDocNotFound {
		t.Fatalf("Update of missing doc: %v", err)
	}
	mod := d.Clone()
	mod.Keywords = []string{"updated-keyword"}
	mod.Title = "New title"
	if err := cat.Update(mod); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if got, _ := cat.Get(d.ID); got.Title != "New title" {
		t.Fatalf("update not applied: %+v", got)
	}
	// Old keyword no longer matches, new one does.
	if res := cat.Search(Query{Keyword: "energy"}); len(res) != 0 {
		t.Fatalf("stale keyword still indexed: %d results", len(res))
	}
	if res := cat.Search(Query{Keyword: "updated-keyword"}); len(res) != 1 {
		t.Fatalf("new keyword not indexed: %d results", len(res))
	}
}

func newPopulatedCatalog(t *testing.T) *Catalog {
	t.Helper()
	cat := NewCatalog()
	for i := 0; i < 10; i++ {
		class := ClassSensed
		if i%3 == 1 {
			class = ClassExternal
		} else if i%3 == 2 {
			class = ClassAuthored
		}
		d := sampleDoc(i, class)
		if i%2 == 0 {
			d.Type = "photo"
			d.Keywords = append(d.Keywords, "holiday")
		}
		if err := cat.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func TestCatalogSearchByClassTypeKeyword(t *testing.T) {
	cat := newPopulatedCatalog(t)
	sensed := ClassSensed
	res := cat.Search(Query{Class: &sensed})
	if len(res) != 4 {
		t.Fatalf("sensed count = %d, want 4", len(res))
	}
	res = cat.Search(Query{Type: "photo"})
	if len(res) != 5 {
		t.Fatalf("photo count = %d, want 5", len(res))
	}
	res = cat.Search(Query{Keyword: "HOLIDAY"}) // case-insensitive
	if len(res) != 5 {
		t.Fatalf("keyword count = %d, want 5", len(res))
	}
	res = cat.Search(Query{Keyword: "holiday", Type: "photo", Owner: "alice"})
	if len(res) != 5 {
		t.Fatalf("conjunctive count = %d, want 5", len(res))
	}
	res = cat.Search(Query{Owner: "bob"})
	if len(res) != 0 {
		t.Fatalf("foreign owner count = %d", len(res))
	}
	res = cat.Search(Query{TagKey: "device", TagValue: "linky"})
	if len(res) != 10 {
		t.Fatalf("tag search = %d, want 10", len(res))
	}
	res = cat.Search(Query{TagKey: "device", TagValue: "nest"})
	if len(res) != 0 {
		t.Fatalf("wrong tag value matched %d docs", len(res))
	}
	res = cat.Search(Query{TagKey: "missing"})
	if len(res) != 0 {
		t.Fatalf("missing tag matched %d docs", len(res))
	}
}

func TestCatalogSearchTimeRangeAndLimit(t *testing.T) {
	cat := newPopulatedCatalog(t)
	res := cat.Search(Query{After: base.Add(2 * time.Hour), Before: base.Add(5 * time.Hour)})
	if len(res) != 3 {
		t.Fatalf("time range count = %d, want 3", len(res))
	}
	// Newest first ordering.
	res = cat.Search(Query{})
	for i := 1; i < len(res); i++ {
		if res[i].CreatedAt.After(res[i-1].CreatedAt) {
			t.Fatal("results not sorted newest first")
		}
	}
	res = cat.Search(Query{Limit: 3})
	if len(res) != 3 {
		t.Fatalf("limit not applied: %d", len(res))
	}
}

func TestCatalogAllSortedAndEncode(t *testing.T) {
	cat := newPopulatedCatalog(t)
	all := cat.All()
	if len(all) != 10 {
		t.Fatalf("All returned %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatal("All not sorted by ID")
		}
	}
	enc, err := cat.EncodeCatalog()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCatalog(enc)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != cat.Len() {
		t.Fatalf("loaded %d docs, want %d", loaded.Len(), cat.Len())
	}
	if _, err := LoadCatalog([]byte("garbage")); err == nil {
		t.Fatal("garbage catalog accepted")
	}
}

func BenchmarkCatalogSearchKeyword(b *testing.B) {
	cat := NewCatalog()
	for i := 0; i < 10000; i++ {
		d := sampleDoc(i, ClassSensed)
		d.ID = fmt.Sprintf("doc-%06d", i)
		if i%100 == 0 {
			d.Keywords = append(d.Keywords, "rare")
		}
		_ = cat.Add(d)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := cat.Search(Query{Keyword: "rare"}); len(res) != 100 {
			b.Fatalf("got %d", len(res))
		}
	}
}
