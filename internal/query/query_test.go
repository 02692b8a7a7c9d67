package query

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"trustedcells/internal/cloud"
	"trustedcells/internal/core"
	"trustedcells/internal/datamodel"
	"trustedcells/internal/policy"
	"trustedcells/internal/tamper"
	"trustedcells/internal/timeseries"
)

var start = time.Date(2013, 1, 21, 0, 0, 0, 0, time.UTC)

func newCellWithSeries(t *testing.T, nDocs int) *core.Cell {
	t.Helper()
	cell, err := core.New(core.Config{
		ID: "alice-gw", Class: tamper.ClassHomeGateway, Cloud: cloud.NewMemory(),
		Seed: []byte("seed"), Clock: func() time.Time { return start },
	})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < nDocs; d++ {
		s := timeseries.NewSeries("power", "W")
		for i := 0; i < 24; i++ {
			_ = s.AppendValue(start.Add(time.Duration(i)*time.Hour), float64(100*(d+1)))
		}
		if _, err := cell.IngestSeries(s, "day", []string{"energy"}, map[string]string{"meter": "linky"}); err != nil {
			t.Fatal(err)
		}
	}
	// A non-series document that must not pollute series queries.
	if _, err := cell.Ingest([]byte("note"), core.IngestOptions{Type: "note",
		Class: datamodel.ClassAuthored, Keywords: []string{"energy", "todo"}}); err != nil {
		t.Fatal(err)
	}
	_ = cell.AddRule(policy.Rule{ID: "household-agg", Effect: policy.EffectAllow,
		SubjectGroups:  []string{"household"},
		Actions:        []policy.Action{policy.ActionAggregate},
		Resource:       policy.Resource{Type: core.SeriesDocType},
		MaxGranularity: time.Hour,
	})
	return cell
}

func TestRunSeriesAggregateMergesDocuments(t *testing.T) {
	cell := newCellWithSeries(t, 3)
	eng := NewEngine(cell, "bob", core.AccessContext{Groups: []string{"household"}})
	res, err := eng.RunSeriesAggregate(SeriesAggregate{
		Granularity: timeseries.GranularityHour,
		Kind:        timeseries.AggregateSum,
	})
	if err != nil {
		t.Fatalf("RunSeriesAggregate: %v", err)
	}
	if len(res.Documents) != 3 || res.Denied != 0 {
		t.Fatalf("result %+v", res)
	}
	if res.Merged.Len() != 24 {
		t.Fatalf("merged buckets = %d", res.Merged.Len())
	}
	// Each hour: 100 + 200 + 300 = 600.
	if v := res.Merged.Points()[0].Value; v != 600 {
		t.Fatalf("merged value = %v, want 600", v)
	}
	// Mean across documents.
	res, err = eng.RunSeriesAggregate(SeriesAggregate{
		Granularity: timeseries.GranularityHour,
		Kind:        timeseries.AggregateMean,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Merged.Points()[0].Value; v != 200 {
		t.Fatalf("merged mean = %v, want 200", v)
	}
}

func TestRunSeriesAggregateDeniedForStrangers(t *testing.T) {
	cell := newCellWithSeries(t, 2)
	eng := NewEngine(cell, "stranger", core.AccessContext{})
	res, err := eng.RunSeriesAggregate(SeriesAggregate{
		Granularity: timeseries.GranularityHour,
		Kind:        timeseries.AggregateSum,
	})
	if !errors.Is(err, core.ErrAccessDenied) {
		t.Fatalf("expected access denied, got %v (res=%+v)", err, res)
	}
	if res == nil || res.Denied != 2 {
		t.Fatalf("denied count %+v", res)
	}
}

func TestRunSeriesAggregateGranularityCap(t *testing.T) {
	cell := newCellWithSeries(t, 1)
	eng := NewEngine(cell, "bob", core.AccessContext{Groups: []string{"household"}})
	// 1-minute granularity is finer than the 1-hour cap → every doc denied.
	if _, err := eng.RunSeriesAggregate(SeriesAggregate{
		Granularity: timeseries.GranularityMinute,
		Kind:        timeseries.AggregateMean,
	}); !errors.Is(err, core.ErrAccessDenied) {
		t.Fatalf("granularity cap not enforced: %v", err)
	}
}

func TestRunSeriesAggregateNoMatch(t *testing.T) {
	cell := newCellWithSeries(t, 1)
	eng := NewEngine(cell, "bob", core.AccessContext{Groups: []string{"household"}})
	_, err := eng.RunSeriesAggregate(SeriesAggregate{
		Filter:      datamodel.Query{TagKey: "meter", TagValue: "nonexistent"},
		Granularity: timeseries.GranularityHour,
		Kind:        timeseries.AggregateSum,
	})
	if err != ErrNoDocuments {
		t.Fatalf("expected ErrNoDocuments, got %v", err)
	}
}

// coldQueryCell builds a cell with nSeries series documents plus filler
// notes, syncs its vault, and returns a restored twin whose payload cache is
// empty — every payload must come from the cloud, which is where the batched
// pipeline pays one exchange and a per-document read pays one per document.
func coldQueryCell(t *testing.T, svc cloud.Service, nSeries, nNotes int) *core.Cell {
	t.Helper()
	builder, err := core.New(core.Config{
		ID: "cold-gw", Class: tamper.ClassHomeGateway, Cloud: svc,
		Seed: []byte("cold-seed"), Clock: func() time.Time { return start },
	})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < nSeries; d++ {
		s := timeseries.NewSeries("power", "W")
		for i := 0; i < 24; i++ {
			_ = s.AppendValue(start.Add(time.Duration(i)*time.Hour), float64(100*(d+1)))
		}
		if _, err := builder.IngestSeries(s, "day", []string{"energy"}, map[string]string{"meter": "linky"}); err != nil {
			t.Fatal(err)
		}
	}
	items := make([]core.IngestItem, nNotes)
	for i := range items {
		items[i] = core.IngestItem{Payload: []byte(fmt.Sprintf("note-%03d", i)),
			Opts: core.IngestOptions{Class: datamodel.ClassAuthored, Type: "note"}}
	}
	if nNotes > 0 {
		if _, err := builder.IngestBatch(items); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := builder.SyncVault(); err != nil {
		t.Fatal(err)
	}
	cold, err := core.New(core.Config{
		ID: "cold-gw", Class: tamper.ClassHomeGateway, Cloud: svc,
		Seed: []byte("cold-seed"), Clock: func() time.Time { return start },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.RestoreVault(); err != nil {
		t.Fatal(err)
	}
	_ = cold.AddRule(policy.Rule{ID: "household-agg", Effect: policy.EffectAllow,
		SubjectGroups:  []string{"household"},
		Actions:        []policy.Action{policy.ActionAggregate},
		Resource:       policy.Resource{Type: core.SeriesDocType},
		MaxGranularity: time.Hour,
	})
	return cold
}

// TestBatchedPipelineMatchesSequentialBaseline runs the aggregate on the
// batched pipeline and requires the merge the seed's per-document path
// computes — one policy-checked Cell.Aggregate per document, summed here —
// while the batched path does all its cloud fetching in one exchange.
func TestBatchedPipelineMatchesSequentialBaseline(t *testing.T) {
	svc := cloud.NewMemory()
	cell := coldQueryCell(t, svc, 4, 20)
	household := core.AccessContext{Groups: []string{"household"}}
	eng := NewEngine(cell, "bob", household)
	q := SeriesAggregate{Granularity: timeseries.GranularityHour, Kind: timeseries.AggregateSum}

	gets0 := svc.Stats().Gets
	batched, err := eng.RunSeriesAggregate(q)
	if err != nil {
		t.Fatalf("batched: %v", err)
	}
	batchedGets := svc.Stats().Gets - gets0

	// A second, fresh cold cell for the per-document baseline.
	svc2 := cloud.NewMemory()
	cell2 := coldQueryCell(t, svc2, 4, 20)
	docs, err := cell2.Search(datamodel.Query{Type: core.SeriesDocType})
	if err != nil {
		t.Fatal(err)
	}
	gets0 = svc2.Stats().Gets
	want := make(map[time.Time]float64)
	for _, d := range docs {
		agg, err := cell2.Aggregate("bob", d.ID, q.Granularity, q.Kind, household)
		if err != nil {
			t.Fatalf("Aggregate %s: %v", d.ID, err)
		}
		for _, p := range agg.Points() {
			want[p.Time] += p.Value
		}
	}
	seqGets := svc2.Stats().Gets - gets0

	if len(batched.Documents) != 4 || len(docs) != 4 {
		t.Fatalf("documents: batched %d per-document %d", len(batched.Documents), len(docs))
	}
	if batched.Merged.Len() != len(want) {
		t.Fatalf("merged length: %d vs %d", batched.Merged.Len(), len(want))
	}
	for _, p := range batched.Merged.Points() {
		if p.Value != want[p.Time] {
			t.Fatalf("bucket %v: %v vs %v", p.Time, p.Value, want[p.Time])
		}
	}
	// Both paths fetched 4 payloads; the batched plan used the type index.
	if batchedGets != seqGets {
		t.Fatalf("blob gets: batched %d per-document %d", batchedGets, seqGets)
	}
	if batched.Plan.Index != "type" || batched.Plan.Scanned >= cell.Catalog().Len() {
		t.Fatalf("batched plan %+v", batched.Plan)
	}
}
