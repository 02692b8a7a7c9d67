// Package query provides the cross-document query facility the paper
// motivates when it argues for "organizing all these data in a common
// personal digital space, providing a consistent view, facilitating querying
// and cross-analysis".
//
// The engine executes a query in four stages: PLAN (the catalog's indexed
// planner selects the matching documents without touching payloads),
// BATCH-FETCH (all sealed payloads missing from the local cache come back in
// one cloud round-trip), PARALLEL-OPEN (decryption and per-document
// aggregation fan out across the cell's bounded worker pool), and
// STREAMING-MERGE (per-document results fold into the merged answer one at a
// time).
package query

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"trustedcells/internal/core"
	"trustedcells/internal/datamodel"
	"trustedcells/internal/timeseries"
)

// ErrNoDocuments indicates an aggregate query that matched nothing.
var ErrNoDocuments = errors.New("query: no documents match the filter")

// Engine executes queries against a single cell on behalf of a subject.
type Engine struct {
	cell    *core.Cell
	subject string
	ctx     core.AccessContext
}

// NewEngine builds an engine for subject with the given access context.
func NewEngine(cell *core.Cell, subject string, ctx core.AccessContext) *Engine {
	return &Engine{cell: cell, subject: subject, ctx: ctx}
}

// Metadata runs a catalog query (owner-side operation).
func (e *Engine) Metadata(q datamodel.Query) ([]*datamodel.Document, error) {
	return e.cell.Search(q)
}

// Explain runs a catalog query and returns the plan the catalog chose
// alongside the results, without touching any payload.
func (e *Engine) Explain(q datamodel.Query) ([]*datamodel.Document, datamodel.PlanInfo, error) {
	return e.cell.SearchPlan(q)
}

// SeriesAggregate describes an aggregate query over all time-series documents
// matching a metadata filter.
type SeriesAggregate struct {
	Filter      datamodel.Query
	Granularity timeseries.Granularity
	Kind        timeseries.AggregateKind
}

// SeriesResult is the merged result of a SeriesAggregate query.
type SeriesResult struct {
	// Documents lists the document IDs that contributed.
	Documents []string
	// Merged is the bucket-wise combination of the per-document aggregates
	// (sums are added, means are averaged over documents).
	Merged *timeseries.Series
	// Denied counts documents the policy refused to open for this subject.
	Denied int
	// Plan explains how the catalog selected the candidate documents.
	Plan datamodel.PlanInfo
}

// seriesMerger folds per-document aggregates into time buckets one document
// at a time (the streaming-merge stage).
type seriesMerger struct {
	buckets map[time.Time]*mergeBucket
}

type mergeBucket struct {
	sum   float64
	count int
}

func newSeriesMerger() *seriesMerger {
	return &seriesMerger{buckets: make(map[time.Time]*mergeBucket)}
}

func (m *seriesMerger) add(s *timeseries.Series) {
	for _, p := range s.Points() {
		b := m.buckets[p.Time]
		if b == nil {
			b = &mergeBucket{}
			m.buckets[p.Time] = b
		}
		b.sum += p.Value
		b.count++
	}
}

func (m *seriesMerger) result(kind timeseries.AggregateKind) (*timeseries.Series, error) {
	times := make([]time.Time, 0, len(m.buckets))
	for ts := range m.buckets {
		times = append(times, ts)
	}
	sort.Slice(times, func(i, j int) bool { return times[i].Before(times[j]) })
	out := timeseries.NewSeries(fmt.Sprintf("merged-%s", kind), "")
	for _, ts := range times {
		b := m.buckets[ts]
		v := b.sum
		if kind == timeseries.AggregateMean && b.count > 0 {
			v = b.sum / float64(b.count)
		}
		if err := out.AppendValue(ts, v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RunSeriesAggregate plans and executes the aggregate through the batched
// pipeline: the indexed catalog selects the documents, every payload missing
// from the local cache arrives in ONE cloud exchange, decryption and
// downsampling fan out across the cell's worker pool, and the per-document
// aggregates stream into the merged series. Per-document policies and
// granularity caps apply exactly as in Cell.Aggregate.
func (e *Engine) RunSeriesAggregate(q SeriesAggregate) (*SeriesResult, error) {
	filter := q.Filter
	filter.Type = core.SeriesDocType
	docs, plan, err := e.cell.SearchPlan(filter)
	if err != nil {
		return nil, err
	}
	if len(docs) == 0 {
		return nil, ErrNoDocuments
	}
	ids := make([]string, len(docs))
	for i, d := range docs {
		ids[i] = d.ID
	}
	res := &SeriesResult{Plan: plan}
	merger := newSeriesMerger()
	for _, r := range e.cell.AggregateBatch(e.subject, ids, q.Granularity, q.Kind, e.ctx) {
		if r.Err != nil {
			res.Denied++
			continue
		}
		res.Documents = append(res.Documents, r.DocID)
		merger.add(r.Series)
	}
	return e.finishSeries(res, q.Kind, merger)
}

// finishSeries materialises the merged series and applies the shared
// all-denied error semantics.
func (e *Engine) finishSeries(res *SeriesResult, kind timeseries.AggregateKind, merger *seriesMerger) (*SeriesResult, error) {
	if len(res.Documents) == 0 {
		return res, fmt.Errorf("%w for subject %s", core.ErrAccessDenied, e.subject)
	}
	merged, err := merger.result(kind)
	if err != nil {
		return nil, err
	}
	res.Merged = merged
	return res, nil
}

// KeywordCount returns, for each keyword, the number of catalog documents
// carrying it — a single pass over the catalog's keyword index; no document
// metadata is cloned and no payload is touched.
func (e *Engine) KeywordCount(keywords []string) (map[string]int, error) {
	return e.cell.KeywordCounts(keywords)
}
