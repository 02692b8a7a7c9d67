package datamodel

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Query describes a metadata-first search over the catalog. Zero-valued
// fields are ignored; all set fields must match (conjunction).
type Query struct {
	Owner    string
	Class    *DataClass
	Type     string
	Keyword  string
	TagKey   string
	TagValue string
	After    time.Time
	Before   time.Time
	Limit    int
}

// PlanInfo explains how one search was executed: which index drove the
// candidate enumeration, which other indexes pruned it, and how much of the
// catalog was actually touched. It is the explainability hook of the planner.
type PlanInfo struct {
	// Index is the driving access path: "keyword", "type", "owner", "tag",
	// "time", or "scan" when no index applied.
	Index string
	// Intersected lists the additional indexes whose ID sets pruned the
	// driver's candidates before the residual filter ran.
	Intersected []string
	// Candidates is the size of the driving candidate set.
	Candidates int
	// Scanned is how many candidate documents were tested against the
	// residual filter. A full scan tests every document in the catalog.
	Scanned int
	// Matched is the number of documents that satisfied the whole query
	// (before Limit truncation).
	Matched int
	// Truncated reports whether Limit cut the result.
	Truncated bool
}

// IndexStats accumulates planner counters across searches. Tests and
// experiment E10 use it to prove that filtered searches no longer walk the
// whole document map.
type IndexStats struct {
	// Searches counts Search/SearchPlan calls.
	Searches int64
	// IndexScans counts searches served from an index.
	IndexScans int64
	// FullScans counts searches that walked the whole document map.
	FullScans int64
	// DocsScanned totals the documents tested against residual filters.
	DocsScanned int64
	// DocsMatched totals the documents returned (before Limit truncation).
	DocsMatched int64
}

// timeEntry is one (CreatedAt, ID) pair of the time-ordered index.
type timeEntry struct {
	at time.Time
	id string
}

// timeEntryLess orders entries by creation time, then ID.
func timeEntryLess(a, b timeEntry) bool {
	if a.at.Equal(b.at) {
		return a.id < b.id
	}
	return a.at.Before(b.at)
}

// Catalog is the in-cell metadata index. It is kept small enough to live in
// the trusted cell (the paper: "at a minimum, trusted cells keep locally
// extended metadata: access information, indexes, keywords and cryptographic
// keys") and answers keyword, type, owner, tag, class and time queries
// without touching the cloud.
//
// Every dimension a Query can filter on cheaply is indexed: keywords, the
// document type, the owner, tag keys, (tag key, value) pairs, and a
// time-ordered index serving After/Before range scans. Search plans each
// query by picking the most selective applicable index, intersecting the
// other applicable ID sets, and only cloning the documents that survive
// sorting and Limit truncation.
type Catalog struct {
	mu sync.RWMutex
	catalogIndex

	searches    atomic.Int64
	indexScans  atomic.Int64
	fullScans   atomic.Int64
	docsScanned atomic.Int64
	docsMatched atomic.Int64
}

// catalogIndex is a catalog's contents: its documents and every index over
// them, guarded by the catalog's mutex and replaced whole by Replace.
type catalogIndex struct {
	docs    map[string]*Document
	keyword map[string]map[string]bool // normalized keyword -> doc ID set
	byType  map[string]map[string]bool // document type -> doc ID set
	byOwner map[string]map[string]bool // owner -> doc ID set
	byTag   map[string]map[string]bool // tag key -> doc ID set
	// byTagValue serves key-and-value tag filters, so they are driven by a
	// set the size of their result instead of every document with the key.
	byTagValue map[tagPair]map[string]bool
	// byTime is the time-ordered index. It is kept sorted lazily: appends in
	// creation-time order (the common case) keep it clean, out-of-order
	// inserts mark it dirty and the next range query re-sorts it once.
	byTime    []timeEntry
	timeDirty bool
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{catalogIndex: catalogIndex{
		docs:       make(map[string]*Document),
		keyword:    make(map[string]map[string]bool),
		byType:     make(map[string]map[string]bool),
		byOwner:    make(map[string]map[string]bool),
		byTag:      make(map[string]map[string]bool),
		byTagValue: make(map[tagPair]map[string]bool),
	}}
}

// Replace moves the contents of other into c in one step: a concurrent
// reader of c sees the old documents or the new ones, never a mix. other must
// not be used afterwards. The planner counters of c are kept.
func (c *Catalog) Replace(other *Catalog) {
	other.mu.RLock()
	contents := other.catalogIndex
	other.mu.RUnlock()
	c.mu.Lock()
	c.catalogIndex = contents
	c.mu.Unlock()
}

// Add inserts a document. The ID must be unique.
func (c *Catalog) Add(d *Document) error {
	if err := d.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.docs[d.ID]; exists {
		return ErrDuplicateID
	}
	clone := d.Clone()
	c.docs[d.ID] = clone
	c.indexDocLocked(clone)
	return nil
}

// Update replaces an existing document's metadata.
func (c *Catalog) Update(d *Document) error {
	if err := d.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old, exists := c.docs[d.ID]
	if !exists {
		return ErrDocNotFound
	}
	c.unindexDocLocked(old)
	clone := d.Clone()
	c.docs[d.ID] = clone
	c.indexDocLocked(clone)
	return nil
}

// Get returns the document with the given ID.
func (c *Catalog) Get(id string) (*Document, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	d, ok := c.docs[id]
	if !ok {
		return nil, ErrDocNotFound
	}
	return d.Clone(), nil
}

// Remove deletes a document from the catalog.
func (c *Catalog) Remove(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.docs[id]
	if !ok {
		return ErrDocNotFound
	}
	c.unindexDocLocked(d)
	delete(c.docs, id)
	return nil
}

// Len returns the number of documents.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.docs)
}

// Search evaluates a metadata query and returns matching documents sorted by
// creation time (newest first), truncated to q.Limit if positive.
func (c *Catalog) Search(q Query) []*Document {
	docs, _ := c.SearchPlan(q)
	return docs
}

// SearchPlan evaluates a metadata query like Search and additionally returns
// the plan the catalog chose for it.
//
// Planning: every index applicable to q (keyword, type, owner, tag, time
// range) proposes its candidate set — the tag index's set is the documents
// carrying the (key, value) pair when q names a value, else the key's; the
// smallest one drives, the others are intersected by cheap membership tests,
// and only conditions no index guarantees remain in the residual filter. Sorting and Limit truncation
// happen on shared pointers; only the surviving documents are cloned.
func (c *Catalog) SearchPlan(q Query) ([]*Document, PlanInfo) {
	if !q.After.IsZero() || !q.Before.IsZero() {
		c.ensureTimeSorted()
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.searches.Add(1)

	type option struct {
		name   string
		set    map[string]bool // equality indexes
		lo, hi int             // time index range
		size   int
	}
	var opts []option
	if q.Keyword != "" {
		set := c.keyword[normalizeKeyword(q.Keyword)]
		opts = append(opts, option{name: "keyword", set: set, size: len(set)})
	}
	if q.Type != "" {
		set := c.byType[q.Type]
		opts = append(opts, option{name: "type", set: set, size: len(set)})
	}
	if q.Owner != "" {
		set := c.byOwner[q.Owner]
		opts = append(opts, option{name: "owner", set: set, size: len(set)})
	}
	if q.TagKey != "" {
		set := c.byTag[q.TagKey]
		if q.TagValue != "" {
			set = c.byTagValue[tagPair{q.TagKey, q.TagValue}]
		}
		opts = append(opts, option{name: "tag", set: set, size: len(set)})
	}
	// The time index only serves range scans while sorted; a concurrent
	// out-of-order insert since ensureTimeSorted falls back to the residual
	// filter, which still applies the bounds.
	if (!q.After.IsZero() || !q.Before.IsZero()) && !c.timeDirty {
		lo, hi := c.timeRangeLocked(q.After, q.Before)
		opts = append(opts, option{name: "time", lo: lo, hi: hi, size: hi - lo})
	}

	info := PlanInfo{Index: "scan"}
	var matched []*Document
	if len(opts) == 0 {
		c.fullScans.Add(1)
		info.Candidates = len(c.docs)
		for _, d := range c.docs {
			info.Scanned++
			if matches(d, q) {
				matched = append(matched, d)
			}
		}
		return c.finishLocked(matched, q, info)
	}

	c.indexScans.Add(1)
	driver := 0
	for i := 1; i < len(opts); i++ {
		if opts[i].size < opts[driver].size {
			driver = i
		}
	}
	info.Index = opts[driver].name
	info.Candidates = opts[driver].size

	// rest is the residual filter: conditions an index fully guarantees are
	// cleared so candidates are not re-tested against them.
	rest := q
	var others []map[string]bool
	for i, o := range opts {
		guaranteed := i == driver || o.name != "time"
		if i != driver && o.name != "time" {
			if o.size == 0 {
				// An applicable equality index with no entries proves the
				// conjunction is empty.
				info.Index = o.name
				info.Candidates = 0
				return c.finishLocked(nil, q, info)
			}
			others = append(others, o.set)
			info.Intersected = append(info.Intersected, o.name)
		}
		if !guaranteed {
			continue
		}
		switch o.name {
		case "keyword":
			rest.Keyword = ""
		case "type":
			rest.Type = ""
		case "owner":
			rest.Owner = ""
		case "tag":
			rest.TagKey, rest.TagValue = "", ""
		case "time":
			if i == driver {
				rest.After, rest.Before = time.Time{}, time.Time{}
			}
		}
	}

	consider := func(id string) {
		d := c.docs[id]
		if d == nil {
			return
		}
		for _, set := range others {
			if !set[id] {
				return
			}
		}
		info.Scanned++
		if matches(d, rest) {
			matched = append(matched, d)
		}
	}
	if opts[driver].name == "time" {
		for _, e := range c.byTime[opts[driver].lo:opts[driver].hi] {
			consider(e.id)
		}
	} else {
		for id := range opts[driver].set {
			consider(id)
		}
	}
	return c.finishLocked(matched, q, info)
}

// finishLocked sorts the matched documents newest-first, applies Limit, and
// clones only the survivors. Called with at least a read lock held.
func (c *Catalog) finishLocked(matched []*Document, q Query, info PlanInfo) ([]*Document, PlanInfo) {
	sort.Slice(matched, func(i, j int) bool {
		if matched[i].CreatedAt.Equal(matched[j].CreatedAt) {
			return matched[i].ID < matched[j].ID
		}
		return matched[i].CreatedAt.After(matched[j].CreatedAt)
	})
	info.Matched = len(matched)
	if q.Limit > 0 && len(matched) > q.Limit {
		matched = matched[:q.Limit]
		info.Truncated = true
	}
	out := make([]*Document, len(matched))
	for i, d := range matched {
		out[i] = d.Clone()
	}
	c.docsScanned.Add(int64(info.Scanned))
	c.docsMatched.Add(int64(info.Matched))
	return out, info
}

// timeRangeLocked returns the [lo, hi) slice bounds of the sorted time index
// covering CreatedAt >= after (when set) and CreatedAt < before (when set).
func (c *Catalog) timeRangeLocked(after, before time.Time) (int, int) {
	lo, hi := 0, len(c.byTime)
	if !after.IsZero() {
		lo = sort.Search(len(c.byTime), func(i int) bool { return !c.byTime[i].at.Before(after) })
	}
	if !before.IsZero() {
		hi = sort.Search(len(c.byTime), func(i int) bool { return !c.byTime[i].at.Before(before) })
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// ensureTimeSorted re-sorts the time index if out-of-order inserts dirtied
// it. The clean case — every query after the first on a settled catalog —
// only takes the read lock, so concurrent range queries never serialize
// behind a needless write-lock acquisition.
func (c *Catalog) ensureTimeSorted() {
	c.mu.RLock()
	dirty := c.timeDirty
	c.mu.RUnlock()
	if !dirty {
		return
	}
	c.mu.Lock()
	if c.timeDirty {
		sort.Slice(c.byTime, func(i, j int) bool { return timeEntryLess(c.byTime[i], c.byTime[j]) })
		c.timeDirty = false
	}
	c.mu.Unlock()
}

// IndexStats returns a snapshot of the planner counters.
func (c *Catalog) IndexStats() IndexStats {
	return IndexStats{
		Searches:    c.searches.Load(),
		IndexScans:  c.indexScans.Load(),
		FullScans:   c.fullScans.Load(),
		DocsScanned: c.docsScanned.Load(),
		DocsMatched: c.docsMatched.Load(),
	}
}

// ResetIndexStats zeroes the planner counters (experiments measure deltas).
func (c *Catalog) ResetIndexStats() {
	c.searches.Store(0)
	c.indexScans.Store(0)
	c.fullScans.Store(0)
	c.docsScanned.Store(0)
	c.docsMatched.Store(0)
}

// All returns every document, sorted by ID. Intended for synchronization.
func (c *Catalog) All() []*Document {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Document, 0, len(c.docs))
	for _, d := range c.docs {
		out = append(out, d.Clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func matches(d *Document, q Query) bool {
	if q.Owner != "" && d.Owner != q.Owner {
		return false
	}
	if q.Class != nil && d.Class != *q.Class {
		return false
	}
	if q.Type != "" && d.Type != q.Type {
		return false
	}
	if q.Keyword != "" && !hasKeyword(d, q.Keyword) {
		return false
	}
	if q.TagKey != "" {
		v, ok := d.Tags[q.TagKey]
		if !ok {
			return false
		}
		if q.TagValue != "" && v != q.TagValue {
			return false
		}
	}
	if !q.After.IsZero() && d.CreatedAt.Before(q.After) {
		return false
	}
	if !q.Before.IsZero() && !d.CreatedAt.Before(q.Before) {
		return false
	}
	return true
}

func hasKeyword(d *Document, kw string) bool {
	kw = normalizeKeyword(kw)
	for _, k := range d.Keywords {
		if normalizeKeyword(k) == kw {
			return true
		}
	}
	return false
}

func normalizeKeyword(k string) string {
	return strings.ToLower(strings.TrimSpace(k))
}

// tagPair is one (tag key, value) of the byTagValue index.
type tagPair struct{ key, value string }

// addToSet inserts id into idx[key], creating the set on first use.
func addToSet[K comparable](idx map[K]map[string]bool, key K, id string) {
	set := idx[key]
	if set == nil {
		set = make(map[string]bool)
		idx[key] = set
	}
	set[id] = true
}

// dropFromSet removes id from idx[key], deleting empty sets.
func dropFromSet[K comparable](idx map[K]map[string]bool, key K, id string) {
	if set := idx[key]; set != nil {
		delete(set, id)
		if len(set) == 0 {
			delete(idx, key)
		}
	}
}

// indexDocLocked inserts d into every index.
func (c *Catalog) indexDocLocked(d *Document) {
	for _, k := range d.Keywords {
		k = normalizeKeyword(k)
		if k == "" {
			continue
		}
		addToSet(c.keyword, k, d.ID)
	}
	addToSet(c.byType, d.Type, d.ID)
	addToSet(c.byOwner, d.Owner, d.ID)
	for k, v := range d.Tags {
		addToSet(c.byTag, k, d.ID)
		addToSet(c.byTagValue, tagPair{k, v}, d.ID)
	}
	e := timeEntry{at: d.CreatedAt, id: d.ID}
	if n := len(c.byTime); !c.timeDirty && n > 0 && timeEntryLess(e, c.byTime[n-1]) {
		c.timeDirty = true
	}
	c.byTime = append(c.byTime, e)
}

// unindexDocLocked removes d from every index.
func (c *Catalog) unindexDocLocked(d *Document) {
	for _, k := range d.Keywords {
		k = normalizeKeyword(k)
		if k == "" {
			continue
		}
		dropFromSet(c.keyword, k, d.ID)
	}
	dropFromSet(c.byType, d.Type, d.ID)
	dropFromSet(c.byOwner, d.Owner, d.ID)
	for k, v := range d.Tags {
		dropFromSet(c.byTag, k, d.ID)
		dropFromSet(c.byTagValue, tagPair{k, v}, d.ID)
	}
	target := timeEntry{at: d.CreatedAt, id: d.ID}
	i := 0
	if !c.timeDirty {
		// Sorted index: binary-search the (CreatedAt, ID) position instead of
		// comparing against every entry — Remove/Update stay O(log n) in
		// comparisons even on 100k-document catalogs.
		i = sort.Search(len(c.byTime), func(j int) bool { return !timeEntryLess(c.byTime[j], target) })
	} else {
		for i < len(c.byTime) && c.byTime[i].id != d.ID {
			i++
		}
	}
	if i < len(c.byTime) && c.byTime[i].id == d.ID {
		c.byTime = append(c.byTime[:i], c.byTime[i+1:]...)
	}
}

// EncodeCatalog serialises all documents (for the encrypted metadata blob a
// portable cell synchronizes with its vault).
func (c *Catalog) EncodeCatalog() ([]byte, error) {
	return json.Marshal(c.All())
}

// LoadCatalog rebuilds a catalog from EncodeCatalog output.
func LoadCatalog(data []byte) (*Catalog, error) {
	var docs []*Document
	if err := json.Unmarshal(data, &docs); err != nil {
		return nil, fmt.Errorf("datamodel: load catalog: %w", err)
	}
	c := NewCatalog()
	for _, d := range docs {
		if err := c.Add(d); err != nil {
			return nil, err
		}
	}
	return c, nil
}
