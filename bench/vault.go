package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"trustedcells/internal/audit"
	"trustedcells/internal/cloud"
	"trustedcells/internal/core"
	"trustedcells/internal/datamodel"
	"trustedcells/internal/policy"
	"trustedcells/internal/query"
	syncpkg "trustedcells/internal/sync"
	"trustedcells/internal/timeseries"
)

// The cell_vault workload's fixed shape.
const (
	catalogDocs   = 10_000 // documents in each cell's catalog after set-up
	vaultDocBytes = 1024   // plaintext bytes per note; a series encodes to about as much
	ingestItems   = 64     // documents per IngestBatch
	readDocs      = 32     // documents per ReadBatch, half never read by this twin before
	partitionDocs = 10     // series documents per tag partition; one query aggregates one partition
	seriesPoints  = 19     // hourly points per series
	syncUpserts   = 24     // documents changed before each sync round
	setupChunk    = 1024   // documents per IngestBatch while the catalog is built
)

// vaultCore is what one core drives: a cell that ingests, a restored twin of
// it with an empty payload cache that reads and answers queries, and two
// replicas of the user's catalog on two devices.
type vaultCore struct {
	run      *vaultRun
	index    int
	id       string
	seed     []byte
	rng      *rand.Rand
	builder  *core.Cell
	reader   *core.Cell
	engine   *query.Engine
	cloudB   cellCloud        // under the builder
	cloudR   cellCloud        // under the reader
	cloudS   cellCloud        // under the replicas
	ids      []string         // the set-up catalog's document ids, in a seeded order
	sizes    map[string]int64 // plaintext size by id
	cold     int              // ids[:cold] have been read by the current twin
	parts    int              // tag partitions in the set-up catalog
	serial   int              // makes every generated document distinct
	items    []core.IngestItem
	series   []byte
	replicaA *syncpkg.Replica
	replicaB *syncpkg.Replica
	docs     []*datamodel.Document // what the sync rounds change
	calls    int
}

// vaultRun is the state of one cell_vault run.
type vaultRun struct {
	cfg   *config
	mem   *cloud.Memory
	cores []*vaultCore
	user  int64 // plaintext bytes ingested
	userM sync.Mutex
}

var readCtx = core.AccessContext{Groups: []string{"household"}}

func partitionTag(p int) string { return fmt.Sprintf("h%04d", p) }

// seriesPayload writes a series document's payload into c.series: the JSON
// core.IngestSeries would produce, built by hand so that generating it costs
// next to nothing beside ingesting it.
func (c *vaultCore) seriesPayload() []byte {
	b := append(c.series[:0], `{"name":"power-`...)
	b = strconv.AppendInt(b, int64(c.index), 10)
	b = append(b, '-')
	b = strconv.AppendInt(b, int64(c.serial), 10)
	b = append(b, `","unit":"W","points":[`...)
	for h := 0; h < seriesPoints; h++ {
		if h > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"Time":"2013-01-07T`...)
		if h < 10 {
			b = append(b, '0')
		}
		b = strconv.AppendInt(b, int64(h), 10)
		b = append(b, `:00:00Z","Value":`...)
		b = strconv.AppendInt(b, int64(100+c.rng.Intn(900)), 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(100+c.rng.Intn(900)), 10)
		b = append(b, '}')
	}
	c.series = append(b, `]}`...)
	return c.series
}

// fill makes n fresh items in c.items: even ones series of a tag partition,
// odd ones opaque notes. IngestBatch does not keep the payloads, so the
// buffers are reused.
func (c *vaultCore) fill(n int) []core.IngestItem {
	if cap(c.items) < n {
		c.items = make([]core.IngestItem, n)
	}
	items := c.items[:n]
	for i := range items {
		c.serial++
		if i%2 == 0 {
			p := (c.serial / 2 / partitionDocs)
			payload := append(items[i].Payload[:0], c.seriesPayload()...)
			items[i] = core.IngestItem{Payload: payload, Opts: core.IngestOptions{
				Class: datamodel.ClassSensed, Type: core.SeriesDocType, Title: "day",
				Keywords: []string{"energy"}, Tags: map[string]string{"home": partitionTag(p)},
			}}
			continue
		}
		payload := items[i].Payload
		if cap(payload) < vaultDocBytes {
			payload = make([]byte, vaultDocBytes)
		}
		payload = payload[:vaultDocBytes]
		c.rng.Read(payload)
		strconv.AppendInt(payload[:0], int64(c.serial), 10) // distinct even if the stream repeats
		items[i] = core.IngestItem{Payload: payload, Opts: core.IngestOptions{
			Class: datamodel.ClassAuthored, Type: "note", Title: "note",
		}}
	}
	return items
}

// setup builds the core's catalog through IngestBatch, syncs the vault,
// restores the cold twin and seeds the two replicas with the catalog.
func (c *vaultCore) setup(o stackOpts) error {
	r := c.run
	c.rng = rand.New(rand.NewSource(r.cfg.seed*104_729 + int64(c.index)))
	c.serial, c.cold, c.calls = 0, 0, 0
	c.cloudB, c.cloudR, c.cloudS = newCellCloud(r.mem, o), newCellCloud(r.mem, o), newCellCloud(r.mem, o)
	var err error
	if c.builder, err = newCell(c.id, c.seed, c.cloudB.svc); err != nil {
		return err
	}
	c.ids = c.ids[:0]
	c.sizes = make(map[string]int64, r.cfg.size.catalogDocs)
	for done := 0; done < r.cfg.size.catalogDocs; done += setupChunk {
		n := min(setupChunk, r.cfg.size.catalogDocs-done)
		docs, err := c.builder.IngestBatch(c.fill(n))
		if err != nil {
			return err
		}
		for _, d := range docs {
			c.ids = append(c.ids, d.ID)
			c.sizes[d.ID] = d.Size
			r.addUser(d.Size)
		}
	}
	c.parts = (c.serial/2 + partitionDocs - 1) / partitionDocs
	c.rng.Shuffle(len(c.ids), func(i, j int) { c.ids[i], c.ids[j] = c.ids[j], c.ids[i] })
	if _, err := c.builder.SyncVault(); err != nil {
		return err
	}
	if err := c.restoreTwin(); err != nil {
		return err
	}

	key, err := replicaKey(r.cfg.seed)
	if err != nil {
		return err
	}
	user := "user-" + c.id
	c.replicaA = newReplica(user+"/gateway", user, key, c.cloudS.svc)
	c.replicaB = newReplica(user+"/phone", user, key, c.cloudS.svc)
	c.docs = c.builder.Catalog().All()
	for _, d := range c.docs {
		c.replicaA.Upsert(d)
	}
	if err := c.replicaA.Sync(); err != nil {
		return err
	}
	return c.replicaB.Sync()
}

// restoreTwin makes a fresh cell with the builder's identity and restores
// the vault into it: the whole catalog and an empty payload cache, so every
// first read of a document must fetch it from the cloud.
func (c *vaultCore) restoreTwin() error {
	reader, err := newCell(c.id, c.seed, c.cloudR.svc)
	if err != nil {
		return err
	}
	if _, err := reader.RestoreVault(); err != nil {
		return err
	}
	for _, rule := range []policy.Rule{
		{ID: "household-read", Effect: policy.EffectAllow, SubjectGroups: []string{"household"},
			Actions: []policy.Action{policy.ActionRead}},
		{ID: "analyst-aggregate", Effect: policy.EffectAllow, SubjectGroups: []string{"analyst"},
			Actions:  []policy.Action{policy.ActionAggregate},
			Resource: policy.Resource{Type: core.SeriesDocType}, MaxGranularity: time.Hour},
	} {
		if err := reader.AddRule(rule); err != nil {
			return err
		}
	}
	c.reader, c.cold = reader, 0
	c.engine = newEngine(reader, "analyst-"+c.id, []string{"analyst"})
	return nil
}

func (r *vaultRun) addUser(n int64) {
	r.userM.Lock()
	r.user += n
	r.userM.Unlock()
}

// begin opens a traced call's span on cc: cloud calls made until end are
// recorded as its children. It returns the function that closes the span.
func (c *vaultCore) begin(cc cellCloud, layer, what string) func() {
	if cc.rec == nil {
		return func() {}
	}
	c.calls++
	ref := &spanRef{id: fmt.Sprintf("%s/%s/%06d", c.id, what, c.calls), layer: layer}
	cc.current.Store(ref)
	start := time.Now()
	return func() {
		cc.rec.record(ref.id, layer, "", start, time.Now())
		cc.current.Store(nil)
	}
}

// vaultOp is one timed call of a sub-phase: it returns the documents (or,
// for queries and sync rounds, the operations) it completed and how long the
// call itself took, without the time the benchmark spent preparing it.
type vaultOp func(c *vaultCore) (done int, took time.Duration, err error)

func opIngest(c *vaultCore) (int, time.Duration, error) {
	items := c.fill(ingestItems)
	end := c.begin(c.cloudB, layerCellCall, "ingest")
	start := time.Now()
	docs, err := c.builder.IngestBatch(items)
	took := time.Since(start)
	end()
	if err == nil && len(docs) != len(items) {
		err = fmt.Errorf("ingest batch committed %d of %d documents", len(docs), len(items))
	}
	for _, d := range docs {
		c.run.addUser(d.Size)
	}
	return len(docs), took, err
}

// opRead reads readDocs documents through the policy gate: half the twin has
// never read, which it must fetch from the cloud, and half it has, which its
// payload cache holds. A twin that has read everything is replaced by a
// freshly restored one, outside the timed call.
func opRead(c *vaultCore) (int, time.Duration, error) {
	const fresh = readDocs / 2
	if c.cold+fresh > len(c.ids) {
		if err := c.restoreTwin(); err != nil {
			return 0, 0, err
		}
	}
	ids := make([]string, 0, readDocs)
	ids = append(ids, c.ids[c.cold:c.cold+fresh]...)
	for len(ids) < readDocs && c.cold > 0 {
		ids = append(ids, c.ids[c.rng.Intn(c.cold)])
	}
	c.cold += fresh
	end := c.begin(c.cloudR, layerCellCall, "read")
	start := time.Now()
	results := c.reader.ReadBatch("member-"+c.id, ids, readCtx)
	took := time.Since(start)
	end()
	for _, res := range results {
		if res.Err != nil {
			return 0, took, fmt.Errorf("read %s: %w", res.DocID, res.Err)
		}
		if int64(len(res.Payload)) != c.sizes[res.DocID] {
			return 0, took, fmt.Errorf("read %s: %d bytes, ingested %d", res.DocID, len(res.Payload), c.sizes[res.DocID])
		}
	}
	return len(results), took, nil
}

func (c *vaultCore) partitionQuery() query.SeriesAggregate {
	return query.SeriesAggregate{
		Filter:      datamodel.Query{TagKey: "home", TagValue: partitionTag(c.rng.Intn(c.parts - 1))},
		Granularity: timeseries.GranularityHour,
		Kind:        timeseries.AggregateMean,
	}
}

// opQuery aggregates one tag partition's series on the twin.
func opQuery(c *vaultCore) (int, time.Duration, error) {
	q := c.partitionQuery()
	end := c.begin(c.cloudR, layerQuery, "query")
	start := time.Now()
	res, err := c.engine.RunSeriesAggregate(q)
	took := time.Since(start)
	end()
	if err != nil {
		return 0, took, err
	}
	if len(res.Documents) != partitionDocs || res.Denied != 0 || res.Merged.Len() != seriesPoints {
		return 0, took, fmt.Errorf("query %s: %d documents, %d denied, %d buckets",
			q.Filter.TagValue, len(res.Documents), res.Denied, res.Merged.Len())
	}
	return 1, took, nil
}

// opSync changes syncUpserts documents on the gateway and runs one round:
// the gateway syncs, then the phone does.
func opSync(c *vaultCore) (int, time.Duration, error) {
	c.serial++
	for i := 0; i < syncUpserts; i++ {
		d := c.docs[c.rng.Intn(len(c.docs))]
		d.Title = "rev " + strconv.Itoa(c.serial)
		c.replicaA.Upsert(d)
	}
	end := c.begin(c.cloudS, layerSync, "sync")
	start := time.Now()
	err := c.replicaA.Sync()
	if err == nil {
		err = c.replicaB.Sync()
	}
	took := time.Since(start)
	end()
	return 1, took, err
}

// phase runs op on every core in a closed loop for d: each core's one
// goroutine makes its next call when the previous one has returned.
func (r *vaultRun) phase(d time.Duration, op vaultOp) *tally {
	ws := make([]*worker, len(r.cores))
	tallies := make([]samples, len(r.cores))
	start := time.Now()
	deadline := start.Add(d)
	sl := startSlicer(d)
	var wg sync.WaitGroup
	for i, c := range r.cores {
		ws[i] = &worker{}
		wg.Add(1)
		go func(w *worker, c *vaultCore, lat *samples) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				done, took, err := op(c)
				w.attempted++
				if err != nil {
					w.failed++
					if w.firstErr == nil {
						w.firstErr = err
					}
					continue
				}
				w.docs[kindWrite] += int64(done)
				sl.progress.Add(int64(done))
				lat.add(took)
			}
		}(ws[i], c, &tallies[i])
	}
	wg.Wait()
	t := collect(ws, time.Since(start))
	t.slices = sl.wait()
	for i := range tallies {
		t.all.merge(&tallies[i])
	}
	return t
}

func runCellVault(cfg *config) (*result, error) {
	r := &vaultRun{cfg: cfg}
	res := newResult(cv)
	setup, err := medianSetup(cfg.plan.setups, func() error { return r.setup(stackOpts{}) }, func() error { return nil })
	if err != nil {
		return nil, err
	}
	res.e2e("setup_s", setup.Seconds())

	m, err := r.measure(res, cfg.plan.sub)
	if err != nil {
		return nil, err
	}
	// Ingest and read run for the same time, so the documents per second
	// through the cell over both is the mean of their rates. CPU per document
	// is taken over the whole of both sub-phases and not as a median of
	// slices: the cell's cache compacts in bursts that fill a slice, and a
	// median of slices that either hold a burst or do not spread 26 % between
	// runs whose throughput agreed within 5 %.
	docs := m.ingest.docs[kindWrite] + m.read.docs[kindWrite]
	res.e2e("docs_per_s", (m.ingest.medianDocsPerSec()+m.read.medianDocsPerSec())/2)
	cpuPerKdoc := perUnit(ms(m.used.cpu)*1000, docs)
	res.e2e("p50_ms", m.ingest.all.ms(0.5)+m.read.all.ms(0.5)+m.query.all.ms(0.5)+m.sync.all.ms(0.5))
	res.cost(cpuPerKdoc, m.used, docs)
	res.layer("op.write_docs_per_s", m.ingest.docsPerSec(kindWrite))
	res.layer("op.read_docs_per_s", m.read.docsPerSec(kindWrite))
	res.layer("op.write_p50_ms", m.ingest.all.ms(0.5))
	res.layer("op.read_p50_ms", m.read.all.ms(0.5))
	res.layer("op.query_per_s", m.query.docsPerSec(kindWrite))
	res.layer("op.query_p50_ms", m.query.all.ms(0.5))
	res.layer("op.sync_round_p50_ms", m.sync.all.ms(0.5))
	res.layer("op.sync_bytes_per_change", perUnit(float64(m.moved.bytes), m.sync.docs[kindWrite]*syncUpserts))
	res.layer("sync.shard_blobs_per_round", perUnit(float64(m.moved.shards), m.sync.docs[kindWrite]))
	res.layer("core.cache_hit_pct", 100-pct(m.cloudGets, m.read.docs[kindWrite]))
	res.note("sub-phases of %.1fs: %d ingest calls, %d read calls, %d queries, %d sync rounds; p50_ms is the sum of their medians",
		cfg.plan.sub.Seconds(), m.ingest.all.n(), m.read.all.n(), m.query.all.n(), m.sync.all.n())
	callTimes := func(t *tally) string {
		return fmt.Sprintf("%.2f/%.2f/%.2f", t.all.ms(0.5), t.all.ms(0.99), t.all.ms(1))
	}
	res.note("call time in ms, p50/p99/max: ingest %s, read %s, query %s, sync %s",
		callTimes(m.ingest), callTimes(m.read), callTimes(m.query), callTimes(m.sync))
	res.note("share of each sub-phase spent inside the timed calls: ingest %.0f %%, read %.0f %%, query %.0f %%, sync %.0f %%",
		r.busyPct(m.ingest), r.busyPct(m.read), r.busyPct(m.query), r.busyPct(m.sync))

	held, err := heldBytes(r.mem)
	if err != nil {
		return nil, err
	}
	res.e2e("stored_bytes_per_user_byte", perUnit(float64(held), r.user))
	for _, c := range r.cores {
		res.Attempted++
		if !syncpkg.Equal(c.replicaA, c.replicaB) {
			res.Failed++
			res.fail("core %d: the two replicas differ after the last sync round", c.index)
		}
	}
	res.layer("proc.peak_rss_mb", peakRSSMB())
	if cfg.trace {
		if err := r.traced(res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// setup builds one fresh in-process cloud and, in parallel, every core's
// cells and replicas over it.
func (r *vaultRun) setup(o stackOpts) error {
	r.mem, r.user = newMemory(), 0
	r.cores = make([]*vaultCore, r.cfg.conns)
	errs := make(chan error, len(r.cores))
	for i := range r.cores {
		c := &vaultCore{run: r, index: i, id: fmt.Sprintf("vault-%d", i),
			seed: []byte(fmt.Sprintf("bench-vault-%d-%d", r.cfg.seed, i))}
		r.cores[i] = c
		go func() { errs <- c.setup(o) }()
	}
	var first error
	for range r.cores {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// vaultMeasured is what the four sub-phases measured.
type vaultMeasured struct {
	ingest, read, query, sync *tally
	used                      procSnap // over ingest and read
	moved                     transfer // over sync
	cloudGets                 int64    // blobs the cloud served during read
}

// measure runs the four sub-phases, each for d.
func (r *vaultRun) measure(res *result, d time.Duration) (*vaultMeasured, error) {
	m := &vaultMeasured{}
	runtime.GC()
	p0 := readProc()
	m.ingest = r.phase(d, opIngest)
	g0 := readMemory(r.mem).gets
	m.read = r.phase(d, opRead)
	m.cloudGets = readMemory(r.mem).gets - g0
	m.used = readProc().since(p0)
	m.query = r.phase(d, opQuery)
	t0 := r.transfer()
	m.sync = r.phase(d, opSync)
	m.moved = transfer{bytes: r.transfer().bytes - t0.bytes, shards: r.transfer().shards - t0.shards}
	for _, t := range []*tally{m.ingest, m.read, m.query, m.sync} {
		res.count(t)
		if t.all.n() == 0 {
			return nil, fmt.Errorf("a sub-phase of %v completed no call", d)
		}
	}
	return m, nil
}

// busyPct is the share of a sub-phase its cores spent inside the timed
// calls; the rest is the benchmark generating inputs and checking outputs.
func (r *vaultRun) busyPct(t *tally) float64 {
	var busy time.Duration
	for _, d := range t.all.d {
		busy += d
	}
	return 100 * busy.Seconds() / (t.elapsed.Seconds() * float64(len(r.cores)))
}

func (r *vaultRun) transfer() transfer {
	var rs []*syncpkg.Replica
	for _, c := range r.cores {
		rs = append(rs, c.replicaA, c.replicaB)
	}
	return readTransfer(rs...)
}

// heldBytes sums the sizes of every blob the in-process cloud holds.
func heldBytes(mem *cloud.Memory) (int64, error) {
	names, err := mem.ListBlobs("")
	if err != nil {
		return 0, err
	}
	var total int64
	for len(names) > 0 {
		n := min(len(names), 1024)
		blobs, err := mem.GetBlobs(names[:n])
		if err != nil {
			return 0, err
		}
		for _, b := range blobs {
			total += int64(len(b.Data))
		}
		names = names[n:]
	}
	return total, nil
}

// traced builds the cells again over span services, repeats the four
// sub-phases with a span around every call, and measures the layers a span
// cannot separate by calling their public functions directly.
func (r *vaultRun) traced(res *result) error {
	rec := newRecorder()
	if err := r.setup(stackOpts{rec: rec}); err != nil {
		return err
	}
	base := map[string]float64{}
	for _, k := range []string{"op.write_p50_ms", "op.read_p50_ms", "op.query_p50_ms", "op.sync_round_p50_ms"} {
		base[k] = res.PerLayer[k]
	}
	m, err := r.measure(res, r.cfg.plan.traced)
	if err != nil {
		return err
	}
	spans := rec.drain()
	if err := writeTrace(r.cfg, cv, spans); err != nil {
		return err
	}
	tracedSum := m.ingest.all.ms(0.5) + m.read.all.ms(0.5) + m.query.all.ms(0.5) + m.sync.all.ms(0.5)
	res.layer("trace.overhead_pct", 100*(tracedSum/res.EndToEnd["p50_ms"]-1))

	// Self time of each call by what it was: the span id, cell/what/number,
	// carries it.
	byCall := map[string][]span{}
	for _, s := range spans {
		what := strings.Split(s.ID, "/")[1]
		byCall[what] = append(byCall[what], s)
	}
	selfP50 := func(what, layer string) float64 { return selfTimes(byCall[what]).p50us(layer) }
	f, err := newFleet(1, r.cfg.seed)
	if err != nil {
		return err
	}
	sealUs, openUs, mallocs := f.cryptoCosts(vaultDocBytes, r.cfg.size.microLoops)
	res.layer("crypto.seal_us_per_doc", sealUs)
	res.layer("crypto.open_us_per_doc", openUs)
	res.layer("crypto.mallocs_per_seal", mallocs)
	res.layer("core.ingest_self_us_per_doc", selfP50("ingest", layerCellCall)/ingestItems-sealUs)
	res.layer("core.read_self_us_per_doc", selfP50("read", layerCellCall)/readDocs-openUs)

	c := r.cores[0]
	search, aggregate, whole, scanned := c.queryParts()
	res.layer("datamodel.search_us", search)
	res.layer("datamodel.scanned_per_result", scanned)
	res.layer("query.self_us_per_query", whole-search-aggregate)
	res.layer("policy.decide_ns", c.policyCost())
	res.layer("audit.append_ns", auditCost(r.cfg.size.microLoops))
	push, pull, err := c.syncParts()
	if err != nil {
		return err
	}
	res.layer("sync.push_ms", push)
	res.layer("sync.pull_ms", pull)
	res.note("traced: a warm query takes %.1f us, of which the catalog search %.1f us and the cell's AggregateBatch %.1f us",
		whole, search, aggregate)
	return nil
}

// queryParts times, on a warm twin, a whole query and the two calls it is
// made of — the catalog search and the cell's batched aggregate — over the
// same partitions; what is left of the whole is the query engine's own.
func (c *vaultCore) queryParts() (searchUs, aggregateUs, wholeUs, scannedPerResult float64) {
	var search, aggregate, whole samples
	idx0 := readIndex(c.reader)
	searches := 0
	for pass := 0; pass < 2; pass++ { // the first pass warms the payload cache
		for p := 0; p < min(c.parts-1, 64); p++ {
			q := c.partitionQuery()
			q.Filter.TagValue = partitionTag(p)
			start := time.Now()
			_, err := c.engine.RunSeriesAggregate(q)
			took := time.Since(start)
			if err != nil || pass == 0 {
				continue
			}
			whole.add(took)
			filter := q.Filter
			filter.Type = core.SeriesDocType
			start = time.Now()
			docs, _, _ := c.reader.SearchPlan(filter)
			search.add(time.Since(start))
			searches++
			ids := make([]string, len(docs))
			for i, d := range docs {
				ids[i] = d.ID
			}
			start = time.Now()
			c.reader.AggregateBatch("analyst-"+c.id, ids, q.Granularity, q.Kind, core.AccessContext{Groups: []string{"analyst"}})
			aggregate.add(time.Since(start))
		}
	}
	idx := readIndex(c.reader)
	return search.us(0.5), aggregate.us(0.5), whole.us(0.5),
		perUnit(float64(idx.scanned-idx0.scanned), idx.matched-idx0.matched)
}

// policyCost is the mean time of one access decision on the twin's policy
// set, for a household member reading a note.
func (c *vaultCore) policyCost() float64 {
	req := policy.Request{
		Subject:  policy.Subject{ID: "member-" + c.id, Groups: readCtx.Groups},
		Action:   policy.ActionRead,
		Resource: policy.Resource{DocumentID: c.ids[0], Type: "note", Class: datamodel.ClassAuthored.String()},
		Context:  policy.Context{Time: time.Now()},
	}
	n := c.run.cfg.size.microLoops
	set := c.reader.AccessPolicy()
	start := time.Now()
	for i := 0; i < n; i++ {
		if !set.Evaluate(req).Allowed {
			return 0
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// auditCost is the mean time of appending one record to a fresh audit log.
func auditCost(n int) float64 {
	log := newAuditLog()
	rec := audit.Record{Actor: "member", Action: "read", Resource: "doc-000000000000000000000000",
		Outcome: audit.OutcomeAllowed, Reason: "allowed rule=household-read", Time: time.Now()}
	start := time.Now()
	for i := 0; i < n; i++ {
		log.Append(rec)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// syncParts times the two halves of a round separately: the gateway's push
// of its changed shards and the phone's pull of them.
func (c *vaultCore) syncParts() (pushMs, pullMs float64, err error) {
	var push, pull samples
	for round := 0; round < 16; round++ {
		c.serial++
		for i := 0; i < syncUpserts; i++ {
			d := c.docs[c.rng.Intn(len(c.docs))]
			d.Title = "rev " + strconv.Itoa(c.serial)
			c.replicaA.Upsert(d)
		}
		start := time.Now()
		if err := c.replicaA.Push(); err != nil {
			return 0, 0, err
		}
		push.add(time.Since(start))
		start = time.Now()
		if err := c.replicaB.Pull(); err != nil {
			return 0, 0, err
		}
		pull.add(time.Since(start))
	}
	return push.ms(0.5), pull.ms(0.5), nil
}
