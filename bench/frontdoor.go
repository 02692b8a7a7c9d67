package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"trustedcells/internal/cloud"
)

// ackedBatch is one acknowledged batch: its documents' names and the
// connection, hence the tenant, it was written through.
type ackedBatch struct {
	conn  int
	names [batchDocs]string
}

// ackLog remembers a seeded sample of acknowledged batches so that verify
// can read them back.
type ackLog struct {
	mu      sync.Mutex
	batches []ackedBatch
}

func (a *ackLog) add(conn int, names [batchDocs]string) {
	a.mu.Lock()
	a.batches = append(a.batches, ackedBatch{conn, names})
	a.mu.Unlock()
}

// frontdoorRun is the state of one frontdoor_ingest or frontdoor_read run.
type frontdoorRun struct {
	cfg   *config
	read  bool
	name  string
	fleet *fleet
	dir   string
	fd    *frontdoor
	acked ackLog
	// readNames[cell] are the names of a preloaded cell's documents.
	readNames [][]string
	userBytes atomic.Int64 // plaintext bytes acknowledged into the store
}

func (r *frontdoorRun) cells() int {
	if r.read {
		return r.cfg.size.readCells
	}
	return r.cfg.size.fleetCells
}

// open builds the stack on an empty directory and, for the read workload,
// preloads it and flushes the memtables into runs. This is what setup_s
// times.
func (r *frontdoorRun) open(o stackOpts) error {
	dir, err := freshDir(r.cfg.dir, r.name)
	if err != nil {
		return err
	}
	r.dir = dir
	r.userBytes.Store(0)
	if r.fd, err = openFrontdoor(dir, r.cfg.conns, o); err != nil {
		return err
	}
	if !r.read {
		return nil
	}
	if err := r.preload(); err != nil {
		return err
	}
	return r.fd.dur.Flush()
}

func (r *frontdoorRun) closeStack() error {
	r.fd.wire.close()
	return r.fd.dur.Close()
}

// preload writes readCells × batchDocs documents of readDocBytes through the
// front door, four cells to a request, four requests in flight per
// connection.
func (r *frontdoorRun) preload() error {
	const cellsPerPut, inFlight = 4, 4
	r.readNames = make([][]string, r.cells())
	for cell := range r.readNames {
		names := make([]string, batchDocs)
		for i := range names {
			names[i] = docName(cell, uint32(i))
		}
		r.readNames[cell] = names
	}
	conns := r.cfg.conns
	errs := make(chan error, conns*inFlight)
	for c := 0; c < conns; c++ {
		for g := 0; g < inFlight; g++ {
			go func(c, g int) {
				rng := rand.New(rand.NewSource(r.cfg.seed*7919 + int64(c*inFlight+g)))
				payload := make([]byte, readDocBytes)
				puts := make([]cloud.BlobPut, 0, cellsPerPut*batchDocs)
				flush := func() error {
					if len(puts) == 0 {
						return nil
					}
					_, err := r.fd.clients[c].PutBlobs(puts)
					puts = puts[:0]
					return err
				}
				n := 0
				for cell := c; cell < r.cells(); cell += conns {
					if n++; n%inFlight != g {
						continue
					}
					for _, name := range r.readNames[cell] {
						rng.Read(payload)
						sealed, err := r.fleet.seal(nil, name, payload)
						if err != nil {
							errs <- err
							return
						}
						puts = append(puts, cloud.BlobPut{Name: name, Data: sealed})
					}
					if len(puts) == cap(puts) {
						if err := flush(); err != nil {
							errs <- err
							return
						}
					}
				}
				errs <- flush()
			}(c, g)
		}
	}
	var first error
	for i := 0; i < conns*inFlight; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	r.userBytes.Store(int64(r.cells()) * batchDocs * readDocBytes)
	return first
}

// workers makes the load generators: windowPerCon per connection. rec is nil
// for an untraced phase.
func (r *frontdoorRun) workers(rec *recorder, sample bool) []*worker {
	var ws []*worker
	for c, client := range r.fd.clients {
		for j := 0; j < windowPerCon; j++ {
			p := newPicker(r.cfg.seed, len(ws), c, len(r.fd.clients), r.cells())
			if r.read {
				ws = append(ws, &worker{do: r.readOp(client, p, rec)})
			} else {
				ws = append(ws, &worker{do: r.writeOp(client, p, rec, sample)})
			}
		}
	}
	return ws
}

// writeOp is one ingest request: seal batchDocs fresh documents of a
// zipf-picked cell and put them in one call. Sealing is inside the request
// because it is what a cell pays.
func (r *frontdoorRun) writeOp(client service, p *picker, rec *recorder, sample bool) func() (kind, int, error) {
	b := &batch{}
	puts := make([]cloud.BlobPut, batchDocs)
	return func() (kind, int, error) {
		cell := p.skewed()
		t0 := time.Now()
		if err := b.sealBatch(r.fleet, p.rng, cell, ingestBytes); err != nil {
			return kindWrite, 0, err
		}
		for i := range puts {
			puts[i] = cloud.BlobPut{Name: b.names[i], Data: b.sealed[i]}
		}
		t1 := time.Now()
		_, err := client.PutBlobs(puts)
		if rec != nil {
			t2 := time.Now()
			rec.record(b.names[0], layerReq, "", t0, t2)
			rec.record(b.names[0], layerSeal, layerReq, t0, t1)
			rec.record(b.names[0], layerCall, layerReq, t1, t2)
		}
		if err != nil {
			return kindWrite, 0, err
		}
		r.userBytes.Add(batchDocs * ingestBytes)
		if sample && p.rng.Intn(sampleOneIn) == 0 {
			r.acked.add(p.conn, b.names)
		}
		return kindWrite, batchDocs, nil
	}
}

// readOp is one read request: fetch the batchDocs documents of a preloaded
// cell, open each and check it is bound to its name. Half the picks are
// zipf-skewed, so they stay in the block cache; half are uniform over a data
// set four times the cache, so they mostly miss it.
func (r *frontdoorRun) readOp(client service, p *picker, rec *recorder) func() (kind, int, error) {
	var plain []byte
	return func() (kind, int, error) {
		cell := p.skewed()
		if p.rng.Intn(2) == 0 {
			cell = p.uniform()
		}
		names := r.readNames[cell]
		t0 := time.Now()
		blobs, err := client.GetBlobs(names)
		t1 := time.Now()
		if err == nil {
			plain, err = openAll(r.fleet, plain, names, blobs)
		}
		if rec != nil {
			t2 := time.Now()
			rec.record(names[0], layerReq, "", t0, t2)
			rec.record(names[0], layerCall, layerReq, t0, t1)
			rec.record(names[0], layerOpen, layerReq, t1, t2)
		}
		if err != nil {
			return kindRead, 0, err
		}
		return kindRead, len(names), nil
	}
}

// openAll fails unless every requested document came back, opens, and is
// bound to the name it was asked for under.
func openAll(f *fleet, buf []byte, names []string, blobs []cloud.Blob) ([]byte, error) {
	if len(blobs) != len(names) {
		return buf, fmt.Errorf("short read: %d of %d documents", len(blobs), len(names))
	}
	for i, b := range blobs {
		if b.Version == 0 {
			return buf, fmt.Errorf("document %s missing", names[i])
		}
		plain, err := f.open(buf[:0], names[i], b.Data)
		if err != nil {
			return buf, err
		}
		buf = plain
	}
	return buf, nil
}

func runFrontdoor(cfg *config, name string, read bool) (*result, error) {
	cells := cfg.size.fleetCells
	fl, err := newFleet(cells, cfg.seed)
	if err != nil {
		return nil, err
	}
	r := &frontdoorRun{cfg: cfg, read: read, name: name, fleet: fl}
	res := newResult(name)
	ref := cfg.ref
	setup, err := medianSetup(cfg.plan.setups, func() error { return r.open(stackOpts{}) }, r.closeStack)
	if err != nil {
		return nil, err
	}
	res.e2e("setup_s", setup.Seconds())
	res.layer("cloud.durable.open_ms", ms(r.fd.openTook))

	ws := r.workers(nil, true)
	warm := runClosed(ws, cfg.plan.warm)
	res.count(warm)
	store0 := readStore(r.fd.dur)

	runtime.GC()
	p0 := readProc()
	capT := runClosed(ws, cfg.plan.capacity)
	used := readProc().since(p0)
	res.count(capT)
	res.e2e("docs_per_s", capT.medianDocsPerSec())
	res.cost(capT.medianCPUPerKdoc(), used, capT.totalDocs())

	res.count(runOpen(ws, ref, cfg.plan.settle))
	refT := runOpen(ws, ref, cfg.plan.ref)
	res.count(refT)
	res.e2e("p50_ms", refT.medianSliceP50())
	res.note("ref: %.0f req/s for %.1fs, %d samples, p50 %.3f ms (by eighth of the phase: %s), generator lateness p99 %.3f ms",
		ref, cfg.plan.ref.Seconds(), refT.all.n(), refT.all.ms(0.5), msList(refT.sliceP50(closedSlices)), refT.late.ms(0.99))
	res.opSplit(capT, refT)
	res.loadTail(refT)

	if cfg.trace {
		res.ladder(ws, ref, cfg.plan.rung)
	}
	res.storage(readStore(r.fd.dur).since(store0))
	res.layer("cloud.admission.shed_units", float64(readShedUnits(r.fd.adm)))

	if err := r.verify(res); err != nil {
		return nil, err
	}
	res.layer("proc.peak_rss_mb", peakRSSMB())
	if cfg.trace {
		if err := r.traced(res, refT.all.quantile(0.5)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// verify checks the store behind the measured phases. For the ingest
// workload it crashes the quiesced store, reopens it, and reads a 2 % sample
// of the acknowledged batches back through the front door: each must be
// there, open, and be bound to its name. Both workloads then flush, compact
// and close the store and report its size against the user bytes it holds.
func (r *frontdoorRun) verify(res *result) error {
	if !r.read {
		r.fd.wire.close() // nothing is in flight once the handlers have returned
		r.fd.dur.Crash()
		fd, err := openFrontdoor(r.dir, r.cfg.conns, stackOpts{})
		if err != nil {
			return fmt.Errorf("reopen after crash: %w", err)
		}
		r.fd = fd
		rec := readRecovery(fd.dur)
		res.layer("cloud.durable.recovery_ms", rec.ms)
		res.layer("cloud.durable.replayed_ops", float64(rec.replayedOps))
		var buf []byte
		for _, b := range r.acked.batches {
			blobs, err := fd.clients[b.conn].GetBlobs(b.names[:])
			if err == nil {
				buf, err = openAll(r.fleet, buf, b.names[:], blobs)
			}
			res.Attempted++
			if err != nil {
				res.Failed++
				res.fail("acknowledged batch unreadable after recovery: %v", err)
			}
		}
		res.note("verify: crashed and reopened; %d sampled acknowledged batches read back, recovery %.1f ms, %d ops replayed",
			len(r.acked.batches), rec.ms, rec.replayedOps)
	}
	if err := r.fd.dur.Flush(); err != nil {
		return err
	}
	if err := r.fd.dur.Compact(); err != nil {
		return err
	}
	res.layer("storage.runs_final", float64(readStore(r.fd.dur).runs))
	if err := r.closeStack(); err != nil {
		return err
	}
	size, err := dirBytes(r.dir)
	if err != nil {
		return err
	}
	res.e2e("stored_bytes_per_user_byte", perUnit(float64(size), r.userBytes.Load()))
	return nil
}
