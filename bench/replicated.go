package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"trustedcells/internal/cloud"
)

// recentBatches is the window of acknowledged batches the mixed workload's
// reads choose among: a read fetches a batch some cell wrote recently.
type recentBatches struct {
	mu    sync.Mutex
	ring  [recentRing][batchDocs]string
	count int
}

func (r *recentBatches) add(names [batchDocs]string) {
	r.mu.Lock()
	r.ring[r.count%recentRing] = names
	r.count++
	r.mu.Unlock()
}

func (r *recentBatches) pick(rng *rand.Rand) (names [batchDocs]string, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := min(r.count, recentRing)
	if n == 0 {
		return names, false
	}
	return r.ring[rng.Intn(n)], true
}

// replicatedRun is the state of one replicated_mixed run.
type replicatedRun struct {
	cfg    *config
	fleet  *fleet
	dir    string
	st     *replicated
	recent recentBatches
	acked  ackLog
}

func (r *replicatedRun) open(o stackOpts) error {
	dir, err := freshDir(r.cfg.dir, rm)
	if err != nil {
		return err
	}
	r.dir = dir
	r.recent = recentBatches{}
	r.st, err = openReplicated(dir, o)
	return err
}

// workers makes windowPerCon load generators per core, all calling the
// replication layer directly: there is no wire in this workload.
func (r *replicatedRun) workers(rec *recorder) []*worker {
	var ws []*worker
	for c := 0; c < r.cfg.conns; c++ {
		for j := 0; j < windowPerCon; j++ {
			p := newPicker(r.cfg.seed, len(ws), c, r.cfg.conns, r.cfg.size.fleetCells)
			ws = append(ws, &worker{do: r.mixedOp(p, rec)})
		}
	}
	return ws
}

// mixedOp is one request of the mix: three in four seal and put a fresh
// batch for a zipf-picked cell, one in four fetches a recently acknowledged
// batch, opens it and checks every document against its name.
func (r *replicatedRun) mixedOp(p *picker, rec *recorder) func() (kind, int, error) {
	b := &batch{}
	puts := make([]cloud.BlobPut, batchDocs)
	var plain []byte
	svc := r.st.repl
	return func() (kind, int, error) {
		if names, ok := r.recent.pick(p.rng); ok && p.rng.Intn(4) == 0 {
			t0 := time.Now()
			blobs, err := svc.GetBlobs(names[:])
			t1 := time.Now()
			if err == nil {
				plain, err = openAll(r.fleet, plain, names[:], blobs)
			}
			if rec != nil {
				t2 := time.Now()
				rec.record(names[0], layerReq, "", t0, t2)
				rec.record(names[0], layerRepl, layerReq, t0, t1)
				rec.record(names[0], layerOpen, layerReq, t1, t2)
			}
			if err != nil {
				return kindRead, 0, err
			}
			return kindRead, batchDocs, nil
		}
		cell := p.skewed()
		t0 := time.Now()
		if err := b.sealBatch(r.fleet, p.rng, cell, ingestBytes); err != nil {
			return kindWrite, 0, err
		}
		for i := range puts {
			puts[i] = cloud.BlobPut{Name: b.names[i], Data: b.sealed[i]}
		}
		t1 := time.Now()
		_, err := svc.PutBlobs(puts)
		if rec != nil {
			t2 := time.Now()
			rec.record(b.names[0], layerReq, "", t0, t2)
			rec.record(b.names[0], layerSeal, layerReq, t0, t1)
			rec.record(b.names[0], layerRepl, layerReq, t1, t2)
		}
		if err != nil {
			return kindWrite, 0, err
		}
		r.recent.add(b.names)
		if p.rng.Intn(sampleOneIn) == 0 {
			r.acked.add(p.conn, b.names)
		}
		return kindWrite, batchDocs, nil
	}
}

func runReplicatedMixed(cfg *config) (*result, error) {
	fl, err := newFleet(cfg.size.fleetCells, cfg.seed)
	if err != nil {
		return nil, err
	}
	r := &replicatedRun{cfg: cfg, fleet: fl}
	res := newResult(rm)

	setup, err := medianSetup(cfg.plan.setups, func() error { return r.open(stackOpts{}) }, func() error { return r.st.close() })
	if err != nil {
		return nil, err
	}
	res.e2e("setup_s", setup.Seconds())
	res.layer("cloud.durable.open_ms", ms(r.st.openTook))

	ws := r.workers(nil)
	warm := runClosed(ws, cfg.plan.warm)
	res.count(warm)
	store0 := readStore(r.st.members...)

	runtime.GC()
	p0 := readProc()
	capT := runClosed(ws, cfg.plan.capacity)
	used := readProc().since(p0)
	res.count(capT)
	res.e2e("docs_per_s", capT.medianDocsPerSec())
	res.cost(capT.medianCPUPerKdoc(), used, capT.totalDocs())

	res.count(runOpen(ws, cfg.ref, cfg.plan.settle))
	refT := runOpen(ws, cfg.ref, cfg.plan.ref)
	res.count(refT)
	res.e2e("p50_ms", refT.medianSliceP50())
	res.note("ref: %.0f req/s for %.1fs, %d writes and %d reads, p50 %.3f ms, generator lateness p99 %.3f ms",
		cfg.ref, cfg.plan.ref.Seconds(), refT.lat[kindWrite].n(), refT.lat[kindRead].n(), refT.all.ms(0.5), refT.late.ms(0.99))
	res.opSplit(capT, refT)
	res.loadTail(refT)

	if cfg.trace {
		res.ladder(ws, cfg.ref, cfg.plan.rung)
	}
	res.storage(readStore(r.st.members...).since(store0))
	rc := readReplication(r.st.repl)
	res.layer("cloud.replicated.read_repairs", float64(rc.readRepairs))
	res.layer("cloud.replicated.quorum_failures", float64(rc.quorumFailures))
	// Every acknowledged document, whichever phase wrote it.
	if err := r.verify(res, rc.puts*ingestBytes); err != nil {
		return nil, err
	}
	res.layer("proc.peak_rss_mb", peakRSSMB())
	if cfg.trace {
		if err := r.traced(res, refT.all.quantile(0.5)); err != nil {
			return nil, err
		}
		if err := r.degraded(res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// degraded is the outage drill, on a fresh stack so that the repair has
// only the drill's own documents to compare: after a warm-up it switches
// member 2 down, keeps the closed loop running against the two members
// left, brings the member back, and times the hint drain and the
// anti-entropy pass that make it whole again. A sample of what was
// acknowledged during the outage is then read from the returned member
// itself: anything it lacks is stale after the drain, and nothing may be.
func (r *replicatedRun) degraded(res *result) error {
	if err := r.open(stackOpts{}); err != nil {
		return err
	}
	ws := r.workers(nil)
	res.count(runClosed(ws, r.cfg.plan.warm))
	before := len(r.acked.batches)
	r.st.faulty.SetDown(true)
	t := runClosed(ws, r.cfg.plan.degraded)
	r.st.faulty.SetDown(false)
	res.count(t)
	res.layer("op.degraded_write_docs_per_s", t.docsPerSec(kindWrite))

	start := time.Now()
	drained := r.st.repl.DrainHints()
	report, err := r.st.repl.AntiEntropy()
	if err != nil {
		return fmt.Errorf("anti-entropy: %w", err)
	}
	res.layer("cloud.replicated.drain_s", time.Since(start).Seconds())
	rc := readReplication(r.st.repl)
	res.layer("cloud.replicated.hints_queued", float64(rc.hintsQueued))
	res.layer("cloud.replicated.hints_drained", float64(rc.hintsDrained))

	returned := r.st.members[replMembers-1]
	stale := 0
	var buf []byte
	for _, b := range r.acked.batches[before:] {
		blobs, err := returned.GetBlobs(b.names[:])
		if err == nil {
			buf, err = openAll(r.fleet, buf, b.names[:], blobs)
		}
		res.Attempted++
		if err != nil {
			stale++
			res.Failed++
			res.fail("returned member is stale after the drain: %v", err)
		}
	}
	res.layer("cloud.replicated.stale_after_drain", float64(stale))
	res.note("degraded: %.1fs with member %d down; %d hints replayed, anti-entropy compared %d names and rewrote %d stale copies; %d batches acknowledged during the outage checked on the returned member",
		r.cfg.plan.degraded.Seconds(), replMembers-1, drained, report.Names, report.StalePuts, len(r.acked.batches)-before)
	return r.st.close()
}

// verify reads every sampled acknowledged batch at quorum while member 2 is
// down: the two members left must hold, between them, everything that was
// acknowledged. Then the members are flushed, compacted and closed and their
// size is set against the user bytes they hold.
func (r *replicatedRun) verify(res *result, userBytes int64) error {
	r.st.faulty.SetDown(true)
	var buf []byte
	for _, b := range r.acked.batches {
		blobs, err := r.st.repl.GetBlobs(b.names[:])
		if err == nil {
			buf, err = openAll(r.fleet, buf, b.names[:], blobs)
		}
		res.Attempted++
		if err != nil {
			res.Failed++
			res.fail("acknowledged batch unreadable at quorum with a member down: %v", err)
		}
	}
	r.st.faulty.SetDown(false)
	r.st.repl.DrainHints()
	res.note("verify: %d sampled acknowledged batches read at quorum with member %d down",
		len(r.acked.batches), replMembers-1)

	runs := 0
	for _, d := range r.st.members {
		if err := d.Flush(); err != nil {
			return err
		}
		if err := d.Compact(); err != nil {
			return err
		}
		runs += readStore(d).runs
	}
	res.layer("storage.runs_final", float64(runs))
	if err := r.st.close(); err != nil {
		return err
	}
	size, err := dirBytes(r.dir)
	if err != nil {
		return err
	}
	res.e2e("stored_bytes_per_user_byte", perUnit(float64(size), userBytes))
	return nil
}

// traced repeats the reference load on a stack with a span service between
// the replication layer and each member.
func (r *replicatedRun) traced(res *result, baseP50 time.Duration) error {
	rec := newRecorder()
	if err := r.open(stackOpts{rec: rec}); err != nil {
		return err
	}
	ws := r.workers(rec)
	res.count(runClosed(ws, r.cfg.plan.warm))
	rec.drain()
	t := runOpen(ws, r.cfg.ref, r.cfg.plan.traced)
	res.count(t)
	// A member past the write quorum may still be applying its share.
	r.st.repl.DrainHints()
	if err := r.st.close(); err != nil {
		return err
	}
	spans := rec.drain()
	if err := writeTrace(r.cfg, rm, spans); err != nil {
		return err
	}
	self, dur := selfTimes(spans), durations(spans)
	res.layer("cloud.replicated.self_us_per_req", self.p50us(layerRepl))
	res.layer("cloud.replicated.member_us_per_req", dur.p50us(layerMember))
	res.layer("crypto.seal_us_per_doc", dur.p50us(layerSeal)/batchDocs)
	res.layer("crypto.open_us_per_doc", dur.p50us(layerOpen)/batchDocs)
	tracedP50 := t.all.quantile(0.5)
	res.layer("trace.overhead_pct", 100*(float64(tracedP50)/float64(baseP50)-1))
	res.note("traced: %d samples, p50 %.3f ms (untraced %.3f ms); a replicated call's span p50 is %.1f us, of which its members cover all but %.1f us",
		t.all.n(), ms(tracedP50), ms(baseP50), dur.p50us(layerRepl), self.p50us(layerRepl))
	return nil
}
