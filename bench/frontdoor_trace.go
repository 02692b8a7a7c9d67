package main

import (
	"fmt"
	"time"

	"trustedcells/internal/cloud"
)

// traced repeats the reference load on a stack with span services between
// the layers, then measures what cannot be read off spans: the put without
// its barrier (peel), and the frame and tenant layers over a null service.
func (r *frontdoorRun) traced(res *result, baseP50 time.Duration) error {
	cfg := r.cfg
	rec := newRecorder()
	wc := &wireCounter{}
	if err := r.open(stackOpts{rec: rec, wire: wc}); err != nil {
		return err
	}
	ws := r.workers(rec, false)
	res.count(runClosed(ws, cfg.plan.warm))
	rec.drain()
	wire0 := wc.total()
	t := runOpen(ws, cfg.ref, cfg.plan.traced)
	res.count(t)
	spans := rec.drain()
	wireBytes := wc.total() - wire0
	if err := r.closeStack(); err != nil {
		return err
	}
	if err := writeTrace(cfg, r.name, spans); err != nil {
		return err
	}

	self, dur := selfTimes(spans), durations(spans)
	res.layer("cloud.frame.self_us_per_req", self.p50us(layerCall))
	res.layer("cloud.admission.self_us_per_req", self.p50us(layerAdmission))
	res.layer("cloud.frame.wire_bytes_per_doc", perUnit(float64(wireBytes), t.totalDocs()))
	if r.read {
		res.layer("cloud.durable.get_us_per_req", dur.p50us(layerDurable))
		res.layer("crypto.open_us_per_doc", dur.p50us(layerOpen)/batchDocs)
	} else {
		res.layer("cloud.durable.put_us_per_req", dur.p50us(layerDurable))
		res.layer("crypto.seal_us_per_doc", dur.p50us(layerSeal)/batchDocs)
	}
	tracedP50 := t.all.quantile(0.5)
	res.layer("trace.overhead_pct", 100*(float64(tracedP50)/float64(baseP50)-1))

	// The ledger: where the median request's time goes. Latency is counted
	// from the due time, so the generator's lateness is its first row.
	res.Ledger = []ledgerRow{{"load.lateness", t.late.us(0.5)}}
	for _, layer := range []string{layerSeal, layerCall, layerAdmission, layerDurable, layerOpen} {
		if self[layer] != nil {
			res.Ledger = append(res.Ledger, ledgerRow{layer, self.p50us(layer)})
		}
	}
	var sum float64
	for _, row := range res.Ledger {
		sum += row.P50us
	}
	res.layer("trace.ledger_sum_pct", 100*sum/us(tracedP50))
	res.note("traced: %d samples, p50 %.3f ms (untraced %.3f ms); ledger rows sum to %.1f us",
		t.all.n(), ms(tracedP50), ms(baseP50), sum)

	if !r.read {
		if err := r.peel(res); err != nil {
			return err
		}
		_, _, mallocs := r.fleet.cryptoCosts(ingestBytes, r.cfg.size.microLoops)
		res.layer("crypto.mallocs_per_seal", mallocs)
	}
	return r.null(res)
}

// peel offers the same load to the same traced stack with the journal's
// barrier switched off: what remains of the durable span is encoding, the
// journal write and the shard apply; the difference is the wait for the
// barrier and for the group commit that shares it.
func (r *frontdoorRun) peel(res *result) error {
	rec := newRecorder()
	if err := r.open(stackOpts{rec: rec, nosync: true}); err != nil {
		return err
	}
	ws := r.workers(rec, false)
	res.count(runClosed(ws, r.cfg.plan.warm/2))
	rec.drain()
	res.count(runOpen(ws, r.cfg.ref, r.cfg.plan.peel))
	dur := durations(rec.drain())
	if err := r.closeStack(); err != nil {
		return err
	}
	if dur[layerDurable] == nil {
		return fmt.Errorf("peel: no durable spans recorded")
	}
	nosync := dur[layerDurable].us(0.5)
	res.layer("cloud.durable.put_nosync_us_per_req", nosync)
	res.layer("cloud.durable.sync_wait_us_per_req", res.PerLayer["cloud.durable.put_us_per_req"]-nosync)
	return nil
}

// null measures the frame layer and the tenant layer over a service that
// does nothing: one request in flight, the workload's own request shape.
func (r *frontdoorRun) null(res *result) error {
	sealed, err := r.fleet.seal(nil, "fleet/c0000000/d0000000", make([]byte, readDocBytes))
	if err != nil {
		return err
	}
	backend := &nullService{canned: sealed}
	names := make([]string, batchDocs)
	puts := make([]cloud.BlobPut, batchDocs)
	for i := range puts {
		names[i] = docName(0, uint32(i))
		doc, err := r.fleet.seal(nil, names[i], make([]byte, ingestBytes))
		if err != nil {
			return err
		}
		puts[i] = cloud.BlobPut{Name: names[i], Data: doc}
	}
	call := func(svc service) func() (kind, int, error) {
		if r.read {
			return func() (kind, int, error) {
				blobs, err := svc.GetBlobs(names)
				return kindRead, len(blobs), err
			}
		}
		return func() (kind, int, error) {
			_, err := svc.PutBlobs(puts)
			return kindWrite, batchDocs, err
		}
	}

	w, err := serveFramed(backend, 1, stackOpts{})
	if err != nil {
		return err
	}
	one := []*worker{{do: call(w.clients[0])}}
	runClosed(one, r.cfg.plan.null/4)
	p0 := readProc()
	t := runClosed(one, r.cfg.plan.null)
	used := readProc().since(p0)
	w.close()
	res.count(t)
	if r.read {
		res.layer("cloud.frame.null_rtt_read_us", t.all.us(0.5))
	} else {
		res.layer("cloud.frame.null_rtt_us", t.all.us(0.5))
	}
	res.layer("cloud.frame.mallocs_per_req", perUnit(float64(used.mallocs), t.attempted))

	view, err := newTenantView(backend)
	if err != nil {
		return err
	}
	op := call(view)
	var lat samples
	for i := 0; i < r.cfg.size.microLoops; i++ {
		start := time.Now()
		if _, _, err := op(); err != nil {
			return err
		}
		lat.add(time.Since(start))
	}
	res.layer("cloud.tenant.null_us_per_req", lat.us(0.5))
	return nil
}
