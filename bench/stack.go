package main

// Every constructor call into the program under test lives in this file, so
// that a change to how a layer is built is a change to one place here. The
// stacks are wired exactly as cmd/tccloud wires them; a traced run gets the
// same stack with a spanService between the layers that public constructors
// let the benchmark separate.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"trustedcells/internal/audit"
	"trustedcells/internal/cloud"
	"trustedcells/internal/core"
	"trustedcells/internal/crypto"
	"trustedcells/internal/query"
	syncpkg "trustedcells/internal/sync"
	"trustedcells/internal/tamper"
)

// stackOpts selects what a stack is built with.
type stackOpts struct {
	rec    *recorder    // non-nil: interpose span services
	wire   *wireCounter // non-nil: count bytes on the listener
	nosync bool         // the peel phase: journal records written, barrier skipped
}

// sealingKey derives the fleet's document key from the seed.
func sealingKey(seed int64) (crypto.SymmetricKey, error) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(seed))
	sum := sha256.Sum256(append([]byte("bench-fleet"), b[:]...))
	master, err := crypto.SymmetricKeyFromBytes(sum[:])
	if err != nil {
		return crypto.SymmetricKey{}, err
	}
	return crypto.DeriveKey(master, "bench-seal", "v1"), nil
}

// openDurable opens a disk-backed provider with tccloud's defaults and
// reports how long the open took (journal preallocation included).
func openDurable(dir string, nosync bool) (*cloud.Durable, time.Duration, error) {
	opts := cloud.DefaultDurableOptions()
	opts.NoSync = nosync
	start := time.Now()
	d, err := cloud.OpenDurable(dir, opts)
	return d, time.Since(start), err
}

func spanned(inner service, o stackOpts, layer, parent string) service {
	if o.rec == nil {
		return inner
	}
	return &spanService{inner: inner, rec: o.rec, layer: layer, parent: parent}
}

// wire is a framed server on a loopback socket with one connection, bound to
// its own tenant, per core.
type wire struct {
	srv     *cloud.FrameServer
	served  chan error
	clients []*cloud.FrameClient
}

func tenantName(i int) string { return fmt.Sprintf("tenant-%d", i) }

// serveFramed puts the tenant registry and the framed protocol in front of
// backend and dials conns connections to it.
func serveFramed(backend service, conns int, o stackOpts) (*wire, error) {
	tenants := cloud.NewTenants(backend)
	for i := 0; i < conns; i++ {
		if err := tenants.Define(tenantName(i), cloud.TenantQuota{}); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	if o.wire != nil {
		ln = &countingListener{Listener: ln, c: o.wire}
	}
	w := &wire{
		srv:    cloud.NewFrameServer(backend, cloud.FrameServerOptions{Tenants: tenants}),
		served: make(chan error, 1),
	}
	go func() { w.served <- w.srv.Serve(ln) }()
	for i := 0; i < conns; i++ {
		c, err := cloud.DialFramed(addr)
		if err == nil {
			err = c.Hello(tenantName(i))
		}
		if err != nil {
			w.close()
			return nil, err
		}
		w.clients = append(w.clients, c)
	}
	return w, nil
}

// close closes the connections and the server and waits until the server's
// handlers have returned, so nothing is in flight below when it returns.
func (w *wire) close() {
	for _, c := range w.clients {
		_ = c.Close()
	}
	_ = w.srv.Close()
	<-w.served
}

// frontdoor is tccloud's framed stack: FrameClient → loopback → FrameServer
// → TenantView → Admission → Durable.
type frontdoor struct {
	*wire
	dur      *cloud.Durable
	adm      *cloud.Admission
	openTook time.Duration
}

func openFrontdoor(dir string, conns int, o stackOpts) (*frontdoor, error) {
	dur, took, err := openDurable(dir, o.nosync)
	if err != nil {
		return nil, err
	}
	adm := cloud.NewAdmission(spanned(dur, o, layerDurable, layerAdmission), cloud.AdmissionOptions{})
	w, err := serveFramed(spanned(adm, o, layerAdmission, layerCall), conns, o)
	if err != nil {
		_ = dur.Close()
		return nil, err
	}
	return &frontdoor{wire: w, dur: dur, adm: adm, openTook: took}, nil
}

// replicated is cloud.Replicated (W=2, R=2) over three in-process durable
// members with no injected delay; member 2 sits behind a Faulty that stays
// transparent until the degraded phase switches it down.
type replicated struct {
	repl     *cloud.Replicated
	members  []*cloud.Durable
	faulty   *cloud.Faulty
	openTook time.Duration
}

const replMembers = 3

func openReplicated(dir string, o stackOpts) (*replicated, error) {
	r := &replicated{}
	var svcs []cloud.Service
	for i := 0; i < replMembers; i++ {
		d, took, err := openDurable(filepath.Join(dir, fmt.Sprintf("m%d", i)), o.nosync)
		if err != nil {
			r.close()
			return nil, err
		}
		r.members = append(r.members, d)
		r.openTook += took
		var svc service = d
		if i == replMembers-1 {
			r.faulty = cloud.NewFaulty(d, cloud.FaultyOptions{})
			svc = r.faulty
		}
		svcs = append(svcs, spanned(svc, o, layerMember, layerRepl))
	}
	repl, err := cloud.NewReplicated(svcs, cloud.ReplicatedOptions{WriteQuorum: 2, ReadQuorum: 2})
	if err != nil {
		r.close()
		return nil, err
	}
	r.repl = repl
	return r, nil
}

func (r *replicated) close() error {
	var first error
	if r.repl != nil {
		first = r.repl.Close()
	}
	for _, d := range r.members {
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func newMemory() *cloud.Memory { return cloud.NewMemory() }

// cellCloud is the in-process cloud under one cell or replica, with a span
// service above it when the run is traced. current names the traced call in
// progress (see spanService.current).
type cellCloud struct {
	svc     service
	rec     *recorder
	current *atomic.Pointer[spanRef]
}

func newCellCloud(mem *cloud.Memory, o stackOpts) cellCloud {
	if o.rec == nil {
		return cellCloud{svc: mem}
	}
	cur := new(atomic.Pointer[spanRef])
	return cellCloud{rec: o.rec, current: cur, svc: &spanService{
		inner: mem, rec: o.rec, layer: layerCloudMem, current: cur,
	}}
}

// newCell provisions a home-gateway-class cell deterministically from seed.
// Two cells made with the same id and seed are the same cell: the second can
// restore the vault the first synced.
func newCell(id string, seed []byte, svc cloud.Service) (*core.Cell, error) {
	return core.New(core.Config{ID: id, Class: tamper.ClassHomeGateway, Cloud: svc, Seed: seed})
}

func newEngine(cell *core.Cell, subject string, groups []string) *query.Engine {
	return query.NewEngine(cell, subject, core.AccessContext{Groups: groups})
}

func newReplica(id, user string, key crypto.SymmetricKey, svc cloud.Service) *syncpkg.Replica {
	return syncpkg.NewReplica(id, user, key, svc, nil)
}

func replicaKey(seed int64) (crypto.SymmetricKey, error) {
	k, err := sealingKey(seed)
	if err != nil {
		return k, err
	}
	return crypto.DeriveKey(k, "bench-replica", "v1"), nil
}

// freshDir makes an empty directory for one store under the data directory.
func freshDir(base, name string) (string, error) {
	dir := filepath.Join(base, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// newTenantView is one tenant's namespaced view straight over backend, with
// no wire in between.
func newTenantView(backend service) (service, error) {
	tenants := cloud.NewTenants(backend)
	if err := tenants.Define(tenantName(0), cloud.TenantQuota{}); err != nil {
		return nil, err
	}
	return tenants.View(tenantName(0))
}

func newAuditLog() *audit.Log { return audit.NewLog() }
