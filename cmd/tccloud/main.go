// Command tccloud runs the untrusted infrastructure of the trusted-cells
// architecture as a standalone TCP server: an encrypted-blob store plus
// mailboxes for cell-to-cell messages, served over the connection-multiplexed
// framed protocol. Cells (cmd/tccell) and applications connect to -addr with
// trustedcells.DialCloud.
//
// By default the store is in-memory. With -data-dir it becomes the durable
// disk-backed store: every acknowledged write is covered by a group-committed
// write-ahead log, and restarting the server replays the log and rebuilds its
// LSM runs — clients observe the same protocol either way:
//
//	tccloud -addr :7070 -data-dir /var/lib/tccloud
//
// The server — in-memory or durable — can be started with an adversarial
// behaviour to demonstrate that cells detect integrity, rollback and fork
// attacks (the adversary is a wrapper over whichever backend is selected):
//
//	tccloud -addr :7070 -data-dir /var/lib/tccloud -adversary rollback -rate 1
//
// With -member the server becomes the coordinator of a replicated fleet: its
// own store (in-memory or durable) is member 0, each -member address is a
// further member (dialed on first use and redialed after it restarts), and
// clients are served the replication layer — quorum writes, quorum reads
// with read repair, hinted handoff for members that go dark, and a periodic
// anti-entropy pass:
//
//	tccloud -addr :7070 -data-dir /var/lib/tccloud \
//	    -member host-b:7070 -member host-c:7070 -quorum-w 2 -quorum-r 2
//
// With -framed-addr the server additionally opens the fleet-scale front
// door: the same protocol with admission control in front of the backend —
// when more than -max-inflight weighted mutations are executing, further
// ones are shed immediately with a typed retry-after error instead of
// queuing — and optional per-tenant namespaces and quotas:
//
//	tccloud -addr :7070 -framed-addr :7071 -data-dir /var/lib/tccloud \
//	    -max-inflight 1024 \
//	    -tenant acme:1073741824:500 -tenant globex
//
// Each -tenant is name[:maxBytes[:opsPerSec]]; omitted budgets are
// unlimited. With tenants defined the front door fails closed: a connection
// must bind to its tenant with a hello frame before anything else (until then
// every request fails with cloud.ErrNoTenant), binds once, and then sees only
// its own namespace. Without -tenant flags it serves the backend, behind
// admission, to every connection. The -addr listener keeps serving the
// backend directly, with neither tenants nor admission: it is the port for
// trusted local cells and for fleet coordinators dialing their members.
//
// The mailboxes double as the distributed shared commons' query plane
// (DESIGN.md §13): a community coordinator scatters sealed query specs into
// per-cell mailboxes on this server and gathers secret-shared answers back
// through them, with no server-side support beyond Send/Receive — the
// server only ever relays sealed envelopes it cannot open. Try it against a
// running server with `tccell -cloud <addr> -commons 100`.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"trustedcells/internal/cloud"
)

// memberList collects repeated -member flags.
type memberList []string

func (m *memberList) String() string { return strings.Join(*m, ",") }

func (m *memberList) Set(v string) error {
	for _, part := range strings.Split(v, ",") {
		if part = strings.TrimSpace(part); part != "" {
			*m = append(*m, part)
		}
	}
	return nil
}

// tenantList collects repeated -tenant flags of the form
// name[:maxBytes[:opsPerSec]].
type tenantList []tenantSpec

type tenantSpec struct {
	name  string
	quota cloud.TenantQuota
}

func (t *tenantList) String() string {
	names := make([]string, len(*t))
	for i, s := range *t {
		names[i] = s.name
	}
	return strings.Join(names, ",")
}

func (t *tenantList) Set(v string) error {
	parts := strings.Split(v, ":")
	spec := tenantSpec{name: parts[0]}
	if len(parts) > 3 || spec.name == "" {
		return fmt.Errorf("tenant spec %q: want name[:maxBytes[:opsPerSec]]", v)
	}
	if len(parts) > 1 && parts[1] != "" {
		n, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil || n < 0 {
			return fmt.Errorf("tenant spec %q: bad maxBytes %q", v, parts[1])
		}
		spec.quota.MaxBytes = n
	}
	if len(parts) > 2 && parts[2] != "" {
		f, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || f < 0 {
			return fmt.Errorf("tenant spec %q: bad opsPerSec %q", v, parts[2])
		}
		spec.quota.OpsPerSec = f
	}
	*t = append(*t, spec)
	return nil
}

func enabledWord(on bool) string {
	if on {
		return "enabled"
	}
	return "disabled"
}

// pct is a safe percentage (0 when the denominator is zero).
func pct(part, total int64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}

// logEngineStats periodically logs the read fast-path counters so fleet
// operators can see bloom skip and cache hit rates — aggregate and per shard
// (shards with no run lookups yet are omitted). It runs for the life of the
// process; the final counters are visible in the last tick before shutdown.
func logEngineStats(d *cloud.Durable, every time.Duration) {
	for range time.Tick(every) {
		es := d.EngineStats()
		hits, misses, resident := d.CacheStats()
		consults := es.BloomSkips + es.CacheHits + es.RunReads
		log.Printf("tccloud: engine: %d runs, %d gets, bloom skipped %d/%d run lookups (%.1f%%), cache %d hits / %d misses (%.1f%%, %d KiB resident), %d device reads",
			es.Runs, es.Gets, es.BloomSkips, consults, pct(es.BloomSkips, consults),
			hits, misses, pct(hits, hits+misses), resident>>10, es.RunReads)
		var b strings.Builder
		for i, st := range d.ShardStats() {
			c := st.BloomSkips + st.CacheHits + st.RunReads
			if c == 0 {
				continue
			}
			fmt.Fprintf(&b, " %d:%.0f/%.0f", i,
				pct(st.BloomSkips, c), pct(st.CacheHits, st.CacheHits+st.CacheMisses))
		}
		if b.Len() > 0 {
			log.Printf("tccloud: per-shard bloom-skip%%/cache-hit%%:%s", b.String())
		}
	}
}

func main() {
	var members memberList
	var tenants tenantList
	var (
		addr       = flag.String("addr", "127.0.0.1:7070", "address to listen on")
		framedAddr = flag.String("framed-addr", "", "address for the front door with admission control and tenants (empty = disabled)")
		maxInFly   = flag.Int64("max-inflight", 1024, "with -framed-addr: weighted in-flight mutation budget before shedding")
		retryAfter = flag.Duration("retry-after", 25*time.Millisecond, "with -framed-addr: backoff hint attached to shed requests")
		dataDir    = flag.String("data-dir", "", "directory for the durable disk-backed store (empty = in-memory)")
		shards     = flag.Int("shards", cloud.DefaultShards, "shard count (fixed at first open for a durable store)")
		adversary  = flag.String("adversary", "honest", "adversary mode: honest, curious, tampering, replaying, dropping, rollback, fork (wraps any backend)")
		rate       = flag.Float64("rate", 0.01, "misbehaviour probability for tampering/replaying/dropping/rollback modes")
		seed       = flag.Int64("seed", 1, "adversary random seed")
		quorumW    = flag.Int("quorum-w", 0, "with -member: write quorum W (default majority of the fleet)")
		quorumR    = flag.Int("quorum-r", 0, "with -member: read quorum R (default majority of the fleet)")
		syncEvery  = flag.Duration("sync-every", 30*time.Second, "with -member: anti-entropy interval (0 disables the background pass)")
		statsEvery = flag.Duration("stats-every", time.Minute, "with -data-dir: interval for logging per-shard cache/bloom hit rates (0 disables)")
	)
	flag.Var(&members, "member", "-addr of a further fleet member to dial (repeatable or comma-separated); the local store is member 0")
	flag.Var(&tenants, "tenant", "with -framed-addr: provision a tenant as name[:maxBytes[:opsPerSec]] (repeatable)")
	flag.Parse()

	cfg := cloud.AdversaryConfig{Seed: *seed}
	switch strings.ToLower(*adversary) {
	case "honest":
		cfg.Mode = cloud.Honest
	case "curious", "honest-but-curious":
		cfg.Mode = cloud.HonestButCurious
	case "tampering":
		cfg.Mode = cloud.Tampering
		cfg.TamperRate = *rate
	case "replaying":
		cfg.Mode = cloud.Replaying
		cfg.ReplayRate = *rate
	case "dropping":
		cfg.Mode = cloud.Dropping
		cfg.DropRate = *rate
	case "rollback":
		cfg.Mode = cloud.Rollback
		cfg.RollbackRate = *rate
	case "fork":
		cfg.Mode = cloud.Fork
	default:
		fmt.Fprintf(os.Stderr, "unknown adversary mode %q\n", *adversary)
		os.Exit(2)
	}

	var svc cloud.Service
	var durable *cloud.Durable
	if *dataDir != "" {
		opts := cloud.DefaultDurableOptions()
		opts.Shards = *shards
		d, err := cloud.OpenDurable(*dataDir, opts)
		if err != nil {
			log.Fatalf("tccloud: open durable store: %v", err)
		}
		rec := d.RecoveryStats()
		log.Printf("tccloud: recovered %s in %v: %d shards, %d runs, %d journal records (%d ops) replayed, %d pending messages",
			*dataDir, rec.Elapsed.Round(0), rec.Shards, rec.RecoveredRuns,
			rec.JournalRecords, rec.JournalOps, rec.PendingMessages)
		if rec.DiscardedJournalBytes > 0 || rec.DiscardedRunBytes > 0 {
			log.Printf("tccloud: truncated torn tails: %d journal bytes, %d run bytes",
				rec.DiscardedJournalBytes, rec.DiscardedRunBytes)
		}
		log.Printf("tccloud: read fast path: %d MiB block cache, bloom filters %s",
			opts.CacheBytes>>20, enabledWord(opts.BloomBitsPerKey >= 0))
		if *statsEvery > 0 {
			go logEngineStats(d, *statsEvery)
		}
		svc, durable = d, d
	} else {
		svc = cloud.NewMemory()
	}
	if cfg.Mode != cloud.Honest {
		// The adversary is a backend-agnostic wrapper, so the durable store
		// misbehaves exactly like the in-memory one — and as member 0 of a
		// replicated fleet below, it is the Byzantine member the quarantine
		// machinery detects and routes around.
		svc = cloud.NewAdversary(svc, cfg)
	}

	// Dial-out mode: the local store is member 0 of a replicated fleet and
	// clients are served the replication layer instead of the bare store.
	var replicated *cloud.Replicated
	if len(members) > 0 {
		// A member client dials on first use and redials after its
		// connection dies: a member that restarts gets a fresh connection on
		// its next probe, so the hint drain can bring it back. A member that
		// is not up yet is fine too — it is marked down until its first probe
		// lands.
		fleet := []cloud.Service{svc}
		for _, maddr := range members {
			client := cloud.NewFrameClient(maddr)
			defer client.Close()
			fleet = append(fleet, client)
		}
		r, err := cloud.NewReplicated(fleet, cloud.ReplicatedOptions{
			WriteQuorum: *quorumW,
			ReadQuorum:  *quorumR,
		})
		if err != nil {
			log.Fatalf("tccloud: replication: %v", err)
		}
		if *syncEvery > 0 {
			r.StartAntiEntropy(*syncEvery)
		}
		w, rq := r.Quorums()
		log.Printf("tccloud: replicating over %d members (local + %d dialed), W=%d R=%d, anti-entropy every %v",
			r.MemberCount(), len(members), w, rq, *syncEvery)
		svc, replicated = r, r
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("tccloud: listen: %v", err)
	}
	backend := "memory"
	if durable != nil {
		backend = "durable"
	}
	if replicated != nil {
		backend = "replicated/" + backend
	}
	log.Printf("tccloud: serving the untrusted infrastructure on %s (backend=%s adversary=%s)",
		ln.Addr(), backend, cfg.Mode)
	srv := cloud.NewFrameServer(svc, cloud.FrameServerOptions{})

	// The front door: admission control around the backend, tenant
	// namespaces on top. The -addr listener keeps serving the raw backend.
	var framedSrv *cloud.FrameServer
	var reg *cloud.Tenants
	framedErr := make(chan error, 1)
	if *framedAddr != "" {
		adm := cloud.NewAdmission(svc, cloud.AdmissionOptions{
			MaxInFlight: *maxInFly,
			RetryAfter:  *retryAfter,
		})
		if len(tenants) > 0 {
			reg = cloud.NewTenants(adm)
		}
		for _, spec := range tenants {
			if err := reg.Define(spec.name, spec.quota); err != nil {
				log.Fatalf("tccloud: %v", err)
			}
		}
		fln, err := net.Listen("tcp", *framedAddr)
		if err != nil {
			log.Fatalf("tccloud: listen framed: %v", err)
		}
		framedSrv = cloud.NewFrameServer(adm, cloud.FrameServerOptions{Tenants: reg})
		go func() { framedErr <- framedSrv.Serve(fln) }()
		log.Printf("tccloud: framed front door on %s (max-inflight=%d retry-after=%v tenants=%s)",
			fln.Addr(), *maxInFly, *retryAfter, tenants.String())
	}

	// A durable store wants a graceful shutdown: checkpoint the memtables and
	// retire the commit journal so the next start replays nothing. (A kill -9
	// is also fine — that is the point — it just pays the journal replay.)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("tccloud: %v: shutting down", s)
		if framedSrv != nil {
			_ = framedSrv.Close()
		}
		_ = srv.Close() // closes the listener; Serve returns nil once drained
	}()

	err = srv.Serve(ln)
	if framedSrv != nil {
		if ferr := <-framedErr; ferr != nil && err == nil {
			err = ferr
		}
	}
	if reg != nil {
		for _, name := range reg.Names() {
			u, _ := reg.Usage(name)
			log.Printf("tccloud: tenant %s: %d bytes written, %d ops admitted, %d refused",
				name, u.BytesWritten, u.Admitted, u.Rejected)
		}
	}
	if replicated != nil {
		// Stop the anti-entropy loop and give departing writes their last
		// hint drain before the members close under us.
		_ = replicated.Close()
		replicated.DrainHints()
	}
	if durable != nil {
		if cerr := durable.Close(); cerr != nil {
			log.Fatalf("tccloud: close durable store: %v", cerr)
		}
		log.Printf("tccloud: durable store checkpointed")
	}
	if err != nil {
		log.Fatalf("tccloud: %v", err)
	}
}
