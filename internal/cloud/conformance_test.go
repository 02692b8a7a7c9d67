package cloud

// The conformance battery: one behavioural table driving every backend the
// package ships — RAM, disk, wire, and the replicated layer (healthy and with
// a faulty member). A caller must not be able to tell the backends apart
// through the Service contract.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// serviceBackends builds each backend the conformance battery runs against.
//
//   - durable gets a small shard count so the per-shard paths (and the
//     META.json shard pinning) are exercised without 32 directories per test;
//   - tcp serves a Memory the way tccloud -addr does — a FrameServer with
//     no tenants — to a NewFrameClient that dials on its first call;
//   - replicated stripes a mixed fleet (RAM, disk, RAM) at W=2/R=2;
//   - replicated-wire stripes RAM, disk and a wire member reached through
//     NewFrameClient, the way tccloud -member builds a fleet;
//   - replicated-faulty additionally wraps one member in cloud.Faulty at a
//     nonzero error rate — the battery must pass identically, because the
//     two healthy members always satisfy both quorums;
//   - framed serves a Memory through the multiplexed framed protocol;
//   - framed-tenant runs the full front-door stack — durable backend,
//     admission controller, tenant namespace, framed protocol — with
//     quotas generous enough to never trip, so the stack must be
//     behaviourally invisible.
func serviceBackends(t *testing.T) map[string]func(t *testing.T) Service {
	return map[string]func(t *testing.T) Service{
		"memory": func(t *testing.T) Service { return NewMemory() },
		// An honest Adversary must be behaviourally invisible: the wrapper is
		// only allowed to change semantics when a malicious mode is active.
		"adversary-honest": func(t *testing.T) Service {
			return NewAdversary(NewMemory(), AdversaryConfig{Mode: Honest, Seed: 1})
		},
		"durable": func(t *testing.T) Service {
			d, err := OpenDurable(t.TempDir(), DurableOptions{Shards: 4})
			if err != nil {
				t.Fatalf("OpenDurable: %v", err)
			}
			t.Cleanup(func() { _ = d.Close() })
			return d
		},
		"tcp": func(t *testing.T) Service {
			return lazyTestFrameClient(t, NewMemory())
		},
		"replicated": func(t *testing.T) Service {
			d, err := OpenDurable(t.TempDir(), DurableOptions{Shards: 2})
			if err != nil {
				t.Fatalf("OpenDurable: %v", err)
			}
			t.Cleanup(func() { _ = d.Close() })
			r, err := NewReplicated([]Service{NewMemory(), d, NewMemory()},
				ReplicatedOptions{WriteQuorum: 2, ReadQuorum: 2})
			if err != nil {
				t.Fatalf("NewReplicated: %v", err)
			}
			t.Cleanup(func() { _ = r.Close() })
			return r
		},
		"replicated-wire": func(t *testing.T) Service {
			d, err := OpenDurable(t.TempDir(), DurableOptions{Shards: 2})
			if err != nil {
				t.Fatalf("OpenDurable: %v", err)
			}
			t.Cleanup(func() { _ = d.Close() })
			r, err := NewReplicated([]Service{NewMemory(), d, lazyTestFrameClient(t, NewMemory())},
				ReplicatedOptions{WriteQuorum: 2, ReadQuorum: 2})
			if err != nil {
				t.Fatalf("NewReplicated: %v", err)
			}
			t.Cleanup(func() { _ = r.Close() })
			return r
		},
		"replicated-faulty": func(t *testing.T) Service {
			faulty := NewFaulty(NewMemory(), FaultyOptions{Seed: 42, ErrorRate: 0.15})
			r, err := NewReplicated([]Service{NewMemory(), faulty, NewMemory()},
				ReplicatedOptions{WriteQuorum: 2, ReadQuorum: 2})
			if err != nil {
				t.Fatalf("NewReplicated: %v", err)
			}
			t.Cleanup(func() { _ = r.Close() })
			return r
		},
		"framed": func(t *testing.T) Service {
			return dialTestFrameServer(t, NewMemory(), FrameServerOptions{}, "")
		},
		"framed-tenant": func(t *testing.T) Service {
			d, err := OpenDurable(t.TempDir(), DurableOptions{Shards: 4})
			if err != nil {
				t.Fatalf("OpenDurable: %v", err)
			}
			t.Cleanup(func() { _ = d.Close() })
			adm := NewAdmission(d, AdmissionOptions{})
			tenants := NewTenants(adm)
			if err := tenants.Define("acme", TenantQuota{}); err != nil {
				t.Fatalf("Define: %v", err)
			}
			return dialTestFrameServer(t, adm, FrameServerOptions{Tenants: tenants}, "acme")
		},
	}
}

// lazyTestFrameClient serves svc over a FrameServer on a loopback socket and
// returns a client that has not dialed yet. Both are torn down with the test.
func lazyTestFrameClient(t *testing.T, svc Service) *FrameClient {
	client := NewFrameClient(startFrameServer(t, svc, FrameServerOptions{}))
	t.Cleanup(func() { _ = client.Close() })
	return client
}

// dialTestFrameServer starts a FrameServer over svc on a loopback socket and
// returns a connected FrameClient, bound to tenant when non-empty. Both are
// torn down with the test.
func dialTestFrameServer(t *testing.T, svc Service, opts FrameServerOptions, tenant string) *FrameClient {
	t.Helper()
	client, err := DialFramed(startFrameServer(t, svc, opts))
	if err != nil {
		t.Fatalf("dial framed: %v", err)
	}
	t.Cleanup(func() { _ = client.Close() })
	if tenant != "" {
		if err := client.Hello(tenant); err != nil {
			t.Fatalf("hello: %v", err)
		}
	}
	return client
}

// TestServiceConformance runs the same behavioural battery over every backend:
// the Service contract must be indistinguishable between the RAM store, the
// disk store, the wire client and the replicated layer.
func TestServiceConformance(t *testing.T) {
	for name, mk := range serviceBackends(t) {
		t.Run(name, func(t *testing.T) {
			svc := mk(t)

			// Blob lifecycle: versioning, round trip, delete idempotency.
			v, err := svc.PutBlob("alice/vault/doc-1", []byte("ciphertext"))
			if err != nil || v != 1 {
				t.Fatalf("PutBlob: v=%d err=%v", v, err)
			}
			b, err := svc.GetBlob("alice/vault/doc-1")
			if err != nil || !bytes.Equal(b.Data, []byte("ciphertext")) || b.Version != 1 {
				t.Fatalf("GetBlob: %+v %v", b, err)
			}
			if b.Stored.IsZero() {
				t.Fatal("Stored timestamp not set")
			}
			if v, _ = svc.PutBlob("alice/vault/doc-1", []byte("v2")); v != 2 {
				t.Fatalf("second version = %d", v)
			}
			// Returned data must be a private copy.
			b, _ = svc.GetBlob("alice/vault/doc-1")
			b.Data[0] = 'X'
			again, _ := svc.GetBlob("alice/vault/doc-1")
			if again.Data[0] == 'X' {
				t.Fatal("GetBlob exposes shared storage")
			}
			if err := svc.DeleteBlob("alice/vault/doc-1"); err != nil {
				t.Fatalf("DeleteBlob: %v", err)
			}
			if _, err := svc.GetBlob("alice/vault/doc-1"); err != ErrBlobNotFound {
				t.Fatalf("after delete: %v", err)
			}
			if err := svc.DeleteBlob("never-existed"); err != nil {
				t.Fatalf("delete idempotency: %v", err)
			}

			// Listing: prefix filter, sorted output.
			for i := 0; i < 5; i++ {
				_, _ = svc.PutBlob(fmt.Sprintf("alice/doc-%d", i), []byte("x"))
			}
			_, _ = svc.PutBlob("bob/doc-0", []byte("x"))
			names, err := svc.ListBlobs("alice/")
			if err != nil || len(names) != 5 {
				t.Fatalf("ListBlobs = %v, %v", names, err)
			}
			for i := 1; i < len(names); i++ {
				if names[i-1] >= names[i] {
					t.Fatal("names not sorted")
				}
			}
			if all, _ := svc.ListBlobs(""); len(all) != 6 {
				t.Fatalf("all blobs = %d", len(all))
			}

			// Mailboxes: FIFO, bounded receive, metadata fill-in.
			for i := 0; i < 3; i++ {
				err := svc.Send(Message{From: "alice", To: "bob", Kind: "share-offer",
					Body: []byte(fmt.Sprintf("m%d", i))})
				if err != nil {
					t.Fatalf("Send: %v", err)
				}
			}
			msgs, err := svc.Receive("bob", 2)
			if err != nil || len(msgs) != 2 {
				t.Fatalf("Receive: %d %v", len(msgs), err)
			}
			if string(msgs[0].Body) != "m0" || string(msgs[1].Body) != "m1" {
				t.Fatalf("wrong order: %q %q", msgs[0].Body, msgs[1].Body)
			}
			if msgs[0].ID == "" || msgs[0].Sent.IsZero() || msgs[0].From != "alice" || msgs[0].Kind != "share-offer" {
				t.Fatalf("message metadata not preserved: %+v", msgs[0])
			}
			if msgs, _ = svc.Receive("bob", 0); len(msgs) != 1 {
				t.Fatalf("remaining = %d", len(msgs))
			}
			if msgs, _ = svc.Receive("bob", 10); len(msgs) != 0 {
				t.Fatal("mailbox should be empty")
			}
			if msgs, _ = svc.Receive("nobody", 10); len(msgs) != 0 {
				t.Fatal("unknown recipient should have empty mailbox")
			}

			// Batch put/get: versions in argument order, missing names zero.
			versions, err := svc.PutBlobs([]BlobPut{
				{Name: "batch/a", Data: []byte("aa")},
				{Name: "bob/doc-0", Data: []byte("v2")},
				{Name: "batch/b", Data: []byte("bb")},
			})
			if err != nil || len(versions) != 3 || versions[0] != 1 || versions[1] != 2 || versions[2] != 1 {
				t.Fatalf("PutBlobs versions = %v, %v", versions, err)
			}
			blobs, err := svc.GetBlobs([]string{"missing", "batch/a", "batch/b"})
			if err != nil {
				t.Fatalf("GetBlobs: %v", err)
			}
			if blobs[0].Version != 0 || string(blobs[1].Data) != "aa" || string(blobs[2].Data) != "bb" {
				t.Fatalf("GetBlobs: %+v", blobs)
			}

			// Conditional fetch: unadvanced versions ship no data.
			got, err := svc.GetBlobsIf([]CondGet{
				{Name: "batch/a", IfNewer: 1},   // current 1: not advanced
				{Name: "bob/doc-0", IfNewer: 1}, // current 2: advanced
				{Name: "missing", IfNewer: 0},
			})
			if err != nil {
				t.Fatalf("GetBlobsIf: %v", err)
			}
			if got[0].Version != 1 || got[0].Data != nil {
				t.Fatalf("unadvanced blob should ship version only: %+v", got[0])
			}
			if got[1].Version != 2 || string(got[1].Data) != "v2" {
				t.Fatalf("advanced blob should ship data: %+v", got[1])
			}
			if got[2].Version != 0 {
				t.Fatalf("missing blob should be zero: %+v", got[2])
			}

			// Counters add up per blob, not per call.
			st := svc.Stats()
			if st.Puts < 9 || st.Sends != 3 || st.Receives < 2 {
				t.Fatalf("stats %+v", st)
			}
		})
	}
}

// statsDelta is after minus before, counter by counter.
func statsDelta(after, before Stats) Stats {
	for i, c := range after.counters() {
		*c -= *before.counters()[i]
	}
	return after
}

// TestConformanceSingleIsBatchOfOne: on every stack a single call and its
// one-element batch agree — the versions they assign, a missing name
// (ErrBlobNotFound against a zero Blob), the Stats each moves, and names as
// the caller gave them (a tenant's namespace prefix trimmed).
func TestConformanceSingleIsBatchOfOne(t *testing.T) {
	for name, mk := range serviceBackends(t) {
		t.Run(name, func(t *testing.T) {
			svc := mk(t)
			moved := func(call func() error) Stats {
				t.Helper()
				before := svc.Stats()
				if err := call(); err != nil {
					t.Fatal(err)
				}
				return statsDelta(svc.Stats(), before)
			}
			agree := func(what string, single, batch Stats) {
				t.Helper()
				if single != batch {
					t.Fatalf("%s: the single call moved %+v, its batch of one %+v", what, single, batch)
				}
			}

			for want := 1; want <= 2; want++ {
				var v int
				var vs []int
				single := moved(func() (err error) { v, err = svc.PutBlob("single/doc", []byte("one")); return })
				batch := moved(func() (err error) {
					vs, err = svc.PutBlobs([]BlobPut{{Name: "batch/doc", Data: []byte("one")}})
					return
				})
				if v != want || len(vs) != 1 || vs[0] != want {
					t.Fatalf("put %d: single version %d, batch versions %v", want, v, vs)
				}
				agree("put", single, batch)
			}

			var b Blob
			var bs []Blob
			single := moved(func() (err error) { b, err = svc.GetBlob("single/doc"); return })
			batch := moved(func() (err error) { bs, err = svc.GetBlobs([]string{"batch/doc"}); return })
			if len(bs) != 1 {
				t.Fatalf("GetBlobs of one name returned %d blobs", len(bs))
			}
			if b.Name != "single/doc" || bs[0].Name != "batch/doc" {
				t.Fatalf("names changed on the way: %q, %q", b.Name, bs[0].Name)
			}
			if b.Version != 2 || bs[0].Version != 2 || string(b.Data) != "one" || string(bs[0].Data) != "one" {
				t.Fatalf("get: single %+v, batch %+v", b, bs[0])
			}
			agree("get", single, batch)

			single = moved(func() error {
				if _, err := svc.GetBlob("single/missing"); err != ErrBlobNotFound {
					return fmt.Errorf("GetBlob of a missing name = %v, want ErrBlobNotFound", err)
				}
				return nil
			})
			batch = moved(func() (err error) {
				if bs, err = svc.GetBlobs([]string{"batch/missing"}); err == nil && (len(bs) != 1 || bs[0].Version != 0) {
					err = fmt.Errorf("GetBlobs of a missing name = %+v, want one zero Blob", bs)
				}
				return
			})
			agree("missing get", single, batch)
		})
	}
}

// TestConformanceMailboxFIFO drives a long mailbox through interleaved sends
// and bounded receives: every backend must deliver the exact global FIFO
// order, never duplicating and never losing a message across receive calls.
func TestConformanceMailboxFIFO(t *testing.T) {
	const total = 24
	for name, mk := range serviceBackends(t) {
		t.Run(name, func(t *testing.T) {
			svc := mk(t)
			next := 0
			send := func(n int) {
				for i := 0; i < n; i++ {
					if err := svc.Send(Message{From: "cell", To: "carol",
						Body: []byte(fmt.Sprintf("m%03d", next))}); err != nil {
						t.Fatalf("Send %d: %v", next, err)
					}
					next++
				}
			}
			var got []Message
			send(10)
			for _, chunk := range []int{3, 1, 4} {
				msgs, err := svc.Receive("carol", chunk)
				if err != nil || len(msgs) != chunk {
					t.Fatalf("Receive(%d): %d %v", chunk, len(msgs), err)
				}
				got = append(got, msgs...)
			}
			send(total - 10) // interleave: new sends land behind pending ones
			for len(got) < total {
				msgs, err := svc.Receive("carol", 5)
				if err != nil {
					t.Fatalf("Receive: %v", err)
				}
				if len(msgs) == 0 {
					t.Fatalf("mailbox dried up at %d of %d", len(got), total)
				}
				got = append(got, msgs...)
			}
			for i, m := range got {
				if want := fmt.Sprintf("m%03d", i); string(m.Body) != want {
					t.Fatalf("position %d = %q, want %q", i, m.Body, want)
				}
			}
			if msgs, _ := svc.Receive("carol", 10); len(msgs) != 0 {
				t.Fatalf("mailbox should be empty, got %d", len(msgs))
			}
		})
	}
}

// TestConformanceGetBlobsIfConcurrent hammers the conditional-fetch path with
// concurrent writers: readers must only ever observe monotonically increasing
// versions, data exactly when the version advanced past their floor, and
// payloads that some writer actually wrote.
func TestConformanceGetBlobsIfConcurrent(t *testing.T) {
	const (
		writers = 4
		rounds  = 25
		nNames  = 8
	)
	names := make([]string, nNames)
	for i := range names {
		names[i] = fmt.Sprintf("shared/doc-%d", i)
	}
	for backend, mk := range serviceBackends(t) {
		t.Run(backend, func(t *testing.T) {
			svc := mk(t)
			var writersWg sync.WaitGroup
			stop := make(chan struct{})
			readerDone := make(chan struct{})
			for w := 0; w < writers; w++ {
				writersWg.Add(1)
				go func(w int) {
					defer writersWg.Done()
					for round := 0; round < rounds; round++ {
						puts := make([]BlobPut, len(names))
						for i, n := range names {
							puts[i] = BlobPut{Name: n, Data: []byte(fmt.Sprintf("%s|w%d-r%d", n, w, round))}
						}
						if _, err := svc.PutBlobs(puts); err != nil {
							t.Errorf("writer %d: %v", w, err)
							return
						}
					}
				}(w)
			}
			go func() {
				defer close(readerDone)
				floor := make([]int, len(names))
				for {
					select {
					case <-stop:
						return
					default:
					}
					gets := make([]CondGet, len(names))
					for i, n := range names {
						gets[i] = CondGet{Name: n, IfNewer: floor[i]}
					}
					blobs, err := svc.GetBlobsIf(gets)
					if err != nil {
						t.Errorf("GetBlobsIf: %v", err)
						return
					}
					for i, b := range blobs {
						if b.Version == 0 {
							continue // not yet written
						}
						// Quorum backends may answer a later read from a
						// different member subset, so versions are not
						// monotonic across calls — but the data-shipping
						// rule must hold against whatever floor we sent.
						if b.Version <= gets[i].IfNewer && b.Data != nil {
							t.Errorf("%s: unadvanced version %d shipped data", names[i], b.Version)
							return
						}
						if b.Version > gets[i].IfNewer {
							if b.Data == nil {
								t.Errorf("%s: advanced version %d shipped no data", names[i], b.Version)
								return
							}
							if !bytes.HasPrefix(b.Data, []byte(names[i]+"|")) {
								t.Errorf("%s: foreign payload %q", names[i], b.Data)
								return
							}
						}
						if b.Version > floor[i] {
							floor[i] = b.Version
						}
					}
				}
			}()
			// Let the reader race the writers, then stop it once writes finish.
			writersWg.Wait()
			close(stop)
			<-readerDone

			// Quiesced: every name must sit at its final version with matching
			// payload visible through the plain batch read as well.
			blobs, err := svc.GetBlobs(names)
			if err != nil {
				t.Fatalf("final GetBlobs: %v", err)
			}
			for i, b := range blobs {
				if b.Version == 0 || !bytes.HasPrefix(b.Data, []byte(names[i]+"|")) {
					t.Fatalf("final state of %s: %+v", names[i], b)
				}
			}
		})
	}
}
