package sync

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"trustedcells/internal/cloud"
	"trustedcells/internal/crypto"
)

// fleet builds n replicas of one user sharing a cloud service.
func fleet(t *testing.T, svc cloud.Service, n int) []*Replica {
	t.Helper()
	key, err := crypto.NewSymmetricKey()
	if err != nil {
		t.Fatal(err)
	}
	replicas := make([]*Replica, n)
	for i := range replicas {
		replicas[i] = NewReplica(fmt.Sprintf("alice/cell-%02d", i), "alice", key, svc, func() time.Time { return t0 })
	}
	return replicas
}

// TestChurnConvergenceAndConflictAgreement drives a fleet of replicas through
// a seeded randomized partition schedule — connectivity flaps, concurrent
// updates and deletes, sync attempts that fail while disconnected — then
// reconnects everything and asserts that (a) every replica converges to the
// same live state and (b) every replica reports the same conflict count,
// because conflict resolutions are replicated state, not local observations.
func TestChurnConvergenceAndConflictAgreement(t *testing.T) {
	for _, seed := range []int64{7, 42, 1337} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			svc := cloud.NewMemory()
			replicas := fleet(t, svc, 4)
			for step := 0; step < 600; step++ {
				r := replicas[rng.Intn(len(replicas))]
				switch rng.Intn(12) {
				case 0:
					r.SetConnected(false)
				case 1:
					r.SetConnected(true)
				case 2:
					r.Delete(fmt.Sprintf("doc-%04d", rng.Intn(80)))
				case 3, 4:
					_ = r.Sync() // may fail while disconnected; that is the point
				case 5:
					_ = r.Pull()
				default:
					r.Upsert(doc(rng.Intn(80)))
				}
			}
			for _, r := range replicas {
				r.SetConnected(true)
			}
			// Conflict records discovered during the round that reaches
			// document convergence still need one more round to propagate,
			// so convergence here means: same live state AND same replicated
			// conflict count on every replica.
			converged := false
			for round := 0; round < 10 && !converged; round++ {
				for _, r := range replicas {
					if err := r.Sync(); err != nil {
						t.Fatalf("final sync: %v", err)
					}
				}
				converged = true
				for _, r := range replicas[1:] {
					if !Equal(replicas[0], r) || r.ConflictsResolved() != replicas[0].ConflictsResolved() {
						converged = false
						break
					}
				}
			}
			if !converged {
				for _, r := range replicas {
					t.Logf("%s: %d live docs, %d conflicts", r.id, liveCount(r), r.ConflictsResolved())
				}
				t.Fatal("replicas did not converge (state + conflict counts) after churn")
			}
			if replicas[0].ConflictsResolved() == 0 {
				t.Fatal("churn workload produced no conflicts; schedule too tame to test resolution")
			}
		})
	}
}

// TestConcurrentUpsertsDuringSync exercises the narrowed critical section
// under the race detector: local mutations and reads proceed while sync
// rounds are in flight, and everything still converges.
func TestConcurrentUpsertsDuringSync(t *testing.T) {
	svc := cloud.NewMemory()
	replicas := fleet(t, svc, 3)
	var wg sync.WaitGroup
	for ri, r := range replicas {
		wg.Add(2)
		go func(ri int, r *Replica) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				r.Upsert(doc(ri*1000 + i%60))
				if i%7 == 0 {
					getDoc(r, fmt.Sprintf("doc-%04d", i%60))
				}
			}
		}(ri, r)
		go func(r *Replica) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_ = r.Sync()
			}
		}(r)
	}
	wg.Wait()
	for round := 0; round < 6; round++ {
		for _, r := range replicas {
			if err := r.Sync(); err != nil {
				t.Fatalf("final sync: %v", err)
			}
		}
	}
	for _, r := range replicas[1:] {
		if !Equal(replicas[0], r) {
			t.Fatalf("replicas did not converge: %d vs %d live docs",
				liveCount(replicas[0]), liveCount(r))
		}
	}
}

// TestLocalOpsDoNotBlockOnSlowCloud pins the Push-mutex bugfix: with a slow
// provider mid-push, Upsert and Get must complete at memory speed instead of
// queueing behind the cloud round-trip.
func TestLocalOpsDoNotBlockOnSlowCloud(t *testing.T) {
	svc := cloud.NewFaulty(cloud.NewMemory(), cloud.FaultyOptions{Latency: 250 * time.Millisecond})
	replicas := fleet(t, svc, 1)
	r := replicas[0]
	r.Upsert(doc(1))

	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(started)
		done <- r.Push() // pays >=2 simulated round-trips
	}()
	<-started
	time.Sleep(20 * time.Millisecond) // let Push reach the cloud exchange

	t0 := time.Now()
	r.Upsert(doc(2))
	getDoc(r, "doc-0001")
	if elapsed := time.Since(t0); elapsed > 200*time.Millisecond {
		t.Fatalf("local ops blocked behind the cloud round-trip: %v", elapsed)
	}
	if err := <-done; err != nil {
		t.Fatalf("push: %v", err)
	}
}
