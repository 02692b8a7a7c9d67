package cloud

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestAdmissionShedsAtSaturation parks MaxInFlight writes inside the
// backend and checks the controller's core promise: the next mutation is
// rejected immediately with a typed OverloadError carrying the retry-after
// hint — not queued behind the stuck ones — and the in-flight gauge never
// exceeds the budget. Once a slot frees, new writes are admitted again.
func TestAdmissionShedsAtSaturation(t *testing.T) {
	const budget = 4
	blocker := &blockingService{
		Service: NewMemory(),
		release: make(chan struct{}),
		entered: make(chan string, budget),
	}
	adm := NewAdmission(blocker, AdmissionOptions{MaxInFlight: budget, RetryAfter: 30 * time.Millisecond})

	var wg sync.WaitGroup
	errs := make([]error, budget)
	for i := 0; i < budget; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = adm.PutBlob("held", []byte("x"))
		}(i)
	}
	for i := 0; i < budget; i++ {
		<-blocker.entered // all budget slots are now genuinely in flight
	}
	if got := adm.AdmissionStats().InFlight; got != budget {
		t.Fatalf("in-flight = %d, want %d", got, budget)
	}

	// The budget is full: the next mutation must be shed, and fast.
	start := time.Now()
	_, err := adm.PutBlob("one-too-many", []byte("x"))
	var oe *OverloadError
	if !errors.Is(err, ErrOverloaded) || !errors.As(err, &oe) {
		t.Fatalf("saturated put: %v, want typed OverloadError", err)
	}
	if oe.RetryAfter != 30*time.Millisecond {
		t.Fatalf("retry-after = %v, want 30ms", oe.RetryAfter)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("shed took %v: request was queued, not rejected", waited)
	}
	// A batch must be shed by weight too: even a 1-item batch over budget.
	if _, err := adm.PutBlobs([]BlobPut{{Name: "b", Data: []byte("x")}}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated batch: %v", err)
	}
	// Reads are never shed.
	if _, err := adm.ListBlobs(""); err != nil {
		t.Fatalf("read during saturation: %v", err)
	}

	st := adm.AdmissionStats()
	if st.Shed < 2 || st.InFlight != budget {
		t.Fatalf("stats during saturation: %+v", st)
	}

	close(blocker.release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("admitted put %d failed: %v", i, err)
		}
	}
	if got := adm.AdmissionStats().InFlight; got != 0 {
		t.Fatalf("in-flight after drain = %d", got)
	}
	if _, err := adm.PutBlob("after", []byte("x")); err != nil {
		t.Fatalf("put after drain: %v", err)
	}
}

// TestAdmissionBatchWeight checks that a batch charges its length: a batch
// bigger than the whole budget is shed outright, and two half-budget
// batches cannot both be in flight.
func TestAdmissionBatchWeight(t *testing.T) {
	adm := NewAdmission(NewMemory(), AdmissionOptions{MaxInFlight: 8})
	big := make([]BlobPut, 9)
	for i := range big {
		big[i] = BlobPut{Name: "n", Data: []byte("x")}
	}
	if _, err := adm.PutBlobs(big); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-budget batch: %v", err)
	}
	ok := make([]BlobPut, 8)
	for i := range ok {
		ok[i] = BlobPut{Name: "n", Data: []byte("x")}
	}
	if _, err := adm.PutBlobs(ok); err != nil {
		t.Fatalf("exact-budget batch: %v", err)
	}
	st := adm.AdmissionStats()
	if st.Admitted != 8 || st.Shed != 9 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAdmissionConcurrentBound races many writers against a small budget
// under the race detector: the in-flight gauge must never exceed the
// budget, and every request must either succeed or shed typed.
func TestAdmissionConcurrentBound(t *testing.T) {
	const budget = 3
	peak := &peakService{Service: NewMemory()}
	adm := NewAdmission(peak, AdmissionOptions{MaxInFlight: budget})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, err := adm.PutBlob("k", []byte("v"))
				if err != nil && !errors.Is(err, ErrOverloaded) {
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if p := peak.peak.Load(); p > budget {
		t.Fatalf("backend saw %d concurrent writes, budget %d", p, budget)
	}
	st := adm.AdmissionStats()
	if st.Admitted == 0 {
		t.Fatal("nothing admitted")
	}
	if st.Admitted+st.Shed != 16*50 {
		t.Fatalf("admitted %d + shed %d != 800", st.Admitted, st.Shed)
	}
}

// peakService records the highest concurrent put count it observes.
type peakService struct {
	Service
	cur  atomic.Int64
	peak atomic.Int64
}

func (p *peakService) PutBlobs(puts []BlobPut) ([]int, error) {
	n := p.cur.Add(1)
	for {
		old := p.peak.Load()
		if n <= old || p.peak.CompareAndSwap(old, n) {
			break
		}
	}
	defer p.cur.Add(-1)
	return p.Service.PutBlobs(puts)
}
