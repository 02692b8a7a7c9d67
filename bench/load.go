package main

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"trustedcells/internal/cloud"
)

// kind separates the two request classes a workload may mix.
type kind int

const (
	kindWrite kind = iota
	kindRead
	nKinds
)

// worker is one load-generating goroutine: do issues one request and reports
// what it was, how many documents it moved, and whether it failed. A failed
// request is one that was shed, errored, or returned documents that do not
// open under their own name. The worker owns its tallies; nothing here is
// shared until the phase ends.
type worker struct {
	do func() (k kind, docs int, err error)
	// progress, when a closed loop sets it, totals the documents every
	// worker has completed, for the slicer to read while they run.
	progress *atomic.Int64

	lat       [nKinds]samples
	docs      [nKinds]int64
	attempted int64
	failed    int64
	shed      int64
	firstErr  error
}

func (w *worker) run(due time.Time) time.Duration {
	k, docs, err := w.do()
	w.attempted++
	if err != nil {
		w.failed++
		if errors.Is(err, cloud.ErrOverloaded) || errors.Is(err, cloud.ErrQuotaExceeded) {
			w.shed++
		}
		if w.firstErr == nil {
			w.firstErr = err
		}
		return -1
	}
	d := time.Since(due)
	w.lat[k].add(d)
	w.docs[k] += int64(docs)
	if w.progress != nil {
		w.progress.Add(int64(docs))
	}
	return d
}

// tally is what one phase measured, merged over its workers.
type tally struct {
	lat       [nKinds]samples
	all       samples // both kinds together
	late      samples // open loop only: how long after it was due a request was sent
	docs      [nKinds]int64
	attempted int64
	failed    int64
	shed      int64
	elapsed   time.Duration
	firstErr  error
	// slices holds, for a closed loop, what each of closedSlices equal
	// parts of the phase completed and cost.
	slices []loopSlice
	// ordered holds, for an open loop, each request's latency at its
	// position in the schedule (-1 when it failed), so a rung can compare
	// its first and last quarter.
	ordered []time.Duration
}

func (t *tally) totalDocs() int64 { return t.docs[kindWrite] + t.docs[kindRead] }

func (t *tally) docsPerSec(k kind) float64 {
	if t.elapsed <= 0 {
		return 0
	}
	return float64(t.docs[k]) / t.elapsed.Seconds()
}

// closedSlices is how many equal parts a closed-loop phase is cut into. The
// end-to-end throughput and CPU cost are the median over the parts, so that
// a neighbour stealing the processor for a second or two of a phase moves
// them as little as it moves a median latency.
const closedSlices = 8

// loopSlice is one part of a closed-loop phase.
type loopSlice struct {
	docs    int64
	elapsed time.Duration
	cpu     time.Duration
}

// slicer cuts a running closed loop into closedSlices parts by reading the
// loop's progress counter and the process's CPU clock on a timer.
type slicer struct {
	progress atomic.Int64
	slices   []loopSlice
	done     chan struct{}
}

// startSlicer begins slicing a phase that starts now and lasts d.
func startSlicer(d time.Duration) *slicer {
	s := &slicer{done: make(chan struct{})}
	go func() {
		defer close(s.done)
		start := time.Now()
		lastT, lastDocs, lastCPU := start, int64(0), cpuTime()
		for i := 1; i <= closedSlices; i++ {
			time.Sleep(time.Until(start.Add(d * time.Duration(i) / closedSlices)))
			now, docs, cpu := time.Now(), s.progress.Load(), cpuTime()
			s.slices = append(s.slices, loopSlice{docs - lastDocs, now.Sub(lastT), cpu - lastCPU})
			lastT, lastDocs, lastCPU = now, docs, cpu
		}
	}()
	return s
}

// wait returns the slices once the phase's time is up.
func (s *slicer) wait() []loopSlice {
	<-s.done
	return s.slices
}

// medianDocsPerSec is the median over the slices of documents per second.
func (t *tally) medianDocsPerSec() float64 {
	rates := make([]float64, 0, len(t.slices))
	for _, s := range t.slices {
		rates = append(rates, float64(s.docs)/s.elapsed.Seconds())
	}
	return median(rates)
}

// medianCPUPerKdoc is the median over the slices of CPU milliseconds per
// thousand documents.
func (t *tally) medianCPUPerKdoc() float64 {
	costs := make([]float64, 0, len(t.slices))
	for _, s := range t.slices {
		if s.docs > 0 {
			costs = append(costs, ms(s.cpu)*1000/float64(s.docs))
		}
	}
	return median(costs)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	_, q2, _ := quartiles(v)
	return q2
}

func collect(ws []*worker, elapsed time.Duration) *tally {
	t := &tally{elapsed: elapsed}
	for _, w := range ws {
		for k := kind(0); k < nKinds; k++ {
			t.lat[k].merge(&w.lat[k])
			t.all.merge(&w.lat[k])
			t.docs[k] += w.docs[k]
			w.lat[k] = samples{}
			w.docs[k] = 0
		}
		t.attempted += w.attempted
		t.failed += w.failed
		t.shed += w.shed
		if t.firstErr == nil {
			t.firstErr = w.firstErr
		}
		w.attempted, w.failed, w.shed, w.firstErr = 0, 0, 0, nil
	}
	return t
}

// runClosed is the closed loop: every worker sends its next request when the
// previous one has completed, for d. The number of workers is the fixed
// window of requests in flight; a slower system is offered less load.
func runClosed(ws []*worker, d time.Duration) *tally {
	start := time.Now()
	deadline := start.Add(d)
	sl := startSlicer(d)
	var wg sync.WaitGroup
	for _, w := range ws {
		w.progress = &sl.progress
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for {
				now := time.Now()
				if !now.Before(deadline) {
					return
				}
				w.run(now)
			}
		}(w)
	}
	wg.Wait()
	t := collect(ws, time.Since(start))
	t.slices = sl.wait()
	for _, w := range ws {
		w.progress = nil
	}
	return t
}

// runOpen is the open loop: request i is due at start + i/rate whatever the
// system does. A dispatcher releases each request at its due time, the first
// free worker sends it, and its latency is counted from the instant it was
// due. A stall therefore charges every request that became due during it,
// not only the one that met it. How long after its due time each request was
// actually sent is kept too: that is the generator's own lateness, and when
// it grows the workers, not the system, are the limit.
func runOpen(ws []*worker, rate float64, d time.Duration) *tally {
	n := int64(rate * d.Seconds())
	if n < 1 {
		n = 1
	}
	interval := time.Duration(float64(time.Second) / rate)
	ordered := make([]time.Duration, n)
	lates := make([]samples, len(ws))
	// Released requests wait here for a free worker. The buffer holds the
	// whole schedule so that the dispatcher never waits for the workers: a
	// request that finds them all busy queues, and its wait is counted.
	released := make(chan int64, n)
	start := time.Now()
	go func() {
		// The thread's timer slack is tightened for the schedule and put
		// back before the thread returns to the pool.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		setTimerSlack(1)
		defer setTimerSlack(0)
		for i := int64(0); i < n; i++ {
			sleepUntil(start.Add(time.Duration(i) * interval))
			released <- i
		}
		close(released)
	}()
	var wg sync.WaitGroup
	for wi, w := range ws {
		wg.Add(1)
		go func(wi int, w *worker) {
			defer wg.Done()
			for i := range released {
				due := start.Add(time.Duration(i) * interval)
				lates[wi].add(time.Since(due))
				ordered[i] = w.run(due)
			}
		}(wi, w)
	}
	wg.Wait()
	t := collect(ws, time.Since(start))
	t.ordered = ordered
	for i := range lates {
		t.late.merge(&lates[i])
	}
	return t
}

// sliceP50 returns the median latency of the completed requests in each of n
// equal slices of an open-loop schedule, in schedule order.
func (t *tally) sliceP50(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		var s samples
		for _, d := range t.ordered[i*len(t.ordered)/n : (i+1)*len(t.ordered)/n] {
			if d >= 0 {
				s.add(d)
			}
		}
		out[i] = s.quantile(0.5)
	}
	return out
}

// medianSliceP50 is the median, in milliseconds, of the median latencies of
// closedSlices equal parts of an open-loop schedule: the end-to-end latency,
// steadied the same way as the closed loop's throughput.
func (t *tally) medianSliceP50() float64 {
	parts := t.sliceP50(closedSlices)
	v := make([]float64, len(parts))
	for i, d := range parts {
		v[i] = ms(d)
	}
	return median(v)
}

// quarterP50 returns the median latency of the completed requests in the
// first and in the last quarter of an open-loop schedule.
func (t *tally) quarterP50() (first, last time.Duration) {
	q := t.sliceP50(4)
	return q[0], q[3]
}

// The service-level objective a ladder rung must hold to count as sustained.
const (
	sloP99       = 25 * time.Millisecond
	sloBacklogX  = 2.0 // last-quarter p50 may be at most this multiple of the first quarter's
	ladderRungs  = 5
	windowPerCon = 16 // requests in flight per connection (or per core when there is no wire)
)

var ladderSteps = [ladderRungs]float64{1, 1.5, 2, 3, 4}

// rung is one step of the rate ladder.
type rung struct {
	Rate      float64 `json:"rate_req_per_s"`
	DocsPerS  float64 `json:"docs_per_s"`
	P50ms     float64 `json:"p50_ms"`
	P99ms     float64 `json:"p99_ms"`
	Samples   int     `json:"samples"`
	Failed    int64   `json:"failed"`
	FirstQms  float64 `json:"first_quarter_p50_ms"`
	LastQms   float64 `json:"last_quarter_p50_ms"`
	Sustained bool    `json:"sustained"`
}

// meetsSLO applies the objective to one open-loop tally: p99 from due time
// within the limit, nothing failed or shed, and no growing backlog.
func meetsSLO(t *tally) bool {
	if t.failed > 0 || t.all.n() == 0 {
		return false
	}
	first, last := t.quarterP50()
	return t.all.quantile(0.99) <= sloP99 && float64(last) <= sloBacklogX*float64(first)
}

// runLadder offers ref × each step for per seconds and returns the rungs and
// the knee: the highest offered document rate that met the objective with
// every lower rung meeting it too.
func runLadder(ws []*worker, ref float64, docsPerReq int, per time.Duration) (rungs []rung, kneeDocsPerSec float64) {
	held := true
	for _, step := range ladderSteps {
		rate := ref * step
		t := runOpen(ws, rate, per)
		first, last := t.quarterP50()
		r := rung{
			Rate: rate, DocsPerS: rate * float64(docsPerReq),
			P50ms: t.all.ms(0.5), P99ms: t.all.ms(0.99), Samples: t.all.n(), Failed: t.failed,
			FirstQms: ms(first), LastQms: ms(last), Sustained: meetsSLO(t),
		}
		rungs = append(rungs, r)
		if held && r.Sustained {
			kneeDocsPerSec = r.DocsPerS
		} else {
			held = false
		}
	}
	return rungs, kneeDocsPerSec
}

// setupBudget is how long a workload may spend repeating its set-up beyond
// the three repetitions every workload makes.
const setupBudget = 1200 * time.Millisecond

// medianSetup builds the workload's stack at least three and at most most
// times, while the repetitions fit setupBudget, tearing every stack but the
// last down again, and returns the median build time. A cheap set-up is
// repeated more often because its time is the noisier.
func medianSetup(most int, build func() error, teardown func() error) (time.Duration, error) {
	var took samples
	var total time.Duration
	for i := 0; i < most; i++ {
		if i > 0 {
			if err := teardown(); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		took.add(time.Since(start))
		total += time.Since(start)
		if i >= 2 && total+total/time.Duration(i+1) > setupBudget {
			break
		}
	}
	return took.quantile(0.5), nil
}
