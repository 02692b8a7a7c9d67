package commons

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"trustedcells/internal/cloud"
	"trustedcells/internal/core"
	"trustedcells/internal/crypto"
	"trustedcells/internal/policy"
	"trustedcells/internal/tamper"
	"trustedcells/internal/timeseries"
)

func testCommunity(tb testing.TB) *Community {
	tb.Helper()
	return NewCommunity("grid", crypto.DeriveKey(crypto.SymmetricKey{1}, "test", "commons"))
}

func testSpec(id string, aggs ...string) Spec {
	if len(aggs) == 0 {
		aggs = []string{"agg-0", "agg-1", "agg-2"}
	}
	return Spec{
		ID:              id,
		Filter:          Filter{Type: core.SeriesDocType},
		Granularity:     timeseries.GranularityDay,
		Kind:            timeseries.AggregateSum,
		K:               2,
		Epsilon:         1.0,
		MaxContribution: 10_000,
		Deadline:        2 * time.Second,
		Aggregators:     aggs,
	}
}

// fixedEval returns an evaluator contributing a constant value.
func fixedEval(v uint64) EvalFunc {
	return func(*Spec) (uint64, bool, error) { return v, true, nil }
}

// newHarness builds one responder per value, a committee of the given size
// (ids agg-0, agg-1, ...) and the "census" coordinator over svc.
func newHarness(tb testing.TB, svc cloud.Service, values []uint64, committee int) (*Coordinator, []*Responder, []*Aggregator) {
	tb.Helper()
	comm := testCommunity(tb)
	responders := make([]*Responder, len(values))
	for i, v := range values {
		responders[i] = NewResponder(fmt.Sprintf("c%03d", i), comm, svc, fixedEval(v))
	}
	aggs := make([]*Aggregator, committee)
	for i := range aggs {
		aggs[i] = NewAggregator(fmt.Sprintf("agg-%d", i), comm, svc)
	}
	co, err := NewCoordinator(CoordinatorConfig{
		ID: "census", Community: comm, Cloud: svc,
		Rand: rand.New(rand.NewSource(7)),
	})
	if err != nil {
		tb.Fatalf("new coordinator: %v", err)
	}
	return co, responders, aggs
}

func TestSpecCodecRoundTrip(t *testing.T) {
	spec := Spec{
		ID:      "q-1",
		ReplyTo: "census",
		Filter: Filter{
			Type: core.SeriesDocType, Keyword: "power",
			TagKey: "region", TagValue: "south",
		},
		Granularity:     timeseries.GranularityHour,
		Kind:            timeseries.AggregateMean,
		K:               10,
		Epsilon:         0.5,
		MaxContribution: 42_000,
		Deadline:        750 * time.Millisecond,
		Aggregators:     []string{"a", "b"},
	}
	got, err := DecodeSpec(spec.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.ID != spec.ID || got.ReplyTo != spec.ReplyTo || got.Filter != spec.Filter ||
		got.Granularity != spec.Granularity || got.Kind != spec.Kind || got.K != spec.K ||
		got.Epsilon != spec.Epsilon || got.MaxContribution != spec.MaxContribution ||
		got.Deadline != spec.Deadline || len(got.Aggregators) != 2 ||
		got.Aggregators[0] != "a" || got.Aggregators[1] != "b" {
		t.Fatalf("round trip mismatch: %+v != %+v", got, spec)
	}
}

func TestSpecCodecRejectsMalformed(t *testing.T) {
	good := testSpec("q-codec")
	good.ReplyTo = "census"
	enc := good.Encode()
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte{0xD0}, enc[1:]...),
		"bad version": append([]byte{specMagic, 99}, enc[2:]...),
		"truncated":   enc[:len(enc)/2],
		"trailing":    append(append([]byte{}, enc...), 0xFF),
	}
	for name, b := range cases {
		if _, err := DecodeSpec(b); !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: got %v, want ErrBadSpec", name, err)
		}
	}
}

// allocatedBy reports the bytes allocated while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzCommonsCodec throws arbitrary bytes at the three commons decoders —
// query spec, cell response, control message — whose input is whatever an
// untrusted provider relays through the mailboxes. None may panic or let a
// count size an allocation the input cannot back, and an accepted payload
// must re-encode to the same bytes.
func FuzzCommonsCodec(f *testing.F) {
	spec := testSpec("q-fuzz")
	spec.ReplyTo = "census"
	resp := (&response{queryID: "q", cellID: "c", shares: [][]byte{{1, 2}, {}}}).encode()
	ctrl := (&control{queryID: "q", aggID: "agg-0", replyTo: "census", cells: []string{"c"},
		shares: [][]byte{{3}}, partial: []byte{4}}).encode()
	declined := (&response{queryID: "q", cellID: "c", declined: true}).encode()
	declined[len(declined)-2] = 7 // the declined flag, before the zero share count
	f.Add(spec.Encode())
	f.Add(resp)
	f.Add(ctrl)
	f.Add(append(append([]byte{}, resp...), 0)) // trailing byte
	f.Add(append(append([]byte{}, ctrl...), 0)) // trailing byte
	f.Add(declined)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Longer payloads only repeat the same paths, and the fuzzer's
		// minimization of an interesting input is quadratic in its length.
		if len(data) > 256 {
			return
		}
		limit := uint64(64*len(data) + 64<<10)
		for name, reencode := range map[string]func() ([]byte, error){
			"spec": func() ([]byte, error) {
				s, err := DecodeSpec(data)
				if err != nil {
					return nil, err
				}
				return s.Encode(), nil
			},
			"response": func() ([]byte, error) {
				p, err := decodeResponse(data)
				if err != nil {
					return nil, err
				}
				return p.encode(), nil
			},
			"control": func() ([]byte, error) {
				c, err := decodeControl(data)
				if err != nil {
					return nil, err
				}
				return c.encode(), nil
			},
		} {
			var again []byte
			var err error
			if grew := allocatedBy(func() { again, err = reencode() }); grew > limit {
				t.Fatalf("%s: a %d-byte payload allocated %d bytes", name, len(data), grew)
			}
			if err == nil && !bytes.Equal(again, data) {
				t.Fatalf("accepted %s re-encodes differently:\n in  %x\n out %x", name, data, again)
			}
		}
	})
}

func TestSpecValidate(t *testing.T) {
	base := testSpec("q-val")
	base.ReplyTo = "census"
	mut := func(f func(*Spec)) Spec {
		s := base
		s.Aggregators = append([]string(nil), base.Aggregators...)
		f(&s)
		return s
	}
	cases := []struct {
		name string
		spec Spec
		want error
	}{
		{"ok", base, nil},
		{"no id", mut(func(s *Spec) { s.ID = "" }), ErrBadSpec},
		{"one aggregator", mut(func(s *Spec) { s.Aggregators = s.Aggregators[:1] }), ErrBadAggregators},
		{"k too small", mut(func(s *Spec) { s.K = 1 }), ErrBadK},
		{"bad epsilon", mut(func(s *Spec) { s.Epsilon = 0 }), ErrBadEpsilon},
		{"zero clamp", mut(func(s *Spec) { s.MaxContribution = 0 }), ErrBadSpec},
		{"no deadline", mut(func(s *Spec) { s.Deadline = 0 }), ErrBadSpec},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if tc.want == nil && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestQueryEndToEnd(t *testing.T) {
	values := []uint64{10, 20, 30, 40, 50, 60, 70, 80}
	co, responders, aggs := newHarness(t, cloud.NewMemory(), values, 3)
	res, err := co.Query(testSpec("q-e2e"), responders, aggs)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if res.Responded != len(values) || res.Total != len(values) || res.Suppressed != 0 {
		t.Fatalf("accounting: responded=%d total=%d suppressed=%d", res.Responded, res.Total, res.Suppressed)
	}
	if res.Sum != 360 {
		t.Fatalf("sum: got %d, want 360", res.Sum)
	}
	if !res.Released || res.Epsilon != 1.0 {
		t.Fatalf("release: released=%v epsilon=%v", res.Released, res.Epsilon)
	}
	if res.NoisySum == float64(res.Sum) {
		t.Fatalf("noisy sum should be perturbed, got exactly %v", res.NoisySum)
	}
	if got := co.spent; got != 1.0 {
		t.Fatalf("epsilon spent: got %v, want 1.0", got)
	}
	if len(res.Contributors) != len(values) {
		t.Fatalf("contributors: %d", len(res.Contributors))
	}
}

func TestKAnonymitySuppression(t *testing.T) {
	co, responders, aggs := newHarness(t, cloud.NewMemory(), []uint64{5, 7, 9}, 3)
	spec := testSpec("q-small")
	spec.K = 5 // more than the 3 cells that will respond
	res, err := co.Query(spec, responders, aggs)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if res.Released || res.NoisySum != 0 || res.Epsilon != 0 {
		t.Fatalf("suppressed release leaked: %+v", res)
	}
	if res.Responded != 3 {
		t.Fatalf("responded: got %d, want 3", res.Responded)
	}
	if got := co.spent; got != 0 {
		t.Fatalf("suppressed query spent budget: %v", got)
	}
}

func TestStragglerDeadline(t *testing.T) {
	values := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	co, responders, aggs := newHarness(t, cloud.NewMemory(), values, 3)
	spec := testSpec("q-straggler")
	spec.Deadline = 150 * time.Millisecond
	p, err := co.Scatter(spec, cellIDs(responders))
	if err != nil {
		t.Fatalf("scatter: %v", err)
	}
	// Two cells are dead: they never poll their mailbox.
	for _, r := range responders[:8] {
		if _, err := r.Poll(4); err != nil {
			t.Fatalf("poll: %v", err)
		}
	}
	res, err := co.Gather(p, aggs)
	if err != nil {
		t.Fatalf("gather: %v", err)
	}
	if res.Responded != 8 || res.Total != 10 {
		t.Fatalf("accounting: responded=%d total=%d", res.Responded, res.Total)
	}
	if res.Sum != 36 { // 1+...+8
		t.Fatalf("sum: got %d, want 36", res.Sum)
	}
	if !res.Released {
		t.Fatal("aggregate should release at 80% coverage with K=2")
	}
}

// TestGatherCountsResponsesQueuedBeforeDeadline gathers only after the
// deadline passed, with more responses queued than one mailbox poll returns:
// every one that reached the mailbox in time enters the release, and the
// one sent after the deadline does not.
func TestGatherCountsResponsesQueuedBeforeDeadline(t *testing.T) {
	values := make([]uint64, 1101)
	for i := range values {
		values[i] = 1
	}
	svc := cloud.NewMemory()
	_, responders, aggs := newHarness(t, svc, values, 3)
	var mu sync.Mutex
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	svc.SetClock(clock)
	co, err := NewCoordinator(CoordinatorConfig{
		ID: "census", Community: responders[0].comm, Cloud: svc, Clock: clock,
		Rand: rand.New(rand.NewSource(7)),
	})
	if err != nil {
		t.Fatalf("new coordinator: %v", err)
	}
	spec := testSpec("q-late-gather")
	spec.Deadline = time.Second
	p, err := co.Scatter(spec, cellIDs(responders))
	if err != nil {
		t.Fatalf("scatter: %v", err)
	}
	onTime, straggler := responders[:1100], responders[1100]
	for _, r := range onTime {
		if _, err := r.Poll(4); err != nil {
			t.Fatalf("poll: %v", err)
		}
	}
	mu.Lock()
	now = now.Add(2 * spec.Deadline)
	mu.Unlock()
	if n, err := straggler.Poll(4); err != nil || n != 1 {
		t.Fatalf("straggler poll: %d, %v", n, err)
	}
	res, err := co.Gather(p, aggs)
	if err != nil {
		t.Fatalf("gather: %v", err)
	}
	if res.Total != 1101 || res.Responded != len(onTime) || res.Sum != uint64(len(onTime)) {
		t.Fatalf("responded %d/%d, sum %d; want %d on-time responses", res.Responded, res.Total, res.Sum, len(onTime))
	}
}

func cellIDs(rs []*Responder) []string {
	ids := make([]string, len(rs))
	for i, r := range rs {
		ids[i] = r.id
	}
	return ids
}

func TestDuplicateResponseSuppressed(t *testing.T) {
	svc := cloud.NewMemory()
	co, responders, aggs := newHarness(t, svc, []uint64{11, 22, 33}, 3)
	comm := responders[0].comm
	spec := testSpec("q-dup")
	p, err := co.Scatter(spec, cellIDs(responders))
	if err != nil {
		t.Fatalf("scatter: %v", err)
	}
	// A replaying provider delivers the query to cell 0 twice; the cell
	// answers both, and the querier must count it once.
	dup, err := crypto.Seal(comm.memberKey("c000"), p.Spec.Encode(), comm.adSpec("c000"))
	if err != nil {
		t.Fatalf("seal: %v", err)
	}
	if err := svc.Send(cloud.Message{From: "census", To: comm.Mailbox("c000"), Kind: KindQuery, Body: dup}); err != nil {
		t.Fatalf("send: %v", err)
	}
	for _, r := range responders {
		if _, err := r.Poll(8); err != nil {
			t.Fatalf("poll: %v", err)
		}
	}
	res, err := co.Gather(p, aggs)
	if err != nil {
		t.Fatalf("gather: %v", err)
	}
	if res.Responded != 3 || res.Suppressed != 1 {
		t.Fatalf("accounting: responded=%d suppressed=%d", res.Responded, res.Suppressed)
	}
	if res.Sum != 66 {
		t.Fatalf("sum: got %d, want 66", res.Sum)
	}
}

func TestTamperedShareExcludedEverywhere(t *testing.T) {
	svc := cloud.NewMemory()
	co, responders, aggs := newHarness(t, svc, []uint64{100, 200}, 3)
	comm := responders[0].comm
	spec := testSpec("q-tamper")
	p, err := co.Scatter(spec, cellIDs(responders))
	if err != nil {
		t.Fatalf("scatter: %v", err)
	}
	for _, r := range responders {
		if _, err := r.Poll(4); err != nil {
			t.Fatalf("poll: %v", err)
		}
	}
	// A malicious member posts a response whose share for agg-1 is garbage:
	// the committee intersection must drop the whole contribution instead of
	// letting inconsistent partials corrupt the sum.
	bad := &response{queryID: spec.ID, cellID: "c001", shares: make([][]byte, 3)}
	for i, aggID := range spec.Aggregators {
		field := make([]byte, shareFieldBytes)
		field[shareFieldBytes-1] = 9
		sealed, err := crypto.Seal(comm.aggregatorKey(aggID), field, comm.adShare(spec.ID, "c001", aggID))
		if err != nil {
			t.Fatalf("seal share: %v", err)
		}
		bad.shares[i] = sealed
	}
	bad.shares[1] = []byte("not an envelope")
	// Deliver it ahead of the honest responses by draining and re-ordering.
	msgs, err := svc.Receive(comm.Mailbox("census"), 16)
	if err != nil {
		t.Fatalf("receive: %v", err)
	}
	body, err := crypto.Seal(comm.querierKey("census"), bad.encode(), comm.adResponse(spec.ID, "c001"))
	if err != nil {
		t.Fatalf("seal response: %v", err)
	}
	if err := svc.Send(cloud.Message{From: "c001", To: comm.Mailbox("census"), Kind: KindResponse, Body: body}); err != nil {
		t.Fatalf("send: %v", err)
	}
	for _, m := range msgs {
		if m.From == "c001" {
			continue // the honest duplicate would be flagged; keep the test focused
		}
		if err := svc.Send(m); err != nil {
			t.Fatalf("resend: %v", err)
		}
	}
	res, err := co.Gather(p, aggs)
	if err != nil {
		t.Fatalf("gather: %v", err)
	}
	if res.Responded != 1 || res.Suppressed != 1 {
		t.Fatalf("accounting: responded=%d suppressed=%d", res.Responded, res.Suppressed)
	}
	if res.Sum != 100 {
		t.Fatalf("sum: got %d, want 100 (tampered contribution excluded)", res.Sum)
	}
}

func TestDroppingProviderOnlyReducesCoverage(t *testing.T) {
	mem := cloud.NewMemory()
	adv := cloud.NewAdversary(mem, cloud.AdversaryConfig{Mode: cloud.Dropping, DropRate: 0.25, Seed: 42})
	values := make([]uint64, 40)
	for i := range values {
		values[i] = uint64(i + 1)
	}
	co, responders, aggs := newHarness(t, adv, values, 3)
	spec := testSpec("q-drop")
	spec.Deadline = 400 * time.Millisecond
	p, err := co.Scatter(spec, cellIDs(responders))
	if err != nil {
		t.Fatalf("scatter: %v", err)
	}
	for _, r := range responders {
		if _, err := r.Poll(4); err != nil {
			t.Fatalf("poll: %v", err)
		}
	}
	res, err := co.Gather(p, aggs)
	if err != nil {
		t.Fatalf("gather: %v", err)
	}
	if res.Responded >= res.Total {
		t.Fatalf("dropping provider lost nothing? responded=%d total=%d", res.Responded, res.Total)
	}
	// The sum must be exactly the sum of the contributors' true values:
	// coverage shrinks, correctness never does.
	var want uint64
	for _, id := range res.Contributors {
		var idx int
		fmt.Sscanf(id, "c%03d", &idx)
		want += values[idx]
	}
	if res.Sum != want {
		t.Fatalf("sum corrupted: got %d, want %d over %d contributors", res.Sum, want, res.Responded)
	}
}

func TestPrivacyBudget(t *testing.T) {
	comm := testCommunity(t)
	svc := cloud.NewMemory()
	responders := []*Responder{
		NewResponder("c000", comm, svc, fixedEval(3)),
		NewResponder("c001", comm, svc, fixedEval(4)),
	}
	aggs := []*Aggregator{NewAggregator("agg-0", comm, svc), NewAggregator("agg-1", comm, svc), NewAggregator("agg-2", comm, svc)}
	co, err := NewCoordinator(CoordinatorConfig{
		ID: "census", Community: comm, Cloud: svc, PrivacyBudget: 1.5,
	})
	if err != nil {
		t.Fatalf("new coordinator: %v", err)
	}
	if _, err := co.Query(testSpec("q-budget-1"), responders, aggs); err != nil {
		t.Fatalf("first query: %v", err)
	}
	if _, err := co.Scatter(testSpec("q-budget-2"), cellIDs(responders)); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("second query: got %v, want ErrBudgetExhausted", err)
	}
}

// TestCellResponderPolicyGate runs the full path on real cells: series
// documents behind the reference monitor, the spec's filter through the
// planner, and a cell whose policy refuses aggregation declining without
// erroring.
func TestCellResponderPolicyGate(t *testing.T) {
	svc := cloud.NewMemory()
	comm := testCommunity(t)
	day := time.Date(2013, 1, 7, 0, 0, 0, 0, time.UTC)

	newCell := func(id string, allowAggregate bool, watts float64) *Responder {
		cell, err := core.New(core.Config{ID: id, Class: tamper.ClassHomeGateway, Cloud: svc, Seed: []byte(id)})
		if err != nil {
			t.Fatalf("new cell: %v", err)
		}
		if allowAggregate {
			if err := cell.AddRule(policy.Rule{
				ID: "commons", Effect: policy.EffectAllow,
				SubjectIDs: []string{"census"},
				Actions:    []policy.Action{policy.ActionAggregate},
			}); err != nil {
				t.Fatalf("add rule: %v", err)
			}
		}
		s := timeseries.NewSeries("power", "W")
		for h := 0; h < 24; h++ {
			if err := s.AppendValue(day.Add(time.Duration(h)*time.Hour), watts); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
		if _, err := cell.IngestSeries(s, "meter", []string{"power"}, nil); err != nil {
			t.Fatalf("ingest series: %v", err)
		}
		return NewResponder(id, comm, svc, CellEvaluator(cell, "census", core.AccessContext{}))
	}

	responders := []*Responder{
		newCell("home-a", true, 100), // sums to 2400
		newCell("home-b", true, 50),  // sums to 1200
		newCell("home-c", false, 75), // policy refuses: declines
	}
	aggs := []*Aggregator{NewAggregator("agg-0", comm, svc), NewAggregator("agg-1", comm, svc), NewAggregator("agg-2", comm, svc)}
	co, err := NewCoordinator(CoordinatorConfig{ID: "census", Community: comm, Cloud: svc})
	if err != nil {
		t.Fatalf("new coordinator: %v", err)
	}
	res, err := co.Query(testSpec("q-cells"), responders, aggs)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if res.Responded != 2 || res.Declined != 1 {
		t.Fatalf("accounting: responded=%d declined=%d", res.Responded, res.Declined)
	}
	if res.Sum != 3600 {
		t.Fatalf("sum: got %d, want 3600", res.Sum)
	}
	if res.Released {
		t.Logf("released at k=%d with %d contributors", res.K, res.Responded)
	}
}

// TestBackendsUnchanged proves the protocol runs against the durable and
// replicated providers through the same Send/Receive plane, with no
// backend-specific code.
func TestBackendsUnchanged(t *testing.T) {
	t.Run("durable", func(t *testing.T) {
		dur, err := cloud.OpenDurable(t.TempDir(), cloud.DurableOptions{Shards: 2})
		if err != nil {
			t.Fatalf("open durable: %v", err)
		}
		defer dur.Close()
		runBackend(t, dur)
	})
	t.Run("replicated", func(t *testing.T) {
		members := []cloud.Service{cloud.NewMemory(), cloud.NewMemory(), cloud.NewMemory()}
		rep, err := cloud.NewReplicated(members, cloud.ReplicatedOptions{})
		if err != nil {
			t.Fatalf("new replicated: %v", err)
		}
		runBackend(t, rep)
	})
}

func runBackend(t *testing.T, svc cloud.Service) {
	t.Helper()
	co, responders, aggs := newHarness(t, svc, []uint64{7, 8, 9}, 3)
	res, err := co.Query(testSpec("q-backend"), responders, aggs)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if res.Sum != 24 || res.Responded != 3 {
		t.Fatalf("got sum=%d responded=%d, want 24/3", res.Sum, res.Responded)
	}
}
