package commons

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"trustedcells/internal/cloud"
)

// makeValues returns n bounded cell contributions and their sum.
func makeValues(n int) ([]uint64, uint64) {
	values := make([]uint64, n)
	var sum uint64
	for i := range values {
		values[i] = uint64(i%97 + 1)
		sum += values[i]
	}
	return values, sum
}

// secureSum runs one commons query over a fresh in-memory cloud: one
// responder per value and a committee of the given size.
func secureSum(tb testing.TB, values []uint64, committee int) (*Result, cloud.Stats, error) {
	tb.Helper()
	svc := cloud.NewMemory()
	co, responders, aggs := newHarness(tb, svc, values, committee)
	aggIDs := make([]string, len(aggs))
	for i, a := range aggs {
		aggIDs[i] = a.id
	}
	spec := testSpec("q-sum", aggIDs...)
	spec.Deadline = 30 * time.Second
	spec.MaxContribution = math.MaxUint16
	res, err := co.Query(spec, responders, aggs)
	return res, svc.Stats(), err
}

// bytesPerCell is the sealed mailbox payload a query moved, per cell.
func bytesPerCell(res *Result) float64 {
	return float64(res.BytesScattered+res.BytesGathered) / float64(res.Total)
}

// checkSum asserts an exact sum over every cell and the honest protocol's
// message count: a spec out and a response back per cell, and shares, valid
// set, finalize and partial total per aggregator.
func checkSum(t *testing.T, res *Result, st cloud.Stats, n, committee int, want uint64) {
	t.Helper()
	if res.Sum != want || res.Responded != n {
		t.Fatalf("n=%d committee=%d: sum=%d responded=%d, want %d over %d", n, committee, res.Sum, res.Responded, want, n)
	}
	if sends := 2*n + 4*committee; st.Sends != int64(sends) || res.Messages != sends {
		t.Fatalf("n=%d committee=%d: %d sends, %d messages counted, want %d", n, committee, st.Sends, res.Messages, sends)
	}
}

// TestSecureSumPureSMC runs the committee as large as the population: every
// cell's value is split across all n members. At 300 a committee answers
// faster than one mailbox poll drains, so the exact send count also pins the
// retry rule: a silent member that is merely queued is not sent its share
// batch again.
func TestSecureSumPureSMC(t *testing.T) {
	for _, n := range []int{2, 5, 50, 300} {
		values, want := makeValues(n)
		res, st, err := secureSum(t, values, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		checkSum(t, res, st, n, n, want)
	}
}

func TestSecureSumCloudAssisted(t *testing.T) {
	values, want := makeValues(100)
	res, st, err := secureSum(t, values, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkSum(t, res, st, 100, 3, want)
	if !res.Released {
		t.Fatalf("100 contributors should clear k=%d", res.K)
	}
}

func TestSecureSumScalability(t *testing.T) {
	small, _ := makeValues(20)
	large, _ := makeValues(200)
	per := func(values []uint64, committee int) float64 {
		res, _, err := secureSum(t, values, committee)
		if err != nil {
			t.Fatal(err)
		}
		return bytesPerCell(res)
	}
	// The per-cell traffic grows with n for pure SMC but stays flat for the
	// cloud-assisted committee: the asymmetry argument of the paper.
	smcSmall, smcLarge := per(small, len(small)), per(large, len(large))
	cloudSmall, cloudLarge := per(small, 3), per(large, 3)
	if smcLarge < 5*smcSmall {
		t.Fatalf("pure SMC bytes/cell should grow with n: %.0f at 20, %.0f at 200", smcSmall, smcLarge)
	}
	if math.Abs(cloudLarge-cloudSmall) > 0.2*cloudSmall {
		t.Fatalf("cloud-assisted bytes/cell should stay flat: %.0f at 20, %.0f at 200", cloudSmall, cloudLarge)
	}
}

func TestSecureSumValidation(t *testing.T) {
	co, _, _ := newHarness(t, cloud.NewMemory(), nil, 3)
	if _, err := co.Scatter(testSpec("q-empty"), nil); err != ErrNoParticipants {
		t.Fatalf("no cells: %v", err)
	}
	if _, err := co.Scatter(testSpec("q-one", "agg-0"), []string{"c000"}); err != ErrBadAggregators {
		t.Fatalf("committee of one: %v", err)
	}
}

func TestSecureSumProperty(t *testing.T) {
	f := func(raw []uint16, mRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		values := make([]uint64, len(raw))
		var want uint64
		for i, v := range raw {
			values[i] = uint64(v)
			want += uint64(v)
		}
		res, _, err := secureSum(t, values, int(mRaw%4)+2)
		return err == nil && res.Sum == want && res.Responded == len(values)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func makeQuasiRecords(n int, seed int64) []QuasiRecord {
	rng := rand.New(rand.NewSource(seed))
	bands := []string{"18-30", "31-45", "46-60", "61-75", "76+"}
	conditions := []string{"diabetes", "hypertension", "asthma", "none"}
	out := make([]QuasiRecord, n)
	for i := range out {
		out[i] = QuasiRecord{
			AgeBand:   bands[rng.Intn(len(bands))],
			ZIP3:      fmt.Sprintf("%03d", 750+rng.Intn(20)),
			Sensitive: conditions[rng.Intn(len(conditions))],
		}
	}
	return out
}

func TestAnonymizeReachesK(t *testing.T) {
	records := makeQuasiRecords(500, 1)
	for _, k := range []int{2, 5, 10, 50} {
		res, err := Anonymize(records, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.SmallestClass < k {
			t.Fatalf("k=%d: smallest class %d", k, res.SmallestClass)
		}
		if len(res.Records) != len(records) {
			t.Fatalf("k=%d: record count changed", k)
		}
		if res.InformationLoss < 0 || res.InformationLoss > 1 {
			t.Fatalf("k=%d: information loss %v out of range", k, res.InformationLoss)
		}
		// Sensitive values must be untouched.
		for i := range records {
			if res.Records[i].Sensitive != records[i].Sensitive {
				t.Fatalf("k=%d: sensitive value modified", k)
			}
		}
	}
}

func TestAnonymizeLossGrowsWithK(t *testing.T) {
	records := makeQuasiRecords(300, 2)
	res2, _ := Anonymize(records, 2)
	res50, _ := Anonymize(records, 50)
	if res50.InformationLoss < res2.InformationLoss {
		t.Fatalf("loss should not decrease with k: k=2 %.3f, k=50 %.3f",
			res2.InformationLoss, res50.InformationLoss)
	}
}

func TestAnonymizeSmallDatasetSuppresses(t *testing.T) {
	records := makeQuasiRecords(3, 3)
	res, err := Anonymize(records, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.SmallestClass < 3 {
		t.Fatalf("smallest class %d", res.SmallestClass)
	}
}

func TestAnonymizeValidation(t *testing.T) {
	if _, err := Anonymize(nil, 1); err != ErrBadK {
		t.Fatalf("k=1: %v", err)
	}
	res, err := Anonymize(nil, 2)
	if err != nil || len(res.Records) != 0 {
		t.Fatalf("empty input: %+v %v", res, err)
	}
}

func TestGeneralizeHelpers(t *testing.T) {
	if generalizeZIP("757") != "75*" || generalizeZIP("75*") != "7**" || generalizeZIP("7**") != "*" || generalizeZIP("*") != "*" {
		t.Fatal("zip generalization ladder wrong")
	}
	if generalizeAge("18-30") != "18-45" || generalizeAge("18-45") != "*" || generalizeAge("weird") != "*" {
		t.Fatal("age generalization ladder wrong")
	}
}

func TestLaplaceMechanism(t *testing.T) {
	truth := map[string]int{"diabetes": 120, "asthma": 45, "none": 800}
	rng := rand.New(rand.NewSource(5))
	release, err := LaplaceMechanism(truth, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(release) != 3 {
		t.Fatalf("release size %d", len(release))
	}
	for _, gc := range release {
		if gc.Count < 0 {
			t.Fatalf("negative released count %v", gc)
		}
	}
	mae := MeanAbsoluteError(truth, release)
	if mae <= 0 || mae > 50 {
		t.Fatalf("implausible MAE %v for epsilon=1", mae)
	}
	if _, err := LaplaceMechanism(truth, 0, rng); err != ErrBadEpsilon {
		t.Fatalf("epsilon=0: %v", err)
	}
	if _, err := LaplaceMechanism(truth, 1, nil); err != nil {
		t.Fatalf("nil rng should default: %v", err)
	}
}

func TestLaplaceErrorDecreasesWithEpsilon(t *testing.T) {
	truth := map[string]int{}
	for i := 0; i < 50; i++ {
		truth[fmt.Sprintf("g%02d", i)] = 100 + i
	}
	mae := func(eps float64) float64 {
		var total float64
		const trials = 40
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(int64(trial)))
			rel, err := LaplaceMechanism(truth, eps, rng)
			if err != nil {
				t.Fatal(err)
			}
			total += MeanAbsoluteError(truth, rel)
		}
		return total / trials
	}
	loose := mae(0.1)
	tight := mae(2.0)
	if tight >= loose {
		t.Fatalf("MAE should shrink as epsilon grows: eps=0.1 %.2f, eps=2 %.2f", loose, tight)
	}
	// Sanity check against theory: expected |Laplace(1/eps)| = 1/eps.
	if math.Abs(tight-0.5) > 0.5 {
		t.Fatalf("MAE at eps=2 = %.2f, expected around 0.5", tight)
	}
}

func TestHistograms(t *testing.T) {
	records := []QuasiRecord{
		{Sensitive: "diabetes", AgeBand: "46-60"},
		{Sensitive: "diabetes", AgeBand: "18-30"},
		{Sensitive: "none", AgeBand: "18-30"},
	}
	h := HistogramFromSensitive(records)
	if h["diabetes"] != 2 || h["none"] != 1 {
		t.Fatalf("histogram %v", h)
	}
	cross := CrossHistogram(records, func(r QuasiRecord) string { return r.AgeBand })
	if cross["diabetes|46-60"] != 1 || cross["diabetes|18-30"] != 1 {
		t.Fatalf("cross histogram %v", cross)
	}
}

func BenchmarkSecureSumCloudAssisted1000(b *testing.B) {
	values, want := makeValues(1000)
	for i := 0; i < b.N; i++ {
		res, _, err := secureSum(b, values, 3)
		if err != nil || res.Sum != want {
			b.Fatalf("sum %v: %v", res, err)
		}
	}
}

func BenchmarkAnonymize1000K10(b *testing.B) {
	records := makeQuasiRecords(1000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Anonymize(records, 10); err != nil {
			b.Fatal(err)
		}
	}
}
