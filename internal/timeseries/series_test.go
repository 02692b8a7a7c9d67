package timeseries

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"trustedcells/internal/crypto"
)

var t0 = time.Date(2013, 1, 7, 0, 0, 0, 0, time.UTC)

func rampSeries(n int, step time.Duration) *Series {
	s := NewSeries("power", "W")
	for i := 0; i < n; i++ {
		_ = s.AppendValue(t0.Add(time.Duration(i)*step), float64(i))
	}
	return s
}

func TestSeriesAppendOrdering(t *testing.T) {
	s := NewSeries("power", "W")
	if err := s.AppendValue(t0, 1); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := s.AppendValue(t0.Add(time.Second), 2); err != nil {
		t.Fatalf("Append: %v", err)
	}
	// Equal timestamps are allowed, going backwards is not.
	if err := s.AppendValue(t0.Add(time.Second), 3); err != nil {
		t.Fatalf("Append equal timestamp: %v", err)
	}
	if err := s.AppendValue(t0, 4); err != ErrNotMonotonic {
		t.Fatalf("expected ErrNotMonotonic, got %v", err)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Name() != "power" || s.Unit() != "W" {
		t.Fatal("name/unit lost")
	}
}

func TestSeriesSpanAndSlice(t *testing.T) {
	s := rampSeries(100, time.Second)
	start, end, err := s.span()
	if err != nil {
		t.Fatal(err)
	}
	if !start.Equal(t0) || !end.Equal(t0.Add(99*time.Second)) {
		t.Fatalf("span %v..%v", start, end)
	}
	slice := s.slice(t0.Add(10*time.Second), t0.Add(20*time.Second))
	if len(slice) != 10 {
		t.Fatalf("slice len = %d, want 10", len(slice))
	}
	if slice[0].Value != 10 || slice[9].Value != 19 {
		t.Fatalf("slice bounds wrong: %v..%v", slice[0].Value, slice[9].Value)
	}
	if _, _, err := NewSeries("x", "").span(); err != ErrEmptySeries {
		t.Fatalf("empty span error = %v", err)
	}
}

func TestComputeStats(t *testing.T) {
	pts := []Point{{t0, 2}, {t0.Add(time.Second), 4}, {t0.Add(2 * time.Second), 6}}
	st := ComputeStats(pts)
	if st.Count != 3 || st.Sum != 12 || st.Mean != 4 || st.Min != 2 || st.Max != 6 {
		t.Fatalf("stats %+v", st)
	}
	if math.Abs(st.Std-1.632993) > 1e-5 {
		t.Fatalf("std = %v", st.Std)
	}
	if empty := ComputeStats(nil); empty.Count != 0 || empty.Sum != 0 {
		t.Fatalf("empty stats %+v", empty)
	}
}

func TestDownsample(t *testing.T) {
	// One day of 1-minute readings.
	s := rampSeries(24*60, time.Minute)
	buckets, err := s.Downsample(GranularityHour)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 24 {
		t.Fatalf("bucket count = %d, want 24", len(buckets))
	}
	for i, b := range buckets {
		if b.Stats.Count != 60 {
			t.Fatalf("bucket %d has %d points", i, b.Stats.Count)
		}
		if !b.Start.Equal(t0.Add(time.Duration(i) * time.Hour)) {
			t.Fatalf("bucket %d start %v", i, b.Start)
		}
	}
	// Bad granularity.
	if _, err := s.Downsample(0); err != ErrBadGranularity {
		t.Fatalf("expected ErrBadGranularity, got %v", err)
	}
	// Empty series downsampling is empty, not an error.
	empty, err := NewSeries("x", "").Downsample(GranularityHour)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty downsample: %v %v", empty, err)
	}
}

func TestDownsampleSeriesKinds(t *testing.T) {
	s := NewSeries("power", "W")
	// Two 15-minute windows with values 10,20 and 30,50.
	_ = s.AppendValue(t0, 10)
	_ = s.AppendValue(t0.Add(5*time.Minute), 20)
	_ = s.AppendValue(t0.Add(16*time.Minute), 30)
	_ = s.AppendValue(t0.Add(20*time.Minute), 50)

	check := func(kind AggregateKind, want []float64) {
		t.Helper()
		ds, err := s.DownsampleSeries(Granularity15Min, kind)
		if err != nil {
			t.Fatal(err)
		}
		if ds.Len() != len(want) {
			t.Fatalf("%v: len %d", kind, ds.Len())
		}
		for i, w := range want {
			if math.Abs(ds.Points()[i].Value-w) > 1e-9 {
				t.Fatalf("%v[%d] = %v, want %v", kind, i, ds.Points()[i].Value, w)
			}
		}
	}
	check(AggregateMean, []float64{15, 40})
	check(AggregateSum, []float64{30, 80})
	check(AggregateMax, []float64{20, 50})
	check(AggregateMin, []float64{10, 30})
}

func TestGranularityString(t *testing.T) {
	cases := map[Granularity]string{
		GranularitySecond: "1s",
		GranularityMinute: "1min",
		Granularity15Min:  "15min",
		GranularityHour:   "1h",
		GranularityDay:    "1d",
	}
	for g, want := range cases {
		if g.String() != want {
			t.Fatalf("Granularity %v string = %q, want %q", time.Duration(g), g.String(), want)
		}
	}
}

func TestAggregateKindString(t *testing.T) {
	if AggregateMean.String() != "mean" || AggregateSum.String() != "sum" ||
		AggregateMax.String() != "max" || AggregateMin.String() != "min" {
		t.Fatal("aggregate kind names wrong")
	}
	if AggregateKind(42).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestEnergyIntegration(t *testing.T) {
	s := NewSeries("power", "W")
	// Constant 1000 W for one hour = 1 kWh.
	for i := 0; i <= 3600; i += 60 {
		_ = s.AppendValue(t0.Add(time.Duration(i)*time.Second), 1000)
	}
	if e := s.Energy(); math.Abs(e-1.0) > 1e-6 {
		t.Fatalf("energy = %v kWh, want 1", e)
	}
	if NewSeries("x", "").Energy() != 0 {
		t.Fatal("empty series energy should be 0")
	}
}

func TestDownsampleConservesSum(t *testing.T) {
	// Property: the sum of bucket sums equals the sum of raw values.
	f := func(raw []float64) bool {
		s := NewSeries("p", "W")
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			// Clamp to a realistic sensor range to avoid float cancellation
			// artefacts dominating the comparison.
			v = math.Mod(v, 1e6)
			_ = s.AppendValue(t0.Add(time.Duration(i)*37*time.Second), v)
		}
		buckets, err := s.Downsample(Granularity15Min)
		if err != nil {
			return false
		}
		var total float64
		for _, b := range buckets {
			total += b.Stats.Sum
		}
		return math.Abs(total-s.Stats().Sum) < 1e-6*math.Max(1, math.Abs(s.Stats().Sum))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCertifiedSeriesRoundTrip(t *testing.T) {
	s := rampSeries(60*60, time.Second) // one hour at 1 Hz
	sk, _ := crypto.NewSigningKey()
	c, err := Certify("linky-42", s, Granularity15Min, AggregateMean, t0.Add(time.Hour),
		sk.Public(), func(m []byte) ([]byte, error) { return sk.Sign(m), nil })
	if err != nil {
		t.Fatalf("Certify: %v", err)
	}
	if len(c.Points) != 4 {
		t.Fatalf("certified points = %d, want 4", len(c.Points))
	}
	if err := c.Verify(nil); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	pub := sk.Public()
	if err := c.Verify(&pub); err != nil {
		t.Fatalf("Verify with expected source: %v", err)
	}
}

func TestCertifiedSeriesTamperDetection(t *testing.T) {
	s := rampSeries(100, time.Second)
	sk, _ := crypto.NewSigningKey()
	c, err := Certify("meter", s, GranularityMinute, AggregateSum, t0, sk.Public(),
		func(m []byte) ([]byte, error) { return sk.Sign(m), nil })
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with a reported value: verification must fail.
	c.Points[0].Value += 100
	if err := c.Verify(nil); err == nil {
		t.Fatal("tampered certified series verified")
	}
	c.Points[0].Value -= 100
	// Claiming a different source must fail.
	otherKey, _ := crypto.NewSigningKey()
	otherPub := otherKey.Public()
	if err := c.Verify(&otherPub); err == nil {
		t.Fatal("series attributed to the wrong source verified")
	}
	// A forged signature from a different key must fail.
	c.SourceKey = otherKey.Public().Bytes()
	if err := c.Verify(nil); err == nil {
		t.Fatal("signature verified under substituted key")
	}
}

func BenchmarkDownsample1Day1Hz(b *testing.B) {
	s := rampSeries(24*3600, time.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Downsample(Granularity15Min); err != nil {
			b.Fatal(err)
		}
	}
}
