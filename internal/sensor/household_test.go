package sensor

import (
	"testing"
	"time"

	"trustedcells/internal/timeseries"
)

var day = time.Date(2013, 1, 14, 0, 0, 0, 0, time.UTC)

func generateDay(t testing.TB, seed int64) *HouseholdTrace {
	t.Helper()
	trace, err := GenerateHousehold(DefaultHouseholdConfig(day, seed))
	if err != nil {
		t.Fatalf("GenerateHousehold: %v", err)
	}
	return trace
}

func TestGenerateHouseholdShape(t *testing.T) {
	trace := generateDay(t, 1)
	if trace.Power.Len() != 24*3600 {
		t.Fatalf("expected 86400 points, got %d", trace.Power.Len())
	}
	if len(trace.GroundTruth) == 0 {
		t.Fatal("no ground-truth activations")
	}
	st := trace.Power.Stats()
	if st.Min < 0 {
		t.Fatalf("negative power reading: %v", st.Min)
	}
	if st.Max < 2000 {
		t.Fatalf("no large appliance ever ran: max=%v", st.Max)
	}
	if st.Mean < trace.Baseload {
		t.Fatalf("mean %v below baseload %v", st.Mean, trace.Baseload)
	}
	// Ground truth sorted by start time.
	for i := 1; i < len(trace.GroundTruth); i++ {
		if trace.GroundTruth[i].Start.Before(trace.GroundTruth[i-1].Start) {
			t.Fatal("ground truth not sorted")
		}
	}
}

func TestGenerateHouseholdDeterministic(t *testing.T) {
	a := generateDay(t, 7)
	b := generateDay(t, 7)
	if a.Power.Len() != b.Power.Len() || len(a.GroundTruth) != len(b.GroundTruth) {
		t.Fatal("same seed produced different traces")
	}
	if a.Power.Points()[1000].Value != b.Power.Points()[1000].Value {
		t.Fatal("same seed produced different readings")
	}
	c := generateDay(t, 8)
	if a.Power.Points()[1000].Value == c.Power.Points()[1000].Value && len(a.GroundTruth) == len(c.GroundTruth) {
		t.Log("warning: different seeds produced suspiciously similar traces")
	}
}

func TestGenerateHouseholdValidation(t *testing.T) {
	cfg := DefaultHouseholdConfig(day, 1)
	cfg.Duration = 0
	if _, err := GenerateHousehold(cfg); err == nil {
		t.Fatal("zero duration accepted")
	}
	cfg = DefaultHouseholdConfig(day, 1)
	cfg.Appliances = nil
	cfg.Duration = time.Hour
	trace, err := GenerateHousehold(cfg)
	if err != nil {
		t.Fatalf("empty appliance list should fall back to defaults: %v", err)
	}
	if trace.Power.Len() != 3600 {
		t.Fatalf("one-hour trace has %d points", trace.Power.Len())
	}
}

func TestNILMDetectsAppliancesAtFullRate(t *testing.T) {
	trace := generateDay(t, 3)
	det := NewNILMDetector(DefaultAppliances())
	events := det.Detect(trace.Power)
	if len(events) == 0 {
		t.Fatal("no events detected on a 1 Hz trace")
	}
	score := Score(trace.GroundTruth, events)
	if score.F1 < 0.5 {
		t.Fatalf("F1 at 1 Hz = %.2f, expected reasonable detection", score.F1)
	}
}

func TestNILMDegradesWithGranularity(t *testing.T) {
	trace := generateDay(t, 3)
	det := NewNILMDetector(DefaultAppliances())

	fineEvents := det.Detect(trace.Power)
	fine := Score(trace.GroundTruth, fineEvents)

	coarseSeries, err := trace.Power.DownsampleSeries(timeseries.Granularity15Min, timeseries.AggregateMean)
	if err != nil {
		t.Fatal(err)
	}
	coarse := Score(trace.GroundTruth, det.Detect(coarseSeries))

	if coarse.F1 >= fine.F1 {
		t.Fatalf("detection did not degrade: 1Hz F1=%.2f, 15min F1=%.2f", fine.F1, coarse.F1)
	}
	if coarse.F1 > 0.3 {
		t.Fatalf("15-minute aggregates still reveal appliances: F1=%.2f", coarse.F1)
	}
}

func TestRoutineDetectabilitySurvivesCoarsening(t *testing.T) {
	trace := generateDay(t, 3)
	coarse, err := trace.Power.DownsampleSeries(timeseries.Granularity15Min, timeseries.AggregateMean)
	if err != nil {
		t.Fatal(err)
	}
	r := RoutineDetectability(coarse)
	if r <= 0 {
		t.Fatalf("routine detectability at 15 min = %v, expected > 0 (the paper: routines remain visible)", r)
	}
	if r > 1 {
		t.Fatalf("routine detectability out of range: %v", r)
	}
	if RoutineDetectability(timeseries.NewSeries("x", "W")) != 0 {
		t.Fatal("empty series should have zero detectability")
	}
}

func TestScoreEdgeCases(t *testing.T) {
	truth := []Activation{{Appliance: "kettle", Start: day, End: day.Add(3 * time.Minute)}}
	// Perfect detection.
	s := Score(truth, []DetectedEvent{{Appliance: "kettle", Start: day.Add(10 * time.Second), End: day.Add(2 * time.Minute)}})
	if s.TruePositives != 1 || s.F1 != 1 {
		t.Fatalf("perfect score %+v", s)
	}
	// Wrong appliance.
	s = Score(truth, []DetectedEvent{{Appliance: "oven", Start: day, End: day.Add(time.Minute)}})
	if s.TruePositives != 0 || s.FalsePositives != 1 || s.FalseNegatives != 1 {
		t.Fatalf("wrong appliance score %+v", s)
	}
	// No detections at all.
	s = Score(truth, nil)
	if s.F1 != 0 || s.FalseNegatives != 1 {
		t.Fatalf("empty detection score %+v", s)
	}
	// No truth: every detection is false.
	s = Score(nil, []DetectedEvent{{Appliance: "kettle", Start: day, End: day.Add(time.Minute)}})
	if s.FalsePositives != 1 || s.Recall != 0 {
		t.Fatalf("no-truth score %+v", s)
	}
}

func TestDetectorEmptySeries(t *testing.T) {
	det := NewNILMDetector(DefaultAppliances())
	if events := det.Detect(timeseries.NewSeries("x", "W")); len(events) != 0 {
		t.Fatal("events detected on empty series")
	}
}

func TestGenerateTripAndPricing(t *testing.T) {
	trip, err := GenerateTrip("commute-1", DefaultTripConfig(day.Add(8*time.Hour), 5))
	if err != nil {
		t.Fatalf("GenerateTrip: %v", err)
	}
	if len(trip.Positions) == 0 {
		t.Fatal("empty trip")
	}
	dist := trip.DistanceKm()
	if dist <= 0 || dist > 300 {
		t.Fatalf("implausible trip distance %v km", dist)
	}
	sum := ComputeRoadPricing(trip, DefaultPricing())
	if sum.Fee <= 0 {
		t.Fatalf("fee = %v", sum.Fee)
	}
	if sum.TotalKm <= 0 {
		t.Fatal("zero priced distance")
	}
	partsSum := sum.HighwayKm + sum.ArterialKm + sum.LocalKm
	if diff := partsSum - sum.TotalKm; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("class distances %.3f do not sum to total %.3f", partsSum, sum.TotalKm)
	}
	if !sum.PeakHourUse {
		t.Fatal("a trip at 8am should be flagged as peak-hour use")
	}
	// Validation.
	bad := DefaultTripConfig(day, 1)
	bad.DurationMin = 0
	if _, err := GenerateTrip("x", bad); err == nil {
		t.Fatal("invalid trip config accepted")
	}
}

func TestGenerateTripDeterministic(t *testing.T) {
	a, _ := GenerateTrip("t", DefaultTripConfig(day, 9))
	b, _ := GenerateTrip("t", DefaultTripConfig(day, 9))
	if a.DistanceKm() != b.DistanceKm() {
		t.Fatal("same seed produced different trips")
	}
}

func TestGenerateReceiptsAndHealthRecords(t *testing.T) {
	records := GenerateHealthRecords(100, day, 11)
	if len(records) != 100 {
		t.Fatalf("health records = %d", len(records))
	}
	conditions := map[string]int{}
	for _, h := range records {
		if h.AgeBand == "" || h.ZIP3 == "" {
			t.Fatalf("bad record %+v", h)
		}
		conditions[h.Condition]++
	}
	if len(conditions) < 2 {
		t.Fatal("health records lack condition diversity")
	}
}

func BenchmarkGenerateHouseholdDay(b *testing.B) {
	cfg := DefaultHouseholdConfig(day, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateHousehold(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNILMDetect(b *testing.B) {
	trace := generateDay(b, 1)
	det := NewNILMDetector(DefaultAppliances())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Detect(trace.Power)
	}
}
