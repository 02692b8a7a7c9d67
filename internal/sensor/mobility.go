package sensor

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// This file simulates the paper's second trusted source: the GPS tracking box
// installed in a car for a pay-as-you-drive (PAYD) insurance or road-pricing
// application. The box delivers raw positions to the owner's cell and only
// the result of the pricing computation to the insurer or the local
// government ("the GPS tracker gives detailed turn-by-turn guidance, but
// hides those details, only delivering the result of road-pricing
// computations").

// Position is one GPS fix.
type Position struct {
	Time time.Time
	Lat  float64
	Lon  float64
	// RoadClass is 0 for local roads, 1 for arterial, 2 for highway; it
	// drives the per-kilometre price.
	RoadClass int
}

// Trip is one journey recorded by the tracking box.
type Trip struct {
	ID        string
	Positions []Position
}

// TripConfig parameterises the trip generator.
type TripConfig struct {
	Start        time.Time
	SampleEvery  time.Duration
	DurationMin  int
	AvgSpeedKmh  float64
	StartLat     float64
	StartLon     float64
	Seed         int64
	HighwayShare float64
}

// DefaultTripConfig returns a plausible commute.
func DefaultTripConfig(start time.Time, seed int64) TripConfig {
	return TripConfig{
		Start:        start,
		SampleEvery:  5 * time.Second,
		DurationMin:  35,
		AvgSpeedKmh:  45,
		StartLat:     48.80,
		StartLon:     2.13,
		Seed:         seed,
		HighwayShare: 0.4,
	}
}

// GenerateTrip produces a synthetic GPS trace.
func GenerateTrip(id string, cfg TripConfig) (*Trip, error) {
	if cfg.DurationMin <= 0 || cfg.SampleEvery <= 0 {
		return nil, fmt.Errorf("sensor: invalid trip configuration")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	samples := int(time.Duration(cfg.DurationMin) * time.Minute / cfg.SampleEvery)
	trip := &Trip{ID: id, Positions: make([]Position, 0, samples)}
	lat, lon := cfg.StartLat, cfg.StartLon
	heading := rng.Float64() * 2 * math.Pi
	for i := 0; i < samples; i++ {
		speed := cfg.AvgSpeedKmh * (0.7 + 0.6*rng.Float64())
		roadClass := 0
		switch {
		case rng.Float64() < cfg.HighwayShare:
			roadClass = 2
			speed *= 1.8
		case rng.Float64() < 0.5:
			roadClass = 1
			speed *= 1.2
		}
		distKm := speed * cfg.SampleEvery.Hours()
		heading += (rng.Float64() - 0.5) * 0.3
		lat += distKm / 111.0 * math.Cos(heading)
		lon += distKm / (111.0 * math.Cos(lat*math.Pi/180)) * math.Sin(heading)
		trip.Positions = append(trip.Positions, Position{
			Time:      cfg.Start.Add(time.Duration(i) * cfg.SampleEvery),
			Lat:       lat,
			Lon:       lon,
			RoadClass: roadClass,
		})
	}
	return trip, nil
}

// DistanceKm returns the total travelled distance of a trip using the
// haversine formula between consecutive fixes.
func (t *Trip) DistanceKm() float64 {
	var total float64
	for i := 1; i < len(t.Positions); i++ {
		total += haversineKm(t.Positions[i-1], t.Positions[i])
	}
	return total
}

func haversineKm(a, b Position) float64 {
	const r = 6371.0
	lat1 := a.Lat * math.Pi / 180
	lat2 := b.Lat * math.Pi / 180
	dLat := (b.Lat - a.Lat) * math.Pi / 180
	dLon := (b.Lon - a.Lon) * math.Pi / 180
	h := math.Sin(dLat/2)*math.Sin(dLat/2) + math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * r * math.Asin(math.Min(1, math.Sqrt(h)))
}

// PricingScheme maps road classes to a price per kilometre.
type PricingScheme struct {
	LocalPerKm    float64
	ArterialPerKm float64
	HighwayPerKm  float64
}

// DefaultPricing is a simple three-tier road-pricing scheme.
func DefaultPricing() PricingScheme {
	return PricingScheme{LocalPerKm: 0.02, ArterialPerKm: 0.04, HighwayPerKm: 0.08}
}

// RoadPricingSummary is the aggregate the cell externalizes to the insurer or
// road authority: a fee and coarse distance counters, but no positions.
type RoadPricingSummary struct {
	TripID      string
	TotalKm     float64
	HighwayKm   float64
	ArterialKm  float64
	LocalKm     float64
	Fee         float64
	PeakHourUse bool
}

// ComputeRoadPricing runs the pricing computation over the raw trace inside
// the cell and returns only the summary.
func ComputeRoadPricing(t *Trip, scheme PricingScheme) RoadPricingSummary {
	sum := RoadPricingSummary{TripID: t.ID}
	for i := 1; i < len(t.Positions); i++ {
		d := haversineKm(t.Positions[i-1], t.Positions[i])
		sum.TotalKm += d
		switch t.Positions[i].RoadClass {
		case 2:
			sum.HighwayKm += d
			sum.Fee += d * scheme.HighwayPerKm
		case 1:
			sum.ArterialKm += d
			sum.Fee += d * scheme.ArterialPerKm
		default:
			sum.LocalKm += d
			sum.Fee += d * scheme.LocalPerKm
		}
		h := t.Positions[i].Time.Hour()
		if h >= 7 && h < 10 || h >= 17 && h < 20 {
			sum.PeakHourUse = true
		}
	}
	return sum
}

// HealthRecord is a medical observation sent by a hospital or lab.
type HealthRecord struct {
	ID        string
	Condition string
	AgeBand   string
	ZIP3      string
	Diet      string
	Time      time.Time
}

// GenerateHealthRecords produces n synthetic epidemiological records; the
// shared-commons experiments (E8) anonymize and aggregate them.
func GenerateHealthRecords(n int, start time.Time, seed int64) []HealthRecord {
	rng := rand.New(rand.NewSource(seed))
	conditions := []string{"diabetes", "hypertension", "asthma", "none", "none", "none"}
	diets := []string{"omnivore", "vegetarian", "high-sugar", "mediterranean"}
	ageBands := []string{"18-30", "31-45", "46-60", "61-75", "76+"}
	out := make([]HealthRecord, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, HealthRecord{
			ID:        fmt.Sprintf("hr-%06d", i),
			Condition: conditions[rng.Intn(len(conditions))],
			AgeBand:   ageBands[rng.Intn(len(ageBands))],
			ZIP3:      fmt.Sprintf("%03d", 750+rng.Intn(20)),
			Diet:      diets[rng.Intn(len(diets))],
			Time:      start.Add(time.Duration(rng.Intn(365*24)) * time.Hour),
		})
	}
	return out
}
