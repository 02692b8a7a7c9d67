// Package timeseries implements the stream-oriented data engine of a trusted
// cell. It ingests high-frequency sensor readings (the paper's 1 Hz Linky
// feed), keeps them ordered, downsamples them to the granularities the owner
// decided to expose (15-minute aggregates for the household, daily statistics
// for the social game, monthly statistics for the utility), and produces
// certified aggregates signed by the trusted source.
package timeseries

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Point is one reading of a sensor.
type Point struct {
	Time  time.Time
	Value float64
}

// Granularity is the reporting resolution of a series or aggregate.
type Granularity time.Duration

// Standard granularities used throughout the experiments. They match the
// sharing tiers of the motivating scenario.
const (
	GranularitySecond = Granularity(time.Second)
	GranularityMinute = Granularity(time.Minute)
	Granularity15Min  = Granularity(15 * time.Minute)
	GranularityHour   = Granularity(time.Hour)
	GranularityDay    = Granularity(24 * time.Hour)
)

// String renders the granularity in a human-friendly way.
func (g Granularity) String() string {
	d := time.Duration(g)
	switch {
	case d < time.Minute:
		return fmt.Sprintf("%ds", int(d.Seconds()))
	case d < time.Hour:
		return fmt.Sprintf("%dmin", int(d.Minutes()))
	case d < 24*time.Hour:
		return fmt.Sprintf("%dh", int(d.Hours()))
	default:
		return fmt.Sprintf("%dd", int(d.Hours()/24))
	}
}

// Errors returned by the package.
var (
	ErrNotMonotonic   = errors.New("timeseries: points must be appended in time order")
	ErrBadGranularity = errors.New("timeseries: granularity must be positive")
)

// Series is an append-only, time-ordered sequence of points.
type Series struct {
	name   string
	unit   string
	points []Point
}

// NewSeries creates an empty series with a name and unit (e.g. "power", "W").
func NewSeries(name, unit string) *Series {
	return &Series{name: name, unit: unit}
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Unit returns the measurement unit.
func (s *Series) Unit() string { return s.unit }

// Len returns the number of points.
func (s *Series) Len() int { return len(s.points) }

// Append adds a point; its timestamp must not precede the last point.
func (s *Series) Append(p Point) error {
	if n := len(s.points); n > 0 && p.Time.Before(s.points[n-1].Time) {
		return ErrNotMonotonic
	}
	s.points = append(s.points, p)
	return nil
}

// AppendValue is a convenience wrapper around Append.
func (s *Series) AppendValue(t time.Time, v float64) error {
	return s.Append(Point{Time: t, Value: v})
}

// Points returns a copy of all points.
func (s *Series) Points() []Point {
	out := make([]Point, len(s.points))
	copy(out, s.points)
	return out
}

// Stats summarises a set of points.
type Stats struct {
	Count int
	Sum   float64
	Mean  float64
	Min   float64
	Max   float64
	Std   float64
}

// ComputeStats computes summary statistics over points.
func ComputeStats(points []Point) Stats {
	st := Stats{Min: math.Inf(1), Max: math.Inf(-1)}
	if len(points) == 0 {
		return Stats{}
	}
	for _, p := range points {
		st.Count++
		st.Sum += p.Value
		if p.Value < st.Min {
			st.Min = p.Value
		}
		if p.Value > st.Max {
			st.Max = p.Value
		}
	}
	st.Mean = st.Sum / float64(st.Count)
	var varSum float64
	for _, p := range points {
		d := p.Value - st.Mean
		varSum += d * d
	}
	st.Std = math.Sqrt(varSum / float64(st.Count))
	return st
}

// Stats computes summary statistics over the whole series.
func (s *Series) Stats() Stats { return ComputeStats(s.points) }

// Bucket is one aggregated window of a series.
type Bucket struct {
	Start time.Time
	Stats Stats
}

// AggregateKind selects the scalar carried by a downsampled series.
type AggregateKind int

// Aggregation kinds.
const (
	AggregateMean AggregateKind = iota
	AggregateSum
	AggregateMax
	AggregateMin
)

// String names the aggregation kind.
func (k AggregateKind) String() string {
	switch k {
	case AggregateMean:
		return "mean"
	case AggregateSum:
		return "sum"
	case AggregateMax:
		return "max"
	case AggregateMin:
		return "min"
	default:
		return fmt.Sprintf("aggregate(%d)", int(k))
	}
}

// Downsample groups the series into windows of width g (aligned to the Unix
// epoch) and returns one bucket per non-empty window, in time order.
func (s *Series) Downsample(g Granularity) ([]Bucket, error) {
	if g <= 0 {
		return nil, ErrBadGranularity
	}
	if len(s.points) == 0 {
		return nil, nil
	}
	width := time.Duration(g)
	var buckets []Bucket
	var cur []Point
	curStart := s.points[0].Time.Truncate(width)
	flush := func() {
		if len(cur) > 0 {
			buckets = append(buckets, Bucket{Start: curStart, Stats: ComputeStats(cur)})
			cur = cur[:0]
		}
	}
	for _, p := range s.points {
		start := p.Time.Truncate(width)
		if !start.Equal(curStart) {
			flush()
			curStart = start
		}
		cur = append(cur, p)
	}
	flush()
	return buckets, nil
}

// DownsampleSeries converts the buckets of Downsample into a new Series whose
// points carry the chosen aggregate. This is what the cell externalizes to a
// recipient entitled to granularity g.
func (s *Series) DownsampleSeries(g Granularity, kind AggregateKind) (*Series, error) {
	buckets, err := s.Downsample(g)
	if err != nil {
		return nil, err
	}
	out := NewSeries(fmt.Sprintf("%s@%s/%s", s.name, g, kind), s.unit)
	for _, b := range buckets {
		var v float64
		switch kind {
		case AggregateMean:
			v = b.Stats.Mean
		case AggregateSum:
			v = b.Stats.Sum
		case AggregateMax:
			v = b.Stats.Max
		case AggregateMin:
			v = b.Stats.Min
		}
		if err := out.AppendValue(b.Start, v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Energy integrates a power series (values in watts) over time and returns
// kilowatt-hours. Consecutive points are integrated with the trapezoid rule.
func (s *Series) Energy() float64 {
	if len(s.points) < 2 {
		return 0
	}
	var joules float64
	for i := 1; i < len(s.points); i++ {
		dt := s.points[i].Time.Sub(s.points[i-1].Time).Seconds()
		avg := (s.points[i].Value + s.points[i-1].Value) / 2
		joules += avg * dt
	}
	return joules / 3.6e6
}
