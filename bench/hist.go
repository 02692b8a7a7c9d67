package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// samples is the benchmark's histogram: every observation is kept, so a
// quantile is an exact order statistic and not a bucket edge. A worker owns
// one and appends without locking; the phase merges them when it ends.
type samples struct {
	d      []time.Duration
	sorted bool
}

func (s *samples) add(d time.Duration) {
	s.d = append(s.d, d)
	s.sorted = false
}

func (s *samples) merge(o *samples) {
	s.d = append(s.d, o.d...)
	s.sorted = false
}

func (s *samples) n() int { return len(s.d) }

// quantile returns the smallest observation with at least a share q of the
// observations at or below it (nearest rank); zero when there are none.
func (s *samples) quantile(q float64) time.Duration {
	if len(s.d) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Slice(s.d, func(i, j int) bool { return s.d[i] < s.d[j] })
		s.sorted = true
	}
	i := int(q*float64(len(s.d))+0.9999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s.d) {
		i = len(s.d) - 1
	}
	return s.d[i]
}

// supports reports whether at least ten observations lie beyond quantile q,
// the rule under which the benchmark quotes a tail percentile at all.
func (s *samples) supports(q float64) bool {
	return float64(len(s.d))*(1-q) >= 10
}

func (s *samples) ms(q float64) float64 { return ms(s.quantile(q)) }
func (s *samples) us(q float64) float64 { return us(s.quantile(q)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// msList formats durations as milliseconds.
func msList(ds []time.Duration) string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = fmt.Sprintf("%.2f", ms(d))
	}
	return strings.Join(parts, " ")
}
