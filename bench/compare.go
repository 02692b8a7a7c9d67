package main

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
)

// quartiles returns the first, second and third quartile of v as Python's
// statistics.quantiles(v, n=4) does (the exclusive method), so the spread
// printed here is the spread the driver computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), v...)
	sort.Float64s(x)
	if len(x) == 1 {
		return x[0], x[0], x[0]
	}
	at := func(i int) float64 {
		const n = 4
		m := len(x) + 1
		j := i * m / n
		j = max(1, min(j, len(x)-1))
		delta := float64(i*m - j*n)
		return (x[j-1]*(n-delta) + x[j]*delta) / n
	}
	return at(1), at(2), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// side is one side of a comparison: every run of every report given for it.
type side struct {
	values    map[string]map[string][]float64 // workload → metric → one value per run
	attempted map[string]int64
	failed    map[string]int64
}

func loadSide(paths string) (*side, error) {
	s := &side{values: map[string]map[string][]float64{}, attempted: map[string]int64{}, failed: map[string]int64{}}
	for _, p := range strings.Split(paths, ",") {
		rep, err := readReport(p)
		if err != nil {
			return nil, err
		}
		for _, run := range rep.Runs {
			if s.values[run.Workload] == nil {
				s.values[run.Workload] = map[string][]float64{}
			}
			for name, v := range run.EndToEnd {
				s.values[run.Workload][name] = append(s.values[run.Workload][name], v)
			}
			s.attempted[run.Workload] += run.Attempted
			s.failed[run.Workload] += run.Failed
		}
	}
	return s, nil
}

// compareReports prints, per workload and end-to-end metric, both medians,
// the ratio with its base, the bound, and a verdict: worse when b's median is
// worse than a's by more than the bound, unresolved when either side's own
// run-to-run spread is wider than the bound, same otherwise. It returns the
// exit code: 1 when any metric is worse or b failed a larger share.
func compareReports(aPaths, bPaths string) int {
	a, errA := loadSide(aPaths)
	b, errB := loadSide(bPaths)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	return compareSides(a, b)
}

func compareSides(a, b *side) int {
	code := 0
	fmt.Printf("%-18s %-28s %14s %14s  %-22s %6s  %s\n", "workload", "metric", "a (median)", "b (median)", "b/a (base a)", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range endToEnd {
			av, bv := a.values[w.name][m.Name], b.values[w.name][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			_, am, _ := quartiles(av)
			_, bm, _ := quartiles(bv)
			worseBy := bm/am - 1
			if m.Better == higher {
				worseBy = 1 - bm/am
			}
			verdict := "same"
			switch {
			case spread(av) > m.Bound || spread(bv) > m.Bound:
				verdict = fmt.Sprintf("unresolved (spread a %.1f %%, b %.1f %%)", 100*spread(av), 100*spread(bv))
			case worseBy > m.Bound:
				verdict = "worse"
				code = 1
			}
			fmt.Printf("%-18s %-28s %14.4f %14.4f  %.3f of %-12.4g %5.0f%%  %s\n",
				w.name, m.Name, am, bm, bm/am, am, 100*m.Bound, verdict)
		}
		fa, fb := pct(a.failed[w.name], a.attempted[w.name]), pct(b.failed[w.name], b.attempted[w.name])
		if fb > fa {
			fmt.Printf("%-18s failed share grew: %.4f %% of %d → %.4f %% of %d\n",
				w.name, fa, a.attempted[w.name], fb, b.attempted[w.name])
			code = 1
		}
	}
	return code
}
