// Package sim is the experiment harness of the repository. The paper being a
// vision paper with no evaluation section, DESIGN.md defines a synthetic
// evaluation suite (experiments E1–E18 plus the Figure 1 walk-through), each
// substantiating one architectural claim. This package implements every
// experiment but E14 as a pure function returning a Table, so the same code
// backs the Go benchmarks, the tcbench command line and EXPERIMENTS.md. E14,
// the fleet at the front door, is bench/'s frontdoor_ingest workload.
package sim

import (
	"fmt"
	"io"
	"strings"
)

// Table is one experiment result, rendered as the paper-style table the
// harness regenerates.
type Table struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
	// Metrics are the machine-readable headline numbers of the experiment
	// (throughput, speedup, bytes moved, …). cmd/tcbench emits them with
	// -json and its -gate mode compares them against a committed baseline,
	// so CI can fail on regressions without re-parsing the rendered rows.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// SetMetric records one machine-readable headline number.
func (t *Table) SetMetric(name string, value float64) {
	if t.Metrics == nil {
		t.Metrics = make(map[string]float64)
	}
	t.Metrics[name] = value
}

// Render writes the table in a fixed-width textual form.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		return strings.Join(parts, "  ")
	}
	if _, err := fmt.Fprintln(w, line(t.Headers)); err != nil {
		return err
	}
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, strings.Join(sep, "  ")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func pad(s string, width int) string {
	if len(s) >= width {
		return s
	}
	return s + strings.Repeat(" ", width-len(s))
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}

// ExperimentIDs lists the experiments in presentation order.
func ExperimentIDs() []string {
	return []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e15", "e16", "e17", "e18", "fig1"}
}

// Run dispatches an experiment by ID with default parameters.
func Run(id string) (*Table, error) {
	switch strings.ToLower(id) {
	case "e1":
		return RunE1(DefaultE1Config())
	case "e2":
		return RunE2(DefaultE2Config())
	case "e3":
		return RunE3(DefaultE3Config())
	case "e4":
		return RunE4(DefaultE4Config())
	case "e5":
		return RunE5(DefaultE5Config())
	case "e6":
		return RunE6(DefaultE6Config())
	case "e7":
		return RunE7(DefaultE7Config())
	case "e8":
		return RunE8(DefaultE8Config())
	case "e9":
		return RunE9(DefaultE9Config())
	case "e10":
		return RunE10(DefaultE10Config())
	case "e11":
		return RunE11(DefaultE11Config())
	case "e12":
		return RunE12(DefaultE12Config())
	case "e13":
		return RunE13(DefaultE13Config())
	case "e15":
		return RunE15(DefaultE15Config())
	case "e16":
		return RunE16(DefaultE16Config())
	case "e17":
		return RunE17(DefaultE17Config())
	case "e18":
		return RunE18(DefaultE18Config())
	case "fig1":
		return RunFig1()
	default:
		return nil, fmt.Errorf("sim: unknown experiment %q", id)
	}
}

// RunQuick dispatches an experiment by ID with a reduced configuration sized
// for CI smoke runs: the headline scale point of each throughput experiment
// instead of the whole sweep. Experiments without a reduced form run their
// default configuration.
func RunQuick(id string) (*Table, error) {
	switch strings.ToLower(id) {
	case "e9":
		cfg := DefaultE9Config()
		cfg.Fleets = []int{16}
		return RunE9(cfg)
	case "e10":
		cfg := DefaultE10Config()
		cfg.CatalogSizes = []int{10_000}
		return RunE10(cfg)
	case "e12":
		cfg := DefaultE12Config()
		cfg.MicroOps = 5_000
		cfg.CatalogSizes = []int{10_000}
		return RunE12(cfg)
	case "e13":
		cfg := DefaultE13Config()
		cfg.CatalogSizes = []int{10_000}
		return RunE13(cfg)
	case "e15":
		cfg := DefaultE15Config()
		cfg.CatalogSizes = []int{10_000}
		return RunE15(cfg)
	case "e16":
		// The gated scale point: the 10k-cell fleet carries the headline
		// metrics and both drills.
		cfg := DefaultE16Config()
		cfg.FleetSizes = []int{10_000}
		return RunE16(cfg)
	case "e17":
		cfg := DefaultE17Config()
		cfg.CatalogSizes = []int{10_000}
		return RunE17(cfg)
	case "e18":
		// Both gated scale points: the 10k headline metrics and the 100k
		// recovery ceiling.
		cfg := DefaultE18Config()
		cfg.CatalogSizes = []int{10_000, 100_000}
		return RunE18(cfg)
	default:
		return Run(id)
	}
}

// headlineScale picks the scale point a sweep's gated metrics come from: 10k
// when the sweep includes it (the full and the -quick configurations both
// do), so the committed bounds compare like with like; otherwise the largest.
func headlineScale(sizes []int) int {
	for _, n := range sizes {
		if n == 10_000 {
			return n
		}
	}
	return sizes[len(sizes)-1]
}
