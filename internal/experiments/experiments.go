// Package experiments implements the reproduction harness: one function
// per experiment in DESIGN.md's per-experiment index (E1–E20), each
// regenerating the figure or claim it reproduces as a printable table.
// The skadi-bench command runs them from the command line and the
// repository-root benchmarks wrap them as testing.B benchmarks.
//
// Skadi (HotOS '23) is a vision paper without a quantitative evaluation
// section, so each experiment operationalizes a figure (Fig. 1–3, Table 1)
// or an explicit performance claim from the text; EXPERIMENTS.md records
// the expected vs measured shape for each.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Table is one experiment's result.
type Table struct {
	// ID is the experiment identifier (e1..e20).
	ID string
	// Title says what figure/claim the experiment reproduces.
	Title string
	// Header and Rows hold the tabular results.
	Header []string
	Rows   [][]string
	// Trace holds span-level critical-path attributions (one line per
	// configuration) for experiments wired into the tracer.
	Trace []string
	// Notes interprets the result (the "shape" statement).
	Notes string
}

// Render formats the table for terminals.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", strings.ToUpper(t.ID), t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	if len(t.Trace) > 0 {
		sb.WriteString("-- critical path (per task, by span kind) --\n")
		for _, l := range t.Trace {
			fmt.Fprintf(&sb, "   %s\n", l)
		}
	}
	if t.Notes != "" {
		fmt.Fprintf(&sb, "-- %s\n", t.Notes)
	}
	return sb.String()
}

// Fn runs one experiment.
type Fn func() (*Table, error)

// registry maps experiment IDs to implementations.
var registry = map[string]Fn{}

func register(id string, fn Fn) { registry[id] = fn }

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Fn, bool) {
	fn, ok := registry[strings.ToLower(id)]
	return fn, ok
}

// IDs returns all experiment IDs in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		// e1 < e2 < ... < e10 < e11 < e12 (numeric order).
		return num(out[i]) < num(out[j])
	})
	return out
}

func num(id string) int {
	n := 0
	for _, c := range id {
		if c >= '0' && c <= '9' {
			n = n*10 + int(c-'0')
		}
	}
	return n
}

// mib formats a byte count as MiB with 2 decimals.
func mib(b int64) string { return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20)) }

// kib formats a byte count as KiB.
func kib(b int64) string { return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10)) }

// usec formats nanoseconds as microseconds.
func usec(ns int64) string { return fmt.Sprintf("%.1f µs", float64(ns)/1e3) }

// msec formats nanoseconds as milliseconds.
func msec(ns int64) string { return fmt.Sprintf("%.2f ms", float64(ns)/1e6) }
