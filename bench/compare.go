package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// LoadReport reads a file written by -json.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// spread estimates how far a file's reported value could move on a rerun: the
// distance between the quartiles of its segments as a share of their median,
// narrowed by sqrt(n) because the value is the median of n segments.
func (v Value) spread() float64 {
	n := len(v.Segments)
	if n < 4 {
		return 0
	}
	s := append([]float64(nil), v.Segments...)
	sort.Float64s(s)
	mid := s[n/2]
	if mid == 0 {
		return 0
	}
	return math.Abs(s[n*3/4]-s[n/4]) / math.Abs(mid) / math.Sqrt(float64(n))
}

// Compare prints, per workload and end-to-end metric, both files' values,
// the ratio b/a with its base, and a verdict: worse (b is worse than a by
// more than the metric's bound), unresolved (not worse, but either file's own
// spread is wider than the bound, so "unchanged" cannot be claimed), or ok.
// It reports whether any metric is worse.
func Compare(w io.Writer, a, b *Report) (worse bool) {
	if a.Meta.TimedS != b.Meta.TimedS || a.Meta.GOMAXPROCS != b.Meta.GOMAXPROCS {
		fmt.Fprintf(w, "warning: runs differ in length or GOMAXPROCS (%gs/%d vs %gs/%d)\n",
			a.Meta.TimedS, a.Meta.GOMAXPROCS, b.Meta.TimedS, b.Meta.GOMAXPROCS)
	}
	fmt.Fprintf(w, "%-18s %-16s %14s %14s  %-22s %s\n", "workload", "metric", "a", "b", "b/a", "verdict")
	for _, name := range Workloads {
		ra, rb := a.Workloads[name], b.Workloads[name]
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range EndToEnd {
			va, okA := ra.EndToEnd[d.Name]
			vb, okB := rb.EndToEnd[d.Name]
			if !okA || !okB {
				continue
			}
			// change > 0 means b is worse, as a share of a.
			change := ratio(vb.Value-va.Value, math.Abs(va.Value))
			if d.Better == "higher" {
				change = -change
			}
			if va.Value == 0 && vb.Value != 0 && d.Better == "lower" {
				change = math.Inf(1) // failed_frac rising from 0
			}
			verdict := "ok"
			switch {
			case change > d.Bound:
				verdict = "worse"
				worse = true
			case math.Max(va.spread(), vb.spread()) > d.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-18s %-16s %14.4f %14.4f  %-22s %s\n", name, d.Name, va.Value, vb.Value,
				fmt.Sprintf("%.4f (base %.4g %s)", ratio(vb.Value, va.Value), va.Value, va.Unit), verdict)
		}
	}
	return worse
}
