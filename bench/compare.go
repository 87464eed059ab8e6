package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// quartiles returns the first and third quartile of sorted values the way
// Python's statistics.quantiles(values, n=4) does (the exclusive method),
// so the spreads printed here are the ones the driver computes.
func quartiles(sorted []float64) (q1, q3 float64) {
	m := len(sorted)
	if m < 2 {
		return sorted[0], sorted[0]
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(sorted []float64) float64 {
	q1, q3 := quartiles(sorted)
	return ratio(q3-q1, quantile(sorted, 0.5))
}

// values collects one metric over every run of a workload, sorted.
func (rep *report) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range rep.Results {
		if x, ok := r.Metrics[metric]; ok && r.Workload == workload {
			v = append(v, x)
		}
	}
	slices.Sort(v)
	return v
}

func loadReport(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := new(report)
	if err := json.Unmarshal(buf, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

var errWorse = errors.New("bench: at least one metric is worse than its bound allows")

// compareReports prints, for every workload and end-to-end metric, both
// sides' medians, their ratio with a as the base, the bound, the wider of
// the two run-to-run spreads, and a verdict: unresolved when that spread
// exceeds the bound, worse when b's median is worse than a's by more than
// the bound, ok otherwise. The wall-clock diagnostics follow each workload
// for the reader; they have no bound and get no verdict.
func compareReports(w io.Writer, pathA, pathB string) error {
	a, err := loadReport(pathA)
	if err != nil {
		return err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tb/a\tbound\tspread\tverdict\t")
	worse := false
	for _, wl := range workloads {
		for _, s := range slices.Concat(endToEnd, wallClock) {
			va, vb := a.values(wl.name, s.Name), b.values(wl.name, s.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := quantile(va, 0.5), quantile(vb, 0.5)
			change := ratio(mb-ma, ma)
			if s.Better == "higher" {
				change = -change
			}
			sp := max(spread(va), spread(vb))
			bound, verdict := fmt.Sprintf("%.2f", s.Bound), "ok"
			switch {
			case s.Bound == 0:
				bound, verdict = "-", "not gated"
			case sp > s.Bound:
				verdict = "unresolved"
			case change > s.Bound:
				verdict, worse = "worse", true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.3f\t%s\t%.3f\t%s\t\n",
				wl.name, s.Name, ma, mb, ratio(mb, ma), bound, sp, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "a: %s, %d runs; b: %s, %d runs; b/a has a's median as its base\n",
		pathA, len(a.Results), pathB, len(b.Results))
	if worse {
		return errWorse
	}
	return nil
}
