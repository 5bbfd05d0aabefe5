package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// Verdicts of -compare, per (workload, metric).
const (
	improved    = "improved"
	regressed   = "regressed"
	withinBound = "within-bound"
	unresolved  = "unresolved"
	diagnostic  = "diagnostic" // no bound: reported, not judged
)

// gainShare is the share of paired runs a change must win to claim a gain.
const gainShare = 0.9

// spread is the interquartile range of values as a share of their median.
func spread(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	if q3 == q1 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// verdict judges new runs against old ones. The i-th runs of each side
// form a pair.
//
//   - unresolved: either side's spread exceeds the bound, so the bound
//     cannot separate a change from noise;
//   - improved: the new side wins at least 9/10 of the pairs (ties count
//     for neither) and its median is better by more than the old side's
//     interquartile range;
//   - regressed: the new median is worse than the old by more than the
//     bound's share of the old median;
//   - within-bound: anything else.
func verdict(d metricDef, old, new []float64) string {
	if !d.gated() {
		return diagnostic
	}
	if spread(old) > d.bound || spread(new) > d.bound {
		return unresolved
	}
	better := func(a, b float64) bool { // a is better than b
		if d.better == "higher" {
			return a > b
		}
		return a < b
	}
	q1, oldMed, q3 := quartiles(old)
	newMed := median(new)
	pairs, wins := min(len(old), len(new)), 0
	for i := range pairs {
		if better(new[i], old[i]) {
			wins++
		}
	}
	if pairs > 0 && float64(wins) >= gainShare*float64(pairs) &&
		better(newMed, oldMed) && math.Abs(newMed-oldMed) > q3-q1 {
		return improved
	}
	if better(oldMed, newMed) && math.Abs(newMed-oldMed) > d.bound*math.Abs(oldMed) {
		return regressed
	}
	return withinBound
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, schema)
	}
	return &doc, nil
}

// series collects, per workload and metric, the values of doc's runs in
// pass order.
func series(doc *document) map[string]map[string][]float64 {
	runs := slices.Clone(doc.Runs)
	slices.SortStableFunc(runs, func(a, b *result) int { return a.Pass - b.Pass })
	out := make(map[string]map[string][]float64)
	for _, r := range runs {
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// compareFiles prints one row per (workload, metric) present in both
// result files: each side's quartiles, the bound, and the verdict.
func compareFiles(oldPath, newPath string, w io.Writer) error {
	oldDoc, err := readDocument(oldPath)
	if err != nil {
		return err
	}
	newDoc, err := readDocument(newPath)
	if err != nil {
		return err
	}
	olds, news := series(oldDoc), series(newDoc)
	units := make(map[string]string)
	for _, r := range append(slices.Clone(oldDoc.Runs), newDoc.Runs...) {
		for name, m := range r.Metrics {
			units[name] = m.Unit
		}
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told q1 / median / q3\tnew q1 / median / q3\tbound\tverdict")
	counts := make(map[string]int)
	for _, wl := range workloads {
		om, nm := olds[wl.name], news[wl.name]
		if om == nil || nm == nil {
			continue
		}
		names := make(metrics)
		for name := range om {
			if _, ok := nm[name]; ok {
				names[name] = metric{}
			}
		}
		for _, name := range sortedNames(names) {
			d, _ := lookupMetric(name)
			v := verdict(d, om[name], nm[name])
			counts[v]++
			bound := "-"
			if d.gated() {
				bound = fmt.Sprintf("%g", d.bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", wl.name, name, units[name],
				fmtQuartiles(om[name]), fmtQuartiles(nm[name]), bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "\n%d improved, %d regressed, %d within-bound, %d unresolved, %d diagnostic\n",
		counts[improved], counts[regressed], counts[withinBound], counts[unresolved], counts[diagnostic])
	return err
}

func fmtQuartiles(values []float64) string {
	q1, med, q3 := quartiles(values)
	return fmt.Sprintf("%.4g / %.4g / %.4g", q1, med, q3)
}
