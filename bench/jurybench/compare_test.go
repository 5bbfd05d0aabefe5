package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scaled returns base with every value multiplied by f.
func scaled(base []float64, f float64) []float64 {
	out := make([]float64, len(base))
	for i, v := range base {
		out[i] = v * f
	}
	return out
}

func TestVerdictRule(t *testing.T) {
	p50 := metricDef{name: "p50_ms", better: "lower", bound: 0.1}
	ops := metricDef{name: "ops_per_s", better: "higher", bound: 0.1}
	jqm, _ := lookupMetric("select_jq_mean") // bound 0
	layer, _ := lookupMetric("jq.eval_us")
	base := []float64{10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.03, 9.97}
	for _, c := range []struct {
		name     string
		d        metricDef
		old, new []float64
		want     string
	}{
		{"same runs", p50, base, base, withinBound},
		{"noise inside the bound", p50, base, scaled(base, 1.02), withinBound},
		{"20% faster in every pair", p50, base, scaled(base, 0.8), improved},
		{"20% slower", p50, base, scaled(base, 1.2), regressed},
		{"20% more throughput", ops, base, scaled(base, 1.2), improved},
		{"20% less throughput", ops, base, scaled(base, 0.8), regressed},
		{"spread above the bound", p50, []float64{8, 12, 9, 11, 10, 7, 13, 10, 9, 11}, base, unresolved},
		{"wins only 8 of 10 pairs", p50, base,
			[]float64{8, 8, 8, 8, 8, 8, 8, 8, 10.1, 10.0}, withinBound},
		{"gain inside the parent's spread", p50,
			[]float64{10, 10.4, 9.6, 10.3, 9.7, 10.2, 9.8, 10.4, 9.6, 10},
			[]float64{9.8, 10.2, 9.4, 10.1, 9.5, 10.0, 9.6, 10.2, 9.4, 9.8}, withinBound},
		{"jury quality unchanged", jqm, []float64{0.99, 0.99}, []float64{0.99, 0.99}, withinBound},
		{"jury quality slightly lower", jqm, []float64{0.99, 0.99}, []float64{0.9899999999, 0.9899999999}, regressed},
		{"per-layer metric", layer, base, scaled(base, 2), diagnostic},
		{"undefined metric", metricDef{}, base, scaled(base, 2), diagnostic},
	} {
		if got := verdict(c.d, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func writeDoc(t *testing.T, dir, name string, runs ...*result) string {
	t.Helper()
	data, err := json.Marshal(document{Schema: schema, Runs: runs})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareFilesPairsRunsByPass(t *testing.T) {
	dir := t.TempDir()
	mk := func(pass int, p50 float64) *result {
		return &result{Workload: "ingest-wal", Pass: pass, Correct: true,
			Metrics: metrics{"p50_ms": {p50, "ms"}, "samples": {1000, "count"}}}
	}
	var olds, news []*result
	for pass := 1; pass <= 5; pass++ {
		olds = append(olds, mk(pass, 1+0.001*float64(pass)))
		news = append(news, mk(pass, 1.5+0.001*float64(pass)))
	}
	var out bytes.Buffer
	if err := compareFiles(writeDoc(t, dir, "old.json", olds...), writeDoc(t, dir, "new.json", news...), &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"ingest-wal  p50_ms", "regressed", "samples", "diagnostic",
		"0 improved, 1 regressed, 0 within-bound, 0 unresolved, 1 diagnostic"} {
		if !strings.Contains(text, want) {
			t.Errorf("compare output lacks %q:\n%s", want, text)
		}
	}
}
