package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []benchmarkMetric `json:"end_to_end"`
	PerLayer   []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// BENCHMARK.json describes this program; the two must agree on every
// workload and on every metric's unit, direction and bound.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: the reason must be one line of at most 200 characters", w.name)
		}
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	var e2e, layer []benchmarkMetric
	for _, d := range catalogue {
		if d.local {
			continue
		}
		m := benchmarkMetric{Name: d.name, Unit: d.unit, Better: d.better}
		if d.layer {
			layer = append(layer, m)
		} else {
			bound := d.bound
			m.Bound = &bound
			e2e = append(e2e, m)
		}
	}
	eq := func(a, b benchmarkMetric) bool {
		return a.Name == b.Name && a.Unit == b.Unit && a.Better == b.Better &&
			(a.Bound == nil) == (b.Bound == nil) && (a.Bound == nil || *a.Bound == *b.Bound)
	}
	if !slices.EqualFunc(b.EndToEnd, e2e, eq) {
		t.Errorf("BENCHMARK.json end_to_end differs from the catalogue:\n got %s\nwant %s", js(b.EndToEnd), js(e2e))
	}
	if !slices.EqualFunc(b.PerLayer, layer, eq) {
		t.Errorf("BENCHMARK.json per_layer differs from the catalogue:\n got %s\nwant %s", js(b.PerLayer), js(layer))
	}
}

func js(v any) string {
	data, _ := json.Marshal(v)
	return string(data)
}

// The smoke test runs every workload briefly against real juryd
// processes, with every output check, and renders each run as the
// result line; then the traced pass of the quorum workload,
// which touches every layer.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts juryd processes")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	o := options{seed: 5, seconds: time.Second, passes: 1, root: filepath.Join("..", ".."), work: t.TempDir()}
	doc, err := bench(ctx, o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Runs) != len(workloads) {
		t.Fatalf("%d runs, want one per workload", len(doc.Runs))
	}
	for _, r := range doc.Runs {
		if !r.Correct || r.Failed > 0 || r.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d failed, checks %v", r.Workload, r.Correct, r.Failed, r.Attempted, r.Failures)
		}
		checkResultLine(t, r, false)
	}
	if jq := doc.Runs[0].Metrics["select_jq_mean"]; !(jq.Value > 0.5 && jq.Value <= 1) {
		t.Errorf("select_jq_mean = %v, want a jury quality", jq)
	}

	o.trace, o.workload = true, "ingest-quorum2"
	doc, err = bench(ctx, o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	r := doc.Runs[0]
	if !r.Correct || len(r.Spans) == 0 {
		t.Fatalf("traced run: correct %v (%v), %d spans", r.Correct, r.Failures, len(r.Spans))
	}
	for _, name := range []string{"repl.read_us", "repl.polls_per_write", "wal.append_us", "server.unattributed_us"} {
		if _, ok := r.Metrics[name]; !ok {
			t.Errorf("traced quorum run lacks %s", name)
		}
	}
	checkResultLine(t, r, true)
}

// checkResultLine holds a run's result line to BENCHMARK.json: exactly
// four keys, and every metric BENCHMARK.json lists for the pass.
func checkResultLine(t *testing.T, r *result, traced bool) {
	t.Helper()
	line, err := resultLine(r, traced)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range got {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Fatalf("result line keys %v", keys)
	}
	var m map[string]metric
	if err := json.Unmarshal(got["metrics"], &m); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, d := range catalogue {
		if d.layer == traced && !d.local {
			want++
			if v, ok := m[d.name]; !ok || v.Unit != d.unit {
				t.Errorf("%s: result line metric %s = %+v, want unit %s", r.Workload, d.name, v, d.unit)
			}
		}
	}
	if len(m) != want {
		t.Errorf("%s: result line has %d metrics, want %d", r.Workload, len(m), want)
	}
}
