package main

import (
	"math"
	"sort"
	"strconv"
	"time"
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics holds a run's measurements by name.
type metrics map[string]metric

// set records a value; an undefined one (a ratio over zero events) is left
// out rather than written as NaN, which JSON cannot carry.
func (m metrics) set(name string, v float64, unit string) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		m[name] = metric{v, unit}
	}
}

// metricDef describes a metric the benchmark commits to. Every end-to-end
// and per-layer metric of BENCHMARK.json has one, with the same unit,
// direction and bound (a test holds the two in step); the local gated
// metrics below exist only in this benchmark's own result files.
// Metrics without a definition are diagnostics: reported, never gated.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the baseline median by which the metric may
	// worsen before -compare calls it regressed.
	bound float64
	// layer marks a per-layer metric of the traced pass; the rest are
	// end-to-end metrics of the untraced pass.
	layer bool
	// local marks a gated metric that BENCHMARK.json does not list: one
	// not measured on every workload, 0 by design, or set by the host more
	// than by the program.
	local bool
}

// catalogue lists the defined metrics, end-to-end first. Every bound is
// the widest BENCHMARK.json may set (0.25). On the shared 2-vCPU virtual
// machine the benchmark was sized on, the hypervisor took up to 40% of the
// machine's CPU time (steal), for minutes at a time. Wall-clock throughput
// and latency follow the steal: over ten seeded runs their interquartile
// spread reached 0.4 to 1.2 of the median. CPU time and memory are not
// charged for stolen time, so BENCHMARK.json gates those; -compare still
// judges the wall-clock metrics, which turn unresolved when steal spreads
// them. CPU time still follows the host's per-core speed, which changed
// by up to 1.6x from one few-minute stretch to the next (bench/README.md).
var catalogue = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	// Daemon CPU time per operation: the work the program does for it.
	{name: "cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.25},
	{name: "rss_peak_mib", unit: "MiB", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25, local: true},
	{name: "p50_ms", unit: "ms", better: "lower", bound: 0.25, local: true},
	{name: "p90_ms", unit: "ms", better: "lower", bound: 0.25, local: true},
	// The paper's objective: a faster search that returns worse juries
	// must fail. Measured requests 0..255 have fixed (seed, budget) pairs,
	// so the value repeats exactly for a seed.
	{name: "select_jq_mean", unit: "JQ", better: "higher", bound: 0, local: true},
	{name: "errors_frac", unit: "failed/attempted", better: "lower", bound: 0, local: true},

	{name: "server.handler_us", unit: "us", better: "lower", layer: true},
	{name: "server.stages_us", unit: "us", better: "lower", layer: true},
	{name: "server.unattributed_us", unit: "us", better: "lower", layer: true},
	{name: "server.encode_us", unit: "us", better: "lower", layer: true},
	{name: "client.overhead_us", unit: "us", better: "lower", layer: true},
	{name: "runtime.gc_pause_ms_per_s", unit: "ms/s", better: "lower", layer: true},
	{name: "runtime.goroutines_max", unit: "count", better: "lower", layer: true},
	{name: "obs.overhead_pct", unit: "%", better: "lower", layer: true},
	{name: "jq.estimator_setup_us", unit: "us", better: "lower", layer: true},
	{name: "jq.eval_us", unit: "us", better: "lower", layer: true},
	{name: "selection.select_ms", unit: "ms", better: "lower", layer: true},
	{name: "selection.select_cpu_ms", unit: "ms", better: "lower", layer: true},
	{name: "selection.evals_per_select", unit: "count", better: "lower", layer: true},
	{name: "selection.jq_share", unit: "ratio", better: "lower", layer: true},
	{name: "selection.jq_mean", unit: "JQ", better: "higher", layer: true},
	{name: "server.cache_get_ns", unit: "ns", better: "lower", layer: true},
	{name: "server.snapshot_us", unit: "us", better: "lower", layer: true},
	{name: "server.ingest_us", unit: "us", better: "lower", layer: true},
	{name: "wal.append_inproc_us", unit: "us", better: "lower", layer: true},
	{name: "repl.apply_us", unit: "us", better: "lower", layer: true},
}

func lookupMetric(name string) (metricDef, bool) {
	for _, d := range catalogue {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// gated reports whether -compare judges the metric against a bound: the
// end-to-end metrics are gated, per-layer and undefined ones are not.
func (d metricDef) gated() bool { return d.better != "" && !d.layer }

// listedMetrics picks, from m, the metrics BENCHMARK.json lists for the
// pass: end-to-end for the untraced pass, per-layer for the traced one.
func listedMetrics(m metrics, traced bool) metrics {
	out := make(metrics)
	for _, d := range catalogue {
		if d.layer != traced || d.local {
			continue
		}
		if v, ok := m[d.name]; ok {
			out[d.name] = v
		}
	}
	return out
}

// sortedNames lists m's names, catalogue metrics first in catalogue order.
func sortedNames(m metrics) []string {
	rank := func(name string) int {
		for i, d := range catalogue {
			if d.name == name {
				return i
			}
		}
		return len(catalogue)
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		ri, rj := rank(names[i]), rank(names[j])
		if ri != rj {
			return ri < rj
		}
		return names[i] < names[j]
	})
	return names
}

// formatValue prints a value with every digit it was measured with.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// span is one timed step of a traced run, for the layers block: the
// benchmark's own phases and in-process calls, and the daemon's stage
// spans joined to the client request that caused them.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"` // 0: a root span
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the run began
	End    float64 `json:"end_ms"`
}

// spanLog keeps a traced run's spans in memory; the run's goroutine is
// its only user.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) since(t time.Time) float64 { return ms(t.Sub(l.t0)) }

// add records a finished span and returns its id.
func (l *spanLog) add(name string, parent int, start, end time.Time) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: l.since(start), End: l.since(end)})
	return id
}

// begin opens a span that end closes.
func (l *spanLog) begin(name string, parent int) int {
	now := time.Now()
	return l.add(name, parent, now, now)
}

func (l *spanLog) end(id int) { l.spans[id-1].End = l.since(time.Now()) }
