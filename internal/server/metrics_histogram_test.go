package server

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// histogramFamilies are the /metrics families rendered from histograms,
// plus the request counters derived from the route histograms.
var histogramFamilies = []string{
	"juryd_requests_total", "juryd_request_duration_seconds", "juryd_request_errors_total",
	"juryd_select_evaluations", "juryd_wal_batch_records", "juryd_stage_duration_seconds", "juryd_wal_fsync_seconds",
}

// goldenHistogramExposition is the exact text of the histogram families
// after the observations recorded by TestMetricsHistogramExpositionGolden.
const goldenHistogramExposition = `juryd_requests_total{route="GET /v1/workers"} 2
juryd_requests_total{route="POST /v1/select"} 6
juryd_request_duration_seconds_bucket{route="GET /v1/workers",le="0.0001"} 0
juryd_request_duration_seconds_bucket{route="GET /v1/workers",le="0.00025"} 0
juryd_request_duration_seconds_bucket{route="GET /v1/workers",le="0.0005"} 0
juryd_request_duration_seconds_bucket{route="GET /v1/workers",le="0.001"} 0
juryd_request_duration_seconds_bucket{route="GET /v1/workers",le="0.0025"} 0
juryd_request_duration_seconds_bucket{route="GET /v1/workers",le="0.005"} 0
juryd_request_duration_seconds_bucket{route="GET /v1/workers",le="0.01"} 2
juryd_request_duration_seconds_bucket{route="GET /v1/workers",le="0.025"} 2
juryd_request_duration_seconds_bucket{route="GET /v1/workers",le="0.05"} 2
juryd_request_duration_seconds_bucket{route="GET /v1/workers",le="0.1"} 2
juryd_request_duration_seconds_bucket{route="GET /v1/workers",le="0.25"} 2
juryd_request_duration_seconds_bucket{route="GET /v1/workers",le="0.5"} 2
juryd_request_duration_seconds_bucket{route="GET /v1/workers",le="1"} 2
juryd_request_duration_seconds_bucket{route="GET /v1/workers",le="2.5"} 2
juryd_request_duration_seconds_bucket{route="GET /v1/workers",le="+Inf"} 2
juryd_request_duration_seconds_sum{route="GET /v1/workers"} 0.014
juryd_request_duration_seconds_count{route="GET /v1/workers"} 2
juryd_request_duration_seconds_bucket{route="POST /v1/select",le="0.0001"} 1
juryd_request_duration_seconds_bucket{route="POST /v1/select",le="0.00025"} 2
juryd_request_duration_seconds_bucket{route="POST /v1/select",le="0.0005"} 2
juryd_request_duration_seconds_bucket{route="POST /v1/select",le="0.001"} 3
juryd_request_duration_seconds_bucket{route="POST /v1/select",le="0.0025"} 3
juryd_request_duration_seconds_bucket{route="POST /v1/select",le="0.005"} 4
juryd_request_duration_seconds_bucket{route="POST /v1/select",le="0.01"} 4
juryd_request_duration_seconds_bucket{route="POST /v1/select",le="0.025"} 4
juryd_request_duration_seconds_bucket{route="POST /v1/select",le="0.05"} 5
juryd_request_duration_seconds_bucket{route="POST /v1/select",le="0.1"} 5
juryd_request_duration_seconds_bucket{route="POST /v1/select",le="0.25"} 5
juryd_request_duration_seconds_bucket{route="POST /v1/select",le="0.5"} 5
juryd_request_duration_seconds_bucket{route="POST /v1/select",le="1"} 5
juryd_request_duration_seconds_bucket{route="POST /v1/select",le="2.5"} 5
juryd_request_duration_seconds_bucket{route="POST /v1/select",le="+Inf"} 6
juryd_request_duration_seconds_sum{route="POST /v1/select"} 3.04428
juryd_request_duration_seconds_count{route="POST /v1/select"} 6
juryd_request_errors_total{route="POST /v1/select"} 1
juryd_request_errors_total 1
juryd_select_evaluations_bucket{le="1"} 1
juryd_select_evaluations_bucket{le="4"} 1
juryd_select_evaluations_bucket{le="16"} 1
juryd_select_evaluations_bucket{le="64"} 1
juryd_select_evaluations_bucket{le="256"} 1
juryd_select_evaluations_bucket{le="1024"} 2
juryd_select_evaluations_bucket{le="4096"} 2
juryd_select_evaluations_bucket{le="16384"} 3
juryd_select_evaluations_bucket{le="65536"} 4
juryd_select_evaluations_bucket{le="262144"} 4
juryd_select_evaluations_bucket{le="+Inf"} 5
juryd_select_evaluations_sum 1237557
juryd_select_evaluations_count 5
juryd_wal_batch_records_bucket{le="1"} 1
juryd_wal_batch_records_bucket{le="2"} 1
juryd_wal_batch_records_bucket{le="4"} 2
juryd_wal_batch_records_bucket{le="8"} 2
juryd_wal_batch_records_bucket{le="16"} 2
juryd_wal_batch_records_bucket{le="32"} 2
juryd_wal_batch_records_bucket{le="64"} 2
juryd_wal_batch_records_bucket{le="128"} 2
juryd_wal_batch_records_bucket{le="256"} 2
juryd_wal_batch_records_bucket{le="+Inf"} 3
juryd_wal_batch_records_sum 304
juryd_wal_batch_records_count 3
juryd_stage_duration_seconds_bucket{stage="cache_lookup",le="1e-06"} 1
juryd_stage_duration_seconds_bucket{stage="cache_lookup",le="2.5e-06"} 1
juryd_stage_duration_seconds_bucket{stage="cache_lookup",le="5e-06"} 1
juryd_stage_duration_seconds_bucket{stage="cache_lookup",le="1e-05"} 1
juryd_stage_duration_seconds_bucket{stage="cache_lookup",le="2.5e-05"} 1
juryd_stage_duration_seconds_bucket{stage="cache_lookup",le="5e-05"} 1
juryd_stage_duration_seconds_bucket{stage="cache_lookup",le="0.0001"} 1
juryd_stage_duration_seconds_bucket{stage="cache_lookup",le="0.00025"} 1
juryd_stage_duration_seconds_bucket{stage="cache_lookup",le="0.0005"} 1
juryd_stage_duration_seconds_bucket{stage="cache_lookup",le="0.001"} 1
juryd_stage_duration_seconds_bucket{stage="cache_lookup",le="0.0025"} 1
juryd_stage_duration_seconds_bucket{stage="cache_lookup",le="0.005"} 1
juryd_stage_duration_seconds_bucket{stage="cache_lookup",le="0.01"} 1
juryd_stage_duration_seconds_bucket{stage="cache_lookup",le="0.025"} 1
juryd_stage_duration_seconds_bucket{stage="cache_lookup",le="0.05"} 1
juryd_stage_duration_seconds_bucket{stage="cache_lookup",le="0.1"} 1
juryd_stage_duration_seconds_bucket{stage="cache_lookup",le="0.25"} 1
juryd_stage_duration_seconds_bucket{stage="cache_lookup",le="0.5"} 1
juryd_stage_duration_seconds_bucket{stage="cache_lookup",le="1"} 1
juryd_stage_duration_seconds_bucket{stage="cache_lookup",le="+Inf"} 1
juryd_stage_duration_seconds_sum{stage="cache_lookup"} 5e-07
juryd_stage_duration_seconds_count{stage="cache_lookup"} 1
juryd_stage_duration_seconds_bucket{stage="wal_fsync",le="1e-06"} 0
juryd_stage_duration_seconds_bucket{stage="wal_fsync",le="2.5e-06"} 0
juryd_stage_duration_seconds_bucket{stage="wal_fsync",le="5e-06"} 0
juryd_stage_duration_seconds_bucket{stage="wal_fsync",le="1e-05"} 0
juryd_stage_duration_seconds_bucket{stage="wal_fsync",le="2.5e-05"} 0
juryd_stage_duration_seconds_bucket{stage="wal_fsync",le="5e-05"} 0
juryd_stage_duration_seconds_bucket{stage="wal_fsync",le="0.0001"} 0
juryd_stage_duration_seconds_bucket{stage="wal_fsync",le="0.00025"} 0
juryd_stage_duration_seconds_bucket{stage="wal_fsync",le="0.0005"} 0
juryd_stage_duration_seconds_bucket{stage="wal_fsync",le="0.001"} 0
juryd_stage_duration_seconds_bucket{stage="wal_fsync",le="0.0025"} 2
juryd_stage_duration_seconds_bucket{stage="wal_fsync",le="0.005"} 2
juryd_stage_duration_seconds_bucket{stage="wal_fsync",le="0.01"} 2
juryd_stage_duration_seconds_bucket{stage="wal_fsync",le="0.025"} 2
juryd_stage_duration_seconds_bucket{stage="wal_fsync",le="0.05"} 2
juryd_stage_duration_seconds_bucket{stage="wal_fsync",le="0.1"} 2
juryd_stage_duration_seconds_bucket{stage="wal_fsync",le="0.25"} 2
juryd_stage_duration_seconds_bucket{stage="wal_fsync",le="0.5"} 2
juryd_stage_duration_seconds_bucket{stage="wal_fsync",le="1"} 2
juryd_stage_duration_seconds_bucket{stage="wal_fsync",le="+Inf"} 2
juryd_stage_duration_seconds_sum{stage="wal_fsync"} 0.0035
juryd_stage_duration_seconds_count{stage="wal_fsync"} 2
juryd_wal_fsync_seconds_bucket{le="1e-06"} 0
juryd_wal_fsync_seconds_bucket{le="2.5e-06"} 0
juryd_wal_fsync_seconds_bucket{le="5e-06"} 0
juryd_wal_fsync_seconds_bucket{le="1e-05"} 0
juryd_wal_fsync_seconds_bucket{le="2.5e-05"} 0
juryd_wal_fsync_seconds_bucket{le="5e-05"} 0
juryd_wal_fsync_seconds_bucket{le="0.0001"} 0
juryd_wal_fsync_seconds_bucket{le="0.00025"} 0
juryd_wal_fsync_seconds_bucket{le="0.0005"} 0
juryd_wal_fsync_seconds_bucket{le="0.001"} 0
juryd_wal_fsync_seconds_bucket{le="0.0025"} 2
juryd_wal_fsync_seconds_bucket{le="0.005"} 2
juryd_wal_fsync_seconds_bucket{le="0.01"} 2
juryd_wal_fsync_seconds_bucket{le="0.025"} 2
juryd_wal_fsync_seconds_bucket{le="0.05"} 2
juryd_wal_fsync_seconds_bucket{le="0.1"} 2
juryd_wal_fsync_seconds_bucket{le="0.25"} 2
juryd_wal_fsync_seconds_bucket{le="0.5"} 2
juryd_wal_fsync_seconds_bucket{le="1"} 2
juryd_wal_fsync_seconds_bucket{le="+Inf"} 2
juryd_wal_fsync_seconds_sum 0.0035
juryd_wal_fsync_seconds_count 2
`

// TestMetricsHistogramExpositionGolden pins the byte-exact rendering of
// every histogram family on /metrics: family and label names, le
// strings, route order, sums (the WAL-batch sum an integer literal) and
// the omission of routes and stages that saw no observation.
func TestMetricsHistogramExpositionGolden(t *testing.T) {
	m := NewMetrics()
	sel, workers := m.route("POST /v1/select"), m.route("GET /v1/workers")
	m.route("GET /healthz") // registered, never observed: omitted
	for _, d := range []time.Duration{
		80 * time.Microsecond, time.Millisecond, 3 * time.Millisecond,
		40 * time.Millisecond, 3 * time.Second,
	} {
		sel.observe(200, d)
	}
	sel.observe(400, 200*time.Microsecond)
	workers.observe(200, 7*time.Millisecond)
	workers.observe(200, 7*time.Millisecond)
	for _, n := range []int{1, 3, 300} {
		m.WALBatch(n)
	}
	for _, evals := range []int{1, 466, 4322, 32768, 1200000} {
		m.SelectionComputed(time.Millisecond, evals)
	}
	rec := obs.NewRecorder(0)
	tr := obs.NewTrace("golden", "POST /v1/votes")
	t0 := time.Now()
	tr.Add(obs.StageCache, t0, 500*time.Nanosecond)
	tr.Add(obs.StageWALFsync, t0, 2*time.Millisecond)
	tr.Add(obs.StageWALFsync, t0, 1500*time.Microsecond)
	rec.Finish(tr, 200)

	var b strings.Builder
	m.WriteText(&b, CacheStats{}, 0, 0, 0, false)
	rec.WriteMetrics(&b)
	var got strings.Builder
	for _, line := range strings.SplitAfter(b.String(), "\n") {
		for _, f := range histogramFamilies {
			if strings.HasPrefix(line, f+"_") || strings.HasPrefix(line, f+"{") || strings.HasPrefix(line, f+" ") {
				got.WriteString(line)
				break
			}
		}
	}
	if got.String() != goldenHistogramExposition {
		t.Errorf("histogram exposition changed:\n--- got\n%s--- want\n%s", got.String(), goldenHistogramExposition)
	}
}

// TestMetricsScrapeConsistentUnderLoad renders the /metrics histograms
// while requests, stage spans, group-commit flushes and selects are
// being recorded, and asserts
// every histogram in every scrape is internally consistent: cumulative
// buckets never decrease and the +Inf bucket equals _count. A renderer
// that loads the buckets more than once per scrape breaks both.
func TestMetricsScrapeConsistentUnderLoad(t *testing.T) {
	s := New(NewConfig())
	h := s.Handler()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	observe := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					f()
				}
			}
		}()
	}
	flush := func() { s.metrics.WALBatch(1); s.metrics.SelectionComputed(time.Millisecond, 466) }
	request := func() {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/healthz", nil))
	}
	span := func() {
		tr := obs.NewTrace("load", "GET /healthz")
		tr.Add(obs.StageWALFsync, time.Now(), time.Millisecond)
		s.recorder.Finish(tr, 200)
	}
	// One observation each before the load starts, so every family is on
	// the very first scrape.
	flush()
	request()
	span()
	defer wg.Wait()
	defer close(stop)
	observe(flush)
	observe(func() { request(); span() })

	const scrapes = 500
	families := map[string]bool{}
	for i := 0; i < scrapes; i++ {
		var b strings.Builder
		s.metrics.WriteText(&b, CacheStats{}, 0, 0, 0, false)
		s.recorder.WriteMetrics(&b)
		samples := parseExposition(t, b.String())
		if errs := histogramViolations(samples); len(errs) > 0 {
			t.Fatalf("scrape %d of %d: %s", i+1, scrapes, strings.Join(errs, "; "))
		}
		for _, sample := range samples {
			families[strings.TrimSuffix(sample.name, "_count")] = true
		}
	}
	for _, f := range []string{"juryd_wal_batch_records", "juryd_select_evaluations", "juryd_request_duration_seconds",
		"juryd_stage_duration_seconds", "juryd_wal_fsync_seconds"} {
		if !families[f] {
			t.Errorf("histogram %s never appeared while under load", f)
		}
	}
}
