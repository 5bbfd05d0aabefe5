package server

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// LatencyBuckets are the upper bounds (seconds) of the per-route request
// latency histogram, log-spaced from 100µs to 2.5s; observations above
// the last bound land in the implicit +Inf bucket. The range covers the
// serving spectrum from cache hits (~sub-millisecond) to cold annealing
// searches on large pools.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// Metrics collects the daemon's operational counters. All methods are safe
// for concurrent use; rendering is Prometheus-style text exposition so the
// /metrics endpoint can be scraped or eyeballed with curl. Every histogram
// is an obs.Histogram, rendered by its one renderer.
type Metrics struct {
	// routes holds one entry per route pattern, added while the server
	// registers its routes and read-only once it serves, so recording and
	// scraping take no lock.
	routes map[string]*routeStats

	votesIngested    atomic.Uint64
	selections       atomic.Uint64 // selections computed (cache misses)
	selectionLatency atomic.Int64  // cumulative compute time, nanoseconds
	sessionsOpened   atomic.Uint64
	sessionsFinished atomic.Uint64

	walErrors        atomic.Uint64 // WAL append/fsync failures (each one degrades)
	snapshotErrors   atomic.Uint64 // failed snapshot attempts (non-degrading)
	loadShed         atomic.Uint64 // requests shed with 429 by admission control
	ingestDuplicates atomic.Uint64 // keyed ingests answered from the dedup table
	quorumTimeouts   atomic.Uint64 // mutations durable locally but unconfirmed by the follower quorum
	fenceErrors      atomic.Uint64 // fence marker persist failures (fence held in memory only)
	// streamReads counts replication stream reads by where the log
	// answered them: [0] the segment files, [1] the newest-segment tail.
	streamReads [2]atomic.Uint64

	// walBatch counts records per WAL flush: how many journal records
	// one write (and under -fsync one sync) absorbed, in powers of two up
	// to 256 (larger batches land in +Inf).
	walBatch *obs.Histogram
	// selectEvals counts objective evaluations per cache-missing select,
	// in powers of four up to 2^18: which search tier a select ran
	// (exhaustive, removal search or single pass) and how much it
	// evaluated.
	selectEvals *obs.Histogram
}

// routeStats is one route's latency histogram (whose count is the
// route's completed requests) and its count of replies with status >= 400.
type routeStats struct {
	latency *obs.Histogram
	errors  atomic.Uint64
}

// NewMetrics returns zeroed metrics.
func NewMetrics() *Metrics {
	return &Metrics{
		routes:      make(map[string]*routeStats),
		walBatch:    obs.NewHistogram([]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}),
		selectEvals: obs.NewHistogram([]float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144}),
	}
}

// route registers a route pattern and returns its stats. It is called
// only while the server is being built, before any request or scrape.
func (m *Metrics) route(pattern string) *routeStats {
	rs := &routeStats{latency: obs.NewLatencyHistogram(LatencyBuckets)}
	m.routes[pattern] = rs
	return rs
}

// observe records one completed request: the latency observation and,
// for a status >= 400, the error count. The error is counted after the
// observation, so a scrape that reads errors first never shows more
// errors than requests.
func (rs *routeStats) observe(status int, d time.Duration) {
	rs.latency.ObserveDuration(d)
	if status >= 400 {
		rs.errors.Add(1)
	}
}

// VotesIngested adds n ingested vote events.
func (m *Metrics) VotesIngested(n int) { m.votesIngested.Add(uint64(n)) }

// SelectionComputed records one cache-missing selection, its latency and
// its objective evaluations.
func (m *Metrics) SelectionComputed(d time.Duration, evals int) {
	m.selections.Add(1)
	m.selectionLatency.Add(int64(d))
	m.selectEvals.Observe(int64(evals))
}

// SessionOpened / SessionFinished track online-session lifecycle.
func (m *Metrics) SessionOpened()   { m.sessionsOpened.Add(1) }
func (m *Metrics) SessionFinished() { m.sessionsFinished.Add(1) }

// WALError records one WAL disk failure (the append that degraded the
// server, or would have if it were not already degraded).
func (m *Metrics) WALError() { m.walErrors.Add(1) }

// SnapshotError records one failed snapshot attempt.
func (m *Metrics) SnapshotError() { m.snapshotErrors.Add(1) }

// LoadShed records one request refused with 429 by admission control.
func (m *Metrics) LoadShed() { m.loadShed.Add(1) }

// IngestDuplicate records one keyed ingest deduplicated server-side.
func (m *Metrics) IngestDuplicate() { m.ingestDuplicates.Add(1) }

// QuorumTimeout records one mutation refused with 503 because the
// follower quorum did not confirm its LSN in time.
func (m *Metrics) QuorumTimeout() { m.quorumTimeouts.Add(1) }

// FenceError records one failed fence.json persist: the fence holds in
// memory but would not survive a restart until delivered again.
func (m *Metrics) FenceError() { m.fenceErrors.Add(1) }

// ReplStreamRead records one replication stream read of the log,
// answered from the newest-segment tail or from the segment files.
func (m *Metrics) ReplStreamRead(fromTail bool) {
	if fromTail {
		m.streamReads[1].Add(1)
	} else {
		m.streamReads[0].Add(1)
	}
}

// WALBatch records one WAL flush that made n records durable with a
// single write (and under -fsync a single sync).
func (m *Metrics) WALBatch(n int) {
	if n > 0 {
		m.walBatch.Observe(int64(n))
	}
}

// SnapshotErrors exposes the failed-snapshot counter (for tests and the
// daemon's shutdown log).
func (m *Metrics) SnapshotErrors() uint64 { return m.snapshotErrors.Load() }

// WriteText renders the metrics (plus the given cache and registry state)
// in Prometheus text exposition format, including one
// juryd_request_duration_seconds histogram per route.
func (m *Metrics) WriteText(w io.Writer, cache CacheStats, poolSize int, generation uint64, multiPools int, degraded bool) {
	routes := make([]string, 0, len(m.routes))
	for r := range m.routes {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	// Errors are read before the histograms (see routeStats.observe).
	errors := make([]uint64, len(routes))
	latency := make([]obs.HistogramSnapshot, len(routes))
	for i, r := range routes {
		errors[i] = m.routes[r].errors.Load()
		latency[i] = m.routes[r].latency.Snapshot()
	}

	for i, r := range routes {
		if latency[i].Count > 0 {
			fmt.Fprintf(w, "juryd_requests_total{route=%q} %d\n", r, latency[i].Count)
		}
	}
	for i, r := range routes {
		latency[i].WriteText(w, "juryd_request_duration_seconds", fmt.Sprintf("route=%q", r))
	}
	// Per-route error series first, then the pre-existing global line —
	// the same family, so scrapes that only knew the unlabeled series
	// keep working.
	var errorsTotal uint64
	for i, r := range routes {
		if errors[i] > 0 {
			fmt.Fprintf(w, "juryd_request_errors_total{route=%q} %d\n", r, errors[i])
			errorsTotal += errors[i]
		}
	}
	fmt.Fprintf(w, "juryd_request_errors_total %d\n", errorsTotal)
	fmt.Fprintf(w, "juryd_votes_ingested_total %d\n", m.votesIngested.Load())
	fmt.Fprintf(w, "juryd_selections_computed_total %d\n", m.selections.Load())
	fmt.Fprintf(w, "juryd_selection_seconds_total %g\n",
		time.Duration(m.selectionLatency.Load()).Seconds())
	m.selectEvals.Snapshot().WriteText(w, "juryd_select_evaluations", "")
	fmt.Fprintf(w, "juryd_sessions_opened_total %d\n", m.sessionsOpened.Load())
	fmt.Fprintf(w, "juryd_sessions_finished_total %d\n", m.sessionsFinished.Load())
	fmt.Fprintf(w, "juryd_cache_hits_total %d\n", cache.Hits)
	fmt.Fprintf(w, "juryd_cache_misses_total %d\n", cache.Misses)
	fmt.Fprintf(w, "juryd_cache_evictions_total %d\n", cache.Evictions)
	fmt.Fprintf(w, "juryd_cache_entries %d\n", cache.Entries)
	fmt.Fprintf(w, "juryd_cache_hit_rate %g\n", cache.HitRate())
	fmt.Fprintf(w, "juryd_pool_size %d\n", poolSize)
	fmt.Fprintf(w, "juryd_pool_generation %d\n", generation)
	fmt.Fprintf(w, "juryd_multi_pools %d\n", multiPools)
	deg := 0
	if degraded {
		deg = 1
	}
	fmt.Fprintf(w, "juryd_degraded %d\n", deg)
	fmt.Fprintf(w, "juryd_wal_errors_total %d\n", m.walErrors.Load())
	// The batch histogram only appears once the WAL has flushed
	// something, so an in-memory server's scrape carries no dead series.
	m.walBatch.Snapshot().WriteText(w, "juryd_wal_batch_records", "")
	fmt.Fprintf(w, "juryd_snapshot_errors_total %d\n", m.snapshotErrors.Load())
	fmt.Fprintf(w, "juryd_load_shed_total %d\n", m.loadShed.Load())
	fmt.Fprintf(w, "juryd_ingest_duplicates_total %d\n", m.ingestDuplicates.Load())
	fmt.Fprintf(w, "juryd_quorum_timeouts_total %d\n", m.quorumTimeouts.Load())
	fmt.Fprintf(w, "juryd_fence_errors_total %d\n", m.fenceErrors.Load())
	fmt.Fprintf(w, "juryd_repl_stream_reads_total{source=\"tail\"} %d\n", m.streamReads[1].Load())
	fmt.Fprintf(w, "juryd_repl_stream_reads_total{source=\"disk\"} %d\n", m.streamReads[0].Load())
}

// writeRuntimeMetrics renders process-level gauges: build identity,
// uptime, and the Go runtime state an operator checks first when a
// daemon misbehaves (goroutine count, live heap, cumulative GC pauses).
func writeRuntimeMetrics(w io.Writer, started time.Time) {
	version := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	fmt.Fprintf(w, "juryd_build_info{version=%q,go_version=%q} 1\n", version, runtime.Version())
	fmt.Fprintf(w, "juryd_uptime_seconds %g\n", time.Since(started).Seconds())
	fmt.Fprintf(w, "juryd_goroutines %d\n", runtime.NumGoroutine())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, "juryd_heap_inuse_bytes %d\n", ms.HeapInuse)
	fmt.Fprintf(w, "juryd_gc_pause_seconds_total %g\n", float64(ms.PauseTotalNs)/1e9)
	fmt.Fprintf(w, "juryd_gc_runs_total %d\n", ms.NumGC)
}
