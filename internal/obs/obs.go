// Package obs is the observability layer behind the juryd daemon:
// per-request traces with stage-level span timings, a lock-free bounded
// ring buffer of recent traces, a small board of the slowest requests
// seen, and the lock-free Histogram type behind every histogram on
// /metrics (per-stage and per-route latencies, WAL batch sizes),
// rendered in Prometheus text exposition format.
//
// Design constraints, in order:
//
//  1. The hot path must be cheap enough to leave on in production. A
//     traced request costs one Trace allocation, a handful of span
//     timer reads of the monotonic clock, and one atomic slot store to
//     publish into the ring — no locks are taken on the request path
//     except each trace's own (uncontended) span mutex.
//  2. Memory is bounded. The ring holds a fixed number of finished
//     traces (older ones are overwritten), each trace holds at most
//     maxSpans spans (excess spans are counted, not stored), and the
//     slow board holds slowCap traces. Total steady-state footprint is
//     O(ring size), independent of traffic.
//  3. Readers never block writers. /debug/traces snapshots the ring by
//     loading slot pointers; a trace is published only after it is
//     finished, so everything a reader sees is immutable (the per-trace
//     mutex exists only for late spans from timed-out handlers, which
//     are dropped).
//
// The stage taxonomy (Stage) names the phases of one juryd request:
// admission control, the ingest idempotency check, selection-cache
// lookup, evaluator compute, WAL encode/append/flush/fsync, in-memory
// apply, the follower-quorum wait, and response encode. The WAL fsync
// stage is additionally rendered as the dedicated juryd_wal_fsync_seconds
// histogram — the number shared flushes exist to amortize (wal_flush is
// the wait on the shared flush; wal_fsync the disk time of the flush that
// covered the request).
package obs

import (
	"context"
	"fmt"
	"io"
	mrand "math/rand/v2"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// RequestIDHeader is the HTTP header carrying the request's trace ID,
// accepted from clients and echoed on every response.
const RequestIDHeader = "X-Request-Id"

// Stage names one phase of a request. The zero value is StageAdmission.
type Stage uint8

// The stage taxonomy of a juryd request, in rough request order.
const (
	// StageAdmission is the admission-control token acquisition.
	StageAdmission Stage = iota
	// StageIdem is the ingest idempotency-key dedup check.
	StageIdem
	// StageCache is the selection-cache lookup.
	StageCache
	// StageEval is the evaluator compute: the annealing/greedy/exhaustive
	// search on a cache miss, or a JQ evaluation.
	StageEval
	// StageWALEncode is the JSON encoding of a WAL record.
	StageWALEncode
	// StageWALAppend is the WAL record staging: framing, the LSN
	// reservation and the copy into the batch buffer.
	StageWALAppend
	// StageWALFlush is the durability wait: from releasing the store lock
	// to the shared flush (write, and under -fsync sync) covering the
	// record's LSN.
	StageWALFlush
	// StageWALFsync is the WAL flush to stable storage (only under
	// -fsync): the disk time of the shared sync that covered this
	// request's record.
	StageWALFsync
	// StageApply is the in-memory application of a journaled mutation.
	StageApply
	// StageQuorumWait is a quorum-gated ack's wait (-quorum above 1) for
	// enough followers to confirm its record.
	StageQuorumWait
	// StageReplRead is the committed-prefix WAL read behind one batch a
	// replication stream ships (excluding the wait for new records, which
	// is idle time, not work). A stream outlives any one request trace,
	// so it feeds the stage histogram directly (Recorder.ObserveStage).
	StageReplRead
	// StageEncode is the response JSON encoding.
	StageEncode

	numStages
)

var stageNames = [numStages]string{
	"admission", "idempotency", "cache_lookup", "evaluate",
	"wal_encode", "wal_append", "wal_flush", "wal_fsync", "apply",
	"quorum_wait", "repl_read", "encode",
}

// String returns the stage's wire name (used in span JSON and in the
// stage="..." label of the per-stage histograms).
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage" + strconv.Itoa(int(s))
}

// NewID returns a fresh 16-hex-char request/trace ID. IDs only need to
// be unique enough to correlate log lines and traces, so they come from
// the runtime-seeded fast PRNG, not crypto/rand.
func NewID() string {
	const hexdigits = "0123456789abcdef"
	v := mrand.Uint64()
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// CleanID sanitizes a client-supplied X-Request-Id: printable ASCII, at
// most 100 bytes. Anything else (including "") is replaced by a fresh
// NewID, so a hostile header cannot corrupt logs or trace dumps.
func CleanID(id string) string {
	if id == "" || len(id) > 100 {
		return NewID()
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return NewID()
		}
	}
	return id
}

// maxSpans bounds the spans stored per trace; later spans are counted
// in SpansDropped but not stored, keeping trace memory fixed.
const maxSpans = 64

// Span is one timed stage of a trace.
type Span struct {
	Stage  Stage
	Offset time.Duration // start, relative to the trace's start
	Dur    time.Duration
	Err    bool // the stage failed (e.g. the WAL append that poisoned the log)
}

// Trace is one request's trace: identity, route, and span timings. A
// Trace is created by NewTrace, carried in the request context, fed
// spans via Begin/Add, and published by Recorder.Finish — after which
// it is immutable (late span writes are dropped).
type Trace struct {
	id    string
	route string
	wall  time.Time // wall-clock start, for display
	begin time.Time // carries the monotonic reading for all durations

	mu      sync.Mutex
	done    bool
	status  int
	dur     time.Duration
	spans   []Span
	dropped int
	// unranked keeps the trace off the slow board (Unranked).
	unranked bool
	// spanBuf backs spans for the typical request (one span per stage),
	// so recording costs no allocation until a request exceeds it.
	spanBuf [12]Span
}

// NewTrace starts a trace for one request. id should already be cleaned
// (CleanID); route is the registered route pattern.
func NewTrace(id, route string) *Trace {
	now := time.Now()
	t := &Trace{id: id, route: route, wall: now, begin: now}
	t.spans = t.spanBuf[:0]
	return t
}

// ID returns the trace ID ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Unranked keeps the trace off the recorder's slow board: its duration
// is how long a peer stayed attached, as on a replication stream, not
// work the server did, and ranking it would crowd out slow requests.
// The trace still enters the ring and the stage histograms. Safe on a
// nil trace.
func (t *Trace) Unranked() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.unranked = true
	t.mu.Unlock()
}

// SpanTimer times one stage; obtain with Begin, finish with End. The
// zero value (from Begin on a nil trace) is a no-op.
type SpanTimer struct {
	t     *Trace
	stage Stage
	start time.Time
}

// Begin starts timing a stage. Safe on a nil trace (returns a no-op
// timer), so call sites need no tracing-enabled branches.
func (t *Trace) Begin(stage Stage) SpanTimer {
	if t == nil {
		return SpanTimer{}
	}
	return SpanTimer{t: t, stage: stage, start: time.Now()}
}

// End finishes the span and records it on the trace.
func (st SpanTimer) End() {
	if st.t == nil {
		return
	}
	st.t.Add(st.stage, st.start, time.Since(st.start))
}

// Add records one span with an explicit start and duration — the
// low-level entry used by End and by callers that split one measured
// interval into stages (e.g. a WAL append whose fsync portion is
// reported separately). Safe on a nil trace. Spans added after the
// trace finished (a timed-out handler still running) are dropped.
func (t *Trace) Add(stage Stage, start time.Time, d time.Duration) {
	t.add(stage, start, d, false)
}

// AddErr records a span for a stage that failed, so the exact request
// that hit (or caused) the failure is visible in /debug/traces with an
// error tag rather than silently missing its span.
func (t *Trace) AddErr(stage Stage, start time.Time, d time.Duration) {
	t.add(stage, start, d, true)
}

func (t *Trace) add(stage Stage, start time.Time, d time.Duration, errTag bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.done || len(t.spans) >= maxSpans {
		t.dropped++
	} else {
		t.spans = append(t.spans, Span{Stage: stage, Offset: start.Sub(t.begin), Dur: d, Err: errTag})
	}
	t.mu.Unlock()
}

// SpanSnapshot is one span of a trace dump, durations in seconds.
type SpanSnapshot struct {
	Stage           string  `json:"stage"`
	OffsetSeconds   float64 `json:"offset_seconds"`
	DurationSeconds float64 `json:"duration_seconds"`
	Error           bool    `json:"error,omitempty"`
}

// TraceSnapshot is one finished trace as served by /debug/traces.
type TraceSnapshot struct {
	ID              string         `json:"id"`
	Route           string         `json:"route"`
	Status          int            `json:"status"`
	Start           time.Time      `json:"start"`
	DurationSeconds float64        `json:"duration_seconds"`
	Spans           []SpanSnapshot `json:"spans"`
	SpansDropped    int            `json:"spans_dropped,omitempty"`
}

// snapshot renders a finished trace. The span lock is taken only to
// fence late writers from timed-out handlers.
func (t *Trace) snapshot() TraceSnapshot {
	t.mu.Lock()
	spans := make([]SpanSnapshot, len(t.spans))
	for i, sp := range t.spans {
		spans[i] = SpanSnapshot{
			Stage:           sp.Stage.String(),
			OffsetSeconds:   sp.Offset.Seconds(),
			DurationSeconds: sp.Dur.Seconds(),
			Error:           sp.Err,
		}
	}
	out := TraceSnapshot{
		ID:              t.id,
		Route:           t.route,
		Status:          t.status,
		Start:           t.wall,
		DurationSeconds: t.dur.Seconds(),
		Spans:           spans,
		SpansDropped:    t.dropped,
	}
	t.mu.Unlock()
	return out
}

// StageBuckets are the upper bounds (seconds) of the per-stage latency
// histograms, log-spaced from 1µs to 1s: stages are much finer-grained
// than whole requests (a cache probe is nanoseconds, an fsync is
// hundreds of microseconds to milliseconds, an annealing search tens of
// milliseconds). Observations above the last bound land in +Inf.
var StageBuckets = []float64{
	0.000001, 0.0000025, 0.000005, 0.00001, 0.000025, 0.00005,
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1,
}

// Histogram is the one histogram type behind /metrics: a lock-free
// count per fixed upper bound (plus the +Inf overflow) and an integer
// sum. A latency histogram (NewLatencyHistogram) sums nanoseconds and
// renders bounds and sum in seconds; a plain one (NewHistogram) counts
// integer observations such as records per WAL flush.
type Histogram struct {
	bounds  []float64
	seconds bool            // latency histogram: sum is nanoseconds, rendered in seconds
	counts  []atomic.Uint64 // per bound, the last slot +Inf
	sum     atomic.Int64
}

// NewHistogram returns a histogram of integer observations over the
// given ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// NewLatencyHistogram returns a histogram of durations over the given
// ascending upper bounds in seconds.
func NewLatencyHistogram(bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	h.seconds = true
	return h
}

// Observe records one integer observation.
func (h *Histogram) Observe(n int64) { h.observe(float64(n), n) }

// ObserveDuration records one duration in a latency histogram.
func (h *Histogram) ObserveDuration(d time.Duration) { h.observe(d.Seconds(), int64(d)) }

// observe counts v in the first bucket whose bound is >= v and adds
// sum to the running total.
func (h *Histogram) observe(v float64, sum int64) {
	i, _ := slices.BinarySearch(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(sum)
}

// HistogramSnapshot is one read of a Histogram: every bucket loaded
// exactly once and Count derived from those loads, so its rendering is
// internally consistent however many observations race the read.
type HistogramSnapshot struct {
	h      *Histogram
	counts []uint64
	sum    int64
	Count  uint64
}

// Snapshot reads the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{h: h, counts: make([]uint64, len(h.counts))}
	for i := range h.counts {
		s.counts[i] = h.counts[i].Load()
		s.Count += s.counts[i]
	}
	s.sum = h.sum.Load()
	return s
}

// WriteText renders the snapshot as one Prometheus histogram series with
// cumulative buckets; labels is "" or `k="v"` pairs placed before le. An
// empty snapshot renders nothing, so the exposition carries no dead
// series.
func (s HistogramSnapshot) WriteText(w io.Writer, name, labels string) {
	if s.Count == 0 {
		return
	}
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, le := range s.h.bounds {
		cum += s.counts[i]
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep,
			strconv.FormatFloat(le, 'g', -1, 64), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, s.Count)
	if labels != "" {
		labels = "{" + labels + "}"
	}
	if s.h.seconds {
		fmt.Fprintf(w, "%s_sum%s %g\n", name, labels, time.Duration(s.sum).Seconds())
	} else {
		fmt.Fprintf(w, "%s_sum%s %d\n", name, labels, s.sum)
	}
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, s.Count)
}

// DefaultRingSize is the trace ring capacity when NewRecorder is given 0.
const DefaultRingSize = 256

// slowCap is how many slowest traces the recorder keeps.
const slowCap = 16

// Recorder collects finished traces and per-stage latency statistics.
// All methods are safe for concurrent use; Finish is the only one on
// the request hot path.
type Recorder struct {
	ring []atomic.Pointer[Trace]
	next atomic.Uint64 // total finished traces; next.Add(1)-1 is the slot index

	stages [numStages]*Histogram

	// The slow board: the slowCap slowest finished traces, gated by an
	// atomic threshold so the common case (not slow) never locks.
	slowMu   sync.Mutex
	slow     []*Trace     // sorted slowest-first
	slowFull atomic.Bool  // board reached slowCap; slowMin is now the bar
	slowMin  atomic.Int64 // duration of the board's fastest entry once full
}

// NewRecorder returns a recorder whose ring holds size finished traces
// (0 selects DefaultRingSize).
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		size = DefaultRingSize
	}
	r := &Recorder{ring: make([]atomic.Pointer[Trace], size)}
	for i := range r.stages {
		r.stages[i] = NewLatencyHistogram(StageBuckets)
	}
	return r
}

// Finish seals the trace with its response status, publishes it into
// the ring (overwriting the oldest), feeds its spans into the stage
// histograms, and admits it to the slow board if it qualifies and is
// not Unranked.
func (r *Recorder) Finish(t *Trace, status int) {
	if r == nil || t == nil {
		return
	}
	d := time.Since(t.begin)
	t.mu.Lock()
	t.done = true
	t.status = status
	t.dur = d
	spans := t.spans // sealed: no writer appends once done is set
	ranked := !t.unranked
	t.mu.Unlock()
	for _, sp := range spans {
		r.stages[sp.Stage].ObserveDuration(sp.Dur)
	}
	slot := (r.next.Add(1) - 1) % uint64(len(r.ring))
	r.ring[slot].Store(t)
	if ranked && (!r.slowFull.Load() || int64(d) > r.slowMin.Load()) {
		r.admitSlow(t, d)
	}
}

// ObserveStage records one span of stage that no request trace carries
// into the stage histogram: the per-batch work of a long-lived stream,
// whose trace would drop every span past maxSpans.
func (r *Recorder) ObserveStage(stage Stage, d time.Duration) {
	if r != nil {
		r.stages[stage].ObserveDuration(d)
	}
}

// admitSlow inserts t into the slow board, keeping it sorted
// slowest-first and bounded at slowCap.
func (r *Recorder) admitSlow(t *Trace, d time.Duration) {
	r.slowMu.Lock()
	defer r.slowMu.Unlock()
	i := sort.Search(len(r.slow), func(i int) bool { return r.slow[i].dur < d })
	if i >= slowCap {
		return
	}
	r.slow = append(r.slow, nil)
	copy(r.slow[i+1:], r.slow[i:])
	r.slow[i] = t
	if len(r.slow) > slowCap {
		r.slow = r.slow[:slowCap]
	}
	if len(r.slow) == slowCap {
		r.slowMin.Store(int64(r.slow[len(r.slow)-1].dur))
		r.slowFull.Store(true)
	}
}

// Recent returns up to n most-recent finished traces, newest first.
func (r *Recorder) Recent(n int) []TraceSnapshot {
	if r == nil {
		return nil
	}
	if n <= 0 || n > len(r.ring) {
		n = len(r.ring)
	}
	total := r.next.Load()
	out := make([]TraceSnapshot, 0, n)
	for i := uint64(0); i < uint64(len(r.ring)) && len(out) < n; i++ {
		if i >= total {
			break
		}
		slot := (total - 1 - i) % uint64(len(r.ring))
		t := r.ring[slot].Load()
		if t == nil {
			continue // racing a writer that claimed the slot but has not stored yet
		}
		out = append(out, t.snapshot())
	}
	return out
}

// Slowest returns the slowest finished traces, slowest first.
func (r *Recorder) Slowest() []TraceSnapshot {
	if r == nil {
		return nil
	}
	r.slowMu.Lock()
	board := append([]*Trace(nil), r.slow...)
	r.slowMu.Unlock()
	out := make([]TraceSnapshot, len(board))
	for i, t := range board {
		out[i] = t.snapshot()
	}
	return out
}

// Count returns how many traces have been finished.
func (r *Recorder) Count() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// WriteMetrics renders the per-stage latency histograms in Prometheus
// text exposition format: one juryd_stage_duration_seconds series per
// stage that has observations, plus the dedicated juryd_wal_fsync_seconds
// histogram (the same data as stage="wal_fsync" under the name the
// durability work is tracked by). Stages with no observations are
// omitted so the exposition carries no dead series.
func (r *Recorder) WriteMetrics(w io.Writer) {
	if r == nil {
		return
	}
	for s, h := range r.stages {
		h.Snapshot().WriteText(w, "juryd_stage_duration_seconds", fmt.Sprintf("stage=%q", Stage(s).String()))
	}
	r.stages[StageWALFsync].Snapshot().WriteText(w, "juryd_wal_fsync_seconds", "")
}

// ---------------------------------------------------------------------------
// Context plumbing.

type ctxKey struct{}

// ContextWithTrace attaches a trace to a context.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// TraceFrom extracts the request trace from a context; nil (a valid,
// no-op trace target) when absent.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
