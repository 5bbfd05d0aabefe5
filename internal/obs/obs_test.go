package obs

import (
	"bufio"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStageNames(t *testing.T) {
	seen := map[string]bool{}
	for s := Stage(0); s < numStages; s++ {
		name := s.String()
		if name == "" || strings.HasPrefix(name, "stage") {
			t.Fatalf("stage %d has no name", s)
		}
		if seen[name] {
			t.Fatalf("duplicate stage name %q", name)
		}
		seen[name] = true
	}
	if got := Stage(200).String(); got != "stage200" {
		t.Fatalf("out-of-range stage name = %q", got)
	}
}

func TestNewIDAndCleanID(t *testing.T) {
	a, b := NewID(), NewID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("NewID length: %q %q", a, b)
	}
	if a == b {
		t.Fatalf("NewID returned duplicates: %q", a)
	}
	if got := CleanID("client-abc-123"); got != "client-abc-123" {
		t.Fatalf("CleanID rejected a clean ID: %q", got)
	}
	for _, bad := range []string{"", "has space", "has\nnewline", "ünicode", strings.Repeat("x", 101)} {
		got := CleanID(bad)
		if got == bad || len(got) != 16 {
			t.Fatalf("CleanID(%q) = %q, want fresh ID", bad, got)
		}
	}
}

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" {
		t.Fatal("nil trace ID")
	}
	st := tr.Begin(StageEval)
	st.End() // must not panic
	tr.Add(StageApply, time.Now(), time.Millisecond)
	var r *Recorder
	r.Finish(tr, 200)
	if r.Recent(5) != nil || r.Slowest() != nil || r.Count() != 0 {
		t.Fatal("nil recorder should report nothing")
	}
	r.WriteMetrics(&strings.Builder{})
}

func TestContextRoundTrip(t *testing.T) {
	if TraceFrom(context.Background()) != nil {
		t.Fatal("empty context should carry no trace")
	}
	tr := NewTrace("abc", "POST /v1/select")
	ctx := ContextWithTrace(context.Background(), tr)
	if got := TraceFrom(ctx); got != tr {
		t.Fatalf("TraceFrom = %p, want %p", got, tr)
	}
}

func TestTraceSpansAndSnapshot(t *testing.T) {
	r := NewRecorder(8)
	tr := NewTrace("id1", "POST /v1/select")
	st := tr.Begin(StageCache)
	time.Sleep(time.Millisecond)
	st.End()
	tr.Add(StageWALFsync, time.Now(), 2*time.Millisecond)
	r.Finish(tr, 200)

	recent := r.Recent(10)
	if len(recent) != 1 {
		t.Fatalf("Recent = %d traces, want 1", len(recent))
	}
	snap := recent[0]
	if snap.ID != "id1" || snap.Route != "POST /v1/select" || snap.Status != 200 {
		t.Fatalf("snapshot identity wrong: %+v", snap)
	}
	if len(snap.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(snap.Spans))
	}
	if snap.Spans[0].Stage != "cache_lookup" || snap.Spans[0].DurationSeconds < 0.001 {
		t.Fatalf("cache span wrong: %+v", snap.Spans[0])
	}
	if snap.Spans[1].Stage != "wal_fsync" || snap.Spans[1].DurationSeconds < 0.002 {
		t.Fatalf("fsync span wrong: %+v", snap.Spans[1])
	}
	if snap.DurationSeconds < snap.Spans[0].DurationSeconds {
		t.Fatalf("trace shorter than its spans: %+v", snap)
	}
}

func TestLateSpansAfterFinishAreDropped(t *testing.T) {
	// http.TimeoutHandler keeps the handler goroutine running after the
	// response is written; spans recorded after Finish must be dropped,
	// not appended to a published trace.
	r := NewRecorder(4)
	tr := NewTrace("late", "POST /v1/select")
	tr.Add(StageCache, time.Now(), time.Microsecond)
	r.Finish(tr, 503)
	tr.Add(StageEval, time.Now(), time.Second) // late writer
	late := tr.Begin(StageApply)
	late.End()

	snap := r.Recent(1)[0]
	if len(snap.Spans) != 1 {
		t.Fatalf("late spans leaked into a finished trace: %+v", snap.Spans)
	}
	if snap.SpansDropped != 2 {
		t.Fatalf("SpansDropped = %d, want 2", snap.SpansDropped)
	}
}

func TestSpanCapBoundsTraceMemory(t *testing.T) {
	tr := NewTrace("big", "GET /healthz")
	for i := 0; i < maxSpans+10; i++ {
		tr.Add(StageEval, time.Now(), time.Microsecond)
	}
	r := NewRecorder(2)
	r.Finish(tr, 200)
	snap := r.Recent(1)[0]
	if len(snap.Spans) != maxSpans {
		t.Fatalf("spans = %d, want cap %d", len(snap.Spans), maxSpans)
	}
	if snap.SpansDropped != 10 {
		t.Fatalf("SpansDropped = %d, want 10", snap.SpansDropped)
	}
}

func TestRingWraparound(t *testing.T) {
	const size = 8
	r := NewRecorder(size)
	for i := 0; i < 3*size; i++ {
		tr := NewTrace(fmt.Sprintf("t%d", i), "GET /healthz")
		r.Finish(tr, 200)
	}
	if r.Count() != 3*size {
		t.Fatalf("Count = %d, want %d", r.Count(), 3*size)
	}
	recent := r.Recent(0)
	if len(recent) != size {
		t.Fatalf("Recent = %d traces, want ring size %d", len(recent), size)
	}
	// Newest first: t23, t22, ... t16.
	for i, snap := range recent {
		want := fmt.Sprintf("t%d", 3*size-1-i)
		if snap.ID != want {
			t.Fatalf("recent[%d] = %q, want %q", i, snap.ID, want)
		}
	}
	if got := r.Recent(3); len(got) != 3 || got[0].ID != "t23" {
		t.Fatalf("Recent(3) = %+v", got)
	}
}

// TestUnrankedTraceStaysOffSlowBoard: an Unranked trace is published
// to the ring but never ranked, however long it ran.
func TestUnrankedTraceStaysOffSlowBoard(t *testing.T) {
	r := NewRecorder(4)
	long := NewTrace("stream", "GET /v1/repl/stream")
	long.Unranked()
	time.Sleep(2 * time.Millisecond)
	r.Finish(long, 204)
	r.Finish(NewTrace("select", "POST /v1/select"), 200)
	if slow := r.Slowest(); len(slow) != 1 || slow[0].ID != "select" {
		t.Fatalf("Slowest() = %+v, want only the ranked trace", slow)
	}
	if recent := r.Recent(2); len(recent) != 2 || recent[1].ID != "stream" {
		t.Fatalf("Recent(2) = %+v, want the unranked trace in the ring", recent)
	}
	var none *Trace
	none.Unranked() // nil-safe, like every Trace method
}

func TestSlowestBoard(t *testing.T) {
	r := NewRecorder(4) // ring smaller than the slow board on purpose
	for i := 0; i < 40; i++ {
		tr := NewTrace(fmt.Sprintf("t%d", i), "POST /v1/select")
		// Deterministic durations: trace i takes i+1 "units"; bypass the
		// clock by sealing via Finish then fixing dur under the lock is
		// not possible from outside, so instead spread real sleeps only
		// for the few slow ones.
		if i == 7 || i == 23 {
			time.Sleep(2 * time.Millisecond) // make these measurably slow
		}
		r.Finish(tr, 200)
	}
	slow := r.Slowest()
	if len(slow) == 0 || len(slow) > slowCap {
		t.Fatalf("slow board size = %d", len(slow))
	}
	for i := 1; i < len(slow); i++ {
		if slow[i].DurationSeconds > slow[i-1].DurationSeconds {
			t.Fatalf("slow board not sorted slowest-first at %d: %v > %v",
				i, slow[i].DurationSeconds, slow[i-1].DurationSeconds)
		}
	}
	// The two deliberately slow traces must be on the board even though
	// the tiny ring evicted them long ago.
	found := map[string]bool{}
	for _, s := range slow {
		found[s.ID] = true
	}
	if !found["t7"] || !found["t23"] {
		t.Fatalf("slow traces evicted from board: %v", found)
	}
}

func TestWriteMetricsOmitsUnobservedStages(t *testing.T) {
	r := NewRecorder(4)
	var buf strings.Builder
	r.WriteMetrics(&buf)
	if buf.Len() != 0 {
		t.Fatalf("empty recorder emitted metrics:\n%s", buf.String())
	}

	tr := NewTrace("m", "POST /v1/select")
	tr.Add(StageCache, time.Now(), 3*time.Microsecond)
	r.Finish(tr, 200)
	buf.Reset()
	r.WriteMetrics(&buf)
	out := buf.String()
	if !strings.Contains(out, `juryd_stage_duration_seconds_bucket{stage="cache_lookup",le="+Inf"} 1`) {
		t.Fatalf("missing cache stage histogram:\n%s", out)
	}
	if strings.Contains(out, "wal_fsync") {
		t.Fatalf("unobserved fsync stage rendered:\n%s", out)
	}

	tr2 := NewTrace("m2", "POST /v1/votes")
	tr2.Add(StageWALFsync, time.Now(), 500*time.Microsecond)
	r.Finish(tr2, 200)
	buf.Reset()
	r.WriteMetrics(&buf)
	out = buf.String()
	if !strings.Contains(out, `juryd_wal_fsync_seconds_bucket{le="+Inf"} 1`) {
		t.Fatalf("dedicated fsync histogram missing:\n%s", out)
	}
	if !strings.Contains(out, "juryd_wal_fsync_seconds_count 1") {
		t.Fatalf("fsync count missing:\n%s", out)
	}
}

// TestWriteMetricsCumulative checks bucket monotonicity and the
// _count == +Inf invariant with many observations spread over buckets.
func TestWriteMetricsCumulative(t *testing.T) {
	r := NewRecorder(4)
	durs := []time.Duration{
		500 * time.Nanosecond, 3 * time.Microsecond, 40 * time.Microsecond,
		300 * time.Microsecond, 2 * time.Millisecond, 30 * time.Millisecond,
		400 * time.Millisecond, 3 * time.Second, // beyond the last bound → +Inf
	}
	tr := NewTrace("c", "POST /v1/select")
	for _, d := range durs {
		tr.Add(StageEval, time.Now(), d)
	}
	r.Finish(tr, 200)

	var buf strings.Builder
	r.WriteMetrics(&buf)
	var counts []uint64
	var finalCount uint64
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, `juryd_stage_duration_seconds_bucket{stage="evaluate"`) {
			var v uint64
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &v); err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			counts = append(counts, v)
		}
		if strings.HasPrefix(line, `juryd_stage_duration_seconds_count{stage="evaluate"}`) {
			fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &finalCount)
		}
	}
	if len(counts) != len(StageBuckets)+1 {
		t.Fatalf("bucket lines = %d, want %d", len(counts), len(StageBuckets)+1)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] < counts[i-1] {
			t.Fatalf("buckets not cumulative at %d: %v", i, counts)
		}
	}
	if counts[len(counts)-1] != uint64(len(durs)) {
		t.Fatalf("+Inf bucket = %d, want %d", counts[len(counts)-1], len(durs))
	}
	if finalCount != uint64(len(durs)) {
		t.Fatalf("_count = %d, want %d", finalCount, len(durs))
	}
}

// TestConcurrentTracing hammers the recorder from many goroutines —
// parallel traces, ring wraparound under contention, concurrent
// readers, and late span writers — and must pass under -race.
func TestConcurrentTracing(t *testing.T) {
	r := NewRecorder(16)
	const workers = 8
	const perWorker = 200
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})

	// Concurrent readers while writers run.
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Recent(8)
				r.Slowest()
				r.WriteMetrics(&strings.Builder{})
			}
		}()
	}

	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < perWorker; i++ {
				tr := NewTrace(fmt.Sprintf("w%d-%d", w, i), "POST /v1/select")
				st := tr.Begin(StageCache)
				st.End()
				tr.Add(StageWALAppend, time.Now(), time.Microsecond)
				tr.Add(StageWALFsync, time.Now(), time.Microsecond)
				r.Finish(tr, 200)
				// A late writer racing the published trace.
				tr.Add(StageEval, time.Now(), time.Second)
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	if r.Count() != workers*perWorker {
		t.Fatalf("Count = %d, want %d", r.Count(), workers*perWorker)
	}
	for _, snap := range r.Recent(0) {
		for _, sp := range snap.Spans {
			if sp.Stage == "evaluate" {
				t.Fatalf("late span leaked into published trace %q", snap.ID)
			}
		}
	}
}
