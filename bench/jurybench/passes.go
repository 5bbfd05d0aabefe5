package main

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// runEnv is what every workload run shares: the juryd binary, a scratch
// directory, and the window lengths.
type runEnv struct {
	bin, tmp        string
	seconds, warmup time.Duration
}

// warmUp runs the discarded warm-up phase; a failure there means the
// cluster is not healthy, so it fails the run's checks.
func (e *runEnv) warmUp(ctx context.Context, r *trial) {
	if e.warmup <= 0 {
		return
	}
	if p := r.load(ctx, streamWarmup, e.warmup); p.failed > 0 {
		r.checks.failf("%d warm-up operations failed", p.failed)
	}
}

// untraced is the end-to-end pass: set up setupReps times (reporting the
// median), warm up, measure one window with tracing off, check outputs.
func (e *runEnv) untraced(ctx context.Context, w *workload, g gen) (_ *result, err error) {
	var setups []float64
	var r *trial
	defer func() {
		if r != nil {
			err = errors.Join(err, r.tearDown())
		}
	}()
	for range setupReps {
		if prev := r; prev != nil {
			r = nil
			if err := prev.tearDown(); err != nil {
				return nil, err
			}
		}
		r = newTrial(w, g, e.bin, e.tmp, false)
		t0 := time.Now()
		if err := r.setUp(ctx); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	e.warmUp(ctx, r)
	cpu0, err1 := r.cl.cpuTime()
	steal0, ticks0, err2 := hostCPU()
	if err := errors.Join(err1, err2); err != nil {
		return nil, err
	}
	p := r.load(ctx, streamMeasured, e.seconds)
	cpu1, err1 := r.cl.cpuTime()
	steal1, ticks1, err2 := hostCPU()
	if err := errors.Join(err1, err2); err != nil {
		return nil, err
	}
	rss, err := r.cl.peakRSS()
	if err != nil {
		return nil, err
	}
	r.finalChecks(ctx)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	m := make(metrics)
	m.set("setup_s", median(setups), "s")
	m.set("ops_per_s", float64(p.completed())/p.elapsed.Seconds(), "1/s")
	m.set("p50_ms", ms(percentile(p.lat, 50)), "ms")
	m.set("p90_ms", ms(percentile(p.lat, 90)), "ms")
	m.set("cpu_ms_per_op", ms(cpu1-cpu0)/float64(p.completed()), "ms")
	m.set("rss_peak_mib", float64(rss)/(1<<20), "MiB")
	if tail := tailPercentile(p.completed()); tail > 0 {
		m.set("tail_pct", tail, "%")
		m.set("tail_ms", ms(percentile(p.lat, tail)), "ms")
	}
	m.set("samples", float64(p.completed()), "count")
	if len(p.late) > 0 {
		m.set("gen_late_p99_ms", ms(percentile(p.late, 99)), "ms")
	}
	m.set("steal_pct", 100*float64(steal1-steal0)/float64(ticks1-ticks0), "%")
	if len(r.jqs) > 0 {
		var jqs []float64
		for i := range jqMeanRequests {
			if v, ok := r.jqs[i]; ok {
				jqs = append(jqs, v)
			}
		}
		m.set("select_jq_mean", mean(jqs), "JQ")
	}
	return newResult(w, p.completed()+p.failed, p.failed, r.checks.failures(), m), nil
}

// newResult assembles a run's result; the run is correct when no output
// check failed.
func newResult(w *workload, attempted, failed int, failures []string, m metrics) *result {
	m.set("errors_frac", float64(failed)/float64(attempted), "failed/attempted")
	return &result{Workload: w.name, Correct: len(failures) == 0,
		Attempted: attempted, Failed: failed, Failures: failures, Metrics: m}
}

// traced is the per-layer pass. It measures half a window untraced, for
// the tracing overhead, then half a window against a cluster with tracing
// on, scraping the daemons' per-stage histograms around it; then it times
// the layers' public functions in process.
func (e *runEnv) traced(ctx context.Context, w *workload, g gen) (*result, error) {
	half := e.seconds / 2
	sp := newSpanLog()
	root := sp.begin(w.name, 0)

	ref := newTrial(w, g, e.bin, e.tmp, false)
	s := sp.begin("untraced reference", root)
	err := ref.setUp(ctx)
	var p0 phase
	if err == nil {
		e.warmUp(ctx, ref)
		p0 = ref.load(ctx, streamMeasured, half)
		ref.finalChecks(ctx)
	}
	sp.end(s)
	if err := errors.Join(err, ref.tearDown()); err != nil {
		return nil, err
	}

	r := newTrial(w, g, e.bin, e.tmp, true)
	m := make(metrics)
	s = sp.begin("setup", root)
	err = r.setUp(ctx)
	sp.end(s)
	var p phase
	if err == nil {
		s = sp.begin("warmup", root)
		e.warmUp(ctx, r)
		sp.end(s)
		p, err = r.tracedWindow(ctx, half, m, sp, root)
		if err == nil {
			s = sp.begin("checks", root)
			r.finalChecks(ctx)
			sp.end(s)
		}
	}
	if err := errors.Join(err, r.tearDown()); err != nil {
		return nil, err
	}
	m.set("obs.overhead_pct", (float64(percentile(p.lat, 50))/float64(percentile(p0.lat, 50))-1)*100, "%")

	var checks checkLog
	s = sp.begin("inproc", root)
	jqs, err := inproc(ctx, g, e.tmp, m, sp, s, &checks)
	sp.end(s)
	if err != nil {
		return nil, fmt.Errorf("in-process: %w", err)
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	// The daemon runs the library's selection on the same pool and
	// requests, so its answers must be the in-process ones, bit for bit.
	for i, want := range jqs {
		if got, ok := r.jqs[i]; ok && !jqEqual(got, want) {
			checks.failf("daemon answered request %d with JQ %v, in-process selection gives %v", i, got, want)
		}
	}
	sp.end(root)

	failures := append(append(r.checks.failures(), ref.checks.failures()...), checks.failures()...)
	res := newResult(w, p.completed()+p.failed+p0.completed()+p0.failed, p.failed+p0.failed, failures, m)
	res.Spans = sp.spans
	return res, nil
}
