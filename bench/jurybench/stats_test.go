package main

import (
	"context"
	"slices"
	"testing"
	"time"
)

func durations(ms ...int) []time.Duration {
	out := make([]time.Duration, len(ms))
	for i, v := range ms {
		out[i] = time.Duration(v) * time.Millisecond
	}
	return out
}

func TestPercentileIsNearestRank(t *testing.T) {
	ten := durations(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{
		{50, 5 * time.Millisecond},
		{50.1, 6 * time.Millisecond},
		{90, 9 * time.Millisecond},
		{91, 10 * time.Millisecond},
		{100, 10 * time.Millisecond},
		{1, 1 * time.Millisecond},
	} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("p%g of 1..10 ms = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(durations(7), 99); got != 7*time.Millisecond {
		t.Errorf("p99 of one sample = %v, want it", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of no samples = %v, want 0", got)
	}
}

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100000, 99.99},
		{99999, 99.9},
		{10000, 99.9},
		{1000, 99},
		{999, 95},
		{200, 95},
		{100, 90},
		{20, 50},
		{19, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tail of %d samples = p%g, want p%g", c.n, got, c.want)
		}
	}
}

// The quartiles must match Python's statistics.quantiles(values, n=4),
// which other tools apply to the same runs.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		q1, med, q3 := quartiles(c.in)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// An open loop times each request from when it was due: one stalled
// request delays the sends queued behind it, and their latency must
// carry that wait even though the requests themselves are instant.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	op := func(_ context.Context, i int) error {
		if i == 5 {
			time.Sleep(stall)
		}
		return nil
	}
	p := openLoop(context.Background(), 1, 1000, 100*time.Millisecond, op)
	if p.completed() != 100 {
		t.Fatalf("completed %d requests, want 100 (one per due time)", p.completed())
	}
	slow := func(ds []time.Duration) int {
		n := 0
		for _, d := range ds {
			if d >= stall/2 {
				n++
			}
		}
		return n
	}
	// Requests 5..~35 were due while request 5 stalled.
	if n := slow(p.lat); n < 20 {
		t.Errorf("%d requests over %v from their due time, want the stall charged to >= 20 successors", n, stall/2)
	}
	if n := slow(p.sent); n != 1 {
		t.Errorf("%d requests over %v from their send time, want only the stalled one", n, stall/2)
	}
	if late := slices.Max(p.late); late < stall/2 {
		t.Errorf("generator ran at most %v late, want the stall (%v) reported", late, stall)
	}
}

func TestClosedLoopWaitsForEachReply(t *testing.T) {
	var seen []int
	op := func(_ context.Context, i int) error {
		seen = append(seen, i)
		time.Sleep(time.Millisecond)
		return nil
	}
	p := closedLoop(context.Background(), 1, 20*time.Millisecond, op)
	if p.completed() != len(seen) || !slices.IsSorted(seen) || seen[0] != 0 {
		t.Fatalf("completed %d, indices %v: want one in-order request at a time", p.completed(), seen)
	}
}
