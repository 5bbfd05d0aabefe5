package main

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opFunc performs request i of a load phase. A non-nil error counts the
// operation as failed.
type opFunc func(ctx context.Context, i int) error

// recorder collects one client goroutine's samples; each goroutine owns
// its own, so recording takes no lock.
type recorder struct {
	lat    []time.Duration // per successful operation, from due time (open loop) or send time
	sent   []time.Duration // per successful operation, from send time
	late   []time.Duration // per operation, how late the open-loop generator sent it
	failed int
}

// phase is the merged outcome of one load phase.
type phase struct {
	lat     []time.Duration // sorted
	sent    []time.Duration
	late    []time.Duration // sorted; empty for a closed loop
	failed  int
	elapsed time.Duration // first send to last completion
}

func (p phase) completed() int { return len(p.lat) }

func merge(recs []*recorder, elapsed time.Duration) phase {
	p := phase{elapsed: elapsed}
	for _, r := range recs {
		p.lat = append(p.lat, r.lat...)
		p.sent = append(p.sent, r.sent...)
		p.late = append(p.late, r.late...)
		p.failed += r.failed
	}
	slices.Sort(p.lat)
	slices.Sort(p.late)
	return p
}

// closedLoop runs op from n goroutines for d: each sends its next request
// only when the previous one returned. Request indices are handed out in
// order from a shared counter.
func closedLoop(ctx context.Context, n int, d time.Duration, op opFunc) phase {
	var next atomic.Int64
	recs := make([]*recorder, n)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range recs {
		rec := &recorder{}
		recs[c] = rec
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				if err := op(ctx, i); err != nil {
					rec.failed++
					continue
				}
				lat := time.Since(t0)
				rec.lat = append(rec.lat, lat)
				rec.sent = append(rec.sent, lat)
			}
		}()
	}
	wg.Wait()
	return merge(recs, time.Since(start))
}

// openLoop sends request i at its due time start + i/rate for d, from n
// goroutines, regardless of how earlier requests fared. Latency runs from
// the due time, so a stalled request also charges the requests queued
// behind it; late records how far behind schedule each was sent.
func openLoop(ctx context.Context, n int, rate float64, d time.Duration, op opFunc) phase {
	var next atomic.Int64
	interval := time.Duration(float64(time.Second) / rate)
	recs := make([]*recorder, n)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range recs {
		rec := &recorder{}
		recs[c] = rec
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				offset := time.Duration(i) * interval
				if offset >= d {
					return
				}
				due := start.Add(offset)
				sleepUntil(due)
				sent := time.Now()
				rec.late = append(rec.late, sent.Sub(due))
				if err := op(ctx, i); err != nil {
					rec.failed++
					continue
				}
				done := time.Now()
				rec.lat = append(rec.lat, done.Sub(due))
				rec.sent = append(rec.sent, done.Sub(sent))
			}
		}()
	}
	wg.Wait()
	return merge(recs, time.Since(start))
}

// sleepUntil blocks the calling thread in nanosleep(2) until t. The
// runtime's timers can wake a goroutine a millisecond late where the
// network poller waits in whole milliseconds (0.5 ms late at the median
// on the machine the benchmark was sized on), which would add that much
// to every open-loop latency; the kernel's timer is about 0.1 ms late.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
