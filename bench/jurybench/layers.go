package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
	"repro/jury/serve"
)

// promSample maps each series of a Prometheus text exposition
// (`name{labels}`) to its value.
type promSample map[string]float64

func parseProm(text string) (promSample, error) {
	out := make(promSample)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("bad exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad exposition line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

func scrape(ctx context.Context, c *serve.Client) (promSample, error) {
	text, err := c.Metrics(ctx)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return parseProm(text)
}

// delta is the growth of one series between two scrapes.
func delta(before, after promSample, series string) float64 {
	return after[series] - before[series]
}

func stageSeries(stage string) string {
	return fmt.Sprintf("juryd_stage_duration_seconds_sum{stage=%q}", stage)
}

func routeSeries(route string) string {
	return fmt.Sprintf("juryd_request_duration_seconds_sum{route=%q}", route)
}

// requestStages are the daemon's trace stages that run inside a client
// request; repl_read runs inside the follower's stream poll instead. The
// WAL's flush and fsync stages exist only under -fsync, which no workload
// sets.
var requestStages = []string{
	"admission", "idempotency", "cache_lookup", "evaluate", "wal_encode", "wal_append", "apply", "encode",
}

// monitor samples gauges the scrape deltas cannot give — the primary's
// goroutine count and a follower's replication lag — while a traced
// window runs.
type monitor struct {
	stop chan struct{}
	done chan struct{} // closed when the sampling goroutine has returned
	// Written by the sampling goroutine only; read after done closes.
	goroutinesMax, lagMax float64
	err                   error
}

// monitorInterval samples the follower several times a second without
// competing with the writes it watches for the cores.
const monitorInterval = 100 * time.Millisecond

func startMonitor(ctx context.Context, primary, follower *serve.Client) *monitor {
	m := &monitor{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		t := time.NewTicker(monitorInterval)
		defer t.Stop()
		for n := 0; ; n++ {
			// The goroutine count moves slowly; scraping the primary's full
			// exposition every tick would perturb the window it observes.
			if n%5 == 0 {
				m.sample(ctx, primary, "juryd_goroutines", &m.goroutinesMax)
			}
			if follower != nil {
				m.sample(ctx, follower, "juryd_repl_lag_records", &m.lagMax)
			}
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

func (m *monitor) sample(ctx context.Context, c *serve.Client, series string, highest *float64) {
	s, err := scrape(ctx, c)
	if err != nil {
		m.err = err
		return
	}
	*highest = max(*highest, s[series])
}

// finish stops the sampling and returns what it saw.
func (m *monitor) finish() (goroutinesMax, lagMax float64, err error) {
	close(m.stop)
	<-m.done
	return m.goroutinesMax, m.lagMax, m.err
}

// tracedWindow measures one traced load window and derives the daemon's
// per-layer cost from /metrics deltas; times are per operation.
func (r *trial) tracedWindow(ctx context.Context, d time.Duration, out metrics, sp *spanLog, parent int) (phase, error) {
	var fctl *serve.Client
	if r.cl.follower != nil {
		fctl, _ = newClient(r.cl.follower.url, 1)
	}
	before, err := scrape(ctx, r.ctrl)
	if err != nil {
		return phase{}, err
	}
	mon := startMonitor(ctx, r.ctrl, fctl)
	winSpan := sp.begin("window", parent)
	winStart := time.Now()
	p := r.load(ctx, streamMeasured, d)
	sp.end(winSpan)
	goroutinesMax, lagMax, monErr := mon.finish()
	if monErr != nil {
		return phase{}, monErr
	}
	after, err := scrape(ctx, r.ctrl)
	if err != nil {
		return phase{}, err
	}
	ops := float64(p.completed())
	if ops == 0 {
		return p, fmt.Errorf("traced window completed no operations")
	}
	perOp := func(sum float64) float64 { return sum * 1e6 / ops } // seconds → µs per op

	var handler float64
	for _, route := range r.w.routes {
		handler += delta(before, after, routeSeries(route))
	}
	var stages float64
	for _, st := range requestStages {
		stages += delta(before, after, stageSeries(st))
	}
	var clientSent time.Duration
	for _, s := range p.sent {
		clientSent += s
	}
	out.set("server.handler_us", perOp(handler), "us")
	out.set("server.stages_us", perOp(stages), "us")
	out.set("server.unattributed_us", perOp(handler-stages), "us")
	out.set("server.encode_us", perOp(delta(before, after, stageSeries("encode"))), "us")
	out.set("client.overhead_us", float64(clientSent)/1e3/ops-perOp(handler), "us")
	out.set("runtime.gc_pause_ms_per_s",
		delta(before, after, "juryd_gc_pause_seconds_total")*1e3/time.Since(winStart).Seconds(), "ms/s")
	out.set("runtime.goroutines_max", max(goroutinesMax, after["juryd_goroutines"]), "count")

	// Layer metrics that exist only where the workload uses the layer.
	if r.w.selects() {
		hits := delta(before, after, "juryd_cache_hits_total")
		misses := delta(before, after, "juryd_cache_misses_total")
		out.set("server.cache_lookup_us", perOp(delta(before, after, stageSeries("cache_lookup"))), "us")
		out.set("server.cache_hit_ratio", hits/(hits+misses), "ratio")
		out.set("selection.evaluate_us", perOp(delta(before, after, stageSeries("evaluate"))), "us")
		out.set("selection.computed_per_select", delta(before, after, "juryd_selections_computed_total")/ops, "ratio")
	}
	// An operation sends at most one ingest request, so per operation is
	// also per acked write.
	if r.w.ingests() {
		out.set("server.idempotency_us", perOp(delta(before, after, stageSeries("idempotency"))), "us")
		out.set("server.apply_us", perOp(delta(before, after, stageSeries("apply"))), "us")
		out.set("wal.encode_us", perOp(delta(before, after, stageSeries("wal_encode"))), "us")
		out.set("wal.append_us", perOp(delta(before, after, stageSeries("wal_append"))), "us")
		bytes, err := dirBytes(filepath.Join(r.cl.dir, "primary"))
		if err != nil {
			return p, err
		}
		out.set("wal.bytes_per_vote", float64(bytes)/float64(r.acked.Load()), "B")
	}
	if r.w.quorum {
		out.set("repl.read_us", perOp(delta(before, after, stageSeries("repl_read"))), "us")
		out.set("repl.polls_per_write", delta(before, after, fmt.Sprintf("juryd_requests_total{route=%q}", routeReplStream))/ops, "ratio")
		out.set("repl.lag_records_max", lagMax, "count")
	}
	return p, r.joinTraces(ctx, sp, winSpan)
}

// joinedTraces is how many of the window's last requests get their
// client span joined to the daemon's stage spans in the layers block.
const joinedTraces = 16

// joinTraces fetches the daemon's most recent request traces and records
// each next to the client span of the request that caused it: client
// request → server handler → stages.
func (r *trial) joinTraces(ctx context.Context, sp *spanLog, parent int) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/debug/traces?n=%d", r.cl.primary.url, 4*joinedTraces), nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("fetch traces: %w", err)
	}
	defer resp.Body.Close()
	var dump server.DebugTracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		return fmt.Errorf("decode traces: %w", err)
	}
	joined := 0
	for _, t := range dump.Recent {
		i, err := strconv.Atoi(strings.TrimPrefix(t.ID, "jb-"))
		cs, ok := r.spans[i]
		if err != nil || !ok || joined == joinedTraces {
			continue
		}
		joined++
		c := sp.add("client "+strconv.Itoa(i), parent, cs.start, cs.end)
		start := t.Start
		s := sp.add("server "+t.Route, c, start, start.Add(secs(t.DurationSeconds)))
		for _, st := range t.Spans {
			at := start.Add(secs(st.OffsetSeconds))
			sp.add(st.Stage, s, at, at.Add(secs(st.DurationSeconds)))
		}
	}
	return nil
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
