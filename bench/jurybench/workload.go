package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jq"
	"repro/internal/worker"
	"repro/jury/serve"
)

// workload is one fixed traffic mix against fresh juryd processes.
type workload struct {
	name string
	why  string
	// pool is the number of registered workers.
	pool int
	// durable runs juryd with a -data-dir, so every mutation is journaled
	// to the WAL before it is acknowledged. No workload sets -fsync: see
	// bench/README.md.
	durable bool
	// quorum adds one follower with its own -data-dir and runs the
	// primary with -quorum 2.
	quorum bool
	// rate is the open-loop request rate; 0 means a closed loop.
	rate float64
	// clients is the number of request goroutines, each with its own
	// connection: the closed loop's concurrency, or the open loop's
	// senders.
	clients int
	// op builds the request function for one load phase.
	op func(r *trial, stream int) opFunc
	// routes lists the HTTP routes one operation calls, once each.
	routes []string
}

// selects reports whether an operation asks for a selection.
func (w *workload) selects() bool { return slices.Contains(w.routes, routeSelect) }

// ingests reports whether an operation sends an ingest request.
func (w *workload) ingests() bool { return slices.Contains(w.routes, routeVote) }

const (
	routeSelect     = "POST /v1/select"
	routeVote       = "POST /v1/votes"
	routeReplStream = "GET /v1/repl/stream"
	jqMeanRequests  = 256 // select_jq_mean averages measured requests 0..255
	jqCheckRequests = 32  // responses 0..31 get their JQ recomputed in process
)

// workloads is the benchmark, in run order. Each stresses a different
// layer; see bench/README.md for the layer → metric map.
//
// The closed loops run one client. On the shared 2-vCPU machine the
// benchmark was sized on, two clients roughly doubled the run-to-run
// spread of both closed loops: they keep both cores busy, so every other
// tenant's load on either core shows.
var workloads = []*workload{
	{
		name:    "select-uncached-N128",
		why:     "every select carries a fresh seed and misses the cache, so annealing over the JQ estimator (selection, jq) does almost all the work",
		pool:    128,
		clients: 1,
		op:      (*trial).uncachedSelect,
		routes:  []string{routeSelect},
	},
	{
		name:    "ingest-wal",
		why:     "open-loop single-vote ingest at 500/s into one journaling node, so the server apply path and the WAL append dominate; selection is unused",
		pool:    128,
		durable: true,
		rate:    500,
		clients: 2,
		op:      (*trial).ingest,
		routes:  []string{routeVote},
	},
	{
		name:    "ingest-quorum2",
		why:     "closed-loop ingest acked only after a follower confirms, so replication shipping and the quorum wait dominate",
		pool:    128,
		durable: true,
		quorum:  true,
		clients: 1,
		op:      (*trial).ingest,
		routes:  []string{routeVote},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// trial is one workload against one cluster of fresh juryd processes.
type trial struct {
	w      *workload
	g      gen
	bin    string
	tmp    string // parent of the cluster's data directories
	traced bool

	pool []serve.WorkerSpec
	ids  map[string]bool

	cl   *cluster
	cli  *serve.Client   // load client: one connection per client goroutine
	tr   *http.Transport // cli's transport
	ctrl *serve.Client   // set-up, scrapes and checks, outside the load's connections

	checks checkLog
	// acked counts vote events acknowledged over the cluster's life;
	// unsure counts events of failed ingests, which may have applied.
	acked, unsure atomic.Int64

	mu      sync.Mutex
	jqs     map[int]float64              // measured request index → JQ, for select_jq_mean
	sampled map[int]serve.SelectResponse // measured responses kept for the JQ recompute
	spans   map[int]reqSpan              // traced window: request index → client timing
}

// reqSpan is one traced request's client-side timing.
type reqSpan struct{ start, end time.Time }

// checkLog collects output-check failures; any entry makes a run incorrect.
type checkLog struct {
	mu   sync.Mutex
	errs []string
}

func (c *checkLog) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.errs) < 20 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

func (c *checkLog) failures() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.errs)
}

func newTrial(w *workload, g gen, bin, tmp string, traced bool) *trial {
	r := &trial{
		w: w, g: g, bin: bin, tmp: tmp, traced: traced,
		pool:    g.pool(w.pool),
		ids:     make(map[string]bool, w.pool),
		jqs:     make(map[int]float64),
		sampled: make(map[int]serve.SelectResponse),
		spans:   make(map[int]reqSpan),
	}
	for _, s := range r.pool {
		r.ids[s.ID] = true
	}
	return r
}

// cluster is the juryd process set of one run.
type cluster struct {
	primary, follower *daemon
	dir               string
}

func (cl *cluster) daemons() []*daemon {
	if cl.follower != nil {
		return []*daemon{cl.primary, cl.follower}
	}
	return []*daemon{cl.primary}
}

// stop shuts the follower down before the primary, so the primary's
// graceful shutdown does not wait on the follower's long poll, then
// removes the data directories.
func (cl *cluster) stop() error {
	var errs []error
	if cl.follower != nil {
		errs = append(errs, cl.follower.stop())
	}
	if cl.primary != nil {
		errs = append(errs, cl.primary.stop())
	}
	if cl.dir != "" {
		errs = append(errs, os.RemoveAll(cl.dir))
	}
	return errors.Join(errs...)
}

func (cl *cluster) cpuTime() (time.Duration, error) {
	var total time.Duration
	for _, d := range cl.daemons() {
		t, err := d.cpuTime()
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}

func (cl *cluster) peakRSS() (int64, error) {
	var total int64
	for _, d := range cl.daemons() {
		b, err := d.peakRSS()
		if err != nil {
			return 0, err
		}
		total += b
	}
	return total, nil
}

func newClient(base string, conns int) (*serve.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	c := serve.NewClient(base).
		WithHTTPClient(&http.Client{Transport: tr, Timeout: 30 * time.Second}).
		WithRetry(serve.RetryPolicy{MaxAttempts: 1})
	return c, tr
}

// setUp starts the cluster and brings it to the workload's initial state:
// the pool registered and a follower caught up.
func (r *trial) setUp(ctx context.Context) error {
	traceBuffer := "-1"
	if r.traced {
		traceBuffer = "0"
	}
	base := []string{"-addr", "127.0.0.1:0", "-log-level", "off", "-trace-buffer", traceBuffer}
	cl := &cluster{}
	r.cl = cl
	args := base
	if r.w.durable {
		dir, err := os.MkdirTemp(r.tmp, r.w.name+"-")
		if err != nil {
			return err
		}
		cl.dir = dir
		args = append(slices.Clone(base), "-data-dir", filepath.Join(dir, "primary"))
		if r.w.quorum {
			args = append(args, "-quorum", "2")
		}
	}
	var err error
	if cl.primary, err = startDaemon(r.bin, args...); err != nil {
		return err
	}
	if r.w.quorum {
		fargs := append(slices.Clone(base), "-data-dir", filepath.Join(cl.dir, "follower"), "-follow", cl.primary.url)
		if cl.follower, err = startDaemon(r.bin, fargs...); err != nil {
			return err
		}
	}
	r.cli, r.tr = newClient(cl.primary.url, r.w.clients)
	r.ctrl, _ = newClient(cl.primary.url, 1)
	if err := r.ctrl.RegisterWorkers(ctx, r.pool); err != nil {
		return fmt.Errorf("register pool: %w", err)
	}
	if r.w.quorum {
		_, _, err := r.awaitFollower(ctx)
		return err
	}
	return nil
}

// tearDown stops the cluster and releases the load connections.
func (r *trial) tearDown() error {
	if r.tr != nil {
		r.tr.CloseIdleConnections()
	}
	if r.cl == nil {
		return nil
	}
	return r.cl.stop()
}

// awaitFollower waits until the follower has applied everything the
// primary has journaled, and returns both nodes' status at that point.
func (r *trial) awaitFollower(ctx context.Context) (primary, follower serve.PersistenceStatus, err error) {
	fctl, _ := newClient(r.cl.follower.url, 1)
	deadline := time.Now().Add(15 * time.Second)
	for {
		p, err1 := r.ctrl.Persistence(ctx)
		f, err2 := fctl.Persistence(ctx)
		if err := errors.Join(err1, err2); err != nil {
			return p, f, err
		}
		if f.NextLSN == p.NextLSN {
			return p, f, nil
		}
		if time.Now().After(deadline) {
			return p, f, fmt.Errorf("follower at next_lsn %d, primary at %d after 15s", f.NextLSN, p.NextLSN)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// do sends the request of operation i. In the measured window of a traced
// trial it tags it with an X-Request-Id, which joins the daemon's trace of
// it to the operation, and keeps the operation's client span.
func (r *trial) do(ctx context.Context, stream, i int, request func(context.Context) error) error {
	if !r.traced || stream != streamMeasured {
		return request(ctx)
	}
	start := time.Now()
	err := request(serve.WithRequestID(ctx, "jb-"+strconv.Itoa(i)))
	end := time.Now()
	r.mu.Lock()
	r.spans[i] = reqSpan{start, end}
	r.mu.Unlock()
	return err
}

// checkSelect applies the per-response output checks: the jury fits the
// budget, its members are pool workers, its cost is what the members add
// up to, and its JQ is a probability no worse than a coin flip.
func (r *trial) checkSelect(res serve.SelectResponse, budget float64) {
	var cost float64
	for _, m := range res.Jury {
		if !r.ids[m.ID] {
			r.checks.failf("select(budget %g) returned non-pool worker %q", budget, m.ID)
		}
		cost += m.Cost
	}
	if res.Cost > budget+1e-9 || math.Abs(cost-res.Cost) > 1e-9 {
		r.checks.failf("select(budget %g) returned cost %g (members sum to %g)", budget, res.Cost, cost)
	}
	if !(res.JQ >= 0.5 && res.JQ <= 1) {
		r.checks.failf("select(budget %g) returned JQ %g outside [0.5, 1]", budget, res.JQ)
	}
}

func (r *trial) uncachedSelect(stream int) opFunc {
	return func(ctx context.Context, i int) error {
		seed, budget := r.g.selectSeed(stream, i), r.g.budget(i)
		var res serve.SelectResponse
		err := r.do(ctx, stream, i, func(ctx context.Context) (err error) {
			res, err = r.cli.Select(ctx, serve.SelectRequest{Budget: budget, Seed: &seed})
			return err
		})
		if err != nil {
			return err
		}
		r.checkSelect(res, budget)
		if stream == streamMeasured && i < jqMeanRequests {
			r.mu.Lock()
			r.jqs[i] = res.JQ
			if i < jqCheckRequests {
				r.sampled[i] = res
			}
			r.mu.Unlock()
		}
		return nil
	}
}

func (r *trial) ingest(stream int) opFunc {
	return func(ctx context.Context, i int) error {
		ev := r.g.vote(r.pool, stream, i)
		key := r.g.key(stream, i)
		var res serve.IngestResponse
		err := r.do(ctx, stream, i, func(ctx context.Context) (err error) {
			res, err = r.cli.IngestVoteKeyed(ctx, ev, key)
			return err
		})
		if err != nil {
			r.unsure.Add(1)
			return err
		}
		if res.Duplicate || res.Ingested != 1 {
			r.checks.failf("ingest %s: ingested %d of 1 (duplicate %v)", key, res.Ingested, res.Duplicate)
		}
		r.acked.Add(int64(res.Ingested))
		return nil
	}
}

// jqEqual reports whether two JQs are the same float64, bit for bit.
func jqEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// finalChecks runs the checks that need the whole run: recomputed JQs, no
// lost acknowledged vote, and follower convergence.
func (r *trial) finalChecks(ctx context.Context) {
	for _, res := range r.sampled {
		jury := make(worker.Pool, len(res.Jury))
		for i, m := range res.Jury {
			jury[i] = worker.Worker{ID: m.ID, Quality: m.Quality, Cost: m.Cost}
		}
		est, err := jq.Estimate(jury, res.Alpha, jq.Options{})
		if err != nil || !jqEqual(est.JQ, res.JQ) {
			r.checks.failf("JQ of jury %v recomputed as %v (err %v), response said %v", res.Jury, est.JQ, err, res.JQ)
		}
	}
	if r.w.ingests() {
		list, err := r.ctrl.Workers(ctx)
		if err != nil {
			r.checks.failf("list workers: %v", err)
			return
		}
		var votes int64
		for _, w := range list.Workers {
			votes += int64(w.Votes)
		}
		acked, unsure := r.acked.Load(), r.unsure.Load()
		if votes < acked || votes > acked+unsure {
			r.checks.failf("registry holds %d votes, %d were acknowledged (%d more unsure)", votes, acked, unsure)
		}
	}
	if r.w.quorum {
		p, f, err := r.awaitFollower(ctx)
		if err != nil {
			r.checks.failf("follower convergence: %v", err)
		} else if p.StateSHA256 != f.StateSHA256 {
			r.checks.failf("follower at lsn %d has state %s, the primary %s", f.NextLSN, f.StateSHA256, p.StateSHA256)
		}
	}
}

// load runs one load phase of the workload.
func (r *trial) load(ctx context.Context, stream int, d time.Duration) phase {
	op := r.w.op(r, stream)
	if r.w.rate > 0 {
		return openLoop(ctx, r.w.clients, r.w.rate, d, op)
	}
	return closedLoop(ctx, r.w.clients, d, op)
}
