// Command juryd is the long-running jury-selection daemon: it keeps a
// worker registry resident, ingests graded vote events (Bayesian posterior
// updates on worker qualities), and serves the Jury Selection Problem over
// HTTP with a signature-keyed selection cache.
//
// Usage:
//
//	juryd [-addr :8700] [-alpha 0.5] [-seed 1] [-cache 4096]
//	      [-workers 0] [-prior-strength 8] [-pool pool.json]
//	      [-multi-pool mpool.json] [-labels 0]
//	      [-data-dir dir] [-snapshot-interval 1m] [-fsync]
//	      [-follow http://primary:8700] [-max-lag 0]
//	      [-quorum 0] [-quorum-timeout 0]
//	      [-max-inflight 0] [-request-timeout 0]
//	      [-debug-addr 127.0.0.1:0] [-log-level info] [-trace-buffer 0]
//	juryd -promote http://follower:8701 [-advertise http://follower:8701]
//
// The optional -pool file preloads the registry:
//
//	{"workers": [{"id": "w0", "quality": 0.8, "cost": 2}, ...]}
//
// The optional -multi-pool file preloads one multi-choice (confusion-
// matrix) pool; workers give either a full row-stochastic "confusion"
// matrix or a scalar "quality" (symmetric matrix, needs a label count
// from the file's "labels" or the -labels flag):
//
//	{"name": "colors", "labels": 3, "workers": [
//	  {"id": "m0", "quality": 0.8, "cost": 2},
//	  {"id": "m1", "confusion": [[0.9,0.05,0.05],[0.1,0.8,0.1],[0.2,0.2,0.6]], "cost": 3}]}
//
// With -data-dir the daemon is durable: every mutation is journaled to a
// write-ahead log before it is acknowledged, snapshots are taken every
// -snapshot-interval (and on graceful shutdown), and boot recovers the
// latest snapshot plus the WAL tail, truncating a torn trailing record
// left by a crash. Every mutation is staged, applied, flushed, then
// acknowledged: concurrent mutations share one write, so one flush can
// retire many requests; appenders stall while 1 MiB waits to be
// flushed. -fsync syncs each flush (survives power loss, slower);
// without it writes survive a process kill but ride the OS page cache.
// Snapshots, the fence marker (fence.json) and a follower's identity
// (follower-id) are installed whole and synced, file and directory,
// with or without -fsync. GET /debug/persistence reports recovery and
// LSN state.
//
// With -follow the daemon is a read-only replica of another durable
// juryd: on first boot it bootstraps from the primary's snapshot, then
// holds one GET /v1/repl/stream open, on which the primary ships its
// committed WAL records as they commit and the follower confirms each
// batch it applied, journaling each record to its own -data-dir
// (required) before applying, so a restarted follower resumes from its
// local log. Only records the
// primary has made durable are ever shipped — a follower never holds a
// record the primary could lose. The follower serves every read and
// selection route from its own state and answers mutations with 421
// Misdirected Request plus an X-Juryd-Primary header naming the
// primary; -pool/-multi-pool are refused (preloads would journal
// locally and diverge). -max-lag bounds acceptable staleness: /readyz
// turns 503 when the follower has been behind the primary's durable
// watermark for longer than that (0 keeps lag out of readiness).
// Replication lag and connection state land on /metrics and
// /debug/persistence. A follower that falls behind the primary's
// snapshot truncation horizon exits non-zero — wipe its data dir and
// restart to re-bootstrap; a follower whose own WAL fails stops
// replicating but keeps serving reads at its last applied state.
//
// Failover: every primary writes under a monotonically increasing epoch
// journaled in the WAL (X-Juryd-Epoch rides on every response). When a
// primary dies, promote its most-caught-up follower with `juryd -promote
// <follower-url>` (or POST /v1/repl/promote): the follower journals an
// epoch record, switches to writable primary, and best-effort fences the
// old primary — which flips to read-only (421 with the new primary's
// address) and persists the fence across restarts. If the old primary
// was unreachable during promotion the fence did not land: deliver it
// before that node serves again (POST /v1/repl/fence) or wipe and
// re-bootstrap it as a follower. Remaining followers are retargeted with
// POST /v1/repl/repoint. -quorum N makes each mutation ack wait until
// N-1 followers confirm its LSN on the stream (503 with Retry-After on
// timeout; the mutation is durable locally and a keyed retry dedups), so
// promoting the max-applied follower provably preserves every acked
// mutation. Confirmations are counted per follower data dir: a follower
// keeps its identity in <data-dir>/follower-id across restarts, and a
// wiped dir draws a new one. -quorum above 1 needs -data-dir: an
// in-memory daemon refuses to boot with it.
//
// Endpoints (all JSON):
//
//	GET  /healthz                 liveness + pool/session counts
//	GET  /metrics                 Prometheus-style counters
//	GET  /debug/persistence       durability/recovery status and LSNs
//	GET  /debug/traces            recent + slowest request traces with stage timings
//	POST /v1/workers              register workers
//	GET  /v1/workers[/{id}]       inspect the registry
//	PUT  /v1/workers/{id}         operator override of quality/cost
//	DELETE /v1/workers/{id}       deregister
//	POST /v1/votes[/batch]        ingest graded vote events
//	POST /v1/select               solve the JSP (cached)
//	POST /v1/select/batch         budget sweep, fanned out in parallel
//	POST /v1/sessions             open an online collection session
//	POST /v1/sessions/{id}/votes  feed a session one vote
//	GET  /v1/sessions/{id}        session state
//	DELETE /v1/sessions/{id}      close a session
//	POST /v1/multi/pools                  create a multi-choice pool
//	GET  /v1/multi/pools[/{pool}]         inspect the multi-choice pools
//	DELETE /v1/multi/pools/{pool}         drop a pool
//	POST /v1/multi/pools/{pool}/workers   register confusion-matrix workers
//	POST /v1/multi/pools/{pool}/votes     ingest graded multi-label votes
//	POST /v1/multi/pools/{pool}/select    solve the multi-choice JSP (cached)
//	POST /v1/multi/pools/{pool}/jq        Jury Quality of an explicit jury
//	GET  /v1/repl/stream                  a follower's replication stream (batches down, confirmations up)
//	GET  /v1/repl/snapshot                state snapshot for follower bootstrap
//	POST /v1/repl/promote                 switch this follower to writable primary (new epoch)
//	POST /v1/repl/fence                   fence this node: a newer primary exists, refuse writes
//	POST /v1/repl/repoint                 retarget this follower at a new primary
//
// See API.md at the repository root for the full route-by-route wire
// reference (request/response fields, error codes, consistency and
// durability notes).
//
// Observability: every request carries an X-Request-Id (client-supplied
// or generated) that is echoed in the response, attached to the request
// log line, and keys the stage-level trace visible at GET /debug/traces;
// per-stage latency histograms land on /metrics. -trace-buffer sizes the
// trace ring (negative disables tracing), -log-level tunes the request
// log, and -debug-addr serves net/http/pprof on a separate listener
// (bind it to loopback).
//
// Failure domains: a WAL write or fsync failure moves the daemon into
// degraded read-only mode once the refused writes are undone (if that
// fails, reads answer 503 too) — reads and selections keep serving from
// memory, mutations answer 503 with Retry-After, /readyz turns 503 (take
// it out of rotation) while /healthz stays 200 (do not kill it), and the
// juryd_degraded gauge flips to 1. -max-inflight bounds concurrent
// non-system requests (excess answers 429); -request-timeout bounds each
// request's wall time (503 on expiry). Failed periodic snapshots are
// logged, counted in juryd_snapshot_errors_total, and do not interrupt
// serving — the WAL still holds everything. A boot-time recovery failure
// exits non-zero with a one-line diagnosis naming the bad segment and
// record. The hidden -chaos-fsync-after flag injects a WAL fsync fault
// after N records (dropping the unsynced tail) for the fault-injection
// tests (TestDaemonChaosFsyncDegrades); it is not for production use.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: mutations are
// refused with 503 while in-flight requests drain, followers'
// replication streams end at once, then a final checkpoint lands
// before exit. A request still being answered after
// -drain makes the exit an error; connections that never sent a
// request are closed instead of waited on. A shutdown whose WAL close
// cannot confirm the tail reached stable storage (a dirty close — the
// log was poisoned by an earlier sync failure, or the final flush
// itself failed) is logged and exits non-zero so supervisors can tell
// it from a clean stop.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wal/errfs"
	"repro/jury/serve"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "juryd:", err)
		os.Exit(1)
	}
}

// run builds and serves the daemon until ctx is cancelled or a signal
// arrives. It prints the bound address to out once listening, so callers
// (and the daemon tests) can pass ":0" and discover the port.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("juryd", flag.ContinueOnError)
	addr := fs.String("addr", ":8700", "listen address")
	alpha := fs.Float64("alpha", 0.5, "default prior P(t=0)")
	seed := fs.Int64("seed", 1, "default annealing seed")
	cacheSize := fs.Int("cache", 0, "selection cache capacity (0 = default, negative = disabled)")
	workers := fs.Int("workers", 0, "batch fan-out width (0 = all CPUs)")
	priorStrength := fs.Float64("prior-strength", server.DefaultPriorStrength,
		"pseudo-count weight of registered qualities")
	poolFile := fs.String("pool", "", "JSON file preloading the worker registry")
	multiPoolFile := fs.String("multi-pool", "", "JSON file preloading one multi-choice pool")
	labels := fs.Int("labels", 0,
		"default label count for a -multi-pool file that omits \"labels\" (0 = take from the file)")
	drain := fs.Duration("drain", 5*time.Second, "graceful-shutdown drain timeout")
	dataDir := fs.String("data-dir", "", "WAL+snapshot directory; empty = in-memory only")
	snapshotInterval := fs.Duration("snapshot-interval", time.Minute,
		"how often to checkpoint state and truncate the WAL (0 disables periodic snapshots)")
	fsync := fs.Bool("fsync", false,
		"fsync every WAL flush (survives power loss; slower)")
	follow := fs.String("follow", "",
		"primary juryd base URL; run as a read-only follower replicating its WAL (needs -data-dir)")
	promote := fs.String("promote", "",
		"one-shot admin mode: promote the follower juryd at this base URL to primary and exit (no daemon is started)")
	advertise := fs.String("advertise", "",
		"with -promote: the base URL clients should reach the promoted node at (rides on the fence to the old primary)")
	quorum := fs.Int("quorum", 0,
		"total log copies each mutation ack vouches for: ack only after quorum-1 followers confirm the LSN (0 or 1 = local durability only; above 1 needs -data-dir)")
	quorumTimeout := fs.Duration("quorum-timeout", 0,
		"how long a mutation ack waits for the follower quorum before answering 503 (0 = 5s default)")
	maxLag := fs.Duration("max-lag", 0,
		"follower staleness bound: /readyz answers 503 after lagging the primary's durable watermark this long (0 = lag never fails readiness)")
	maxInflight := fs.Int("max-inflight", 0,
		"max concurrent non-system requests before shedding with 429 (0 = unlimited)")
	requestTimeout := fs.Duration("request-timeout", 0,
		"per-request deadline; expired requests answer 503 (0 = none)")
	chaosFsyncAfter := fs.Int("chaos-fsync-after", 0,
		"TESTING ONLY: fail every WAL fsync after N successful ones, dropping the unsynced tail")
	debugAddr := fs.String("debug-addr", "",
		"serve net/http/pprof on this address (keep it loopback-only; empty = disabled)")
	logLevel := fs.String("log-level", "info",
		"request log verbosity: debug logs every request, info logs errors only, warn logs 5xx only, off disables")
	traceBuffer := fs.Int("trace-buffer", 0,
		"request trace ring size for /debug/traces (0 = default 256, negative = tracing disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger, err := buildLogger(*logLevel, os.Stderr)
	if err != nil {
		return err
	}

	if *promote != "" {
		return runPromote(ctx, *promote, *advertise, out)
	}

	var fsys wal.FS = wal.OSFS()
	if *chaosFsyncAfter > 0 {
		fsys = errfs.New(fsys, errfs.Fault{
			Op: errfs.OpSync, Path: "wal-", After: *chaosFsyncAfter, DropUnsynced: true,
		})
	}
	primary := strings.TrimRight(*follow, "/")
	if primary != "" {
		if *dataDir == "" {
			return errors.New("-follow needs -data-dir: a follower journals the shipped log locally")
		}
		if *poolFile != "" || *multiPoolFile != "" {
			return errors.New("-follow excludes -pool/-multi-pool: preloads would journal locally and diverge from the primary; load pools on the primary instead")
		}
		has, err := wal.HasState(fsys, *dataDir)
		if err != nil {
			return err
		}
		if !has {
			lsn, err := repl.Bootstrap(ctx, fsys, primary, *dataDir)
			if err != nil {
				return fmt.Errorf("bootstrap from %s: %w", primary, err)
			}
			fmt.Fprintf(out, "juryd: bootstrapped follower state from %s (snapshot lsn %d)\n", primary, lsn)
		}
	}

	srv, err := server.Open(server.Config{
		Alpha:          *alpha,
		Seed:           *seed,
		Workers:        *workers,
		CacheSize:      *cacheSize,
		PriorStrength:  *priorStrength,
		DataDir:        *dataDir,
		Fsync:          *fsync,
		MaxInFlight:    *maxInflight,
		RequestTimeout: *requestTimeout,
		MaxLag:         *maxLag,
		Quorum:         *quorum,
		QuorumTimeout:  *quorumTimeout,
		TraceBuffer:    *traceBuffer,
		Logger:         logger,
		FS:             fsys,
	})
	if err != nil {
		if *dataDir != "" {
			// One line that names the failing segment/record, so the operator
			// knows which file to inspect before the supervisor retries.
			return fmt.Errorf("boot recovery from %s failed: %w", *dataDir, err)
		}
		return err
	}
	if *dataDir != "" {
		st := srv.PersistenceStatus()
		fmt.Fprintf(out, "juryd: recovered %d workers, %d sessions, %d multi pools from %s (snapshot lsn %d, %d records replayed, %d torn bytes truncated)\n",
			st.Recovery.WorkersRestored, st.Recovery.SessionsRestored,
			st.Recovery.MultiPoolsRestored, *dataDir,
			st.Recovery.SnapshotLSN, st.Recovery.RecordsReplayed, st.Recovery.TornBytesTruncated)
	}
	// Follower mode flips on before the listener opens, so no mutation can
	// ever slip into the local journal outside the replication stream.
	var follower *repl.Follower
	if primary != "" {
		srv.SetFollower(primary)
		follower, err = repl.NewFollower(srv, repl.Options{
			Logf: func(format string, args ...any) { logger.Warn(fmt.Sprintf(format, args...)) },
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "juryd: following %s (read-only replica)\n", primary)
	}
	// Preloads tolerate already-registered state on a durable restart: a
	// supervisor restarting the daemon with a fixed argv must not crash-
	// loop because the journaled first preload was recovered from the WAL.
	if *poolFile != "" {
		specs, err := loadPool(*poolFile)
		if err != nil {
			return err
		}
		switch err := srv.Preload(specs); {
		case err == nil:
			fmt.Fprintf(out, "juryd: preloaded %d workers from %s\n", len(specs), *poolFile)
		case *dataDir != "" && errors.Is(err, server.ErrWorkerExists):
			fmt.Fprintf(out, "juryd: pool file %s already registered (recovered state); skipping preload\n", *poolFile)
			// Registration is atomic, so a skip can also hide a file that
			// was edited between restarts: surface any ids the recovered
			// registry lacks instead of silently dropping them.
			if missing := missingPreloadWorkers(srv, specs); len(missing) > 0 {
				fmt.Fprintf(out, "juryd: warning: %s has %d workers absent from the recovered registry (%s); register them via POST /v1/workers\n",
					*poolFile, len(missing), strings.Join(missing, ", "))
			}
		default:
			return err
		}
	}
	if *multiPoolFile != "" {
		req, err := loadMultiPool(*multiPoolFile, *labels)
		if err != nil {
			return err
		}
		switch err := srv.PreloadMulti(req); {
		case err == nil:
			fmt.Fprintf(out, "juryd: preloaded multi-choice pool %q (%d labels, %d workers) from %s\n",
				req.Name, req.Labels, len(req.Workers), *multiPoolFile)
		case *dataDir != "" && errors.Is(err, server.ErrPoolExists):
			fmt.Fprintf(out, "juryd: multi-choice pool %q already exists (recovered state); skipping preload\n", req.Name)
			if missing := missingMultiPreloadWorkers(srv, req); len(missing) > 0 {
				fmt.Fprintf(out, "juryd: warning: %s has %d workers absent from recovered pool %q (%s); register them via POST /v1/multi/pools/%s/workers\n",
					*multiPoolFile, len(missing), req.Name, strings.Join(missing, ", "), req.Name)
			}
		default:
			return err
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// serving counts requests inside a handler, so a drain that runs out
	// of time can tell a request still being answered from a connection
	// that never sent one.
	var serving atomic.Int64
	handler := srv.Handler()
	httpSrv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serving.Add(1)
		defer serving.Add(-1)
		handler.ServeHTTP(w, r)
	})}
	fmt.Fprintf(out, "juryd: listening on %s\n", ln.Addr())

	// Profiling lives on its own listener so a held-open CPU profile or
	// execution trace can never occupy a public-API connection, and so
	// the operator can bind it loopback-only.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		debugSrv = &http.Server{Handler: server.DebugHandler()}
		fmt.Fprintf(out, "juryd: pprof on %s\n", dln.Addr())
		go func() {
			if err := debugSrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Warn("debug server", "error", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	// The replication stream runs until shutdown (nil), a terminal
	// condition (handled in the wait loop below), or a degraded local WAL.
	replErr := make(chan error, 1)
	if follower != nil {
		go func() { replErr <- follower.Run(ctx) }()
	}

	// Periodic checkpoint: snapshot the state and truncate the WAL
	// behind it, bounding both recovery time and disk usage.
	snapDone := make(chan struct{})
	if *dataDir != "" && *snapshotInterval > 0 {
		go func() {
			defer close(snapDone)
			ticker := time.NewTicker(*snapshotInterval)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					if err := srv.SnapshotNow(); err != nil {
						fmt.Fprintln(out, "juryd: snapshot:", err)
					}
				}
			}
		}()
	} else {
		close(snapDone)
	}

	for running := true; running; {
		select {
		case err := <-serveErr:
			return err
		case err := <-replErr:
			switch {
			case err == nil:
				running = false // ctx canceled: graceful shutdown below
			case errors.Is(err, repl.ErrPromoted):
				// This node was promoted to primary (POST /v1/repl/promote or
				// juryd -promote): replication stopped because it now writes
				// its own log. Keep serving — as the primary.
				fmt.Fprintln(out, "juryd: promoted to primary; replication stopped")
				replErr = nil
			case errors.Is(err, repl.ErrSnapshotNeeded), errors.Is(err, repl.ErrDiverged):
				// The local log can never catch up (or must not): staying up
				// would serve state that silently stops converging.
				return fmt.Errorf("replication: %w (wipe %s and restart to re-bootstrap)", err, *dataDir)
			default:
				// Degraded local WAL: the stream is stopped for good, but the
				// replica still serves reads at its last applied state. Stay
				// up — /readyz, /metrics, and /debug/persistence advertise it.
				logger.Error("replication stopped", "error", err)
				fmt.Fprintln(out, "juryd: replication stopped:", err)
				replErr = nil // nothing more will arrive; stop selecting on it
			}
		case <-ctx.Done():
			running = false
		}
	}
	// Refuse new mutations up front (503 + Retry-After) while in-flight
	// requests drain; reads keep answering until Shutdown closes their
	// connections. Drain is active before the banner, so anyone watching
	// the log can rely on it.
	srv.BeginDrain()
	fmt.Fprintln(out, "juryd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if debugSrv != nil {
		debugSrv.Shutdown(shutdownCtx)
	}
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		// Shutdown also waits out connections that never sent a request
		// (http.StateNew), and http.Transport leaves such spare dials
		// behind. Close drops them; only a request still being answered
		// makes the missed drain deadline an error.
		httpSrv.Close()
		if serving.Load() > 0 {
			return fmt.Errorf("shutdown: %w", err)
		}
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-snapDone
	if *dataDir != "" {
		if degraded, cause := srv.DegradedState(); degraded {
			// The journal is poisoned; acked state is already on disk and a
			// snapshot would add nothing recovery cannot rebuild. A dirty
			// close still has to exit non-zero: it means the tail of the log
			// never reached stable storage, and the supervisor must know this
			// shutdown was not clean.
			fmt.Fprintf(out, "juryd: degraded at shutdown (%v); skipping final snapshot\n", cause)
			if err := srv.ClosePersistence(); err != nil {
				return fmt.Errorf("dirty close: %w", err)
			}
			return nil
		}
		// A final checkpoint makes the next boot replay an empty tail.
		if err := srv.SnapshotNow(); err != nil {
			fmt.Fprintln(out, "juryd: final snapshot:", err)
		}
		if err := srv.ClosePersistence(); err != nil {
			return fmt.Errorf("close wal: %w", err)
		}
	}
	return nil
}

// runPromote is the -promote one-shot: ask the follower at base to
// promote itself (POST /v1/repl/promote, one attempt) and report the
// outcome.
func runPromote(ctx context.Context, base, advertise string, out io.Writer) error {
	base = strings.TrimRight(base, "/")
	c := serve.NewClient(base).
		WithHTTPClient(&http.Client{Timeout: 30 * time.Second}).
		WithRetry(serve.RetryPolicy{MaxAttempts: 1})
	res, err := c.Promote(ctx, serve.PromoteRequest{Advertise: advertise})
	if err != nil {
		return fmt.Errorf("promote %s: %w", base, err)
	}
	switch {
	case res.AlreadyPrimary:
		fmt.Fprintf(out, "juryd: %s is already primary (epoch %d, applied lsn %d)\n", base, res.Epoch, res.AppliedLSN)
	case res.OldPrimary != "" && !res.OldPrimaryFenced:
		fmt.Fprintf(out, "juryd: promoted %s to primary (epoch %d, lsn %d); WARNING: old primary %s unreachable — fence it before it serves again (POST /v1/repl/fence) or wipe and re-bootstrap it\n",
			base, res.Epoch, res.AppliedLSN, res.OldPrimary)
	default:
		fmt.Fprintf(out, "juryd: promoted %s to primary (epoch %d, lsn %d); old primary %s fenced\n",
			base, res.Epoch, res.AppliedLSN, res.OldPrimary)
	}
	return nil
}

// buildLogger maps -log-level onto the server's request-log levels:
// request lines are emitted at Debug (2xx/3xx), Info (4xx), and Warn
// (5xx), so "info" surfaces only client and server errors while
// "debug" logs every request.
func buildLogger(level string, w io.Writer) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "off":
		return slog.New(slog.DiscardHandler), nil
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or off)", level)
	}
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: lv})), nil
}

// loadPool reads a RegisterRequest-shaped JSON file.
func loadPool(path string) ([]server.WorkerSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var req server.RegisterRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, fmt.Errorf("pool file %s: %w", path, err)
	}
	if len(req.Workers) == 0 {
		return nil, fmt.Errorf("pool file %s: no workers", path)
	}
	return req.Workers, nil
}

// missingPreloadWorkers lists the pool-file worker ids the recovered
// registry does not hold — evidence the file changed between restarts.
func missingPreloadWorkers(srv *server.Server, specs []server.WorkerSpec) []string {
	var missing []string
	for _, spec := range specs {
		if _, err := srv.Registry().Get(spec.ID); err != nil {
			missing = append(missing, spec.ID)
		}
	}
	return missing
}

// missingMultiPreloadWorkers lists the multi-pool-file worker ids the
// recovered pool does not hold.
func missingMultiPreloadWorkers(srv *server.Server, req server.MultiCreateRequest) []string {
	info, err := srv.MultiRegistry().Get(req.Name)
	if err != nil {
		return nil // pool vanished between the conflict and this check
	}
	have := make(map[string]bool, len(info.Workers))
	for _, w := range info.Workers {
		have[w.ID] = true
	}
	var missing []string
	for _, spec := range req.Workers {
		if !have[spec.ID] {
			missing = append(missing, spec.ID)
		}
	}
	return missing
}

// loadMultiPool reads a MultiCreateRequest-shaped JSON file. A file
// without a "labels" field takes the -labels flag value; the server
// rejects the request if neither resolves a label count.
func loadMultiPool(path string, defaultLabels int) (server.MultiCreateRequest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return server.MultiCreateRequest{}, err
	}
	var req server.MultiCreateRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return server.MultiCreateRequest{}, fmt.Errorf("multi-pool file %s: %w", path, err)
	}
	if req.Name == "" {
		return server.MultiCreateRequest{}, fmt.Errorf("multi-pool file %s: no pool name", path)
	}
	if req.Labels == 0 {
		req.Labels = defaultLabels
	}
	return req, nil
}
