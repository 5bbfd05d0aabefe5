// Package server is the serving subsystem behind the juryd daemon: a
// long-running jury-selection service over the paper's machinery. It keeps
// a concurrency-safe worker registry resident, ingests graded vote events
// online (each one a Bayesian posterior step on the voting worker's
// quality, in the spirit of the paper's Section 8 / CDAS sequential
// processing), and serves the Jury Selection Problem over HTTP with a
// selection cache that amortizes search cost across requests.
//
// Consistency model: cached selections are keyed by a signature that
// names the candidate pool's exact state — the registry's persisted
// mutation count, read under the same lock as the pool, plus a digest
// of the member ids for a subset. Every mutation changes the key, so a
// cached jury can never be served stale: any quality drift forces a
// recompute, and superseded entries age out of the LRU. See the package
// documentation of repro (doc.go) for the full serving notes.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/conc"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/selection"
	"repro/internal/voting"
	"repro/internal/wal"
)

// Config configures a Server.
type Config struct {
	// Alpha is the default prior P(t=0) for selections and sessions that
	// do not specify one. The zero value selects the uniform prior 0.5
	// (a certain-"no" server-wide default would be a silent foot-gun;
	// requests that genuinely want a degenerate prior pass it
	// explicitly per request).
	Alpha float64
	// Seed drives the annealing search path of selections that do not
	// carry their own seed.
	Seed int64
	// Workers bounds the fan-out of batch selection requests; 0 selects
	// GOMAXPROCS-many.
	Workers int
	// CacheSize is the selection cache capacity; 0 selects
	// DefaultCacheSize, negative disables caching.
	CacheSize int
	// PriorStrength is the default pseudo-count weight behind registered
	// qualities; 0 selects DefaultPriorStrength.
	PriorStrength float64
	// DataDir, when non-empty, makes the server durable (see Open): every
	// mutation is journaled to a write-ahead log under this directory and
	// state is recovered from snapshot+log on boot. New ignores it.
	DataDir string
	// Fsync syncs every WAL flush to stable storage — durable against
	// power loss; mutations staged during a flush share the next sync.
	// Without it, mutations survive a process crash (kill -9) but not
	// necessarily a machine crash.
	Fsync bool
	// SegmentBytes is the WAL segment rotation threshold; 0 selects
	// wal.DefaultSegmentBytes.
	SegmentBytes int64
	// MaxInFlight bounds concurrently served requests; excess requests
	// are shed immediately with 429 rather than queued (system routes —
	// health, readiness, metrics, debug — are exempt so the server stays
	// observable under overload). 0 disables admission control.
	MaxInFlight int
	// RequestTimeout is the per-request deadline on non-system routes: it
	// bounds handler execution and propagates as the request context's
	// deadline; an overrun answers 503. 0 disables.
	RequestTimeout time.Duration
	// MaxLag is the staleness bound of a follower's readiness: /readyz
	// answers 503 once the follower has not been caught up to the
	// primary's durable watermark for longer than this. 0 disables the
	// gate (a follower is ready whenever it is serving). Ignored on a
	// primary.
	MaxLag time.Duration
	// Quorum is the total number of log copies a mutation ack vouches
	// for: with Quorum=N, a primary acknowledges a mutation only after
	// N-1 distinct followers have confirmed its LSN on the replication
	// stream. 0 or 1 disables quorum gating (ack after local
	// durability, as before). A mutation whose quorum does not confirm
	// in time answers 503 (it is durable locally and may still
	// replicate; a keyed retry resolves the ambiguity). Quorum > 1
	// needs DataDir; Open refuses it on an in-memory server.
	Quorum int
	// QuorumTimeout bounds how long a mutation ack waits for the
	// follower quorum; 0 selects a 5s default. Only meaningful with
	// Quorum > 1.
	QuorumTimeout time.Duration
	// FS is the filesystem persistence (WAL and snapshots) lives on; nil
	// selects the real one. Chaos tests substitute a fault injector
	// (internal/wal/errfs) here.
	FS wal.FS
	// TraceBuffer sizes the request-trace ring buffer behind
	// GET /debug/traces; 0 selects obs.DefaultRingSize, negative disables
	// tracing entirely (requests carry no trace, the debug endpoint
	// serves empty lists).
	TraceBuffer int
	// Logger receives structured request and lifecycle logs, each line
	// carrying the request's trace ID. nil discards them (tests, and
	// embedders that only want the HTTP surface).
	Logger *slog.Logger
}

// NewConfig returns the production defaults: uniform prior, seed 1.
func NewConfig() Config {
	return Config{Alpha: 0.5, Seed: 1}
}

// Server is the juryd HTTP service. Create with New (in-memory) or Open
// (durable), mount via Handler.
type Server struct {
	cfg      Config
	registry *Registry
	multi    *MultiRegistry
	cache    *SelectionCache
	sessions *sessionStore
	metrics  *Metrics
	recorder *obs.Recorder // nil when cfg.TraceBuffer < 0
	logger   *slog.Logger
	started  time.Time // process-visible start, for juryd_uptime_seconds
	mux      *http.ServeMux
	routes   []string     // registered patterns, for /metrics and the API reference test
	persist  *Persistence // nil without a data dir

	// degraded flips (once, terminally) when the WAL fails underneath a
	// mutation: reads keep serving, mutations answer 503. degradedCause
	// keeps the first disk error for /readyz and error bodies.
	degraded      atomic.Bool
	degradedMu    sync.Mutex
	degradedCause error
	unrestored    atomic.Pointer[error] // why a restore failed: reads answer 503 too
	// drain ends at BeginDrain: new mutations are refused and
	// replication streams end while in-flight reads complete.
	drain      context.Context
	beginDrain context.CancelFunc
	// inflight is the admission-control token bucket (nil when
	// MaxInFlight is 0); a request that cannot take a token is shed.
	inflight chan struct{}
	// repl is non-nil in follower (read-only replica) mode: mutations
	// answer 421 with the primary's address, state advances only through
	// ApplyReplicated (see repl.go).
	repl atomic.Pointer[replState]
	// epochs is the replayed promotion history: which epoch governs which
	// LSN range. Zero value = implicit epoch 1 (see epoch.go).
	epochs epochTable
	// promoting serializes Promote and makes in-flight replicated applies
	// refuse cleanly while the switch happens.
	promoting atomic.Bool
	// Fence state: when fenceEpoch exceeds the node's current epoch, a
	// newer primary exists and mutations answer 421 (see epoch.go).
	fenceMu      sync.Mutex
	fenceEpoch   uint64
	fencePrimary string
	// quorum tracks per-follower confirmed LSNs for Quorum-gated acks.
	quorum quorumAcks
}

// New builds a Server from the config.
func New(cfg Config) *Server {
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.5
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.PriorStrength <= 0 {
		cfg.PriorStrength = DefaultPriorStrength
	}
	s := &Server{
		cfg:      cfg,
		registry: NewRegistry(),
		multi:    NewMultiRegistry(),
		cache:    NewSelectionCache(cfg.CacheSize),
		sessions: newSessionStore(),
		metrics:  NewMetrics(),
		logger:   cfg.Logger,
		started:  time.Now(),
	}
	s.drain, s.beginDrain = context.WithCancel(context.Background())
	if cfg.TraceBuffer >= 0 {
		s.recorder = obs.NewRecorder(cfg.TraceBuffer)
	}
	if s.logger == nil {
		s.logger = slog.New(slog.DiscardHandler)
	}
	if cfg.MaxInFlight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInFlight)
	}
	s.mux = http.NewServeMux()
	s.route("GET /healthz", routeSys, s.handleHealth)
	s.route("GET /readyz", routeSys, s.handleReady)
	s.route("GET /metrics", routeSys, s.handleMetrics)
	s.route("GET /debug/persistence", routeSys, s.handleDebugPersistence)
	s.route("GET /debug/traces", routeSys, s.handleDebugTraces)
	// Replication routes are system-plane: exempt from admission control
	// and the request deadline (a stream lives as long as its follower
	// stays attached, and a degraded or overloaded primary must keep
	// feeding its followers).
	s.route("GET /v1/repl/stream", routeSys, s.handleReplStream)
	s.route("GET /v1/repl/snapshot", routeSys, s.handleReplSnapshot)
	// Failover control plane: promotion, fencing, and follower
	// repointing are system routes too — they must work on a node that
	// is overloaded, fenced, or refusing ordinary mutations.
	s.route("POST /v1/repl/promote", routeSys, s.handlePromote)
	s.route("POST /v1/repl/fence", routeSys, s.handleFence)
	s.route("POST /v1/repl/repoint", routeSys, s.handleRepoint)
	s.route("POST /v1/workers", routeMut, s.handleRegister)
	s.route("GET /v1/workers", routeRead, s.handleListWorkers)
	s.route("GET /v1/workers/{id}", routeRead, s.handleGetWorker)
	s.route("PUT /v1/workers/{id}", routeMut, s.handleUpdateWorker)
	s.route("DELETE /v1/workers/{id}", routeMut, s.handleRemoveWorker)
	s.route("POST /v1/votes", routeMut, s.handleIngestOne)
	s.route("POST /v1/votes/batch", routeMut, s.handleIngestBatch)
	s.route("POST /v1/select", routeRead, s.handleSelect)
	s.route("POST /v1/select/batch", routeRead, s.handleSelectBatch)
	s.route("POST /v1/sessions", routeMut, s.handleOpenSession)
	s.route("GET /v1/sessions/{id}", routeRead, s.handleGetSession)
	s.route("POST /v1/sessions/{id}/votes", routeMut, s.handleSessionVote)
	s.route("DELETE /v1/sessions/{id}", routeMut, s.handleCloseSession)
	s.route("POST /v1/multi/pools", routeMut, s.handleMultiCreate)
	s.route("GET /v1/multi/pools", routeRead, s.handleMultiListPools)
	s.route("GET /v1/multi/pools/{pool}", routeRead, s.handleMultiGetPool)
	s.route("DELETE /v1/multi/pools/{pool}", routeMut, s.handleMultiDropPool)
	s.route("POST /v1/multi/pools/{pool}/workers", routeMut, s.handleMultiRegister)
	s.route("POST /v1/multi/pools/{pool}/votes", routeMut, s.handleMultiIngest)
	s.route("POST /v1/multi/pools/{pool}/select", routeRead, s.handleMultiSelect)
	s.route("POST /v1/multi/pools/{pool}/jq", routeRead, s.handleMultiJQ)
	return s
}

// Routes returns every registered route pattern ("METHOD /path"), in
// registration order. The API reference test diffs this against API.md.
func (s *Server) Routes() []string {
	return append([]string(nil), s.routes...)
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the worker registry (used by the daemon for preloading
// and by tests).
func (s *Server) Registry() *Registry { return s.registry }

// CacheStats exposes the selection-cache counters.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// Metrics exposes the operational counters.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Recorder exposes the trace recorder (nil when tracing is disabled);
// used by tests and benchmarks.
func (s *Server) Recorder() *obs.Recorder { return s.recorder }

// routeKind classifies a route for the failure-domain wrappers.
type routeKind int

const (
	// routeSys is the observability plane: health, readiness, metrics,
	// debug. Exempt from admission control and deadlines — an overloaded
	// or degraded server must stay inspectable.
	routeSys routeKind = iota
	// routeRead serves from recovered state and the selection cache;
	// available in degraded mode and during drain, unless restoring the
	// durable prefix failed.
	routeRead
	// routeMut journals to the WAL; refused (503) when degraded or
	// draining, before the body is decoded.
	routeMut
)

// timeoutBody is the JSON answer http.TimeoutHandler writes on a
// request-deadline overrun (it serves 503 with this literal body).
const timeoutBody = `{"error":"server: request deadline exceeded"}`

// route registers a handler wrapped by kind-dependent failure-domain
// middleware (degraded/drain refusal for mutations, per-request
// deadline and admission control for everything but system routes) and,
// outermost, per-route metrics and request tracing: every request gets
// a trace ID (the client's X-Request-Id when sane, a fresh one
// otherwise), echoed on the response, carried in the request context
// for stage spans and structured logs, and — with tracing enabled —
// recorded into the trace ring with per-stage latency histograms. Shed
// and refused requests are counted like any other response.
func (s *Server) route(pattern string, kind routeKind, h func(http.ResponseWriter, *http.Request)) {
	s.routes = append(s.routes, pattern)
	stats := s.metrics.route(pattern)
	inner := h
	gate := s.mutable
	if kind == routeRead {
		gate = s.readable
	}
	if kind != routeSys {
		inner = func(w http.ResponseWriter, r *http.Request) {
			if err := gate(); err != nil {
				writeError(w, r, err)
				return
			}
			h(w, r)
		}
	}
	var handler http.Handler = http.HandlerFunc(inner)
	if kind != routeSys && s.cfg.RequestTimeout > 0 {
		handler = http.TimeoutHandler(handler, s.cfg.RequestTimeout, timeoutBody)
	}
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := obs.CleanID(r.Header.Get(obs.RequestIDHeader))
		var tr *obs.Trace
		if s.recorder != nil {
			tr = obs.NewTrace(id, pattern)
			r = r.WithContext(obs.ContextWithTrace(r.Context(), tr))
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		// RequestIDHeader is already canonical; direct assignment skips
		// Set's per-request canonicalization on the hot path.
		sw.Header()[obs.RequestIDHeader] = []string{id}
		// Every response carries the serving node's epoch, so clients and
		// the failover harness can spot a stale primary on any route.
		sw.Header()[EpochHeader] = []string{strconv.FormatUint(s.epochs.current(), 10)}
		if kind != routeSys && s.inflight != nil {
			admSpan := tr.Begin(obs.StageAdmission)
			select {
			case s.inflight <- struct{}{}:
				admSpan.End()
				defer func() { <-s.inflight }()
			default:
				admSpan.End()
				s.metrics.LoadShed()
				sw.Header().Set("Retry-After", "1")
				writeJSON(sw, r, http.StatusTooManyRequests,
					ErrorResponse{Error: "server: overloaded: in-flight request limit reached"})
				s.finishRequest(stats, pattern, id, tr, sw.status, start)
				return
			}
		}
		handler.ServeHTTP(sw, r)
		s.finishRequest(stats, pattern, id, tr, sw.status, start)
	})
}

// finishRequest settles one request's observability: the per-route
// metrics, the trace (published to the ring and the stage histograms),
// and a structured log line carrying the trace ID.
func (s *Server) finishRequest(stats *routeStats, pattern, id string, tr *obs.Trace, status int, start time.Time) {
	d := time.Since(start)
	stats.observe(status, d)
	s.recorder.Finish(tr, status)
	level := slog.LevelDebug
	if status >= 500 {
		level = slog.LevelWarn
	} else if status >= 400 {
		level = slog.LevelInfo
	}
	s.logger.LogAttrs(context.Background(), level, "request",
		slog.String("request_id", id),
		slog.String("route", pattern),
		slog.Int("status", status),
		slog.Duration("duration", d))
}

// statusWriter captures the response status for metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the connection's writer to http.ResponseController (the
// replication stream's full duplex, flushes and deadlines).
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// maxBodyBytes bounds request bodies (1 MiB covers thousands of workers).
const maxBodyBytes = 1 << 20

// decodeJSON decodes a request body that holds exactly one JSON value
// into dst. Unknown fields and anything but whitespace after the value
// are refused (400), as is a body over maxBodyBytes (413).
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	return decodeBody(w, r, dst, false)
}

// decodeBody is decodeJSON that, when optional, also accepts an empty
// body, leaving dst untouched (the promote call commonly needs no
// parameters).
func decodeBody(w http.ResponseWriter, r *http.Request, dst any, optional bool) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return nil
		}
		var tooBig *http.MaxBytesError
		if !errors.As(err, &tooBig) {
			err = errors.New("trailing data after the JSON value")
		}
	} else if optional && err == io.EOF {
		return nil
	}
	return fmt.Errorf("server: bad request body: %w", err)
}

// writeJSON encodes the response body; the request provides the trace
// the encode time is attributed to (nil-safe for callers without one).
func writeJSON(w http.ResponseWriter, r *http.Request, status int, body any) {
	var encSpan obs.SpanTimer
	if r != nil {
		encSpan = obs.TraceFrom(r.Context()).Begin(obs.StageEncode)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
	encSpan.End()
}

// writeError maps a service error onto an HTTP status and JSON body.
func writeError(w http.ResponseWriter, r *http.Request, err error) {
	status := http.StatusBadRequest
	var follower *FollowerError
	var fenced *FencedError
	var tooBig *http.MaxBytesError
	var ioErr *wal.IOError
	switch {
	case errors.As(err, &tooBig):
		status = http.StatusRequestEntityTooLarge
	case errors.As(err, &follower):
		// Read-only replica: the mutation belongs on the primary, whose
		// address rides along so clients can redirect without config.
		status = http.StatusMisdirectedRequest
		if follower.Primary != "" {
			w.Header().Set(PrimaryHeader, follower.Primary)
		}
	case errors.As(err, &fenced):
		// Fenced ex-primary: to a client this is exactly a replica — the
		// write belongs on the newer primary.
		status = http.StatusMisdirectedRequest
		if fenced.Primary != "" {
			w.Header().Set(PrimaryHeader, fenced.Primary)
		}
	case errors.Is(err, ErrQuorumTimeout):
		// Durable locally but unconfirmed by the follower quorum; a
		// keyed retry resolves it once followers catch up.
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, ErrFenceStale), errors.Is(err, ErrNotFollower),
		errors.Is(err, ErrPromoting):
		status = http.StatusConflict
	case errors.Is(err, ErrWorkerUnknown), errors.Is(err, ErrSessionUnknown),
		errors.Is(err, ErrPoolUnknown):
		status = http.StatusNotFound
	case errors.Is(err, ErrWorkerExists), errors.Is(err, ErrDuplicateBatch),
		errors.Is(err, ErrPoolExists):
		status = http.StatusConflict
	case errors.Is(err, online.ErrSessionDone), errors.Is(err, online.ErrOverBudget):
		status = http.StatusConflict
	case errors.Is(err, ErrEmptyRegistry):
		status = http.StatusUnprocessableEntity
	case errors.Is(err, ErrDegraded):
		// Degraded is terminal for this process: the retry only helps once
		// an operator restarts it, so advertise a long backoff.
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "30")
	case errors.Is(err, ErrDraining):
		// A drain resolves in seconds (restart, or a peer takes over).
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "2")
	case errors.As(err, &ioErr):
		// The request was sound; the data directory failed under it.
		status = http.StatusInternalServerError
	}
	writeJSON(w, r, status, ErrorResponse{Error: err.Error()})
}

// ---------------------------------------------------------------------------
// Health and metrics.

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	// Liveness stays 200 even degraded — the process is up and serving
	// reads; readiness (/readyz) is what goes 503.
	degraded, _ := s.DegradedState()
	writeJSON(w, r, http.StatusOK, map[string]any{
		"status":      "ok",
		"degraded":    degraded,
		"draining":    s.Draining(),
		"pool":        s.registry.Len(),
		"sessions":    s.sessions.Len(),
		"multi_pools": s.multi.Len(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WriteText(w, s.cache.Stats(), s.registry.Len(), s.registry.Generation(),
		s.multi.Len(), s.degraded.Load())
	s.writeReplMetrics(w)
	s.recorder.WriteMetrics(w)
	writeRuntimeMetrics(w, s.started)
}

func (s *Server) handleDebugPersistence(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, r, http.StatusOK, s.PersistenceStatus())
}

// handleDebugTraces serves the trace ring: the most recent finished
// traces (?n= bounds the count, default 32) and the slowest seen since
// boot, each with its stage spans. With tracing disabled both lists are
// empty.
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	n := 32
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			writeError(w, r, fmt.Errorf("server: bad trace count %q", q))
			return
		}
		n = v
	}
	writeJSON(w, r, http.StatusOK, DebugTracesResponse{
		Enabled: s.recorder != nil,
		Count:   s.recorder.Count(),
		Recent:  s.recorder.Recent(n),
		Slowest: s.recorder.Slowest(),
	})
}

// ---------------------------------------------------------------------------
// Worker registry.

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, r, err)
		return
	}
	if len(req.Workers) == 0 {
		writeError(w, r, errors.New("server: no workers in request"))
		return
	}
	sig, err := s.registry.Register(r.Context(), req.Workers, s.cfg.PriorStrength)
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, r, http.StatusCreated, RegisterResponse{
		Registered: len(req.Workers),
		PoolSize:   s.registry.Len(),
		Signature:  sig,
	})
}

func (s *Server) handleListWorkers(w http.ResponseWriter, r *http.Request) {
	list, sig := s.registry.List()
	writeJSON(w, r, http.StatusOK, ListResponse{Workers: list, Signature: sig})
}

func (s *Server) handleGetWorker(w http.ResponseWriter, r *http.Request) {
	info, err := s.registry.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, r, http.StatusOK, info)
}

func (s *Server) handleUpdateWorker(w http.ResponseWriter, r *http.Request) {
	var spec WorkerSpec
	if err := decodeJSON(w, r, &spec); err != nil {
		writeError(w, r, err)
		return
	}
	id := r.PathValue("id")
	if spec.ID != "" && spec.ID != id {
		writeError(w, r, fmt.Errorf("server: body id %q does not match path id %q", spec.ID, id))
		return
	}
	spec.ID = id
	info, err := s.registry.Update(r.Context(), spec, s.cfg.PriorStrength)
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, r, http.StatusOK, info)
}

func (s *Server) handleRemoveWorker(w http.ResponseWriter, r *http.Request) {
	if err := s.registry.Remove(r.Context(), r.PathValue("id")); err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, r, http.StatusOK, map[string]any{"removed": true})
}

// ---------------------------------------------------------------------------
// Vote ingestion.

func (s *Server) handleIngestOne(w http.ResponseWriter, r *http.Request) {
	var ev VoteEvent
	if err := decodeJSON(w, r, &ev); err != nil {
		writeError(w, r, err)
		return
	}
	s.ingest(w, r, []VoteEvent{ev}, idempotencyKey(r))
}

func (s *Server) handleIngestBatch(w http.ResponseWriter, r *http.Request) {
	var req IngestRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, r, err)
		return
	}
	if len(req.Events) == 0 {
		writeError(w, r, errors.New("server: no events in request"))
		return
	}
	s.ingest(w, r, req.Events, idempotencyKey(r))
}

// idempotencyKey extracts the client-generated Idempotency-Key header
// ("" when absent): a retried ingest carrying the same key is applied
// exactly once and answered with Duplicate set.
func idempotencyKey(r *http.Request) string {
	return r.Header.Get("Idempotency-Key")
}

func (s *Server) ingest(w http.ResponseWriter, r *http.Request, events []VoteEvent, key string) {
	updated, sig, dup, err := s.registry.IngestKeyed(r.Context(), events, key)
	if err != nil {
		writeError(w, r, err)
		return
	}
	if dup {
		s.metrics.IngestDuplicate()
		writeJSON(w, r, http.StatusOK, IngestResponse{Signature: sig, Duplicate: true})
		return
	}
	s.metrics.VotesIngested(len(events))
	writeJSON(w, r, http.StatusOK, IngestResponse{
		Ingested:  len(events),
		Updated:   updated,
		Signature: sig,
	})
}

// ---------------------------------------------------------------------------
// Jury selection.

// strategySelector maps a wire strategy name to the selection machinery.
// Every selector here is deterministic given (pool, budget, alpha, seed),
// which is what makes the cache sound. seeded reports whether the search
// actually consumes the seed — the cache key zeroes it otherwise, so the
// seed-independent strategies share one entry across request seeds.
func strategySelector(strategy string, seed int64) (sel selection.Selector, name string, seeded bool, err error) {
	switch strategy {
	case "", "bv":
		return selection.OPTJS(seed), "bv", true, nil
	case "mv":
		return selection.MVJS(seed), "mv", true, nil
	case "bv-exact":
		return selection.Exhaustive{Objective: selection.BVExactObjective{}}, "bv-exact", false, nil
	case "greedy":
		return selection.GreedyQuality{Objective: selection.BVObjective{}}, "greedy", false, nil
	default:
		return nil, "", false, fmt.Errorf("server: unknown strategy %q (want bv, mv, bv-exact or greedy)", strategy)
	}
}

// selectOne serves one selection request: cache lookup on the snapshot
// signature, then compute-and-fill on miss. The selection itself runs on
// the immutable snapshot, outside any lock.
func (s *Server) selectOne(ctx context.Context, req SelectRequest) (SelectResponse, error) {
	if req.Budget < 0 || req.Budget != req.Budget {
		return SelectResponse{}, fmt.Errorf("server: bad budget %v", req.Budget)
	}
	alpha := s.cfg.Alpha
	if req.Alpha != nil {
		alpha = *req.Alpha
	}
	if alpha < 0 || alpha > 1 || alpha != alpha {
		return SelectResponse{}, fmt.Errorf("server: prior %v outside [0, 1]", alpha)
	}
	seed := s.cfg.Seed
	if req.Seed != nil {
		seed = *req.Seed
	}
	sel, strategyName, seeded, err := strategySelector(req.Strategy, seed)
	if err != nil {
		return SelectResponse{}, err
	}
	pool, ids, sig, err := s.registry.Snapshot(req.WorkerIDs)
	if err != nil {
		return SelectResponse{}, err
	}
	keySeed := seed
	if !seeded {
		keySeed = 0
	}
	tr := obs.TraceFrom(ctx)
	key := SelectionKey{Signature: sig, Strategy: strategyName, Budget: req.Budget, Alpha: alpha, Seed: keySeed}
	cacheSpan := tr.Begin(obs.StageCache)
	res, hit := s.cache.Get(key)
	cacheSpan.End()
	if hit {
		res.Cached = true
		return res, nil
	}
	start := time.Now()
	result, err := sel.Select(pool, req.Budget, alpha)
	if err != nil {
		return SelectResponse{}, err
	}
	tr.Add(obs.StageEval, start, time.Since(start))
	s.metrics.SelectionComputed(time.Since(start), result.Evaluations)
	res = SelectResponse{
		Jury:        make([]JuryMember, len(result.Indices)),
		JQ:          result.JQ,
		Cost:        result.Cost,
		Budget:      req.Budget,
		Alpha:       alpha,
		Strategy:    strategyName,
		Evaluations: result.Evaluations,
		Signature:   sig,
	}
	for i, idx := range result.Indices {
		res.Jury[i] = JuryMember{ID: ids[idx], Quality: pool[idx].Quality, Cost: pool[idx].Cost}
	}
	s.cache.Put(key, res)
	return res, nil
}

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	var req SelectRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, r, err)
		return
	}
	res, err := s.selectOne(r.Context(), req)
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, r, http.StatusOK, res)
}

// handleSelectBatch answers one selection per budget, fanning the budgets
// out over the server's conc pool. Results come back in request order —
// Selections[i] answers Budgets[i] — regardless of completion order.
func (s *Server) handleSelectBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchSelectRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, r, err)
		return
	}
	if len(req.Budgets) == 0 {
		writeError(w, r, errors.New("server: no budgets in request"))
		return
	}
	results := make([]SelectResponse, len(req.Budgets))
	errs := make([]error, len(req.Budgets))
	conc.ForEach(s.cfg.Workers, len(req.Budgets), func(i int) {
		results[i], errs[i] = s.selectOne(r.Context(), SelectRequest{
			Budget:    req.Budgets[i],
			Alpha:     req.Alpha,
			Strategy:  req.Strategy,
			WorkerIDs: req.WorkerIDs,
			Seed:      req.Seed,
		})
	})
	for _, err := range errs {
		if err != nil {
			writeError(w, r, err)
			return
		}
	}
	writeJSON(w, r, http.StatusOK, BatchSelectResponse{Selections: results})
}

// ---------------------------------------------------------------------------
// Online collection sessions.

func (s *Server) handleOpenSession(w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, r, err)
		return
	}
	alpha := s.cfg.Alpha
	if req.Alpha != nil {
		alpha = *req.Alpha
	}
	state, err := s.sessions.Open(r.Context(), online.Config{
		Alpha:      alpha,
		Confidence: req.Confidence,
		Budget:     req.Budget,
		MaxVotes:   req.MaxVotes,
	})
	if err != nil {
		writeError(w, r, err)
		return
	}
	s.metrics.SessionOpened()
	writeJSON(w, r, http.StatusCreated, state)
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	state, err := s.sessions.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, r, http.StatusOK, state)
}

func (s *Server) handleSessionVote(w http.ResponseWriter, r *http.Request) {
	var req SessionVoteRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, r, err)
		return
	}
	if req.Vote != voting.No && req.Vote != voting.Yes {
		writeError(w, r, fmt.Errorf("server: bad vote %d (want 0 or 1)", req.Vote))
		return
	}
	info, err := s.registry.Get(req.WorkerID)
	if err != nil {
		writeError(w, r, err)
		return
	}
	id := r.PathValue("id")
	state, err := s.sessions.Observe(r.Context(), id, info.Quality, info.Cost, req.Vote)
	if errors.Is(err, online.ErrOverBudget) {
		// The vote does not fit. If no registered worker fits the
		// remaining budget either, collection cannot continue at all:
		// finalize the session with the "budget" stop reason (the
		// rejected vote is not folded in) instead of erroring.
		if remaining, bounded, rerr := s.sessions.BudgetRemaining(id); rerr == nil &&
			bounded && !s.registry.AnyAffordable(remaining) {
			state, err = s.sessions.MarkBudgetExhausted(r.Context(), id)
			if err == nil {
				s.metrics.SessionFinished()
				writeJSON(w, r, http.StatusOK, state)
				return
			}
		}
	}
	if err != nil {
		writeError(w, r, err)
		return
	}
	if state.Done {
		s.metrics.SessionFinished()
	}
	writeJSON(w, r, http.StatusOK, state)
}

func (s *Server) handleCloseSession(w http.ResponseWriter, r *http.Request) {
	if err := s.sessions.Close(r.Context(), r.PathValue("id")); err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, r, http.StatusOK, map[string]any{"closed": true})
}

// Preload registers an initial worker pool, for daemon startup (-pool).
// On a durable server the registration is journaled like any other, so a
// preloaded pool also survives restarts; re-preloading the same file into
// a recovered registry fails with ErrWorkerExists, which the daemon
// treats as "already recovered" and skips.
func (s *Server) Preload(specs []WorkerSpec) error {
	if len(specs) == 0 {
		return nil
	}
	_, err := s.registry.Register(context.Background(), specs, s.cfg.PriorStrength)
	return err
}
