package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/multichoice"
	"repro/internal/obs"
)

// The multi-choice (confusion-matrix) arm of the HTTP surface: named
// pools of workers with Dirichlet-row posteriors, served through the
// same signature-keyed selection cache as the binary routes.

func (s *Server) handleMultiCreate(w http.ResponseWriter, r *http.Request) {
	var req MultiCreateRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, r, err)
		return
	}
	sig, err := s.multi.CreatePool(r.Context(), req.Name, req.Labels, req.Workers, s.cfg.PriorStrength)
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, r, http.StatusCreated, MultiRegisterResponse{
		Registered: len(req.Workers),
		PoolSize:   len(req.Workers),
		Signature:  sig,
	})
}

func (s *Server) handleMultiListPools(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, r, http.StatusOK, MultiPoolsResponse{Pools: s.multi.List()})
}

func (s *Server) handleMultiGetPool(w http.ResponseWriter, r *http.Request) {
	info, err := s.multi.Get(r.PathValue("pool"))
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, r, http.StatusOK, info)
}

func (s *Server) handleMultiDropPool(w http.ResponseWriter, r *http.Request) {
	if err := s.multi.DropPool(r.Context(), r.PathValue("pool")); err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, r, http.StatusOK, map[string]any{"dropped": true})
}

func (s *Server) handleMultiRegister(w http.ResponseWriter, r *http.Request) {
	var req MultiRegisterRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, r, err)
		return
	}
	sig, size, err := s.multi.Register(r.Context(), r.PathValue("pool"), req.Workers, s.cfg.PriorStrength)
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, r, http.StatusCreated, MultiRegisterResponse{
		Registered: len(req.Workers),
		PoolSize:   size,
		Signature:  sig,
	})
}

func (s *Server) handleMultiIngest(w http.ResponseWriter, r *http.Request) {
	var req MultiIngestRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, r, err)
		return
	}
	updated, sig, dup, err := s.multi.IngestKeyed(r.Context(), r.PathValue("pool"), req.Events, idempotencyKey(r))
	if err != nil {
		writeError(w, r, err)
		return
	}
	if dup {
		s.metrics.IngestDuplicate()
		writeJSON(w, r, http.StatusOK, MultiIngestResponse{Signature: sig, Duplicate: true})
		return
	}
	s.metrics.VotesIngested(len(req.Events))
	writeJSON(w, r, http.StatusOK, MultiIngestResponse{
		Ingested:  len(req.Events),
		Updated:   updated,
		Signature: sig,
	})
}

// resolvePrior validates a request prior against ℓ labels, defaulting to
// uniform. The returned slice is owned by the caller.
func resolvePrior(prior []float64, labels int) (multichoice.Prior, error) {
	if prior == nil {
		return multichoice.UniformPrior(labels), nil
	}
	p := multichoice.Prior(append([]float64(nil), prior...))
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(p) != labels {
		return nil, fmt.Errorf("%w: prior has %d labels, pool %d", multichoice.ErrArity, len(p), labels)
	}
	return p, nil
}

// multiSelectionKey identifies one cacheable multi-choice selection: the
// pool name and the pool-state signature, plus every parameter the
// search depends on (including the full prior vector).
type multiSelectionKey struct {
	Pool      string
	Signature string
	Strategy  string
	Budget    float64
	Buckets   int
	Seed      int64
	Prior     multichoice.Prior
}

// String renders the canonical cache key. The "multi|" prefix keeps the
// key space disjoint from the binary selection keys sharing the cache.
func (k multiSelectionKey) String() string {
	var b strings.Builder
	b.WriteString("multi|")
	b.WriteString(k.Pool)
	b.WriteByte('|')
	b.WriteString(k.Signature)
	b.WriteByte('|')
	b.WriteString(k.Strategy)
	b.WriteString("|b=")
	b.WriteString(strconv.FormatUint(math.Float64bits(k.Budget), 16))
	b.WriteString("|k=")
	b.WriteString(strconv.Itoa(k.Buckets))
	b.WriteString("|s=")
	b.WriteString(strconv.FormatInt(k.Seed, 10))
	b.WriteString("|p=")
	for _, v := range k.Prior {
		b.WriteString(strconv.FormatUint(math.Float64bits(v), 16))
		b.WriteByte(',')
	}
	return b.String()
}

// multiStrategy maps a wire strategy name to the multi-choice selection
// machinery. Every selector is deterministic given (pool, budget, prior,
// buckets, seed), which is what makes the cache sound; seeded reports
// whether the search consumes the seed (the cache key zeroes it
// otherwise, so seed-independent strategies share one entry).
func multiStrategy(strategy string) (name string, seeded bool, err error) {
	switch strategy {
	case "", "anneal":
		return "anneal", true, nil
	case "greedy":
		return "greedy", false, nil
	case "exhaustive":
		return "exhaustive", false, nil
	default:
		return "", false, fmt.Errorf("server: unknown strategy %q (want anneal, greedy or exhaustive)", strategy)
	}
}

// selectMulti serves one multi-choice selection: cache lookup on the
// snapshot signature, then compute-and-fill on miss. The selection runs
// on the immutable snapshot, outside any lock.
func (s *Server) selectMulti(ctx context.Context, poolName string, req MultiSelectRequest) (MultiSelectResponse, error) {
	if req.Budget < 0 || req.Budget != req.Budget {
		return MultiSelectResponse{}, fmt.Errorf("server: bad budget %v", req.Budget)
	}
	if req.Buckets < 0 {
		return MultiSelectResponse{}, fmt.Errorf("server: negative buckets %d", req.Buckets)
	}
	if req.Buckets == 0 {
		// Normalize to the resolved default before keying, like the other
		// cache-key parameters: buckets 0 and the explicit default are the
		// same computation and must share one cache entry.
		req.Buckets = multichoice.DefaultEstimateBuckets
	}
	strategyName, seeded, err := multiStrategy(req.Strategy)
	if err != nil {
		return MultiSelectResponse{}, err
	}
	seed := s.cfg.Seed
	if req.Seed != nil {
		seed = *req.Seed
	}
	pool, ids, sig, labels, err := s.multi.Snapshot(poolName, req.WorkerIDs)
	if err != nil {
		return MultiSelectResponse{}, err
	}
	prior, err := resolvePrior(req.Prior, labels)
	if err != nil {
		return MultiSelectResponse{}, err
	}
	keySeed := seed
	if !seeded {
		keySeed = 0
	}
	key := multiSelectionKey{
		Pool: poolName, Signature: sig, Strategy: strategyName,
		Budget: req.Budget, Buckets: req.Buckets, Seed: keySeed, Prior: prior,
	}.String()
	tr := obs.TraceFrom(ctx)
	cacheSpan := tr.Begin(obs.StageCache)
	res, hit := lookup[MultiSelectResponse](s.cache, key)
	cacheSpan.End()
	if hit {
		res.Cached = true
		return res.served(pool, ids), nil
	}
	obj := multichoice.EstimateObjective(req.Buckets)
	start := time.Now()
	var result multichoice.SelectionResult
	switch strategyName {
	case "anneal":
		result, err = multichoice.SelectAnnealing(pool, req.Budget, prior, obj, seed)
	case "greedy":
		result, err = multichoice.GreedyByInformativeness(pool, req.Budget, prior, obj)
	case "exhaustive":
		result, err = multichoice.SelectExhaustive(pool, req.Budget, prior, obj)
	}
	if err != nil {
		return MultiSelectResponse{}, err
	}
	tr.Add(obs.StageEval, start, time.Since(start))
	s.metrics.SelectionComputed(time.Since(start), result.Evaluations)
	res = MultiSelectResponse{
		Pool:        poolName,
		Labels:      labels,
		JQ:          result.JQ,
		Cost:        result.Cost,
		Budget:      req.Budget,
		Prior:       prior,
		Strategy:    strategyName,
		Evaluations: result.Evaluations,
		Signature:   sig,
		members:     poolIndices(result.Indices),
	}
	s.cache.store(key, res)
	return res.served(pool, ids), nil
}

func (s *Server) handleMultiSelect(w http.ResponseWriter, r *http.Request) {
	var req MultiSelectRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, r, err)
		return
	}
	res, err := s.selectMulti(r.Context(), r.PathValue("pool"), req)
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, r, http.StatusOK, res)
}

// handleMultiJQ computes the Jury Quality of an explicit jury under the
// optimal (Bayesian) strategy — the JQ-estimate endpoint. Uncached: the
// computation is a single evaluation, not a search.
func (s *Server) handleMultiJQ(w http.ResponseWriter, r *http.Request) {
	var req MultiJQRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, r, err)
		return
	}
	if len(req.WorkerIDs) == 0 {
		writeError(w, r, errors.New("server: no worker ids in request"))
		return
	}
	if req.Buckets < 0 {
		writeError(w, r, fmt.Errorf("server: negative buckets %d", req.Buckets))
		return
	}
	poolName := r.PathValue("pool")
	pool, ids, sig, labels, err := s.multi.Snapshot(poolName, req.WorkerIDs)
	if err != nil {
		writeError(w, r, err)
		return
	}
	prior, err := resolvePrior(req.Prior, labels)
	if err != nil {
		writeError(w, r, err)
		return
	}
	method := "estimate"
	var jq float64
	if req.Exact {
		method = "exact"
		jq, err = multichoice.ExactBV(pool, prior)
	} else {
		jq, err = multichoice.EstimateBV(pool, prior, req.Buckets)
	}
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, r, http.StatusOK, MultiJQResponse{
		Pool:      poolName,
		Labels:    labels,
		WorkerIDs: ids,
		JQ:        jq,
		Prior:     prior,
		Method:    method,
		Signature: sig,
	})
}

// PreloadMulti creates a multi-choice pool at daemon startup
// (-multi-pool). On a durable server the creation is journaled like any
// other mutation, so a preloaded pool also survives restarts;
// re-preloading the same file into a recovered registry fails with
// ErrPoolExists, which the daemon treats as "already recovered" and
// skips.
func (s *Server) PreloadMulti(req MultiCreateRequest) error {
	_, err := s.multi.CreatePool(context.Background(), req.Name, req.Labels, req.Workers, s.cfg.PriorStrength)
	return err
}

// MultiRegistry exposes the multi-choice registry (used by the daemon
// for preloading and by tests).
func (s *Server) MultiRegistry() *MultiRegistry { return s.multi }
