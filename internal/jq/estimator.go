package jq

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/worker"
)

// DefaultMemoLimit caps the Estimator's memo table. At ~80 bytes per
// entry it bounds the table near 10 MB, far beyond what one
// annealing run visits, while keeping a runaway caller from exhausting
// memory.
const DefaultMemoLimit = 1 << 17

// maxPooledMemo is the largest memo a released Estimator's scratch may
// carry back into scratchPool. A cleared map keeps its buckets, so a
// scratch whose memo outgrew this (an exhaustive search over a 15-worker
// pool memoizes 32,768 juries) is dropped rather than pinning megabytes
// for the next request; one annealing pass over N = 128 memoizes a few
// hundred.
const maxPooledMemo = 8192

// ErrIndexRange is returned when a subset refers to a worker outside the
// evaluator's candidate pool.
var ErrIndexRange = fmt.Errorf("jq: subset index outside candidate pool")

// EstimatorStats reports the work an Estimator has performed, alongside
// the per-call KeysVisited/KeysPruned counters carried by Result.
type EstimatorStats struct {
	// Evals counts Eval/EvalBits calls.
	Evals int
	// Hits counts evaluations answered from the memo table.
	Hits int
	// Misses counts evaluations that ran the bucket DP (or a
	// short-circuit).
	Misses int
	// MemoEntries is the current memo table size.
	MemoEntries int
}

// Estimator is the incremental evaluation engine for the Algorithm 1
// bucket approximation of JQ(J, BV, α): it is constructed once per
// (candidate pool, prior, options) and then evaluates arbitrary subsets
// of the pool without re-validating, re-normalizing, or recomputing
// log-odds, and without per-call allocation. Estimate is a one-shot,
// memo-less Estimator, so results are bit-identical to Estimate on the
// same (ascending) subset.
//
// Eval sorts the indices into canonical ascending order before
// evaluating, so the result (and the memo key) is independent of the
// order the search produced the jury in; a duplicated index counts as
// two jury members, exactly as Pool.Subset would materialize it. Juries
// revisited during a search — ubiquitous under simulated annealing —
// are answered from a memo table keyed on the canonical signature.
//
// An Estimator is NOT safe for concurrent use: it owns scratch buffers
// and the memo table. Parallel searches must construct one each.
//
// An Estimator's memory comes from a package-level pool: Release hands
// it back with the memo cleared, so a search that releases its
// Estimator lets the next one evaluate without growing DP lists or a
// memo map from empty. An Estimator that is never released is simply
// garbage-collected.
type Estimator struct {
	alpha    float64
	opts     Options
	poolSize int

	// The Theorem 3 pseudo-worker, when α ≠ 0.5.
	hasPrior bool
	priorQ   float64
	priorPhi float64

	*scratch

	// memoLimit caps the memo; zero means the memo is off.
	memoLimit int
	stats     EstimatorStats
}

// scratch is the memory an Estimator recycles through scratchPool: the
// per-worker precomputation over the normalized pool (Section 3.3: q <
// 0.5 reinterpreted as 1−q), the buffers one evaluation works in, and
// the memo table. The buffers only grow, so an Estimator built on a
// recycled scratch stops allocating once they fit its largest jury.
type scratch struct {
	qs   []float64 // normalized qualities, by pool index
	phis []float64 // φ(q_i) = ln(q_i/(1−q_i)), by pool index

	idx       []int
	workers   []bucketedWorker
	aggregate []int
	lists     [2][]keyMass
	keyBuf    []byte

	memo map[string]Result
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// phiOf is the Bayesian log-odds weight of a normalized quality.
func phiOf(q float64) float64 { return math.Log(q / (1 - q)) }

// NewEstimator validates the candidate pool and prior once and
// precomputes every per-worker quantity the bucket approximation needs.
func NewEstimator(pool worker.Pool, alpha float64, opts Options) (*Estimator, error) {
	if err := pool.Validate(); err != nil {
		return nil, err
	}
	if err := checkPrior(alpha); err != nil {
		return nil, err
	}
	if opts.NumBuckets == 0 {
		opts.NumBuckets = DefaultNumBuckets
	}
	if opts.NumBuckets < 1 {
		return nil, fmt.Errorf("jq: NumBuckets must be positive, got %d", opts.NumBuckets)
	}
	e := &Estimator{
		alpha:    alpha,
		opts:     opts,
		poolSize: len(pool),
		scratch:  scratchPool.Get().(*scratch),
	}
	e.qs = slices.Grow(e.qs[:0], len(pool))[:len(pool)]
	e.phis = slices.Grow(e.phis[:0], len(pool))[:len(pool)]
	for i, w := range pool {
		q := w.Quality
		if q < 0.5 {
			q = 1 - q
		}
		e.qs[i] = q
		e.phis[i] = phiOf(q)
	}
	if alpha != 0.5 {
		q := alpha
		if q < 0.5 {
			q = 1 - q
		}
		e.hasPrior = true
		e.priorQ = q
		e.priorPhi = phiOf(q)
	}
	if !opts.DisableMemo {
		e.memoLimit = DefaultMemoLimit
		if e.memo == nil {
			e.memo = make(map[string]Result)
		}
	}
	return e, nil
}

// Release clears the memo and returns the Estimator's memory for a later
// NewEstimator to reuse; no later result can depend on this Estimator's
// evaluations. The Estimator must not be used afterwards. Releasing
// twice is harmless.
func (e *Estimator) Release() {
	s := e.scratch
	if s == nil {
		return
	}
	e.scratch = nil
	if len(s.memo) > maxPooledMemo {
		return
	}
	clear(s.memo)
	scratchPool.Put(s)
}

// Alpha returns the prior the estimator was built for.
func (e *Estimator) Alpha() float64 { return e.alpha }

// Stats returns the evaluation and memoization counters.
func (e *Estimator) Stats() EstimatorStats {
	s := e.stats
	s.MemoEntries = len(e.memo)
	return s
}

// Eval evaluates the jury given by candidate-pool indices (any order,
// duplicates allowed). The result is bit-identical to
//
//	Estimate(pool.Subset(sortedIndices), alpha, opts)
//
// including the KeysVisited/KeysPruned counters. An empty subset returns
// worker.ErrEmptyPool, as Estimate does on an empty jury.
func (e *Estimator) Eval(indices []int) (Result, error) {
	e.idx = append(e.idx[:0], indices...)
	slices.Sort(e.idx)
	return e.evalCanonical()
}

// EvalBits evaluates the jury given as a bitmask over pool indices: bit
// i%64 of word i/64 selects worker i. Bit order is already canonical, so
// no sort is needed.
func (e *Estimator) EvalBits(mask []uint64) (Result, error) {
	e.idx = e.idx[:0]
	for w, word := range mask {
		for word != 0 {
			e.idx = append(e.idx, w*64+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return e.evalCanonical()
}

// evalCanonical evaluates e.idx, which must already be sorted ascending.
func (e *Estimator) evalCanonical() (Result, error) {
	if len(e.idx) == 0 {
		return Result{}, worker.ErrEmptyPool
	}
	if e.idx[0] < 0 || e.idx[len(e.idx)-1] >= e.poolSize {
		return Result{}, fmt.Errorf("%w: n=%d, indices %v", ErrIndexRange, e.poolSize, e.idx)
	}
	e.stats.Evals++
	memoOn := e.memoLimit > 0
	if memoOn {
		e.signature()
		if res, ok := e.memo[string(e.keyBuf)]; ok {
			e.stats.Hits++
			return res, nil
		}
	}
	e.stats.Misses++
	res := e.evalSubset()
	if memoOn && len(e.memo) < e.memoLimit {
		e.memo[string(e.keyBuf)] = res
	}
	return res, nil
}

// signature encodes the canonical subset into keyBuf as varint deltas.
func (e *Estimator) signature() {
	b := e.keyBuf[:0]
	prev := 0
	for _, i := range e.idx {
		b = binary.AppendUvarint(b, uint64(i-prev))
		prev = i
	}
	e.keyBuf = b
}

// evalSubset runs Algorithm 1 on the non-empty, ascending e.idx from the
// precomputed per-worker data.
func (e *Estimator) evalSubset() Result {
	n := len(e.idx)
	if e.hasPrior {
		n++
	}

	// High-quality short-circuit (Section 4.4): JQ ≥ max q_i by Lemma 1,
	// so with q > 0.99 returning q keeps the error under 1% while keeping
	// φ bounded for everyone else.
	maxQ := 0.0
	for _, i := range e.idx {
		if e.qs[i] > maxQ {
			maxQ = e.qs[i]
		}
	}
	if e.hasPrior && e.priorQ > maxQ {
		maxQ = e.priorQ
	}
	if maxQ > HighQualityCutoff {
		return Result{JQ: maxQ, Bound: 1 - maxQ, ShortCircuited: true}
	}

	// upper = max φ; all-q=0.5 juries have upper = 0 and JQ exactly 0.5.
	upper := 0.0
	for _, i := range e.idx {
		if e.phis[i] > upper {
			upper = e.phis[i]
		}
	}
	if e.hasPrior && e.priorPhi > upper {
		upper = e.priorPhi
	}
	if upper == 0 {
		return Result{JQ: 0.5, ShortCircuited: true}
	}

	// Bucketize into scratch, subset order then the pseudo-worker — the
	// order in which WithPrior appends it.
	delta := upper / float64(e.opts.NumBuckets)
	if cap(e.workers) < n {
		e.workers = make([]bucketedWorker, 0, 2*n)
	}
	ws := e.workers[:0]
	for _, i := range e.idx {
		ws = append(ws, bucketedWorker{b: bucketOf(e.phis[i], delta), q: e.qs[i]})
	}
	if e.hasPrior {
		ws = append(ws, bucketedWorker{b: bucketOf(e.priorPhi, delta), q: e.priorQ})
	}
	if cap(e.aggregate) < n+1 {
		e.aggregate = make([]int, n+1)
	}
	res := Result{Bound: ErrorBound(n, upper, e.opts.NumBuckets)}
	sparseDP(ws, e.aggregate[:n+1], &e.lists, e.opts.DisablePruning, &res)
	return res
}

// ExactBVEvaluator is the subset-evaluation fast path of ExactBV: the
// pool's qualities are captured once, and each evaluation enumerates the
// 2^n vote patterns of the subset directly from them, with no per-call
// allocation. Results are bit-identical to ExactBV on the canonical
// (ascending-index) subset. Not safe for concurrent use.
type ExactBVEvaluator struct {
	alpha float64
	qs    []float64
	idx   []int
	sub   []float64
}

// NewExactBVEvaluator validates the pool and prior once.
func NewExactBVEvaluator(pool worker.Pool, alpha float64) (*ExactBVEvaluator, error) {
	if err := pool.Validate(); err != nil {
		return nil, err
	}
	if err := checkPrior(alpha); err != nil {
		return nil, err
	}
	return &ExactBVEvaluator{alpha: alpha, qs: pool.Qualities()}, nil
}

// Eval returns the exact JQ under Bayesian Voting of the subset, which
// must not exceed MaxExactJurySize workers.
func (e *ExactBVEvaluator) Eval(indices []int) (float64, error) {
	if len(indices) == 0 {
		return 0, worker.ErrEmptyPool
	}
	if len(indices) > MaxExactJurySize {
		return 0, fmt.Errorf("%w: n=%d > %d", ErrJuryTooLarge, len(indices), MaxExactJurySize)
	}
	e.idx = append(e.idx[:0], indices...)
	slices.Sort(e.idx)
	if e.idx[0] < 0 || e.idx[len(e.idx)-1] >= len(e.qs) {
		return 0, fmt.Errorf("%w: n=%d, indices %v", ErrIndexRange, len(e.qs), e.idx)
	}
	e.sub = e.sub[:0]
	for _, i := range e.idx {
		e.sub = append(e.sub, e.qs[i])
	}
	return exactBVOf(e.sub, e.alpha), nil
}
