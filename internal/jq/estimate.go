package jq

import (
	"math"
	"slices"

	"repro/internal/worker"
)

// DefaultNumBuckets is the bucket count used by the paper's experiments
// (Section 6.1.1). The analytic error bound below 1% needs numBuckets ≥
// 200·n; in practice 50 buckets already yields errors under 0.01% (Figure
// 9c), which this reproduction confirms.
const DefaultNumBuckets = 50

// HighQualityCutoff is the quality above which Estimate short-circuits: a
// single worker with q > 0.99 already pins JQ into (0.99, 1] (Lemma 1), so
// the estimate returns that quality directly, keeping the error below 1%
// and φ(q) = ln(q/(1−q)) bounded by φ(0.99) < 5 (Section 4.4).
const HighQualityCutoff = 0.99

// Options configures Estimate and NewEstimator.
type Options struct {
	// NumBuckets is the number of equal-width buckets dividing
	// [0, max φ(q_i)]. Zero selects DefaultNumBuckets.
	NumBuckets int
	// DisablePruning turns off the Algorithm 2 pruning; results are
	// identical, only slower. Used by the Figure 9(d) experiment.
	DisablePruning bool
	// DisableMemo turns off the Estimator's result memoization. Ignored
	// by the one-shot Estimate, which never memoizes.
	DisableMemo bool
}

// Result carries the estimate and the work counters used by the pruning
// experiments.
type Result struct {
	// JQ is the estimated jury quality. It never exceeds the true
	// JQ(J, BV, α) (the bucketed decision rule is itself a deterministic
	// voting strategy, and BV is optimal).
	JQ float64
	// Bound is the analytic additive error bound e^{n·Δ/4} − 1 for this
	// run's bucket width Δ; the true JQ lies in [JQ, JQ+Bound].
	Bound float64
	// KeysVisited counts (key, prob) pairs expanded across iterations.
	KeysVisited int
	// KeysPruned counts pairs resolved early by the pruning rule.
	KeysPruned int
	// ShortCircuited reports that a worker above HighQualityCutoff (or a
	// degenerate all-q=0.5 jury) resolved the estimate without running the
	// bucket DP.
	ShortCircuited bool
}

// Estimate approximates JQ(J, BV, α) with the paper's Algorithm 1:
//
//  1. reduce the prior to a pseudo-worker (Theorem 3) and reinterpret
//     workers with q < 0.5 as quality 1−q (Section 3.3);
//  2. map each worker's log-odds φ(q_i) = ln(q_i/(1−q_i)) to an integer
//     bucket b_i = ⌈φ(q_i)/Δ − ½⌉ with Δ = upper/numBuckets;
//  3. run the iterative (key, prob) dynamic program over the bucketed
//     log-likelihood-ratio R(V), pruning keys whose sign can no longer
//     change (Algorithm 2);
//  4. sum the probability mass of keys > 0 plus half the mass at key = 0.
//
// The returned estimate is a lower bound on the true JQ with additive error
// below Result.Bound, which is < 1% when numBuckets ≥ 200·n (Section 4.4).
// Keys after i workers share the parity of Σ_{j<i} b_j, so each of the
// DP's two lists holds at most Σb_i + 1 ≤ numBuckets·n + 1 (key, mass)
// pairs; pruning keeps only the keys in [−remaining, remaining], which
// about halves that on a whole pool (see listBound). Time is
// O(n · live keys) ≤ O(numBuckets · n²).
//
// Estimate is a one-shot, memo-less Estimator over the whole pool, so the
// two are bit-identical by construction; it releases the Estimator's
// memory before returning.
func Estimate(pool worker.Pool, alpha float64, opts Options) (Result, error) {
	opts.DisableMemo = true
	e, err := NewEstimator(pool, alpha, opts)
	if err != nil {
		return Result{}, err
	}
	defer e.Release()
	e.idx = e.idx[:0]
	for i := range pool {
		e.idx = append(e.idx, i)
	}
	return e.evalSubset(), nil
}

// bucketedWorker is one jury member after bucketization: the integer
// log-odds bucket b and the (normalized) quality q.
type bucketedWorker struct {
	b int
	q float64
}

// bucketOf maps a log-odds value to its integer bucket, b = ⌈φ/Δ − ½⌉.
func bucketOf(phi, delta float64) int {
	return int(math.Ceil(phi/delta - 0.5))
}

// keyMass is one entry of the sparse DP: a bucketed log-likelihood-ratio
// key and the probability mass of the vote patterns reaching it.
type keyMass struct {
	key  int
	mass float64
}

// sparseDP runs the sorted (key, prob) dynamic program of Algorithms 1–2
// over the bucketized jury, accumulating the estimate and work counters
// into res. It is the one DP behind Estimate and Estimator.
//
// The DP state is the ascending list of keys that hold mass; zero-mass
// keys (underflow) are never stored. Its result is bit-identical to a
// dense walk over [−Σb, Σb] that skips empty slots:
//   - with pruning on, the live keys are the contiguous window
//     [−remaining, remaining] of the list, so the pruned keys below it are
//     only counted and those above it summed in ascending order, as the
//     dense walk does;
//   - each next key t receives at most two terms, mass(t−b)·q and
//     mass(t+b)·(1−q), and the merge rounds both products before adding
//     them, as the dense walk's two += steps do when the compiler does not
//     fuse them into multiply-adds.
//
// Explicit float64 conversions keep every product rounded on its own, so
// the core computes the same bits on targets where the compiler fuses
// multiply-adds (arm64, ppc64le, s390x, riscv64) as on amd64, where it
// does not.
//
// workers holds the jury in evaluation order and is sorted in place by
// decreasing bucket. aggregate must have length len(workers)+1. lists
// holds the two scratch lists; they are replaced only when their capacity
// is below listBound, so a caller that keeps them across calls (the
// Estimator) stops allocating once they fit its largest jury.
func sparseDP(workers []bucketedWorker, aggregate []int, lists *[2][]keyMass, disablePruning bool, res *Result) {
	n := len(workers)
	// Sort by decreasing bucket so the largest keys appear first, making
	// the pruning suffix-bound as tight as possible as early as possible.
	// slices.SortFunc (unlike sort.Slice) does not box its argument, which
	// keeps steady-state Estimator evaluations allocation-free.
	slices.SortFunc(workers, func(a, b bucketedWorker) int { return b.b - a.b })

	// aggregate[i] = Σ_{j ≥ i} b_j: the largest swing the remaining
	// workers can still apply to a key (Algorithm 2's AggregateBucket).
	aggregate[n] = 0
	for i := n - 1; i >= 0; i-- {
		aggregate[i] = aggregate[i+1] + workers[i].b
	}

	if need := listBound(workers, aggregate, disablePruning); cap(lists[0]) < need {
		lists[0] = make([]keyMass, 0, need)
		lists[1] = make([]keyMass, 0, need)
	}
	cur, next := lists[0], lists[1]
	cur = append(cur[:0], keyMass{key: 0, mass: 1}) // SM[0] = 1
	var estimate float64
	for i := 0; i < n; i++ {
		res.KeysVisited += len(cur)
		live := cur
		if !disablePruning {
			// Algorithm 2: once |key| exceeds the remaining swing the
			// final sign is fixed; positive keys contribute their full
			// descendant mass (the vote-probability factors sum to 1),
			// negative keys contribute nothing.
			remaining := aggregate[i]
			lo, hi := 0, len(cur)
			for lo < hi && cur[lo].key < -remaining {
				lo++
			}
			for hi > lo && cur[hi-1].key > remaining {
				hi--
			}
			for _, km := range cur[hi:] {
				estimate += km.mass
			}
			res.KeysPruned += len(cur) - (hi - lo)
			live = cur[lo:hi]
		}
		next = shiftMerge(next[:0], live, workers[i].b, workers[i].q)
		cur, next = next, cur
	}
	// Final evaluation: keys > 0 contribute fully, key = 0 half.
	for _, km := range cur {
		switch {
		case km.key > 0:
			estimate += km.mass
		case km.key == 0:
			estimate += 0.5 * km.mass
		}
	}
	res.JQ = estimate
}

// listBound is the most keys a DP list can hold, so the lists are sized
// once and never grown. After worker i the keys share the parity of
// P = b_0 + … + b_i and lie in [−P, P]; with pruning they also lie within
// b_i of the live window [−aggregate[i], aggregate[i]]. Either way they fit
// in some [−m, m], which holds at most m+1 keys of one parity. With
// pruning on a whole pool this is about half of Σb_i + 1.
func listBound(workers []bucketedWorker, aggregate []int, disablePruning bool) int {
	if disablePruning {
		return aggregate[0] + 1
	}
	need := 1 // the initial list {0}
	for i, w := range workers {
		m := min(aggregate[0]-aggregate[i+1], aggregate[i]+w.b)
		need = max(need, m+1)
	}
	return need
}

// shiftMerge appends to dst the ascending key list after one worker of
// bucket b and quality q votes: every live key k moves to k+b with weight
// q (the worker votes for answer 0) and to k−b with weight 1−q. Both
// shifted copies of live are ascending, so the step is a merge of live
// against itself shifted by 2b; a key reached both ways sums the two
// rounded products. Keys whose mass underflows to zero are dropped.
func shiftMerge(dst, live []keyMass, b int, q float64) []keyMass {
	p := 1 - q
	down := 0 // next entry of the k−b copy; up walks the k+b copy
	for _, u := range live {
		upKey := u.key + b
		for ; down < len(live) && live[down].key-b < upKey; down++ {
			if m := live[down].mass * p; m != 0 {
				dst = append(dst, keyMass{key: live[down].key - b, mass: m})
			}
		}
		// The conversions forbid fusing a product into the sum, which
		// would skip one rounding.
		m := float64(u.mass * q)
		if down < len(live) && live[down].key-b == upKey {
			m += float64(live[down].mass * p)
			down++
		}
		if m != 0 {
			dst = append(dst, keyMass{key: upKey, mass: m})
		}
	}
	return dst
}

// ErrorBound returns the additive approximation bound of Section 4.4,
// e^{n·Δ/4} − 1 with bucket width Δ = upper/numBuckets. Setting
// numBuckets = d·n with d ≥ 200 and upper < 5 keeps it under 0.627%.
func ErrorBound(n int, upper float64, numBuckets int) float64 {
	if numBuckets < 1 || n < 1 || upper <= 0 {
		return 0
	}
	delta := upper / float64(numBuckets)
	return math.Exp(float64(n)*delta/4) - 1
}
