package jq

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/worker"
)

func TestEstimateMatchesExactOnFigure2(t *testing.T) {
	res, err := Estimate(figure2Pool(), 0.5, Options{NumBuckets: 2200}) // d=200·n... n=3
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.JQ-0.9) > 1e-3 {
		t.Fatalf("estimated JQ = %v, want ≈0.90", res.JQ)
	}
	if res.ShortCircuited {
		t.Fatal("unexpected short circuit")
	}
}

func TestEstimateDefaultsBuckets(t *testing.T) {
	res, err := Estimate(figure2Pool(), 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.JQ-0.9) > 5e-3 {
		t.Fatalf("estimated JQ with default buckets = %v, want ≈0.90", res.JQ)
	}
}

func TestEstimateRejectsNegativeBuckets(t *testing.T) {
	if _, err := Estimate(figure2Pool(), 0.5, Options{NumBuckets: -3}); err == nil {
		t.Fatal("no error for negative NumBuckets")
	}
}

func TestEstimateValidation(t *testing.T) {
	if _, err := Estimate(nil, 0.5, Options{}); !errors.Is(err, worker.ErrEmptyPool) {
		t.Errorf("empty pool: err = %v", err)
	}
	if _, err := Estimate(pool(0.7), -0.1, Options{}); !errors.Is(err, ErrPriorRange) {
		t.Errorf("bad prior: err = %v", err)
	}
}

func TestEstimateShortCircuitsHighQuality(t *testing.T) {
	res, err := Estimate(pool(0.995, 0.6, 0.7), 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ShortCircuited {
		t.Fatal("expected short circuit for q=0.995")
	}
	if res.JQ != 0.995 {
		t.Fatalf("JQ = %v, want 0.995 (the dominating quality)", res.JQ)
	}
	if res.Bound > 0.01 {
		t.Fatalf("Bound = %v, want < 1%%", res.Bound)
	}
	// Exact JQ must dominate the short-circuit value (Lemma 1).
	exact, err := ExactBV(pool(0.995, 0.6, 0.7), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if exact < res.JQ {
		t.Fatalf("exact %v < estimate %v", exact, res.JQ)
	}
}

func TestEstimateShortCircuitsExtremePrior(t *testing.T) {
	// α=1 introduces a pseudo-worker of quality 1 → short circuit at JQ=1.
	res, err := Estimate(pool(0.6, 0.7), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ShortCircuited || res.JQ != 1 {
		t.Fatalf("α=1: res = %+v, want short-circuited JQ=1", res)
	}
	// α=0 likewise: pseudo-worker q=0 normalizes to q=1.
	res, err = Estimate(pool(0.6, 0.7), 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ShortCircuited || res.JQ != 1 {
		t.Fatalf("α=0: res = %+v, want short-circuited JQ=1", res)
	}
}

func TestEstimateAllCoinFlipWorkers(t *testing.T) {
	res, err := Estimate(pool(0.5, 0.5, 0.5), 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.JQ != 0.5 || !res.ShortCircuited {
		t.Fatalf("res = %+v, want short-circuited JQ=0.5", res)
	}
}

func TestEstimateSingleWorker(t *testing.T) {
	res, err := Estimate(pool(0.8), 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.JQ-0.8) > 1e-9 {
		t.Fatalf("JQ = %v, want 0.8", res.JQ)
	}
}

func TestEstimateLowQualityWorkersReinterpreted(t *testing.T) {
	// q=0.2 carries as much information as q=0.8.
	a, err := Estimate(pool(0.2, 0.7), 0.5, Options{NumBuckets: 400})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Estimate(pool(0.8, 0.7), 0.5, Options{NumBuckets: 400})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.JQ-b.JQ) > 1e-12 {
		t.Fatalf("JQ(0.2) = %v != JQ(0.8) = %v", a.JQ, b.JQ)
	}
}

// The central approximation guarantees of Section 4.4: the estimate is a
// lower bound on the true JQ, and the gap stays below the analytic bound.
func TestEstimateErrorBoundProperty(t *testing.T) {
	f := func(seed int64, nbRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := rng.Intn(10) + 2
		qs := make([]float64, size)
		for i := range qs {
			qs[i] = 0.5 + 0.49*rng.Float64() // stay below the 0.99 cutoff
		}
		numBuckets := int(nbRaw%200) + 10
		alpha := rng.Float64()
		p := pool(qs...)
		exact, err := ExactBV(p, alpha)
		if err != nil {
			return false
		}
		res, err := Estimate(p, alpha, Options{NumBuckets: numBuckets})
		if err != nil {
			return false
		}
		if res.JQ > exact+1e-9 { // one-sided: ĴQ ≤ JQ
			return false
		}
		return exact-res.JQ <= res.Bound+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// The paper's headline guarantee: numBuckets = 200·n ⇒ error < 1% (in fact
// < 0.627%).
func TestEstimateSubPercentAt200BucketsPerWorker(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		size := rng.Intn(9) + 2
		qs := make([]float64, size)
		for i := range qs {
			qs[i] = 0.5 + 0.49*rng.Float64()
		}
		p := pool(qs...)
		exact, err := ExactBV(p, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Estimate(p, 0.5, Options{NumBuckets: 200 * size})
		if err != nil {
			t.Fatal(err)
		}
		if gap := exact - res.JQ; gap > 0.00627 {
			t.Fatalf("gap = %v > 0.627%% (n=%d, qs=%v)", gap, size, qs)
		}
		if res.Bound > 0.00627+1e-9 {
			t.Fatalf("analytic bound = %v > 0.627%%", res.Bound)
		}
	}
}

// Pruning must not change the estimate, only the work counters.
func TestPruningPreservesEstimateProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := rng.Intn(12) + 2
		qs := make([]float64, size)
		for i := range qs {
			qs[i] = 0.5 + 0.49*rng.Float64()
		}
		p := pool(qs...)
		withP, err := Estimate(p, 0.5, Options{NumBuckets: 50})
		if err != nil {
			return false
		}
		withoutP, err := Estimate(p, 0.5, Options{NumBuckets: 50, DisablePruning: true})
		if err != nil {
			return false
		}
		if math.Abs(withP.JQ-withoutP.JQ) > 1e-9 {
			return false
		}
		if withoutP.KeysPruned != 0 {
			return false
		}
		return withP.KeysVisited <= withoutP.KeysVisited
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPruningSavesWorkOnLargeJuries(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	qs := make([]float64, 60)
	for i := range qs {
		qs[i] = 0.5 + 0.49*rng.Float64()
	}
	p := pool(qs...)
	withP, err := Estimate(p, 0.5, Options{NumBuckets: 50})
	if err != nil {
		t.Fatal(err)
	}
	withoutP, err := Estimate(p, 0.5, Options{NumBuckets: 50, DisablePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if withP.KeysPruned == 0 {
		t.Fatal("expected pruning to fire on a 60-worker jury")
	}
	if withP.KeysVisited >= withoutP.KeysVisited {
		t.Fatalf("pruned run visited %d keys, unpruned %d — no savings",
			withP.KeysVisited, withoutP.KeysVisited)
	}
	if math.Abs(withP.JQ-withoutP.JQ) > 1e-9 {
		t.Fatalf("pruning changed the estimate: %v vs %v", withP.JQ, withoutP.JQ)
	}
}

func TestEstimateScalesToLargeJuries(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	qs := make([]float64, 300)
	for i := range qs {
		qs[i] = 0.5 + 0.45*rng.Float64()
	}
	res, err := Estimate(pool(qs...), 0.5, Options{NumBuckets: 50})
	if err != nil {
		t.Fatal(err)
	}
	// A 300-strong jury of decent workers is essentially always right.
	if res.JQ < 0.999 || res.JQ > 1+1e-9 {
		t.Fatalf("JQ = %v, want ≈1", res.JQ)
	}
}

// Estimate must agree with the Theorem 3 reduction it uses internally.
func TestEstimatePriorConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := rng.Intn(8) + 2
		qs := make([]float64, size)
		for i := range qs {
			qs[i] = 0.5 + 0.45*rng.Float64()
		}
		alpha := 0.05 + 0.9*rng.Float64()
		p := pool(qs...)
		direct, err := Estimate(p, alpha, Options{NumBuckets: 300})
		if err != nil {
			return false
		}
		manual, err := Estimate(WithPrior(p, alpha), 0.5, Options{NumBuckets: 300})
		if err != nil {
			return false
		}
		return math.Abs(direct.JQ-manual.JQ) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Monotonicity survives the approximation: more buckets ⇒ estimate at least
// as close to exact (checked as non-decreasing error quality on average via
// direct pairwise comparison of gap bounds).
func TestEstimateGapShrinksWithResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var coarseGaps, fineGaps float64
	for trial := 0; trial < 30; trial++ {
		size := rng.Intn(8) + 3
		qs := make([]float64, size)
		for i := range qs {
			qs[i] = 0.5 + 0.49*rng.Float64()
		}
		p := pool(qs...)
		exact, err := ExactBV(p, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		coarse, err := Estimate(p, 0.5, Options{NumBuckets: 10})
		if err != nil {
			t.Fatal(err)
		}
		fine, err := Estimate(p, 0.5, Options{NumBuckets: 400})
		if err != nil {
			t.Fatal(err)
		}
		coarseGaps += exact - coarse.JQ
		fineGaps += exact - fine.JQ
	}
	if fineGaps > coarseGaps {
		t.Fatalf("aggregate gap grew with resolution: coarse %v, fine %v", coarseGaps, fineGaps)
	}
}

func TestErrorBound(t *testing.T) {
	// upper < 5, d = 200 ⇒ bound = e^{5/800} − 1 < 0.627%.
	n := 7
	bound := ErrorBound(n, 5, 200*n)
	if bound >= 0.00627 {
		t.Fatalf("bound = %v, want < 0.627%%", bound)
	}
	if ErrorBound(0, 5, 100) != 0 || ErrorBound(5, 0, 100) != 0 || ErrorBound(5, 5, 0) != 0 {
		t.Fatal("degenerate ErrorBound inputs should yield 0")
	}
	// Bound grows with n at fixed buckets.
	if ErrorBound(10, 5, 100) <= ErrorBound(5, 5, 100) {
		t.Fatal("bound should grow with n")
	}
}

// TestEstimateReusesBuffers bounds the allocation count of one Estimate
// call. Its name dates from the pooled dense DP buffers; Estimate now
// reuses nothing across calls, and its bytes are measured by
// BenchmarkAblationEstimateJQ.
func TestEstimateReusesBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	qs := make([]float64, 40)
	for i := range qs {
		qs[i] = 0.5 + 0.45*rng.Float64()
	}
	p := pool(qs...)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Estimate(p, 0.5, Options{NumBuckets: 50}); err != nil {
			t.Fatal(err)
		}
	})
	// Estimate is a one-shot Estimator, so it allocates its per-worker
	// tables, its scratch and the two key lists on every call; the count
	// stays fixed because each is allocated once, at its final size
	// (listBound for the key lists), and never grown by append.
	if allocs > 15 {
		t.Fatalf("allocations per Estimate = %v, want ≤ 15", allocs)
	}
}

// denseEstimate is Estimate as it was before the sparse core: its own
// normalization, short-circuit and bucketization, then the dense bucketDP
// below. It is the oracle the sparse core must match in every Result
// field.
func denseEstimate(pool worker.Pool, alpha float64, opts Options) (Result, error) {
	if err := pool.Validate(); err != nil {
		return Result{}, err
	}
	if err := checkPrior(alpha); err != nil {
		return Result{}, err
	}
	if opts.NumBuckets == 0 {
		opts.NumBuckets = DefaultNumBuckets
	}
	if opts.NumBuckets < 1 {
		return Result{}, fmt.Errorf("jq: NumBuckets must be positive, got %d", opts.NumBuckets)
	}
	normalized, _ := WithPrior(pool, alpha).Normalize()
	qs := normalized.Qualities()
	maxQ := 0.0
	for _, q := range qs {
		if q > maxQ {
			maxQ = q
		}
	}
	if maxQ > HighQualityCutoff {
		return Result{JQ: maxQ, Bound: 1 - maxQ, ShortCircuited: true}, nil
	}
	n := len(qs)
	phis := make([]float64, n)
	upper := 0.0
	for i, q := range qs {
		phis[i] = math.Log(q / (1 - q))
		if phis[i] > upper {
			upper = phis[i]
		}
	}
	if upper == 0 {
		return Result{JQ: 0.5, ShortCircuited: true}, nil
	}
	delta := upper / float64(opts.NumBuckets)
	workers := make([]bucketedWorker, n)
	span := 0
	for i := range qs {
		workers[i] = bucketedWorker{b: bucketOf(phis[i], delta), q: qs[i]}
		span += workers[i].b
	}
	res := Result{Bound: ErrorBound(n, upper, opts.NumBuckets)}
	bucketDP(workers, make([]int, n+1), make([]float64, 2*span+1), make([]float64, 2*span+1), opts.DisablePruning, &res)
	return res, nil
}

// bucketDP is the dense DP that Estimate and Estimator ran before the
// sparse core, kept as its oracle. It runs the sorted (key, prob) dynamic
// program of Algorithms 1–2 over the bucketized jury, accumulating the
// estimate and work counters into res. It is the old code verbatim except
// that its two mass updates convert each product to float64: the old
// `next[up] += prob * q` rounds the product on its own on amd64 but is
// fused into one multiply-add on arm64, ppc64le, s390x and riscv64, while
// the sparse core always rounds each product, so only the converted form
// matches it on every target.
//
// workers holds the jury in evaluation order and is sorted in place by
// decreasing bucket. aggregate must have length len(workers)+1; cur and
// next must both be all-zero with length 2·span+1 where span = Σ b_i, and
// are returned all-zero (every consumed slot is re-zeroed).
func bucketDP(workers []bucketedWorker, aggregate []int, cur, next []float64, disablePruning bool, res *Result) {
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
	span := aggregate[0] // Σ b_i bounds |key| over the whole run

	// Dense DP over keys in [−span, span], stored at offset +span. The two
	// buffers are swapped each iteration; [lo, hi] tracks the live window.
	cur[span] = 1 // SM[0] = 1
	lo, hi := span, span
	var estimate float64
	for i := 0; i < n; i++ {
		b, q := workers[i].b, workers[i].q
		remaining := aggregate[i]
		newLo, newHi := len(next), -1
		for k := lo; k <= hi; k++ {
			prob := cur[k]
			if prob == 0 {
				continue
			}
			cur[k] = 0
			res.KeysVisited++
			key := k - span
			if !disablePruning {
				// Algorithm 2: once |key| exceeds the remaining swing the
				// final sign is fixed; positive keys contribute their full
				// descendant mass (the vote-probability factors sum to 1),
				// negative keys contribute nothing.
				if key > 0 && key-remaining > 0 {
					estimate += prob
					res.KeysPruned++
					continue
				}
				if key < 0 && key+remaining < 0 {
					res.KeysPruned++
					continue
				}
			}
			up, down := k+b, k-b
			// The conversions round each product before it is added, so
			// no target fuses the update into a multiply-add.
			next[up] = next[up] + float64(prob*q) // v_i = 0: key + b_i, weight q_i
			next[down] = next[down] + float64(prob*(1-q))
			if down < newLo {
				newLo = down
			}
			if up > newHi {
				newHi = up
			}
		}
		cur, next = next, cur
		if newHi < newLo { // everything pruned
			lo, hi = span, span
			cur[span] = 0
			break
		}
		lo, hi = newLo, newHi
	}
	// Final evaluation: keys > 0 contribute fully, key = 0 half.
	for k := lo; k <= hi; k++ {
		prob := cur[k]
		if prob == 0 {
			continue
		}
		cur[k] = 0
		switch key := k - span; {
		case key > 0:
			estimate += prob
		case key == 0:
			estimate += 0.5 * prob
		}
	}
	res.JQ = estimate
}

// The sparse core must reproduce the dense DP in every Result field —
// JQ and Bound to the bit, KeysVisited and KeysPruned exactly — on 300
// juries drawn by randomOracleJury.
func TestSparseDPMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 300; trial++ {
		p, alpha, opts := randomOracleJury(rng)
		got, err := Estimate(p, alpha, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := denseEstimate(p, alpha, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d (n=%d alpha=%v opts=%+v):\n sparse %+v\n  dense %+v",
				trial, len(p), alpha, opts, got, want)
		}
	}
}

// randomOracleJury draws one jury of the oracle test: 5–204 workers
// (sub-0.5 workers flipped by normalization), 3–200 buckets, three
// priors, pruning on or off. One jury in four has 170 or more
// near-certain workers, so that without pruning the mass of its extreme
// keys, ≤ 0.03^n, underflows to zero.
func randomOracleJury(rng *rand.Rand) (worker.Pool, float64, Options) {
	qs := make([]float64, 5+rng.Intn(200))
	nearCertain := rng.Intn(4) == 0
	if nearCertain {
		qs = make([]float64, 170+rng.Intn(35))
	}
	for i := range qs {
		qs[i] = 0.01 + 0.98*rng.Float64() // below 0.5 half the time
		if nearCertain {
			qs[i] = 0.97 + 0.02*rng.Float64()
			if rng.Intn(2) == 0 {
				qs[i] = 1 - qs[i]
			}
		}
	}
	alpha := []float64{0.3, 0.5, 0.7}[rng.Intn(3)]
	return pool(qs...), alpha, Options{NumBuckets: 3 + rng.Intn(198), DisablePruning: rng.Intn(2) == 0}
}

// listBound must cover every list the DP builds: once an Estimator has
// sized its lists for a jury, evaluating that jury again allocates
// nothing, which fails if a list outgrew its bound and append grew it.
func TestListBoundHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 100; trial++ {
		p, alpha, opts := randomOracleJury(rng)
		if trial%4 == 0 {
			// With one bucket, equal workers all get b = 1 and reach every
			// key of the right parity, so the lists fill up to the bound.
			for i := range p {
				p[i].Quality = p[0].Quality
			}
			opts.NumBuckets = 1
		}
		opts.DisableMemo = true
		est, err := NewEstimator(p, alpha, opts)
		if err != nil {
			t.Fatal(err)
		}
		all := make([]int, len(p))
		for i := range all {
			all[i] = i
		}
		if _, err := est.Eval(all); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(2, func() {
			if _, err := est.Eval(all); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Fatalf("trial %d (n=%d alpha=%v opts=%+v): repeat Eval allocates %v times, want 0",
				trial, len(p), alpha, opts, allocs)
		}
	}
}
