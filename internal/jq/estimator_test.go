package jq

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/worker"
)

// randomPool draws a pool whose qualities cover the estimator's edge
// cases: the bulk in (0, 1), plus exact coin-flips (q=0.5), sub-half
// workers that Normalize flips, short-circuiting q > 0.99 workers, and
// degenerate q ∈ {0, 1}.
func randomPool(rng *rand.Rand, n int) worker.Pool {
	qs := make([]float64, n)
	for i := range qs {
		switch rng.Intn(10) {
		case 0:
			qs[i] = 0.5
		case 1:
			qs[i] = 0.995 + 0.005*rng.Float64()
		case 2:
			qs[i] = float64(rng.Intn(2)) // exactly 0 or 1
		default:
			qs[i] = rng.Float64()
		}
	}
	return worker.UniformCost(qs, 1)
}

// randomSubset draws a non-empty subset in shuffled (non-canonical)
// order, occasionally with duplicate indices.
func randomSubset(rng *rand.Rand, n int) []int {
	size := 1 + rng.Intn(n)
	perm := rng.Perm(n)
	subset := append([]int(nil), perm[:size]...)
	if size > 1 && rng.Intn(4) == 0 {
		subset[rng.Intn(size)] = subset[rng.Intn(size)]
	}
	return subset
}

func sortedInts(xs []int) []int {
	out := append([]int(nil), xs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

var propAlphas = []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1}

// The Estimator must reproduce the one-shot Estimate bit for bit —
// value, bound, and work counters — on arbitrary pools, priors, and
// subset sequences, with and without memoization.
func TestEstimatorMatchesEstimateBitIdentical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		pool := randomPool(rng, n)
		alpha := propAlphas[rng.Intn(len(propAlphas))]
		opts := Options{
			NumBuckets:     []int{1, 5, 50, 200}[rng.Intn(4)],
			DisablePruning: rng.Intn(4) == 0,
			DisableMemo:    rng.Intn(2) == 0,
		}
		est, err := NewEstimator(pool, alpha, opts)
		if err != nil {
			t.Fatalf("NewEstimator: %v", err)
		}
		for trial := 0; trial < 12; trial++ {
			subset := randomSubset(rng, n)
			got, err := est.Eval(subset)
			if err != nil {
				t.Fatalf("Eval(%v): %v", subset, err)
			}
			want, err := Estimate(pool.Subset(sortedInts(subset)), alpha, opts)
			if err != nil {
				t.Fatalf("Estimate: %v", err)
			}
			if got != want {
				t.Fatalf("seed %d subset %v alpha %v opts %+v:\n got %+v\nwant %+v",
					seed, subset, alpha, opts, got, want)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestEstimatorRecyclingMatchesEstimate: an Estimator built on memory
// another Estimator released answers exactly as a fresh one. Four
// Estimators over different pools (N from 1 to 128, priors at and off
// 0.5, memo on and off, 5, 50 and 200 buckets) are alive at once and
// their evaluations interleave; after each round one is released and a
// new one built in its place, so it starts on DP lists, tables and a
// memo map that another pool grew. Juries are revisited so the memo
// answers too. Every Result field — JQ, Bound, KeysVisited, KeysPruned
// and ShortCircuited — must equal a fresh Estimate's, bit for bit; a
// memo entry that survived Release would answer for the wrong pool.
func TestEstimatorRecyclingMatchesEstimate(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	type live struct {
		est   *Estimator
		pool  worker.Pool
		alpha float64
		opts  Options
		seen  [][]int
	}
	build := func() *live {
		// Small pools make juries, and so memo keys, repeat across pools.
		n := 1 + rng.Intn(8)
		if rng.Intn(2) == 0 {
			n = 1 + rng.Intn(128)
		}
		l := &live{
			pool:  randomPool(rng, n),
			alpha: []float64{0.5, 0.5, 0.3, 0.9}[rng.Intn(4)],
			opts: Options{
				NumBuckets:  []int{5, 50, 200}[rng.Intn(3)],
				DisableMemo: rng.Intn(3) == 0,
			},
		}
		if rng.Intn(2) == 0 {
			// No short-circuiting worker, so every jury runs the DP.
			for i := range l.pool {
				l.pool[i].Quality = 0.05 + 0.9*rng.Float64()
			}
		}
		var err error
		if l.est, err = NewEstimator(l.pool, l.alpha, l.opts); err != nil {
			t.Fatal(err)
		}
		return l
	}
	lives := []*live{build(), build(), build(), build()}
	for round := 0; round < 150; round++ {
		for _, l := range lives {
			for range 3 {
				subset := randomSubset(rng, len(l.pool))
				if len(l.seen) > 0 && rng.Intn(3) == 0 {
					subset = l.seen[rng.Intn(len(l.seen))]
				}
				l.seen = append(l.seen, subset)
				got, err := l.est.Eval(subset)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Estimate(l.pool.Subset(sortedInts(subset)), l.alpha, l.opts)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("round %d, N=%d alpha %v opts %+v, subset %v:\n got %+v\nwant %+v",
						round, len(l.pool), l.alpha, l.opts, subset, got, want)
				}
			}
		}
		k := rng.Intn(len(lives))
		lives[k].est.Release()
		lives[k] = build()
	}
	for _, l := range lives {
		l.est.Release()
	}
}

// Revisiting a jury — in any index order — must hit the memo and return
// the identical Result.
func TestEstimatorMemoization(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := randomPool(rng, 12)
	est, err := NewEstimator(pool, 0.3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := est.Eval([]int{4, 1, 9, 2})
	if err != nil {
		t.Fatal(err)
	}
	again, err := est.Eval([]int{9, 2, 4, 1}) // same set, different order
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatalf("memoized revisit differs: %+v vs %+v", first, again)
	}
	stats := est.Stats()
	if stats.Evals != 2 || stats.Hits != 1 || stats.Misses != 1 || stats.MemoEntries != 1 {
		t.Fatalf("stats = %+v, want 2 evals, 1 hit, 1 miss, 1 entry", stats)
	}
	disabled, err := NewEstimator(pool, 0.3, Options{DisableMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := disabled.Eval([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := disabled.Eval([]int{2, 1}); err != nil {
		t.Fatal(err)
	}
	if s := disabled.Stats(); s.Hits != 0 || s.MemoEntries != 0 {
		t.Fatalf("memo disabled but stats = %+v", s)
	}
}

func TestEstimatorMemoLimit(t *testing.T) {
	pool := randomPool(rand.New(rand.NewSource(8)), 10)
	est, err := NewEstimator(pool, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	est.memoLimit = 2
	for i := 0; i < 8; i++ {
		if _, err := est.Eval([]int{i}); err != nil {
			t.Fatal(err)
		}
	}
	if s := est.Stats(); s.MemoEntries > 2 {
		t.Fatalf("memo grew past its limit: %+v", s)
	}
}

func TestEstimatorEvalBitsMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pool := randomPool(rng, 70) // spans two mask words
	est, err := NewEstimator(pool, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		subset := randomSubset(rng, len(pool))
		mask := make([]uint64, 2)
		for _, i := range subset {
			mask[i/64] |= 1 << uint(i%64)
		}
		// The mask deduplicates; compare against the deduplicated set.
		seen := map[int]bool{}
		var unique []int
		for _, i := range sortedInts(subset) {
			if !seen[i] {
				seen[i] = true
				unique = append(unique, i)
			}
		}
		fromBits, err := est.EvalBits(mask)
		if err != nil {
			t.Fatal(err)
		}
		fromIdx, err := est.Eval(unique)
		if err != nil {
			t.Fatal(err)
		}
		if fromBits != fromIdx {
			t.Fatalf("EvalBits %+v != Eval %+v for %v", fromBits, fromIdx, unique)
		}
	}
}

func TestEstimatorValidation(t *testing.T) {
	if _, err := NewEstimator(nil, 0.5, Options{}); !errors.Is(err, worker.ErrEmptyPool) {
		t.Fatalf("nil pool: got %v", err)
	}
	pool := worker.UniformCost([]float64{0.7, 0.8}, 1)
	if _, err := NewEstimator(pool, -0.1, Options{}); !errors.Is(err, ErrPriorRange) {
		t.Fatalf("bad prior: got %v", err)
	}
	if _, err := NewEstimator(pool, 0.5, Options{NumBuckets: -1}); err == nil {
		t.Fatal("negative buckets accepted")
	}
	est, err := NewEstimator(pool, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := est.Eval(nil); !errors.Is(err, worker.ErrEmptyPool) {
		t.Fatalf("empty subset: got %v", err)
	}
	if _, err := est.Eval([]int{2}); !errors.Is(err, ErrIndexRange) {
		t.Fatalf("out of range: got %v", err)
	}
	if _, err := est.Eval([]int{-1}); !errors.Is(err, ErrIndexRange) {
		t.Fatalf("negative index: got %v", err)
	}
}

// Steady-state evaluation must not allocate beyond the memo table; with
// the memo disabled it must be allocation-free on revisited shapes.
func TestEstimatorSteadyStateAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Qualities in [0.5, 0.99] so no subset short-circuits: every Eval
	// must run the full bucket DP, the expensive path this test guards.
	qs := make([]float64, 40)
	for i := range qs {
		qs[i] = 0.5 + 0.49*rng.Float64()
	}
	pool := worker.UniformCost(qs, 1)
	est, err := NewEstimator(pool, 0.5, Options{DisableMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	subsets := make([][]int, 8)
	for i := range subsets {
		subsets[i] = randomSubset(rng, len(pool))
		if _, err := est.Eval(subsets[i]); err != nil { // warm scratch
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, s := range subsets {
			if _, err := est.Eval(s); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state Eval allocates %v times per 8-subset round, want 0", allocs)
	}
}

// The MV delta evaluator must reproduce MajorityClosedForm bit for bit
// across arbitrary subset sequences (the rollback/extend machinery must
// not disturb a single ulp).
func TestMVEvaluatorMatchesClosedFormBitIdentical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		pool := randomPool(rng, n)
		alpha := propAlphas[rng.Intn(len(propAlphas))]
		eval, err := NewMVEvaluator(pool, alpha)
		if err != nil {
			t.Fatalf("NewMVEvaluator: %v", err)
		}
		for trial := 0; trial < 16; trial++ {
			subset := randomSubset(rng, n)
			got, err := eval.Eval(subset)
			if err != nil {
				t.Fatalf("Eval(%v): %v", subset, err)
			}
			want, err := MajorityClosedForm(pool.Subset(sortedInts(subset)), alpha)
			if err != nil {
				t.Fatalf("MajorityClosedForm: %v", err)
			}
			if got != want {
				t.Fatalf("seed %d subset %v alpha %v: got %v (%x) want %v (%x)",
					seed, subset, alpha, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// An annealing-shaped workload — add, swap, remove one worker at a time —
// must run incrementally: appended DP rows stay near one per eval.
func TestMVEvaluatorIncrementalWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pool := randomPool(rng, 30)
	eval, err := NewMVEvaluator(pool, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	current := []int{0, 1, 2, 3, 4, 5, 6, 7}
	if _, err := eval.Eval(current); err != nil {
		t.Fatal(err)
	}
	base := eval.Stats().Appended
	evals := 0
	for step := 0; step < 200; step++ {
		// Swap the last member against a random outsider: the canonical
		// prefix is shared, so only the tail re-extends.
		current[len(current)-1] = 8 + rng.Intn(len(pool)-8)
		if _, err := eval.Eval(current); err != nil {
			t.Fatal(err)
		}
		evals++
	}
	appended := eval.Stats().Appended - base
	if appended > 2*evals {
		t.Fatalf("tail-swap workload appended %d rows over %d evals, want ≤ %d",
			appended, evals, 2*evals)
	}
}

func TestMVEvaluatorValidation(t *testing.T) {
	pool := worker.UniformCost([]float64{0.7, 0.8}, 1)
	if _, err := NewMVEvaluator(nil, 0.5); !errors.Is(err, worker.ErrEmptyPool) {
		t.Fatalf("nil pool: got %v", err)
	}
	if _, err := NewMVEvaluator(pool, 2); !errors.Is(err, ErrPriorRange) {
		t.Fatalf("bad prior: got %v", err)
	}
	eval, err := NewMVEvaluator(pool, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eval.Eval(nil); !errors.Is(err, worker.ErrEmptyPool) {
		t.Fatalf("empty subset: got %v", err)
	}
	if _, err := eval.Eval([]int{5}); !errors.Is(err, ErrIndexRange) {
		t.Fatalf("out of range: got %v", err)
	}
}

// The exact-BV evaluator must reproduce ExactBV bit for bit.
func TestExactBVEvaluatorMatchesExactBV(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		pool := randomPool(rng, n)
		alpha := propAlphas[rng.Intn(len(propAlphas))]
		eval, err := NewExactBVEvaluator(pool, alpha)
		if err != nil {
			t.Fatalf("NewExactBVEvaluator: %v", err)
		}
		for trial := 0; trial < 8; trial++ {
			subset := randomSubset(rng, n)
			got, err := eval.Eval(subset)
			if err != nil {
				t.Fatalf("Eval(%v): %v", subset, err)
			}
			want, err := ExactBV(pool.Subset(sortedInts(subset)), alpha)
			if err != nil {
				t.Fatalf("ExactBV: %v", err)
			}
			if got != want {
				t.Fatalf("seed %d subset %v: got %x want %x",
					seed, subset, math.Float64bits(got), math.Float64bits(want))
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestExactBVEvaluatorRejectsHugeJury(t *testing.T) {
	qs := make([]float64, MaxExactJurySize+1)
	for i := range qs {
		qs[i] = 0.6
	}
	eval, err := NewExactBVEvaluator(worker.UniformCost(qs, 1), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, len(qs))
	for i := range all {
		all[i] = i
	}
	if _, err := eval.Eval(all); !errors.Is(err, ErrJuryTooLarge) {
		t.Fatalf("oversized jury: got %v", err)
	}
}

// FuzzEstimatorMatchesEstimate drives arbitrary byte strings into
// (pool, prior, subset-sequence) configurations and checks that the
// Estimator and MVEvaluator stay bit-identical to their one-shot
// counterparts, and Estimate to the dense DP oracle. Run with
// `go test -fuzz FuzzEstimatorMatchesEstimate ./internal/jq` for
// exploration; the seed corpus runs on every `go test`.
func FuzzEstimatorMatchesEstimate(f *testing.F) {
	f.Add([]byte{128, 150, 200}, byte(128), uint16(50), []byte{0, 1, 2})
	f.Add([]byte{255, 0, 128, 64, 192}, byte(0), uint16(10), []byte{4, 2, 2, 0})
	f.Add([]byte{130, 131, 132, 133, 134}, byte(255), uint16(400), []byte{1, 3})
	f.Add([]byte{128}, byte(127), uint16(1), []byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, qualityBytes []byte, alphaByte byte, bucketsRaw uint16, subsetBytes []byte) {
		if len(qualityBytes) == 0 || len(qualityBytes) > 12 {
			t.Skip()
		}
		if len(subsetBytes) == 0 || len(subsetBytes) > 24 {
			t.Skip()
		}
		qs := make([]float64, len(qualityBytes))
		for i, b := range qualityBytes {
			qs[i] = float64(b) / 255
		}
		alpha := float64(alphaByte) / 255
		opts := Options{NumBuckets: int(bucketsRaw%2000) + 1}
		pool := worker.UniformCost(qs, 1)

		est, err := NewEstimator(pool, alpha, opts)
		if err != nil {
			t.Fatalf("NewEstimator: %v", err)
		}
		mv, err := NewMVEvaluator(pool, alpha)
		if err != nil {
			t.Fatalf("NewMVEvaluator: %v", err)
		}
		// Interpret subsetBytes as a sequence of juries: each byte toggles
		// a worker in a rolling membership set, and every state is
		// evaluated by both engines.
		member := make([]bool, len(qs))
		for _, b := range subsetBytes {
			i := int(b) % len(qs)
			member[i] = !member[i]
			var subset []int
			for j, in := range member {
				if in {
					subset = append(subset, j)
				}
			}
			if len(subset) == 0 {
				continue
			}
			got, err := est.Eval(subset)
			if err != nil {
				t.Fatalf("Eval(%v): %v", subset, err)
			}
			want, err := Estimate(pool.Subset(subset), alpha, opts)
			if err != nil {
				t.Fatalf("Estimate: %v", err)
			}
			if got != want {
				t.Fatalf("estimator mismatch on %v: got %+v want %+v", subset, got, want)
			}
			// The dense oracle, with pruning on and off.
			for _, disable := range []bool{false, true} {
				o := opts
				o.DisablePruning = disable
				sparse, err := Estimate(pool.Subset(subset), alpha, o)
				if err != nil {
					t.Fatalf("Estimate: %v", err)
				}
				dense, err := denseEstimate(pool.Subset(subset), alpha, o)
				if err != nil {
					t.Fatalf("denseEstimate: %v", err)
				}
				if sparse != dense {
					t.Fatalf("dense oracle mismatch on %v (opts %+v): sparse %+v dense %+v", subset, o, sparse, dense)
				}
			}
			gotMV, err := mv.Eval(subset)
			if err != nil {
				t.Fatalf("mv.Eval(%v): %v", subset, err)
			}
			wantMV, err := MajorityClosedForm(pool.Subset(subset), alpha)
			if err != nil {
				t.Fatalf("MajorityClosedForm: %v", err)
			}
			if gotMV != wantMV {
				t.Fatalf("mv mismatch on %v: got %x want %x",
					subset, math.Float64bits(gotMV), math.Float64bits(wantMV))
			}
		}
	})
}
