package selection

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/jq"
	"repro/internal/worker"
)

func evalTestPool(t *testing.T, seed int64, n int) worker.Pool {
	t.Helper()
	gen := datagen.DefaultConfig()
	gen.N = n
	pool, err := gen.Pool(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

// oracleObjective scores every jury by materializing the subset and
// calling a one-shot jq function: the direct computation the evaluator
// engines must reproduce.
type oracleObjective struct {
	name string
	jq   func(jury worker.Pool, alpha float64) (float64, error)
}

func (o oracleObjective) Name() string { return o.name + "-oracle" }

func (o oracleObjective) NewEvaluator(pool worker.Pool, alpha float64) (Evaluator, error) {
	return oracleEvaluator{obj: o, pool: pool, alpha: alpha}, nil
}

type oracleEvaluator struct {
	obj   oracleObjective
	pool  worker.Pool
	alpha float64
}

func (e oracleEvaluator) Eval(indices []int) (float64, error) {
	return e.obj.jq(e.pool.Subset(indices), e.alpha)
}

var (
	bvExactOracle = oracleObjective{"BV-exact", jq.ExactBV}
	mvOracle      = oracleObjective{"MV", func(jury worker.Pool, _ float64) (float64, error) {
		return jq.MajorityClosedForm(jury, 0.5)
	}}
	bvOracle = oracleObjective{"BV", func(jury worker.Pool, alpha float64) (float64, error) {
		res, err := jq.Estimate(jury, alpha, jq.Options{})
		return res.JQ, err
	}}
)

// The evaluator-based exhaustive search must return exactly the jury a
// direct enumeration with the one-shot jq functions picks: both evaluate
// canonical ascending subsets, so even the tie-breaks coincide.
func TestExhaustiveEvaluatorMatchesDirectEnumeration(t *testing.T) {
	pool := evalTestPool(t, 51, 10)
	for _, tc := range []struct {
		obj    Objective
		oracle oracleObjective
	}{{BVExactObjective{}, bvExactOracle}, {MVObjective{}, mvOracle}, {BVObjective{}, bvOracle}} {
		got, err := Exhaustive{Objective: tc.obj}.Select(pool, 0.3, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		costs := pool.Costs()
		best := Result{JQ: -1, Indices: []int{}}
		for mask := 0; mask < 1<<len(pool); mask++ {
			var cost float64
			var indices []int
			for i := 0; i < len(pool); i++ {
				if mask&(1<<i) != 0 {
					cost += costs[i]
					indices = append(indices, i)
				}
			}
			if cost > 0.3 {
				continue
			}
			var score float64
			var err error
			if len(indices) == 0 {
				score = 0.5
			} else {
				score, err = tc.oracle.jq(pool.Subset(indices), 0.5)
				if err != nil {
					t.Fatal(err)
				}
			}
			if better(score, cost, indices, best) {
				best = Result{Indices: append([]int(nil), indices...), JQ: score, Cost: cost}
			}
		}
		if got.JQ != best.JQ || !reflect.DeepEqual(got.Indices, best.Indices) {
			t.Fatalf("%s: evaluator path picked %v (JQ=%v), direct enumeration %v (JQ=%v)",
				tc.obj.Name(), got.Indices, got.JQ, best.Indices, best.JQ)
		}
	}
}

// The evaluator engines and the subset-materializing oracle must drive
// the annealing search to the same jury: evaluations are bit-identical on
// canonical subsets, and the MV/BV-exact objectives are order-invariant,
// so the whole random trajectory coincides.
func TestAnnealingEvaluatorMatchesFallback(t *testing.T) {
	pool := evalTestPool(t, 52, 24)
	for _, tc := range []struct {
		obj    Objective
		oracle oracleObjective
	}{{MVObjective{}, mvOracle}, {BVExactObjective{}, bvExactOracle}} {
		fast, err := Annealing{Objective: tc.obj, Seed: 9}.Select(pool, 0.3, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := Annealing{Objective: tc.oracle, Seed: 9}.Select(pool, 0.3, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast.Indices, slow.Indices) || math.Abs(fast.JQ-slow.JQ) > 1e-12 {
			t.Fatalf("%s: evaluator %v (JQ=%v) != oracle %v (JQ=%v)",
				tc.obj.Name(), fast.Indices, fast.JQ, slow.Indices, slow.JQ)
		}
		if fast.Evaluations != slow.Evaluations {
			t.Fatalf("%s: evaluation counts diverged: %d vs %d",
				tc.obj.Name(), fast.Evaluations, slow.Evaluations)
		}
	}
}

// Parallel restarts must be invisible: the folded result equals running
// each restart as its own single-pass selector and keeping the first
// best, bit for bit, and repeated Selects are identical.
func TestAnnealingParallelRestartsDeterministic(t *testing.T) {
	pool := evalTestPool(t, 53, 30)
	const restarts = 4
	sel := Annealing{Objective: BVObjective{}, Seed: 17, Restarts: restarts, AllowRemoval: true}
	got, err := sel.Select(pool, 0.4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	again, err := sel.Select(pool, 0.4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, again) {
		t.Fatalf("repeated Select differs:\n%+v\n%+v", got, again)
	}
	// Reference: sequential fold over single-restart runs on the derived
	// seeds.
	var want Result
	wantSet := false
	evals := 0
	for r := 0; r < restarts; r++ {
		single := Annealing{
			Objective:    BVObjective{},
			Seed:         17 + int64(r)*restartSeedStride,
			AllowRemoval: true,
		}
		res, err := single.Select(pool, 0.4, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		evals += res.Evaluations
		if !wantSet || res.JQ > want.JQ {
			want = res
			wantSet = true
		}
	}
	want.Evaluations = evals
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parallel restarts diverge from sequential fold:\n got %+v\nwant %+v", got, want)
	}
}

// The BV estimator's memo must be exercised by a real annealing run —
// the whole point of the engine is that revisited juries are free.
func TestAnnealingHitsEstimatorMemo(t *testing.T) {
	pool := evalTestPool(t, 54, 30)
	est, err := jq.NewEstimator(pool, 0.5, jq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := newAnnealSearch(newSpace(BVObjective{}, pool, 0.5), bvEvaluator{est: est}, 0.4, rand.New(rand.NewSource(3)), false)
	if s.curJQ, err = s.objective(s.members); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 4000; step++ {
		if err := s.move(0.5); err != nil {
			t.Fatal(err)
		}
	}
	stats := est.Stats()
	if stats.Hits == 0 {
		t.Fatalf("annealing-shaped workload produced no memo hits: %+v", stats)
	}
}
