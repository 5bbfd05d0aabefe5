package selection

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/jq"
	"repro/internal/worker"
)

// figure1Pool is the running example of the paper's Figure 1: seven
// candidate workers A–G with (quality, cost) pairs.
func figure1Pool() worker.Pool {
	return worker.Pool{
		{ID: "A", Quality: 0.77, Cost: 9},
		{ID: "B", Quality: 0.70, Cost: 5},
		{ID: "C", Quality: 0.80, Cost: 6},
		{ID: "D", Quality: 0.65, Cost: 7},
		{ID: "E", Quality: 0.60, Cost: 5},
		{ID: "F", Quality: 0.60, Cost: 2},
		{ID: "G", Quality: 0.75, Cost: 3},
	}
}

func ids(p worker.Pool) []string {
	out := make([]string, len(p))
	for i, w := range p {
		out[i] = w.ID
	}
	return out
}

// TestFigure1BudgetQualityTable reproduces the paper's headline example:
// the optimal juries and their JQ for budgets 5, 10, 15, 20.
func TestFigure1BudgetQualityTable(t *testing.T) {
	pool := figure1Pool()
	sel := Exhaustive{Objective: BVExactObjective{}}
	tests := []struct {
		budget float64
		// wantIDs lists acceptable optimal juries: the paper reports
		// {A,C,F,G} at budget 20, but {A,C,G} has identical JQ (worker F's
		// ±φ(0.6) can never flip the Bayesian decision of A, C, G), and
		// this implementation tie-breaks toward the cheaper jury.
		wantIDs  [][]string
		wantJQ   float64
		wantCost []float64
	}{
		// {G} ties {F,G} at 0.75 and {C} ties {C,G} at 0.80: under BV the
		// dominant worker's log-odds exceed the weaker one's, so the weak
		// vote never flips the decision and contributes nothing to JQ.
		{5, [][]string{{"F", "G"}, {"G"}}, 0.75, []float64{5, 3}},
		{10, [][]string{{"C", "G"}, {"C"}}, 0.80, []float64{9, 6}},
		{15, [][]string{{"B", "C", "G"}}, 0.845, []float64{14}},
		{20, [][]string{{"A", "C", "F", "G"}, {"A", "C", "G"}}, 0.8695, []float64{20, 18}},
	}
	for _, tt := range tests {
		res, err := sel.Select(pool, tt.budget, 0.5)
		if err != nil {
			t.Fatalf("budget %v: %v", tt.budget, err)
		}
		got := ids(res.Jury)
		matched := -1
		for i, want := range tt.wantIDs {
			if reflect.DeepEqual(got, want) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("budget %v: jury = %v, want one of %v", tt.budget, got, tt.wantIDs)
			continue
		}
		if math.Abs(res.JQ-tt.wantJQ) > 1e-9 {
			t.Errorf("budget %v: JQ = %v, want %v", tt.budget, res.JQ, tt.wantJQ)
		}
		if math.Abs(res.Cost-tt.wantCost[matched]) > 1e-9 {
			t.Errorf("budget %v: cost = %v, want %v", tt.budget, res.Cost, tt.wantCost[matched])
		}
	}
}

func TestExhaustiveEmptyBudget(t *testing.T) {
	res, err := Exhaustive{Objective: BVExactObjective{}}.Select(figure1Pool(), 0, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jury) != 0 {
		t.Fatalf("jury = %v, want empty", res.Jury)
	}
	if math.Abs(res.JQ-0.7) > 1e-12 {
		t.Fatalf("empty-jury JQ = %v, want 0.7 (prior only)", res.JQ)
	}
}

func TestExhaustiveRejectsHugePool(t *testing.T) {
	big := make(worker.Pool, MaxExhaustiveN+1)
	for i := range big {
		big[i] = worker.Worker{Quality: 0.7, Cost: 1}
	}
	_, err := Exhaustive{Objective: MVObjective{}}.Select(big, 5, 0.5)
	if !errors.Is(err, ErrPoolTooLarge) {
		t.Fatalf("err = %v, want ErrPoolTooLarge", err)
	}
}

func TestSelectInputValidation(t *testing.T) {
	selectors := []Selector{
		Exhaustive{Objective: MVObjective{}},
		Annealing{Objective: MVObjective{}},
		GreedyQuality{Objective: MVObjective{}},
		GreedyRatio{Objective: MVObjective{}},
		TopK{Objective: MVObjective{}, K: 3},
		Auto{Objective: MVObjective{}},
	}
	pool := figure1Pool()
	for _, sel := range selectors {
		t.Run(sel.Name(), func(t *testing.T) {
			if _, err := sel.Select(nil, 5, 0.5); err == nil {
				t.Error("no error for empty pool")
			}
			if _, err := sel.Select(pool, -1, 0.5); err == nil {
				t.Error("no error for negative budget")
			}
			if _, err := sel.Select(pool, 5, 1.5); err == nil {
				t.Error("no error for invalid prior")
			}
		})
	}
}

// TestAcceptImprovingAlways: Algorithm 3's Boltzmann rule always takes
// a move that does not worsen the objective, however cold.
func TestAcceptImprovingAlways(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if !accept(rng.Float64(), 1e-12, rng) {
			t.Fatal("improving move rejected")
		}
	}
	if !accept(0, 1e-12, rng) {
		t.Fatal("neutral move rejected")
	}
}

func TestAcceptWorseningFrequency(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	delta, temp := -0.5, 1.0
	want := math.Exp(delta / temp)
	accepted := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if accept(delta, temp, rng) {
			accepted++
		}
	}
	got := float64(accepted) / trials
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("acceptance rate = %v, want ~%v", got, want)
	}
}

func TestAcceptFrozenRejectsWorsening(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if accept(-0.01, 0, rng) {
		t.Fatal("worsening move accepted at T=0")
	}
}

// Property: acceptance probability of worsening moves is monotone in
// temperature — colder never accepts more often (statistically).
func TestAcceptMonotoneInTemperatureProperty(t *testing.T) {
	f := func(seed int64, dRaw, tRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		delta := -(float64(dRaw%100) + 1) / 100 // in [-1.01, -0.01]
		hot := (float64(tRaw%50) + 51) / 100    // in (0.5, 1.01]
		cold := hot / 4
		const trials = 4000
		hotAcc, coldAcc := 0, 0
		for i := 0; i < trials; i++ {
			if accept(delta, hot, rng) {
				hotAcc++
			}
			if accept(delta, cold, rng) {
				coldAcc++
			}
		}
		// Allow statistical slack: 4 sigma ≈ 4·sqrt(0.25/4000) ≈ 0.032.
		return float64(hotAcc-coldAcc)/trials > -0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestAnnealingFindsFigure1Optimum(t *testing.T) {
	pool := figure1Pool()
	sel := Annealing{Objective: BVExactObjective{}, Seed: 1}
	res, err := sel.Select(pool, 15, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.JQ-0.845) > 1e-9 {
		t.Fatalf("annealing JQ = %v, want 0.845", res.JQ)
	}
	if got := ids(res.Jury); !reflect.DeepEqual(got, []string{"B", "C", "G"}) {
		t.Fatalf("jury = %v, want [B C G]", got)
	}
}

func TestAnnealingDeterministicUnderSeed(t *testing.T) {
	pool := figure1Pool()
	a := Annealing{Objective: BVObjective{}, Seed: 7}
	r1, err := a.Select(pool, 12, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Select(pool, 12, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Indices, r2.Indices) || r1.JQ != r2.JQ {
		t.Fatalf("same seed diverged: %v vs %v", r1, r2)
	}
}

func TestAnnealingRestartsNeverHurt(t *testing.T) {
	pool := figure1Pool()
	single, err := Annealing{Objective: BVExactObjective{}, Seed: 3}.Select(pool, 20, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Annealing{Objective: BVExactObjective{}, Seed: 3, Restarts: 4}.Select(pool, 20, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if multi.JQ < single.JQ-1e-12 {
		t.Fatalf("restarts reduced JQ: %v < %v", multi.JQ, single.JQ)
	}
	if multi.Evaluations <= single.Evaluations {
		t.Fatalf("restarts should cost more evaluations: %d vs %d", multi.Evaluations, single.Evaluations)
	}
}

// Property: annealing always returns a feasible jury and comes close to the
// exhaustive optimum on instances drawn from the paper's synthetic
// distribution (Figure 7a / Table 3 claim): quality N(0.7, 0.05),
// cost N(0.05, 0.2²) clamped positive, budget in [0.05, 0.5].
func TestAnnealingNearOptimalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(7) + 4
		pool := make(worker.Pool, n)
		for i := range pool {
			cost := math.Abs(rng.NormFloat64()*0.2 + 0.05)
			if cost < 0.01 {
				cost = 0.01
			}
			pool[i] = worker.Worker{
				Quality: 0.5 + 0.45*rng.Float64(),
				Cost:    cost,
			}
		}
		budget := 0.05 + 0.45*rng.Float64()
		exact, err := Exhaustive{Objective: BVExactObjective{}}.Select(pool, budget, 0.5)
		if err != nil {
			return false
		}
		// The removal search OPTJS serves on small annealed pools
		// (restarts + removal move); the plain single-pass Algorithm 3
		// exhibits rare larger gaps on this cost distribution (see the
		// table3 experiment note).
		heur, err := Annealing{Objective: BVExactObjective{}, Seed: seed, Restarts: 2, AllowRemoval: true}.
			Select(pool, budget, 0.5)
		if err != nil {
			return false
		}
		if heur.Cost > budget+1e-12 {
			return false
		}
		if heur.JQ > exact.JQ+1e-9 { // cannot beat the optimum
			return false
		}
		// Table 3 reports the vast majority of gaps below 0.01% with a
		// worst case under 3%; allow a little slack for these arbitrary
		// random instances.
		return exact.JQ-heur.JQ < 0.05
	}
	// Fixed generator: the property is statistical (rare tail gaps exist by
	// design), so the CI run must be reproducible.
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(20150323))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyQualityOptimalForUniformCosts(t *testing.T) {
	// With equal costs the top-⌊B/c⌋ workers by quality are optimal
	// (Lemma 2 consequence, Section 5).
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(6) + 4
		qs := make([]float64, n)
		for i := range qs {
			qs[i] = 0.5 + 0.45*rng.Float64()
		}
		pool := worker.UniformCost(qs, 1)
		budget := float64(rng.Intn(n) + 1)
		exact, err := Exhaustive{Objective: BVExactObjective{}}.Select(pool, budget, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		greedy, err := GreedyQuality{Objective: BVExactObjective{}}.Select(pool, budget, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(greedy.JQ-exact.JQ) > 1e-9 {
			t.Fatalf("uniform costs: greedy JQ %v != optimal %v (qs=%v, B=%v)",
				greedy.JQ, exact.JQ, qs, budget)
		}
	}
}

func TestGreedySelectorsRespectBudget(t *testing.T) {
	pool := figure1Pool()
	for _, sel := range []Selector{
		GreedyQuality{Objective: MVObjective{}},
		GreedyRatio{Objective: MVObjective{}},
		TopK{Objective: MVObjective{}, K: 3},
	} {
		for _, budget := range []float64{0, 3, 7.5, 14, 100} {
			res, err := sel.Select(pool, budget, 0.5)
			if err != nil {
				t.Fatalf("%s: %v", sel.Name(), err)
			}
			if res.Cost > budget+1e-12 {
				t.Errorf("%s: cost %v exceeds budget %v", sel.Name(), res.Cost, budget)
			}
		}
	}
}

func TestGreedyRatioPrefersFreeWorkers(t *testing.T) {
	pool := worker.Pool{
		{ID: "paid", Quality: 0.9, Cost: 5},
		{ID: "free", Quality: 0.6, Cost: 0},
	}
	res, err := GreedyRatio{Objective: BVExactObjective{}}.Select(pool, 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jury) != 2 {
		t.Fatalf("jury = %v, want both workers", res.Jury)
	}
}

func TestTopKLimitsJurySize(t *testing.T) {
	pool := figure1Pool()
	res, err := TopK{Objective: MVObjective{}, K: 2}.Select(pool, 100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jury) != 2 {
		t.Fatalf("jury size = %d, want 2", len(res.Jury))
	}
	// Highest-quality pair is C (0.8) and A (0.77).
	if got := ids(res.Jury); !reflect.DeepEqual(got, []string{"A", "C"}) {
		t.Fatalf("jury = %v, want [A C]", got)
	}
}

func TestAutoDispatch(t *testing.T) {
	pool := figure1Pool() // N=7 ≤ 15 → exhaustive
	res, err := Auto{Objective: BVExactObjective{}, Seed: 1}.Select(pool, 15, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.JQ-0.845) > 1e-9 {
		t.Fatalf("auto (exhaustive path) JQ = %v, want 0.845", res.JQ)
	}
	// Force the annealing path with MaxN = 1.
	res2, err := Auto{Objective: BVExactObjective{}, Seed: 1, MaxN: 1}.Select(pool, 15, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cost > 15 {
		t.Fatalf("annealing path violated budget: %v", res2.Cost)
	}
}

// The paper's central end-to-end claim: juries selected by OPTJS are at
// least as good as MVJS juries when both are scored under the optimal
// strategy (BV).
func TestOPTJSDominatesMVJSProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(6) + 5
		pool := make(worker.Pool, n)
		for i := range pool {
			pool[i] = worker.Worker{
				Quality: 0.5 + 0.45*rng.Float64(),
				Cost:    0.01 + rng.Float64(),
			}
		}
		budget := 0.3 + 1.5*rng.Float64()
		// Exhaustive search for both objectives: isolates the strategy
		// effect from search noise.
		opt, err := Exhaustive{Objective: BVExactObjective{}}.Select(pool, budget, 0.5)
		if err != nil {
			return false
		}
		mv, err := Exhaustive{Objective: MVObjective{}}.Select(pool, budget, 0.5)
		if err != nil {
			return false
		}
		mvUnderBV, err := newSpace(BVExactObjective{}, pool, 0.5).scoreOne(mv.Indices, mv.Cost)
		if err != nil {
			return false
		}
		return opt.JQ >= mvUnderBV.JQ-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestOPTJSAndMVJSConstructors(t *testing.T) {
	pool := figure1Pool()
	opt, err := OPTJS(1).Select(pool, 15, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	mv, err := MVJS(1).Select(pool, 15, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	optBV, err := jq.ExactBV(opt.Jury, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	mvBV, err := jq.ExactBV(mv.Jury, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if optBV < mvBV-1e-9 {
		t.Fatalf("OPTJS jury (%v) scored below MVJS jury (%v) under BV", optBV, mvBV)
	}
}

func TestObjectiveNames(t *testing.T) {
	names := map[string]Objective{
		"BV":       BVObjective{},
		"BV-exact": BVExactObjective{},
		"MV":       MVObjective{},
	}
	for want, obj := range names {
		if obj.Name() != want {
			t.Errorf("Name = %q, want %q", obj.Name(), want)
		}
	}
}

// Every objective's space answers the empty jury from the prior alone,
// max(α, 1−α), and a search that reaches it counts the evaluation.
func TestEmptyJuryObjectives(t *testing.T) {
	pool := figure1Pool()
	for _, obj := range []Objective{BVObjective{}, BVExactObjective{}, MVObjective{}} {
		for _, alpha := range []float64{0.8, 0.2} {
			sp := newSpace(obj, pool, alpha)
			if sp.Empty != 0.8 {
				t.Errorf("%s, α=%v: Space.Empty = %v, want 0.8", obj.Name(), alpha, sp.Empty)
			}
			one, err := sp.scoreOne(nil, 0)
			if err != nil {
				t.Fatalf("%s: %v", obj.Name(), err)
			}
			// Budget 1 is below every cost in the pool.
			all, err := Exhaustive{}.Search(sp, 1)
			if err != nil {
				t.Fatalf("%s: %v", obj.Name(), err)
			}
			for _, res := range []Result{one, all} {
				if res.JQ != 0.8 || len(res.Indices) != 0 || res.Evaluations != 1 {
					t.Errorf("%s, α=%v: empty jury scored %+v, want JQ 0.8 in 1 evaluation", obj.Name(), alpha, res)
				}
			}
		}
	}
}

// Property: exhaustive never returns an infeasible or dominated jury; the
// budget-quality curve is monotone in the budget.
func TestExhaustiveMonotoneInBudgetProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(5) + 3
		pool := make(worker.Pool, n)
		for i := range pool {
			pool[i] = worker.Worker{
				Quality: 0.5 + 0.45*rng.Float64(),
				Cost:    0.01 + rng.Float64(),
			}
		}
		sel := Exhaustive{Objective: BVExactObjective{}}
		prev := -1.0
		for _, budget := range []float64{0.2, 0.5, 1.0, 2.0, 5.0} {
			res, err := sel.Select(pool, budget, 0.5)
			if err != nil {
				return false
			}
			if res.Cost > budget+1e-12 {
				return false
			}
			if res.JQ < prev-1e-12 {
				return false
			}
			prev = res.JQ
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
