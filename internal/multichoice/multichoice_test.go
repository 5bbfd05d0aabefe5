package multichoice

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/jq"
	"repro/internal/worker"
)

// symWorker builds a symmetric-confusion worker; panics on bad input (test
// helper only).
func symWorker(labels int, q, cost float64) Worker {
	m, err := NewSymmetricConfusion(labels, q)
	if err != nil {
		panic(err)
	}
	return Worker{Confusion: m, Cost: cost}
}

func symPool(labels int, qs ...float64) Pool {
	p := make(Pool, len(qs))
	for i, q := range qs {
		p[i] = symWorker(labels, q, 1)
	}
	return p
}

func TestNewSymmetricConfusion(t *testing.T) {
	m, err := NewSymmetricConfusion(3, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m[0][0] != 0.7 || math.Abs(m[0][1]-0.15) > 1e-12 {
		t.Fatalf("matrix = %v", m)
	}
	if _, err := NewSymmetricConfusion(1, 0.7); !errors.Is(err, ErrBadMatrix) {
		t.Errorf("labels=1: err = %v", err)
	}
	if _, err := NewSymmetricConfusion(3, 1.5); !errors.Is(err, ErrBadMatrix) {
		t.Errorf("q=1.5: err = %v", err)
	}
}

func TestConfusionMatrixValidate(t *testing.T) {
	bad := []ConfusionMatrix{
		{{1}},                         // 1x1
		{{0.5, 0.5}, {0.5}},           // ragged
		{{0.5, 0.5}, {0.7, 0.7}},      // row sum != 1
		{{1.5, -0.5}, {0.5, 0.5}},     // out of range
		{{0.5, 0.5}, {math.NaN(), 1}}, // NaN
	}
	for i, m := range bad {
		if err := m.Validate(); !errors.Is(err, ErrBadMatrix) {
			t.Errorf("matrix %d: err = %v, want ErrBadMatrix", i, err)
		}
	}
}

func TestPriorValidate(t *testing.T) {
	if err := UniformPrior(3).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Prior{
		{1},         // single label
		{0.5, 0.4},  // doesn't sum to 1
		{-0.1, 1.1}, // out of range
	}
	for i, p := range bad {
		if err := p.Validate(); !errors.Is(err, ErrBadPrior) {
			t.Errorf("prior %d: err = %v, want ErrBadPrior", i, err)
		}
	}
}

func TestPoolValidate(t *testing.T) {
	if err := (Pool{}).Validate(); !errors.Is(err, ErrEmptyJury) {
		t.Errorf("empty: err = %v", err)
	}
	mixed := Pool{symWorker(2, 0.7, 1), symWorker(3, 0.7, 1)}
	if err := mixed.Validate(); !errors.Is(err, ErrArity) {
		t.Errorf("mixed labels: err = %v", err)
	}
	neg := Pool{{Confusion: mustSym(2, 0.7), Cost: -1}}
	if err := neg.Validate(); err == nil {
		t.Error("negative cost accepted")
	}
}

func mustSym(l int, q float64) ConfusionMatrix {
	m, err := NewSymmetricConfusion(l, q)
	if err != nil {
		panic(err)
	}
	return m
}

func TestPluralityAndTieBreak(t *testing.T) {
	pool := symPool(3, 0.7, 0.7, 0.7)
	prior := UniformPrior(3)
	probs, err := Plurality{}.Probabilities([]Label{2, 2, 0}, pool, prior)
	if err != nil {
		t.Fatal(err)
	}
	if probs[2] != 1 {
		t.Fatalf("probs = %v, want label 2", probs)
	}
	// 1–1–1 tie goes to the smallest label.
	probs, err = Plurality{}.Probabilities([]Label{2, 1, 0}, pool, prior)
	if err != nil {
		t.Fatal(err)
	}
	if probs[0] != 1 {
		t.Fatalf("tie probs = %v, want label 0", probs)
	}
}

func TestBayesianUsesConfusionStructure(t *testing.T) {
	// Worker 0 is a "confuser": when truth is 1 they usually vote 2. A
	// vote of 2 from them plus weak votes for 1 should favour truth 1.
	confuser := ConfusionMatrix{
		{0.8, 0.1, 0.1},
		{0.1, 0.1, 0.8}, // votes 2 when truth is 1
		{0.1, 0.1, 0.8},
	}
	// Break the 1-vs-2 symmetry of the confuser with a second worker who
	// is mildly informative for truth 1.
	helper := mustSym(3, 0.5)
	pool := Pool{{Confusion: confuser}, {Confusion: helper}}
	prior := Prior{0.2, 0.5, 0.3}
	probs, err := Bayesian{}.Probabilities([]Label{2, 1}, pool, prior)
	if err != nil {
		t.Fatal(err)
	}
	// Posterior: t=0: 0.2·0.1·0.25; t=1: 0.5·0.8·0.5; t=2: 0.3·0.8·0.25.
	if probs[1] != 1 {
		t.Fatalf("probs = %v, want label 1", probs)
	}
}

func TestBinarySymmetricMatchesSingleQualityModel(t *testing.T) {
	// ℓ=2 symmetric confusion workers must reproduce the binary JQ.
	qs := []float64{0.9, 0.6, 0.6}
	mcPool := symPool(2, qs...)
	got, err := ExactBV(mcPool, UniformPrior(2))
	if err != nil {
		t.Fatal(err)
	}
	want, err := jq.ExactBV(worker.UniformCost(qs, 1), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("multichoice ℓ=2 JQ = %v, binary JQ = %v", got, want)
	}
}

func TestBinaryWithPriorMatchesSingleQualityModel(t *testing.T) {
	qs := []float64{0.7, 0.8}
	mcPool := symPool(2, qs...)
	got, err := ExactBV(mcPool, Prior{0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	want, err := jq.ExactBV(worker.UniformCost(qs, 1), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("ℓ=2 with prior: %v vs %v", got, want)
	}
}

func TestExactJQGenericMatchesExactBVForBayesian(t *testing.T) {
	pool := symPool(3, 0.8, 0.6, 0.7)
	prior := Prior{0.5, 0.25, 0.25}
	generic, err := ExactJQ(pool, Bayesian{}, prior)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := ExactBV(pool, prior)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(generic-fast) > 1e-12 {
		t.Fatalf("generic %v != fast %v", generic, fast)
	}
}

func TestRandomBallotJQ(t *testing.T) {
	pool := symPool(4, 0.9, 0.9)
	got, err := ExactJQ(pool, RandomBallot{}, UniformPrior(4))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("JQ(RBV, ℓ=4) = %v, want 0.25", got)
	}
}

// Equation 10: BV is optimal among all strategies in the ℓ-ary model too.
func TestBVOptimalityMultiChoiceProperty(t *testing.T) {
	strategies := []Strategy{Plurality{}, RandomBallot{}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := rng.Intn(2) + 2 // ℓ ∈ {2, 3}
		n := rng.Intn(4) + 1
		pool := make(Pool, n)
		for i := range pool {
			pool[i] = randomWorker(rng, l)
		}
		prior := randomPrior(rng, l)
		best, err := ExactBV(pool, prior)
		if err != nil {
			return false
		}
		for _, s := range strategies {
			got, err := ExactJQ(pool, s, prior)
			if err != nil {
				return false
			}
			if got > best+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func randomWorker(rng *rand.Rand, l int) Worker {
	m := make(ConfusionMatrix, l)
	for j := range m {
		m[j] = make([]float64, l)
		var sum float64
		for k := range m[j] {
			m[j][k] = 0.05 + rng.Float64()
			sum += m[j][k]
		}
		for k := range m[j] {
			m[j][k] /= sum
		}
	}
	return Worker{Confusion: m, Cost: 0.1 + rng.Float64()}
}

func randomPrior(rng *rand.Rand, l int) Prior {
	p := make(Prior, l)
	var sum float64
	for i := range p {
		p[i] = 0.05 + rng.Float64()
		sum += p[i]
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

// Lemma 1 extension: adding a worker never decreases the ℓ-ary JQ.
func TestLemma1ExtensionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := rng.Intn(2) + 2
		n := rng.Intn(4) + 1
		pool := make(Pool, n)
		for i := range pool {
			pool[i] = randomWorker(rng, l)
		}
		prior := randomPrior(rng, l)
		base, err := ExactBV(pool, prior)
		if err != nil {
			return false
		}
		bigger, err := ExactBV(append(pool, randomWorker(rng, l)), prior)
		if err != nil {
			return false
		}
		return bigger >= base-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateBVConvergesToExact(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		l := rng.Intn(2) + 2
		n := rng.Intn(4) + 2
		pool := make(Pool, n)
		for i := range pool {
			pool[i] = randomWorker(rng, l)
		}
		prior := randomPrior(rng, l)
		exact, err := ExactBV(pool, prior)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := EstimateBV(pool, prior, 2000)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(exact-approx) > 0.01 {
			t.Fatalf("ℓ=%d n=%d: exact %v vs approx %v", l, n, exact, approx)
		}
	}
}

func TestEstimateBVBinaryAgreesWithAlgorithm1(t *testing.T) {
	qs := []float64{0.9, 0.6, 0.6}
	approx, err := EstimateBV(symPool(2, qs...), UniformPrior(2), 2000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(approx-0.9) > 0.005 {
		t.Fatalf("ℓ=2 estimate = %v, want ≈0.90", approx)
	}
}

func TestEstimateBVLabelBlindWorkers(t *testing.T) {
	// Workers whose rows are identical carry no information; BV follows
	// the prior.
	blind := ConfusionMatrix{
		{0.5, 0.3, 0.2},
		{0.5, 0.3, 0.2},
		{0.5, 0.3, 0.2},
	}
	pool := Pool{{Confusion: blind}, {Confusion: blind}}
	prior := Prior{0.2, 0.7, 0.1}
	got, err := EstimateBV(pool, prior, 50)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("JQ = %v, want 0.7 (prior max)", got)
	}
}

func TestEstimateBVRejectsBadBuckets(t *testing.T) {
	if _, err := EstimateBV(symPool(3, 0.7), UniformPrior(3), -1); err == nil {
		t.Fatal("no error for negative buckets")
	}
}

func TestExactJQSizeGuard(t *testing.T) {
	pool := make(Pool, 30)
	for i := range pool {
		pool[i] = symWorker(3, 0.7, 1)
	}
	if _, err := ExactBV(pool, UniformPrior(3)); !errors.Is(err, ErrJuryTooLarge) {
		t.Fatalf("err = %v, want ErrJuryTooLarge", err)
	}
}

func TestSelectExhaustiveMultiChoice(t *testing.T) {
	pool := Pool{
		symWorker(3, 0.9, 5),
		symWorker(3, 0.7, 2),
		symWorker(3, 0.6, 1),
	}
	prior := UniformPrior(3)
	res, err := SelectExhaustive(pool, 3, prior, ExactObjective)
	if err != nil {
		t.Fatal(err)
	}
	// Budget 3 excludes the 0.9 worker; best is {0.7, 0.6}.
	if res.Cost > 3 {
		t.Fatalf("cost %v > 3", res.Cost)
	}
	want, err := ExactBV(Pool{symWorker(3, 0.7, 2), symWorker(3, 0.6, 1)}, prior)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.JQ-want) > 1e-12 {
		t.Fatalf("JQ = %v, want %v", res.JQ, want)
	}
}

// Exhaustive search breaks JQ ties like the binary selector: within
// 1e-12, the cheaper jury wins, then the lexicographically smaller index
// set. Worker 0 separates label 0 from the rest, worker 3 separates 1
// from 2, worker 1 is perfect and worker 2 duplicates worker 0. At budget
// 2 the juries {1}, {0, 3} and {2, 3} all reach JQ 1 at cost 2; {0, 3}
// is the lexicographically smallest, though {1} comes first in mask
// order.
func TestSelectExhaustiveTieBreak(t *testing.T) {
	splitter := ConfusionMatrix{{1, 0, 0}, {0, 0.5, 0.5}, {0, 0.5, 0.5}}
	perfect := ConfusionMatrix{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	refiner := ConfusionMatrix{{0.5, 0.25, 0.25}, {0, 1, 0}, {0, 0, 1}}
	pool := Pool{
		{Confusion: splitter, Cost: 1},
		{Confusion: perfect, Cost: 2},
		{Confusion: splitter, Cost: 1},
		{Confusion: refiner, Cost: 1},
	}
	res, err := SelectExhaustive(pool, 2, UniformPrior(3), ExactObjective)
	if err != nil {
		t.Fatal(err)
	}
	for _, tie := range [][]int{{1}, {0, 3}, {2, 3}} {
		jq, err := ExactBV(pool.Subset(tie), UniformPrior(3))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(jq-res.JQ) > 1e-12 {
			t.Fatalf("jury %v: JQ %v, selected JQ %v: not a tie", tie, jq, res.JQ)
		}
	}
	if !slices.Equal(res.Indices, []int{0, 3}) || res.Cost != 2 {
		t.Fatalf("selected %v (cost %v, JQ %v, evals %d), want [0 3] (cost 2)", res.Indices, res.Cost, res.JQ, res.Evaluations)
	}
}

func TestSelectAnnealingMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		l := 3
		n := rng.Intn(4) + 4
		pool := make(Pool, n)
		for i := range pool {
			pool[i] = randomWorker(rng, l)
		}
		prior := randomPrior(rng, l)
		budget := 0.5 + rng.Float64()
		exact, err := SelectExhaustive(pool, budget, prior, ExactObjective)
		if err != nil {
			t.Fatal(err)
		}
		heur, err := SelectAnnealing(pool, budget, prior, ExactObjective, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		if heur.Cost > budget+1e-12 {
			t.Fatalf("annealing violated budget: %v > %v", heur.Cost, budget)
		}
		if exact.JQ-heur.JQ > 0.05 {
			t.Fatalf("gap %v too large (exact %v, heuristic %v)", exact.JQ-heur.JQ, exact.JQ, heur.JQ)
		}
	}
}

func TestSelectValidation(t *testing.T) {
	pool := symPool(3, 0.7, 0.8)
	prior := UniformPrior(3)
	if _, err := SelectAnnealing(pool, -1, prior, ExactObjective, 1); err == nil {
		t.Error("no error for negative budget (annealing)")
	}
	if _, err := SelectExhaustive(pool, -1, prior, ExactObjective); err == nil {
		t.Error("no error for negative budget (exhaustive)")
	}
	if _, err := SelectAnnealing(nil, 1, prior, ExactObjective, 1); err == nil {
		t.Error("no error for empty pool")
	}
	if _, err := SelectExhaustive(pool, 1, Prior{0.5, 0.4}, ExactObjective); err == nil {
		t.Error("no error for bad prior")
	}
}

func TestSortByDiagonalDesc(t *testing.T) {
	pool := symPool(3, 0.6, 0.9, 0.7)
	sorted := sortByDiagonalDesc(pool)
	if diagMean(sorted[0].Confusion) != 0.9 || diagMean(sorted[2].Confusion) != 0.6 {
		t.Fatalf("sorted diagonals = %v, %v, %v",
			diagMean(sorted[0].Confusion), diagMean(sorted[1].Confusion), diagMean(sorted[2].Confusion))
	}
}
