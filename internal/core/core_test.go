package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/selection"
	"repro/internal/voting"
	"repro/internal/worker"
)

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

func TestBudgetQualityTableFigure1(t *testing.T) {
	// Use the exact objective so the JQ values match the paper's table.
	sys := &System{
		Selector: selection.Exhaustive{Objective: selection.BVExactObjective{}},
		Alpha:    0.5,
	}
	rows, err := sys.BudgetQualityTable(figure1Pool(), []float64{20, 5, 15, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	wantJQ := []float64{0.75, 0.80, 0.845, 0.8695}
	wantBudget := []float64{5, 10, 15, 20}
	for i, row := range rows {
		if row.Budget != wantBudget[i] {
			t.Errorf("row %d: budget = %v, want %v (ascending)", i, row.Budget, wantBudget[i])
		}
		if math.Abs(row.JQ-wantJQ[i]) > 1e-9 {
			t.Errorf("row %d: JQ = %v, want %v", i, row.JQ, wantJQ[i])
		}
		if row.RequiredBudget > row.Budget {
			t.Errorf("row %d: required budget %v exceeds budget %v", i, row.RequiredBudget, row.Budget)
		}
	}
}

func TestBudgetQualityTableMonotone(t *testing.T) {
	sys := NewSystem(0.5, 1)
	rows, err := sys.BudgetQualityTable(figure1Pool(), []float64{2, 5, 8, 12, 20, 40})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].JQ < rows[i-1].JQ-1e-9 {
			t.Fatalf("JQ decreased between budgets %v and %v: %v -> %v",
				rows[i-1].Budget, rows[i].Budget, rows[i-1].JQ, rows[i].JQ)
		}
	}
}

func TestBudgetQualityTableNoBudgets(t *testing.T) {
	sys := NewSystem(0.5, 1)
	if _, err := sys.BudgetQualityTable(figure1Pool(), nil); !errors.Is(err, ErrNoBudgets) {
		t.Fatalf("err = %v, want ErrNoBudgets", err)
	}
}

func TestSelectJuryDefaultsToOPTJS(t *testing.T) {
	sys := &System{Alpha: 0.5}
	res, err := sys.SelectJury(figure1Pool(), 15)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > 15 {
		t.Fatalf("cost %v > 15", res.Cost)
	}
	if res.JQ < 0.84 {
		t.Fatalf("JQ = %v, want ≥ 0.84 (near-optimal)", res.JQ)
	}
}

func TestAggregate(t *testing.T) {
	sys := NewSystem(0.5, 1)
	votes := []voting.Vote{voting.No, voting.Yes, voting.Yes}
	quals := []float64{0.9, 0.6, 0.6}
	decision, conf, err := sys.Aggregate(votes, quals)
	if err != nil {
		t.Fatal(err)
	}
	if decision != voting.No {
		t.Fatalf("decision = %v, want no (BV follows the strong worker)", decision)
	}
	// P(t=0|V) ∝ 0.5·0.9·0.4·0.4 = 0.072; P(t=1|V) ∝ 0.5·0.1·0.6·0.6 = 0.018.
	want := 0.072 / (0.072 + 0.018)
	if math.Abs(conf-want) > 1e-12 {
		t.Fatalf("confidence = %v, want %v", conf, want)
	}
}

func TestAggregateErrors(t *testing.T) {
	sys := NewSystem(0.5, 1)
	if _, _, err := sys.Aggregate([]voting.Vote{voting.No}, []float64{0.7, 0.8}); err == nil {
		t.Fatal("no error for arity mismatch")
	}
}

func TestPosteriorCorrect(t *testing.T) {
	got, err := PosteriorCorrect([]voting.Vote{voting.No}, []float64{0.8}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("posterior = %v, want 0.8", got)
	}
	// Degenerate: zero total mass (certain conflicting evidence).
	got, err = PosteriorCorrect([]voting.Vote{voting.No, voting.Yes}, []float64{1, 1}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0.5 {
		t.Fatalf("degenerate posterior = %v, want 0.5", got)
	}
	if _, err := PosteriorCorrect([]voting.Vote{voting.No}, []float64{1.5}, 0.5); err == nil {
		t.Fatal("no error for invalid quality")
	}
	if _, err := PosteriorCorrect([]voting.Vote{voting.No}, nil, 0.5); err == nil {
		t.Fatal("no error for arity mismatch")
	}
}

// A long voting drives both raw likelihoods below the smallest float64;
// the posterior must still follow the evidence rather than collapse to
// the 0.5 of an empty total.
func TestPosteriorCorrectLongVotingDoesNotUnderflow(t *testing.T) {
	// Every block of 15 votes holds 8 yes and 7 no: 800 yes and 700 no.
	votes := make([]voting.Vote, 1500)
	qualities := make([]float64, len(votes))
	for i := range votes {
		votes[i] = voting.No
		if i%15 < 8 {
			votes[i] = voting.Yes
		}
		qualities[i] = 0.6
	}
	// The first 150 votes, 80 yes and 70 no, are short enough for the
	// raw products: 1/(1 + (2/3)^10).
	if got, err := PosteriorCorrect(votes[:150], qualities[:150], 0.5); err != nil || math.Abs(got-1/(1+math.Pow(2.0/3, 10))) > 1e-12 {
		t.Fatalf("150-vote posterior = %v (%v)", got, err)
	}
	got, err := PosteriorCorrect(votes, qualities, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// 100 more yes votes of likelihood ratio 1.5 each.
	want := 1 / (1 + math.Pow(2.0/3, 100))
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("posterior = %v, want %v", got, want)
	}
	decision, err := voting.Decide(voting.Bayesian{}, votes, qualities, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if decision != voting.Yes {
		t.Fatalf("Bayesian decision = %v, want yes", decision)
	}
}

// naivePosteriorCorrect multiplies the raw likelihoods without
// rescaling; on votings that do not underflow, PosteriorCorrect must
// match it bit for bit.
func naivePosteriorCorrect(votes []voting.Vote, qualities []float64, alpha float64) float64 {
	p0, p1 := alpha, 1-alpha
	for i, v := range votes {
		q := qualities[i]
		if v == voting.No {
			p0 *= q
			p1 *= 1 - q
		} else {
			p0 *= 1 - q
			p1 *= q
		}
	}
	total := p0 + p1
	if total == 0 {
		return 0.5
	}
	if p0 >= p1 {
		return p0 / total
	}
	return p1 / total
}

func TestPosteriorCorrectMatchesNaiveOnShortVotings(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(60)
		votes := make([]voting.Vote, n)
		qualities := make([]float64, n)
		for i := range votes {
			votes[i] = voting.Vote(rng.Intn(2))
			switch rng.Intn(8) {
			case 0:
				qualities[i] = 1 // certain workers reach the zero-total case
			case 1:
				qualities[i] = 0.5
			default:
				qualities[i] = rng.Float64()
			}
		}
		alpha := rng.Float64()
		got, err := PosteriorCorrect(votes, qualities, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if want := naivePosteriorCorrect(votes, qualities, alpha); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: posterior %v, naive product %v", trial, got, want)
		}
	}
}

func TestPredictJQ(t *testing.T) {
	sys := NewSystem(0.5, 1)
	got, err := sys.PredictJQ(worker.UniformCost([]float64{0.9, 0.6, 0.6}, 1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.9) > 0.01 {
		t.Fatalf("PredictJQ = %v, want ≈0.90", got)
	}
	if _, err := sys.PredictJQ(nil); err == nil {
		t.Fatal("no error for empty jury")
	}
}
