// Package core assembles the paper's primary contribution into the
// "Optimal Jury Selection System" of Figure 1: given a candidate worker
// pool and a prior, it produces the budget–quality table the task provider
// uses to pick a budget, selects the optimal jury, and aggregates the
// collected votes with the optimal (Bayesian) voting strategy.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/jq"
	"repro/internal/selection"
	"repro/internal/voting"
	"repro/internal/worker"
)

// ErrNoBudgets is returned when BudgetQualityTable receives no budgets.
var ErrNoBudgets = errors.New("core: no budgets given")

// System is the Optimal Jury Selection System.
type System struct {
	// Selector searches for juries; nil selects the paper's OPTJS
	// (exhaustive for small pools, Algorithm 3 annealing beyond).
	Selector selection.Selector
	// Alpha is the task provider's prior P(t = 0); 0.5 when unset is the
	// caller's responsibility (the zero value means a certain "no"!).
	Alpha float64
	// Seed drives the annealing path of the default selector.
	Seed int64
}

// NewSystem returns a System with the default OPTJS selector.
func NewSystem(alpha float64, seed int64) *System {
	return &System{Selector: selection.OPTJS(seed), Alpha: alpha, Seed: seed}
}

func (s *System) selector() selection.Selector {
	if s.Selector != nil {
		return s.Selector
	}
	return selection.OPTJS(s.Seed)
}

// SelectJury picks the best jury within budget.
func (s *System) SelectJury(pool worker.Pool, budget float64) (selection.Result, error) {
	return s.selector().Select(pool, budget, s.Alpha)
}

// TableRow is one line of the budget–quality table: the optimal jury for a
// budget, its estimated quality, and the budget it actually requires.
type TableRow struct {
	Budget         float64
	Jury           worker.Pool
	Indices        []int
	JQ             float64
	RequiredBudget float64
}

// BudgetQualityTable computes one row per budget (Figure 1's table). The
// budgets are processed in ascending order and returned in that order.
func (s *System) BudgetQualityTable(pool worker.Pool, budgets []float64) ([]TableRow, error) {
	if len(budgets) == 0 {
		return nil, ErrNoBudgets
	}
	sorted := append([]float64(nil), budgets...)
	sort.Float64s(sorted)
	rows := make([]TableRow, 0, len(sorted))
	for _, b := range sorted {
		res, err := s.SelectJury(pool, b)
		if err != nil {
			return nil, fmt.Errorf("core: budget %v: %w", b, err)
		}
		rows = append(rows, TableRow{
			Budget:         b,
			Jury:           res.Jury,
			Indices:        res.Indices,
			JQ:             res.JQ,
			RequiredBudget: res.Cost,
		})
	}
	return rows, nil
}

// Aggregate runs the optimal strategy (Bayesian Voting) over collected
// votes, returning the decision and the posterior probability that the
// decision is correct.
func (s *System) Aggregate(votes []voting.Vote, qualities []float64) (voting.Vote, float64, error) {
	decision, err := voting.Decide(voting.Bayesian{}, votes, qualities, s.Alpha, nil)
	if err != nil {
		return 0, 0, err
	}
	post, err := PosteriorCorrect(votes, qualities, s.Alpha)
	if err != nil {
		return 0, 0, err
	}
	return decision, post, nil
}

// PosteriorCorrect returns max(P(t=0|V), P(t=1|V)): the probability that
// the Bayesian decision on this specific voting is correct.
func PosteriorCorrect(votes []voting.Vote, qualities []float64, alpha float64) (float64, error) {
	if len(votes) != len(qualities) {
		return 0, fmt.Errorf("core: %d votes, %d qualities", len(votes), len(qualities))
	}
	p0, p1 := alpha, 1-alpha
	for i, v := range votes {
		q := qualities[i]
		if q < 0 || q > 1 {
			return 0, fmt.Errorf("core: quality %v outside [0, 1]", q)
		}
		if v == voting.No {
			p0 *= q
			p1 *= 1 - q
		} else {
			p0 *= 1 - q
			p1 *= q
		}
		// A long voting would underflow both products to 0. Scaling
		// both by one power of two is exact and cancels in the ratio,
		// and votings that never reach the threshold keep their bits.
		if m := math.Max(p0, p1); m < 0x1p-512 {
			_, exp := math.Frexp(m)
			p0, p1 = math.Ldexp(p0, -exp), math.Ldexp(p1, -exp)
		}
	}
	total := p0 + p1
	if total == 0 {
		return 0.5, nil
	}
	if p0 >= p1 {
		return p0 / total, nil
	}
	return p1 / total, nil
}

// PredictJQ estimates the quality of an externally chosen jury under the
// system's prior — the quantity Figure 10(d) compares against realized
// accuracy.
func (s *System) PredictJQ(jury worker.Pool) (float64, error) {
	res, err := jq.Estimate(jury, s.Alpha, jq.Options{})
	if err != nil {
		return 0, err
	}
	return res.JQ, nil
}
