package selection

import (
	"errors"
	"fmt"

	"repro/internal/worker"
)

// MaxExhaustiveN is the largest candidate pool the exhaustive selector
// accepts: 2^22 subsets is the practical ceiling for an interactive search.
const MaxExhaustiveN = 22

// ErrPoolTooLarge is returned when the exhaustive selector is given more
// candidates than MaxExhaustiveN.
var ErrPoolTooLarge = errors.New("selection: candidate pool too large for exhaustive search")

// Exhaustive enumerates every feasible jury and returns the one with the
// highest objective value. JSP is NP-hard (Theorem 4), so this is only
// viable for small pools; it serves as the ground truth the heuristics are
// measured against (Figure 7a, Table 3).
type Exhaustive struct {
	Objective Objective
}

// Name implements Selector.
func (e Exhaustive) Name() string { return "exhaustive(" + e.Objective.Name() + ")" }

// Select implements Selector.
func (e Exhaustive) Select(pool worker.Pool, budget, alpha float64) (Result, error) {
	if err := checkSelectInput(pool, budget, alpha); err != nil {
		return Result{}, err
	}
	res, err := e.Search(newSpace(e.Objective, pool, alpha), budget)
	return withJury(pool, res, err)
}

// Search enumerates every jury of sp within budget, the empty one
// included, and returns the best one's Indices, JQ, Cost and Evaluations;
// Jury is left nil. Ties between juries whose JQ differ by at most 1e-12
// are broken toward the cheaper jury, then the lexicographically smallest
// index set, so results are deterministic. Search ignores e.Objective.
func (e Exhaustive) Search(sp Space, budget float64) (Result, error) {
	n := len(sp.Costs)
	if n > MaxExhaustiveN {
		return Result{}, fmt.Errorf("%w: N=%d > %d", ErrPoolTooLarge, n, MaxExhaustiveN)
	}
	eval, err := sp.NewEvaluator()
	if err != nil {
		return Result{}, err
	}
	defer release(eval)
	best := Result{JQ: -1, Indices: []int{}}
	evals := 0
	indices := make([]int, 0, n)
	for mask := 0; mask < 1<<uint(n); mask++ {
		var cost float64
		indices = indices[:0]
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				cost += sp.Costs[i]
				indices = append(indices, i)
			}
		}
		if cost > budget {
			continue
		}
		score := sp.Empty
		if mask != 0 {
			if score, err = eval.Eval(indices); err != nil {
				return Result{}, err
			}
		}
		evals++
		if better(score, cost, indices, best) {
			best = Result{
				Indices: append([]int(nil), indices...),
				JQ:      score,
				Cost:    cost,
			}
		}
	}
	best.Evaluations = evals
	return best, nil
}

// better reports whether (score, cost, indices) improves on best, with the
// deterministic tie-break described on Select.
func better(score, cost float64, indices []int, best Result) bool {
	const eps = 1e-12
	switch {
	case score > best.JQ+eps:
		return true
	case score < best.JQ-eps:
		return false
	case cost < best.Cost-eps:
		return true
	case cost > best.Cost+eps:
		return false
	}
	return lexLess(indices, best.Indices)
}

// lexLess orders index sets lexicographically with shorter prefixes first.
func lexLess(a, b []int) bool {
	if b == nil {
		return true
	}
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
