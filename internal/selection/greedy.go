package selection

import (
	"math"
	"sort"

	"repro/internal/worker"
)

// GreedyQuality adds workers in decreasing quality order, skipping anyone
// who does not fit the remaining budget. It is optimal when all costs are
// equal (Lemma 2 of the paper) and a fast baseline otherwise.
type GreedyQuality struct {
	Objective Objective
}

// Name implements Selector.
func (g GreedyQuality) Name() string { return "greedy-quality(" + g.Objective.Name() + ")" }

// Select implements Selector.
func (g GreedyQuality) Select(pool worker.Pool, budget, alpha float64) (Result, error) {
	if err := checkSelectInput(pool, budget, alpha); err != nil {
		return Result{}, err
	}
	order := rankedIndices(pool, func(a, b worker.Worker) bool {
		if a.Quality != b.Quality {
			return a.Quality > b.Quality
		}
		return a.Cost < b.Cost
	})
	return greedySelect(pool, order, budget, alpha, g.Objective)
}

// GreedyRatio adds workers in decreasing informativeness-per-cost order,
// where informativeness is the Bayesian log-odds weight φ(q) = ln(q/(1−q))
// of the normalized quality. Free workers (cost 0) rank first. This is the
// knapsack-style density heuristic used as an ablation baseline.
type GreedyRatio struct {
	Objective Objective
}

// Name implements Selector.
func (g GreedyRatio) Name() string { return "greedy-ratio(" + g.Objective.Name() + ")" }

// Select implements Selector.
func (g GreedyRatio) Select(pool worker.Pool, budget, alpha float64) (Result, error) {
	if err := checkSelectInput(pool, budget, alpha); err != nil {
		return Result{}, err
	}
	density := func(w worker.Worker) float64 {
		q := w.Quality
		if q < 0.5 {
			q = 1 - q
		}
		if q >= 1 {
			q = 1 - 1e-9
		}
		info := math.Log(q / (1 - q))
		if w.Cost == 0 {
			return math.Inf(1)
		}
		return info / w.Cost
	}
	order := rankedIndices(pool, func(a, b worker.Worker) bool {
		da, db := density(a), density(b)
		if da != db {
			return da > db
		}
		return a.Cost < b.Cost
	})
	return greedySelect(pool, order, budget, alpha, g.Objective)
}

// TopK selects the K highest-quality workers that fit the budget (greedily,
// in quality order). With uniform costs c and K = ⌊B/c⌋ this is the optimal
// jury (Lemma 2); with heterogeneous costs it is a baseline.
type TopK struct {
	Objective Objective
	K         int
}

// Name implements Selector.
func (t TopK) Name() string { return "topk(" + t.Objective.Name() + ")" }

// Select implements Selector.
func (t TopK) Select(pool worker.Pool, budget, alpha float64) (Result, error) {
	if err := checkSelectInput(pool, budget, alpha); err != nil {
		return Result{}, err
	}
	order := rankedIndices(pool, func(a, b worker.Worker) bool {
		if a.Quality != b.Quality {
			return a.Quality > b.Quality
		}
		return a.Cost < b.Cost
	})
	if t.K < len(order) {
		order = order[:t.K]
	}
	return greedySelect(pool, order, budget, alpha, t.Objective)
}

// rankedIndices returns pool indices sorted by the given worker ordering.
func rankedIndices(pool worker.Pool, less func(a, b worker.Worker) bool) []int {
	order := make([]int, len(pool))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return less(pool[order[i]], pool[order[j]])
	})
	return order
}

// greedySelect runs GreedyWalk over the Space of obj and materializes
// the jury.
func greedySelect(pool worker.Pool, order []int, budget, alpha float64, obj Objective) (Result, error) {
	res, err := GreedyWalk(newSpace(obj, pool, alpha), order, budget)
	return withJury(pool, res, err)
}

// GreedyWalk walks the ranked candidate indices of sp, adding every one
// that still fits the budget, then scores the resulting jury once. It
// returns the jury's ascending Indices, JQ, Cost and Evaluations (always
// 1, the empty jury included); Jury is left nil.
func GreedyWalk(sp Space, order []int, budget float64) (Result, error) {
	var cost float64
	var chosen []int
	for _, idx := range order {
		if c := sp.Costs[idx]; cost+c <= budget {
			chosen = append(chosen, idx)
			cost += c
		}
	}
	sort.Ints(chosen)
	return sp.scoreOne(chosen, cost)
}
