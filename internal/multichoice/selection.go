package multichoice

import (
	"fmt"
	"slices"

	"repro/internal/selection"
)

// SelectionResult is the outcome of multi-choice jury selection.
type SelectionResult struct {
	Jury        Pool
	Indices     []int
	JQ          float64
	Cost        float64
	Evaluations int
}

// Objective scores a candidate multi-choice jury; the prior's maximum is
// used for the empty jury.
type Objective func(jury Pool, prior Prior) (float64, error)

// EstimateObjective returns an Objective backed by EstimateBV.
func EstimateObjective(numBuckets int) Objective {
	return func(jury Pool, prior Prior) (float64, error) {
		return EstimateBV(jury, prior, numBuckets)
	}
}

// ExactObjective is an Objective backed by ExactBV (small juries only).
func ExactObjective(jury Pool, prior Prior) (float64, error) {
	return ExactBV(jury, prior)
}

// SelectAnnealing solves the multi-choice JSP with the same Algorithm 3/4
// annealing as the binary case, treating the JQ computation as a black box
// (Section 7, "Jury Selection Problem Extension"): one pass of
// selection.Annealing under the default schedule, seeded with seed.
func SelectAnnealing(pool Pool, budget float64, prior Prior, obj Objective, seed int64) (SelectionResult, error) {
	if err := checkSelect(pool, budget, prior); err != nil {
		return SelectionResult{}, err
	}
	res, err := selection.Annealing{Seed: seed}.Search(space(pool, prior, obj), budget)
	return selected(pool, res, err)
}

// SelectExhaustive enumerates every feasible multi-choice jury; ground
// truth for small pools (at most 20 workers). Ties follow
// selection.Exhaustive: JQ within 1e-12, then the cheaper jury, then the
// lexicographically smaller index set.
func SelectExhaustive(pool Pool, budget float64, prior Prior, obj Objective) (SelectionResult, error) {
	if err := checkSelect(pool, budget, prior); err != nil {
		return SelectionResult{}, err
	}
	if n := len(pool); n > 20 {
		return SelectionResult{}, fmt.Errorf("%w: N=%d", ErrJuryTooLarge, n)
	}
	res, err := selection.Exhaustive{}.Search(space(pool, prior, obj), budget)
	return selected(pool, res, err)
}

// checkSelect validates the inputs every multi-choice selector shares.
func checkSelect(pool Pool, budget float64, prior Prior) error {
	if err := checkVoting(pool, prior, nil); err != nil {
		return err
	}
	if budget < 0 || budget != budget {
		return fmt.Errorf("%w %v", ErrBadBudget, budget)
	}
	return nil
}

// space is the selection.Space of pool under obj. The empty jury scores
// the prior's largest entry, the answer from the prior alone.
func space(pool Pool, prior Prior, obj Objective) selection.Space {
	costs := make([]float64, len(pool))
	for i, w := range pool {
		costs[i] = w.Cost
	}
	return selection.Space{
		Costs: costs,
		Empty: slices.Max(prior),
		NewEvaluator: func() (selection.Evaluator, error) {
			return subsetEvaluator{pool: pool, prior: prior, obj: obj}, nil
		},
	}
}

// subsetEvaluator scores obj on the subset of pool at the indices, in the
// order given: EstimateBV's bucketing makes the last bits of JQ depend on
// the jury's order, so the search's member order is kept.
type subsetEvaluator struct {
	pool  Pool
	prior Prior
	obj   Objective
}

func (e subsetEvaluator) Eval(indices []int) (float64, error) {
	return e.obj(e.pool.Subset(indices), e.prior)
}

// selected materializes a search result over pool.
func selected(pool Pool, res selection.Result, err error) (SelectionResult, error) {
	if err != nil {
		return SelectionResult{}, err
	}
	return SelectionResult{
		Jury:        pool.Subset(res.Indices),
		Indices:     res.Indices,
		JQ:          res.JQ,
		Cost:        res.Cost,
		Evaluations: res.Evaluations,
	}, nil
}
