// Package selection solves the Jury Selection Problem (JSP) of Zheng et al.
// (EDBT 2015, Section 5): given a candidate pool, a budget B, and a prior α,
// find the jury J with ΣcostJ ≤ B maximizing JQ(J, S, α).
//
// The package separates the search (Selector) from the quality model
// (Objective), so the paper's OPTJS system (Bayesian-Voting objective) and
// the MVJS baseline of Cao et al. [7] (Majority-Voting objective) share the
// same search machinery — which is exactly how the paper's end-to-end
// comparison (Figures 6 and 10) is defined. The searches themselves run on
// a Space of candidate indices, which package multichoice builds for its
// confusion-matrix pools as well.
package selection

import (
	"fmt"
	"math"

	"repro/internal/jq"
	"repro/internal/worker"
)

// Objective is a quality model a search maximizes. Implementations must
// be deterministic: the annealing search evaluates juries repeatedly and
// compares the scores.
type Objective interface {
	// Name identifies the objective ("BV", "BV-exact", "MV", ...).
	Name() string
	// NewEvaluator builds the objective's scoring engine for one
	// candidate pool and prior.
	NewEvaluator(pool worker.Pool, alpha float64) (Evaluator, error)
}

// Evaluator scores juries given as index slices into the candidate pool it
// was built for, without materializing worker.Pool subsets or redoing the
// per-pool setup (validation, normalization, log-odds) on every call. The
// binary engines accept indices in any order; a duplicated index counts
// as two jury members, exactly as Pool.Subset would materialize it. The
// searches never pass an empty slice: they score the empty jury from
// Space.Empty.
//
// Evaluators own scratch state and are NOT safe for concurrent use; a
// search running in parallel must build one evaluator per goroutine.
type Evaluator interface {
	Eval(indices []int) (float64, error)
}

// Space is the index-level view of a candidate pool that every search
// runs on: binary pools build one from their Objective, and the
// multi-choice selectors of package multichoice build their own.
type Space struct {
	// Costs holds each candidate's cost, by pool index.
	Costs []float64
	// Empty is the quality of the empty jury: the answer from the prior
	// alone.
	Empty float64
	// NewEvaluator builds a fresh evaluator; each annealing restart
	// builds its own.
	NewEvaluator func() (Evaluator, error)
}

// newSpace is the Space of obj over a binary pool at prior alpha. With no
// votes, the Bayesian answer from the prior alone is correct with
// probability max(α, 1−α); MV has no votes to count and degenerates the
// same way.
func newSpace(obj Objective, pool worker.Pool, alpha float64) Space {
	return Space{
		Costs: pool.Costs(),
		Empty: math.Max(alpha, 1-alpha),
		NewEvaluator: func() (Evaluator, error) {
			return obj.NewEvaluator(pool, alpha)
		},
	}
}

// scoreOne scores the single jury indices of the given cost, the last step
// of the greedy and knapsack selectors.
func (sp Space) scoreOne(indices []int, cost float64) (Result, error) {
	score := sp.Empty
	if len(indices) > 0 {
		eval, err := sp.NewEvaluator()
		if err != nil {
			return Result{}, err
		}
		if score, err = eval.Eval(indices); err != nil {
			return Result{}, err
		}
	}
	return Result{Indices: indices, JQ: score, Cost: cost, Evaluations: 1}, nil
}

// bvEvaluator adapts the jq.Estimator engine, which returns a full
// jq.Result, to an Evaluator.
type bvEvaluator struct {
	est *jq.Estimator
}

func (e bvEvaluator) Eval(indices []int) (float64, error) {
	res, err := e.est.Eval(indices)
	if err != nil {
		return 0, err
	}
	return res.JQ, nil
}

// BVObjective scores juries with the bucket-approximated JQ under Bayesian
// Voting (Algorithm 1). This is the OPTJS objective.
type BVObjective struct {
	// NumBuckets configures jq.Estimate; zero means jq.DefaultNumBuckets.
	NumBuckets int
}

// Name implements Objective.
func (o BVObjective) Name() string { return "BV" }

// NewEvaluator implements Objective with a memoizing jq.Estimator built
// once for the pool.
func (o BVObjective) NewEvaluator(pool worker.Pool, alpha float64) (Evaluator, error) {
	est, err := jq.NewEstimator(pool, alpha, jq.Options{NumBuckets: o.NumBuckets})
	if err != nil {
		return nil, err
	}
	return bvEvaluator{est: est}, nil
}

// BVExactObjective scores juries with the exact (exponential) JQ under
// Bayesian Voting. Only usable for juries up to jq.MaxExactJurySize; it is
// the reference objective for the Figure 7(a) optimality-gap experiment.
type BVExactObjective struct{}

// Name implements Objective.
func (BVExactObjective) Name() string { return "BV-exact" }

// NewEvaluator implements Objective.
func (BVExactObjective) NewEvaluator(pool worker.Pool, alpha float64) (Evaluator, error) {
	return jq.NewExactBVEvaluator(pool, alpha)
}

// MVObjective scores juries with the closed-form JQ under Majority Voting —
// the objective of the MVJS baseline (Cao et al. [7]), which solves
// argmax JQ(J, MV, 0.5). Following the baseline, the prior passed to Select
// is used only for the empty jury; MV itself ignores it, and the paper's
// baseline fixes α = 0.5.
type MVObjective struct{}

// Name implements Objective.
func (MVObjective) Name() string { return "MV" }

// NewEvaluator implements Objective with the delta-updating
// Poisson-binomial engine at the baseline's uniform prior.
func (MVObjective) NewEvaluator(pool worker.Pool, _ float64) (Evaluator, error) {
	return jq.NewMVEvaluator(pool, 0.5)
}

// Result is the outcome of a jury selection.
type Result struct {
	// Jury is the selected jury (a subset of the candidate pool).
	Jury worker.Pool
	// Indices locates the jury members in the candidate pool, ascending.
	Indices []int
	// JQ is the selected jury's score under the selector's objective.
	JQ float64
	// Cost is the jury cost Σ c_i.
	Cost float64
	// Evaluations counts objective evaluations performed by the search,
	// the empty jury's included.
	Evaluations int
}

// Selector searches the feasible juries for the best objective value.
type Selector interface {
	// Name identifies the selector, e.g. "exhaustive(BV)".
	Name() string
	// Select returns the best jury found within the budget.
	Select(pool worker.Pool, budget, alpha float64) (Result, error)
}

// withJury completes a search result over pool with its Jury.
func withJury(pool worker.Pool, res Result, err error) (Result, error) {
	if err != nil {
		return Result{}, err
	}
	res.Jury = pool.Subset(res.Indices)
	return res, nil
}

func checkSelectInput(pool worker.Pool, budget, alpha float64) error {
	if err := pool.Validate(); err != nil {
		return err
	}
	if budget < 0 || budget != budget {
		return fmt.Errorf("selection: negative budget %v", budget)
	}
	if alpha < 0 || alpha > 1 || alpha != alpha {
		return fmt.Errorf("selection: prior %v outside [0, 1]", alpha)
	}
	return nil
}
