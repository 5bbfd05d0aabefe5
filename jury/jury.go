// Package jury is the public API of the jury-selection library, a
// reproduction of Zheng, Cheng, Maniu, Mo: "On Optimality of Jury Selection
// in Crowdsourcing" (EDBT 2015).
//
// The library answers three questions about crowdsourced binary
// decision-making tasks:
//
//  1. Given a jury of workers (each with a quality — their probability of
//     voting correctly — and a cost) and a voting strategy, what is the
//     Jury Quality (JQ): the probability the aggregated answer is correct?
//  2. Which voting strategy maximizes JQ? (Bayesian Voting — provably
//     optimal among all deterministic and randomized strategies.)
//  3. Given a budget, which affordable jury maximizes JQ? (The Jury
//     Selection Problem, solved exactly for small pools and by simulated
//     annealing beyond.)
//
// Quick start:
//
//	pool := jury.NewPool(
//		[]float64{0.77, 0.70, 0.80, 0.65, 0.60, 0.60, 0.75}, // qualities
//		[]float64{9, 5, 6, 7, 5, 2, 3},                      // costs
//	)
//	res, err := jury.Select(pool, 15, jury.UniformPrior, 1)
//	// res.Jury is the chosen jury; res.JQ its estimated quality.
//
// See the examples directory for complete programs, and package jury/multi
// for the multiple-choice / confusion-matrix extension.
package jury

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/jq"
	"repro/internal/selection"
	"repro/internal/voting"
	"repro/internal/worker"
)

// UniformPrior is the no-information prior P(t=0) = 0.5.
const UniformPrior = 0.5

// Worker models one crowd worker: a quality in [0, 1] (the probability of
// voting for the true answer) and a non-negative cost per vote.
type Worker = worker.Worker

// Pool is an ordered collection of workers; a jury is a Pool too.
type Pool = worker.Pool

// NewPool builds a pool from parallel quality and cost slices.
func NewPool(qualities, costs []float64) Pool { return worker.NewPool(qualities, costs) }

// UniformCostPool builds a pool where every worker has the same cost.
func UniformCostPool(qualities []float64, cost float64) Pool {
	return worker.UniformCost(qualities, cost)
}

// Vote is a binary answer: No (0) or Yes (1).
type Vote = voting.Vote

// The two possible answers of a decision-making task.
const (
	No  = voting.No
	Yes = voting.Yes
)

// Strategy aggregates a jury's votes into an estimated answer. The built-in
// strategies cover the paper's Table 2 taxonomy; Bayesian() is optimal.
type Strategy = voting.Strategy

// Bayesian returns the optimal voting strategy (Theorem 1 / Corollary 1):
// pick the answer with the larger posterior probability.
func Bayesian() Strategy { return voting.Bayesian{} }

// Majority returns classical majority voting (the strategy of the MVJS
// baseline, Cao et al. 2012).
func Majority() Strategy { return voting.Majority{} }

// RandomizedMajority returns the randomized majority strategy: answer 0
// with probability proportional to its vote share.
func RandomizedMajority() Strategy { return voting.RandomizedMajority{} }

// RandomBallot returns the uniformly random strategy (JQ is always 50%).
func RandomBallot() Strategy { return voting.RandomBallot{} }

// TriadicConsensus returns the triadic-consensus strategy (adapted from
// Goel & Lee): votes are concentrated toward the majority through rounds
// of random triads. rounds 0 selects 3.
func TriadicConsensus(rounds int) Strategy { return voting.TriadicConsensus{Rounds: rounds} }

// Strategies returns one instance of every built-in strategy.
func Strategies() []Strategy { return voting.All() }

// Decide aggregates votes with a strategy. qualities[i] is the quality of
// the worker who cast votes[i]; alpha is the prior P(t=0). rng may be nil
// for deterministic strategies.
func Decide(s Strategy, votes []Vote, qualities []float64, alpha float64, rng *rand.Rand) (Vote, error) {
	return voting.Decide(s, votes, qualities, alpha, rng)
}

// Confidence returns the posterior probability that the Bayesian decision
// on this specific voting is correct.
func Confidence(votes []Vote, qualities []float64, alpha float64) (float64, error) {
	return core.PosteriorCorrect(votes, qualities, alpha)
}

// JQ computes the exact Jury Quality of a strategy on a jury — the
// probability that the strategy's result matches the truth (Definition 3).
// Exact computation is exponential (and NP-hard for Bayesian voting), so
// juries are limited to MaxExactJurySize workers; use EstimateJQ beyond.
func JQ(j Pool, s Strategy, alpha float64) (float64, error) {
	return jq.Exact(j, s, alpha)
}

// MaxExactJurySize is the largest jury the exact JQ computation accepts.
const MaxExactJurySize = jq.MaxExactJurySize

// ExactJQIterative computes the exact optimal-strategy JQ with the
// iterative merged-state construction (paper Figure 4) using exact
// rational keys. Its cost is proportional to the number of distinct
// evidence values rather than 2^n, so juries with repeated qualities —
// homogeneous pools in particular — are handled exactly at sizes far
// beyond MaxExactJurySize. It fails for pools whose evidence states would
// exceed the internal budget and for workers of quality exactly 0 or 1.
func ExactJQIterative(j Pool, alpha float64) (float64, error) {
	return jq.ExactIterative(j, alpha)
}

// JQEstimate carries the approximate JQ and its quality guarantees.
type JQEstimate = jq.Result

// EstimateJQ approximates the optimal-strategy JQ with the paper's
// polynomial-time bucket algorithm. The estimate never exceeds the true
// value and the gap is below the returned Bound (< 1% with
// numBuckets ≥ 200·n; the default 0 selects 50 buckets, which is accurate
// to ~0.01% in practice).
func EstimateJQ(j Pool, alpha float64, numBuckets int) (JQEstimate, error) {
	return jq.Estimate(j, alpha, jq.Options{NumBuckets: numBuckets})
}

// Selection is the outcome of solving the Jury Selection Problem.
type Selection = selection.Result

// Select solves the Jury Selection Problem with the optimal (Bayesian)
// voting strategy: among all juries whose total cost fits the budget,
// return the one with the highest JQ. Pools of at most 15 candidates are
// searched exhaustively. Larger pools use the paper's simulated-annealing
// heuristic, seeded for reproducibility: up to 80 candidates with two
// restarts and a removal move, beyond that as the paper's single pass.
func Select(pool Pool, budget, alpha float64, seed int64) (Selection, error) {
	return selection.OPTJS(seed).Select(pool, budget, alpha)
}

// SelectMajority is the MVJS baseline: jury selection under majority
// voting (Cao et al. 2012). Provided for comparisons; Select dominates it.
// It anneals with two restarts and the removal move at every pool size
// above 15, because under majority voting that search keeps the higher
// mean JQ up to 128 candidates.
func SelectMajority(pool Pool, budget, alpha float64, seed int64) (Selection, error) {
	return selection.MVJS(seed).Select(pool, budget, alpha)
}

// Selector is a pluggable jury-search algorithm; see NewExhaustive,
// NewAnnealing and friends for implementations.
type Selector = selection.Selector

// NewExhaustive returns the exact exponential search (small pools only).
func NewExhaustive() Selector {
	return selection.Exhaustive{Objective: selection.BVObjective{}}
}

// NewExhaustiveExact returns the exact search scored with the exact
// (enumeration-based) JQ instead of the bucket approximation.
func NewExhaustiveExact() Selector {
	return selection.Exhaustive{Objective: selection.BVExactObjective{}}
}

// NewAnnealing returns the paper's Algorithm 3 simulated-annealing search.
func NewAnnealing(seed int64) Selector {
	return selection.Annealing{Objective: selection.BVObjective{}, Seed: seed}
}

// NewGreedyQuality returns the quality-descending greedy baseline; optimal
// when all workers cost the same.
func NewGreedyQuality() Selector {
	return selection.GreedyQuality{Objective: selection.BVObjective{}}
}

// System is the end-to-end Optimal Jury Selection System of the paper's
// Figure 1: budget–quality tables, jury selection, and vote aggregation
// under one prior.
type System = core.System

// BudgetQualityRow is one row of a budget–quality table.
type BudgetQualityRow = core.TableRow

// NewSystem creates a System with the prior alpha = P(t=0) and a seed for
// the annealing search path.
func NewSystem(alpha float64, seed int64) *System { return core.NewSystem(alpha, seed) }
