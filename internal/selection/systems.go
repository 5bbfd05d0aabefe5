package selection

import (
	"math"

	"repro/internal/worker"
)

// AutoExhaustiveMaxN is the pool size at or below which the Auto selector
// uses exhaustive search instead of annealing. 2^15 subsets with a cheap
// objective still completes in milliseconds.
const AutoExhaustiveMaxN = 15

// RemovalSearchMaxN is the largest pool on which OPTJS anneals with two
// restarts and the removal move; larger pools get the paper's single
// pass. It is the largest pool size of the DESIGN.md "Selection" grid at
// which that search still has the higher mean JQ.
const RemovalSearchMaxN = 80

// Auto picks the search automatically: exhaustive enumeration for pools of
// at most MaxN candidates (exact answer), simulated annealing beyond that.
// This mirrors how the paper evaluates: exact where tractable, Algorithm 3
// elsewhere.
type Auto struct {
	Objective Objective
	// MaxN defaults to AutoExhaustiveMaxN when zero.
	MaxN int
	// Seed drives the annealing path.
	Seed int64
}

// Name implements Selector.
func (a Auto) Name() string { return "auto(" + a.Objective.Name() + ")" }

// Select implements Selector.
func (a Auto) Select(pool worker.Pool, budget, alpha float64) (Result, error) {
	if n := len(pool); n <= a.MaxN || (a.MaxN == 0 && n <= AutoExhaustiveMaxN) {
		return Exhaustive{Objective: a.Objective}.Select(pool, budget, alpha)
	}
	return Annealing{Objective: a.Objective, Seed: a.Seed}.Select(pool, budget, alpha)
}

// served is the search OPTJS and MVJS run: Auto, with two restarts and
// the removal move on annealed pools of at most removalMaxN candidates.
type served struct {
	Auto
	removalMaxN int
}

// Select implements Selector.
func (s served) Select(pool worker.Pool, budget, alpha float64) (Result, error) {
	if n := len(pool); n > AutoExhaustiveMaxN && n <= s.removalMaxN {
		return Annealing{Objective: s.Objective, Seed: s.Seed, Restarts: 2, AllowRemoval: true}.Select(pool, budget, alpha)
	}
	return s.Auto.Select(pool, budget, alpha)
}

// OPTJS is the paper's Optimal Jury Selection System: JSP under the
// (approximated) Bayesian-Voting objective. Above RemovalSearchMaxN it
// runs the paper's single pass of Algorithm 3: 5–15× fewer evaluations
// than the removal search, and juries of higher mean JQ.
func OPTJS(seed int64) Selector {
	return served{Auto{Objective: BVObjective{}, Seed: seed}, RemovalSearchMaxN}
}

// MVJS is the baseline system of Cao et al. [7]: JSP under the
// Majority-Voting objective at uniform prior. It keeps the removal search
// at every annealed pool size, because under this objective the removal
// search has the higher mean JQ up to N = 128 (DESIGN.md "Selection").
func MVJS(seed int64) Selector {
	return served{Auto{Objective: MVObjective{}, Seed: seed}, math.MaxInt}
}
