package selection

import (
	"math"
	"slices"

	"repro/internal/worker"
)

// KnapsackSurrogate solves JSP approximately by replacing the
// (non-additive, NP-hard) JQ objective with an additive surrogate — each
// worker's Bayesian evidence weight φ(q) = ln(q/(1−q)) — and solving the
// resulting 0/1 knapsack exactly with the classic pseudo-polynomial DP
// over a discretized budget axis.
//
// The surrogate is principled: JQ is monotone in every worker's evidence,
// and for homogeneous-evidence votings the decision margin is exactly the
// φ-sum. It is NOT exact — JQ exhibits diminishing returns the surrogate
// ignores — which is precisely what the ablation experiments quantify.
// This selector is an extension over the paper (which uses simulated
// annealing); it is deterministic and fast: O(N · Resolution).
type KnapsackSurrogate struct {
	Objective Objective
	// Resolution is the number of integer ticks the budget is divided
	// into; 0 selects 1000. Worker costs are rounded *up* to ticks, so
	// the selected jury never exceeds the real budget.
	Resolution int
}

// Name implements Selector.
func (k KnapsackSurrogate) Name() string { return "knapsack(" + k.Objective.Name() + ")" }

// Select implements Selector.
func (k KnapsackSurrogate) Select(pool worker.Pool, budget, alpha float64) (Result, error) {
	if err := checkSelectInput(pool, budget, alpha); err != nil {
		return Result{}, err
	}
	resolution := k.Resolution
	if resolution == 0 {
		resolution = 1000
	}
	n := len(pool)

	// Integer weights: cost in budget ticks, rounded up. Zero-cost
	// workers weigh nothing and are always worth taking.
	weights := make([]int, n)
	values := make([]float64, n)
	for i, w := range pool {
		if budget > 0 {
			weights[i] = int(math.Ceil(w.Cost / budget * float64(resolution)))
		} else if w.Cost > 0 {
			weights[i] = resolution + 1 // unaffordable at zero budget
		}
		q := w.Quality
		if q < 0.5 {
			q = 1 - q
		}
		if q >= 1 {
			q = 1 - 1e-12
		}
		values[i] = math.Log(q / (1 - q))
	}

	// dp[w] = best surrogate value using ≤ w ticks; take[i][w] records the
	// decision for reconstruction.
	dp := make([]float64, resolution+1)
	reachable := make([]bool, resolution+1)
	reachable[0] = true
	take := make([][]bool, n)
	for i := 0; i < n; i++ {
		take[i] = make([]bool, resolution+1)
		wi, vi := weights[i], values[i]
		if wi > resolution {
			continue
		}
		for w := resolution; w >= wi; w-- {
			if !reachable[w-wi] {
				continue
			}
			if cand := dp[w-wi] + vi; !reachable[w] || cand > dp[w] {
				dp[w] = cand
				reachable[w] = true
				take[i][w] = true
			}
		}
	}
	bestW := 0
	for w := 0; w <= resolution; w++ {
		if reachable[w] && (dp[w] > dp[bestW] || !reachable[bestW]) {
			bestW = w
		}
	}
	// Reconstruct; iterate workers in reverse of the DP fill order.
	var chosen []int
	w := bestW
	for i := n - 1; i >= 0; i-- {
		if w >= weights[i] && take[i][w] {
			chosen = append(chosen, i)
			w -= weights[i]
		}
	}
	slices.Reverse(chosen) // ascending
	res, err := newSpace(k.Objective, pool, alpha).scoreOne(chosen, pool.Subset(chosen).TotalCost())
	return withJury(pool, res, err)
}
