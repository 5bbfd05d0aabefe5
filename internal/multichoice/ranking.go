package multichoice

import (
	"math"
	"sort"

	"repro/internal/selection"
)

// The paper leaves open "what kind of confusion matrix will contribute
// more to the JQ" (Section 7) and points at the spammer-detection line of
// Ipeirotis et al. [18] and Raykar & Yu [34] for heuristics. This file
// implements that heuristic: a worker is informative exactly to the degree
// that their vote distribution *differs across truths* — a spammer's rows
// are identical (the vote carries no information about the truth), a
// perfect worker's rows are orthogonal point masses.

// InformativenessScore quantifies how much a worker's votes reveal about
// the true label: the mean total-variation distance between all pairs of
// confusion-matrix rows, in [0, 1]. Label-blind workers (identical rows —
// the Raykar–Yu spammer profile, including "always vote k" workers) score
// 0; a perfect worker scores 1. For the binary symmetric model the score
// reduces to |2q − 1|, the familiar evidence magnitude.
func InformativenessScore(m ConfusionMatrix) float64 {
	l := m.Labels()
	if l < 2 {
		return 0
	}
	var sum float64
	pairs := 0
	for j := 0; j < l; j++ {
		for k := j + 1; k < l; k++ {
			sum += totalVariation(m[j], m[k])
			pairs++
		}
	}
	return sum / float64(pairs)
}

func totalVariation(a, b []float64) float64 {
	var tv float64
	for i := range a {
		tv += math.Abs(a[i] - b[i])
	}
	return tv / 2
}

// RankWorkers orders pool indices by decreasing informativeness score,
// breaking ties toward cheaper workers. This is the heuristic worker
// ranking the paper suggests for the Lemma 2 extension.
func RankWorkers(pool Pool) []int {
	order := make([]int, len(pool))
	scores := make([]float64, len(pool))
	for i, w := range pool {
		order[i] = i
		scores[i] = InformativenessScore(w.Confusion)
	}
	sort.SliceStable(order, func(a, b int) bool {
		if scores[order[a]] != scores[order[b]] {
			return scores[order[a]] > scores[order[b]]
		}
		return pool[order[a]].Cost < pool[order[b]].Cost
	})
	return order
}

// GreedyByInformativeness is a fast multi-choice jury selector: walk the
// informativeness ranking and add every worker who fits the remaining
// budget, then score the resulting jury once (selection.GreedyWalk). A
// baseline against SelectAnnealing, in the spirit of the binary
// GreedyQuality selector.
func GreedyByInformativeness(pool Pool, budget float64, prior Prior, obj Objective) (SelectionResult, error) {
	if err := checkSelect(pool, budget, prior); err != nil {
		return SelectionResult{}, err
	}
	res, err := selection.GreedyWalk(space(pool, prior, obj), RankWorkers(pool), budget)
	return selected(pool, res, err)
}
