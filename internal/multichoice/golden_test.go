package multichoice

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// goldenPool draws n workers over l labels: every confusion row puts extra
// weight on its diagonal, so the workers are informative but imperfect,
// and costs lie in [0.1, 1.1). The prior is random too.
func goldenPool(l, n int, seed int64) (Pool, Prior) {
	rng := rand.New(rand.NewSource(seed))
	pool := make(Pool, n)
	for i := range pool {
		m := make(ConfusionMatrix, l)
		for j := range m {
			m[j] = make([]float64, l)
			var sum float64
			for k := range m[j] {
				m[j][k] = 0.05 + rng.Float64()
				if k == j {
					m[j][k] += 2 * rng.Float64()
				}
				sum += m[j][k]
			}
			for k := range m[j] {
				m[j][k] /= sum
			}
		}
		pool[i] = Worker{Confusion: m, Cost: 0.1 + rng.Float64()}
	}
	prior := make(Prior, l)
	var sum float64
	for i := range prior {
		prior[i] = 0.2 + rng.Float64()
		sum += prior[i]
	}
	for i := range prior {
		prior[i] /= sum
	}
	return pool, prior
}

// goldenSelectors are the multi-choice searches the golden table pins, by
// the name its rows use.
var goldenSelectors = map[string]func(pool Pool, budget float64, prior Prior, seed int64) (SelectionResult, error){
	"anneal-est20": func(pool Pool, budget float64, prior Prior, seed int64) (SelectionResult, error) {
		return SelectAnnealing(pool, budget, prior, EstimateObjective(20), seed)
	},
	"anneal-est50": func(pool Pool, budget float64, prior Prior, seed int64) (SelectionResult, error) {
		return SelectAnnealing(pool, budget, prior, EstimateObjective(50), seed)
	},
	"exhaustive-exact": func(pool Pool, budget float64, prior Prior, _ int64) (SelectionResult, error) {
		return SelectExhaustive(pool, budget, prior, ExactObjective)
	},
	"exhaustive-est50": func(pool Pool, budget float64, prior Prior, _ int64) (SelectionResult, error) {
		return SelectExhaustive(pool, budget, prior, EstimateObjective(50))
	},
	"greedy-exact": func(pool Pool, budget float64, prior Prior, _ int64) (SelectionResult, error) {
		return GreedyByInformativeness(pool, budget, prior, ExactObjective)
	},
	"greedy-est50": func(pool Pool, budget float64, prior Prior, _ int64) (SelectionResult, error) {
		return GreedyByInformativeness(pool, budget, prior, EstimateObjective(50))
	},
}

// goldenSelection is one recorded selection on goldenPool(l, n, seed).
type goldenSelection struct {
	sel     string
	l, n    int
	seed    int64
	budget  float64
	indices []int
	jqBits  uint64
	cost    float64
	evals   int
}

// The golden selections pin what the multi-choice searches return: the
// jury, its JQ to the bit, its cost and the number of objective
// evaluations, for ℓ = 2, 3, 4 over pools of 6, 9 and 12 workers. They
// were recorded on the multi-choice package's own annealing and
// enumeration loops, before both moved onto the shared selection search.
// That search counts the evaluation of the empty jury, which the recorded
// loops skipped, so annealing and exhaustive now report one evaluation
// more, and greedy reports 1 for an empty jury too; nothing else changed.
func TestMultiChoiceGoldenSelections(t *testing.T) {
	for _, g := range goldenSelections {
		pool, prior := goldenPool(g.l, g.n, g.seed)
		res, err := goldenSelectors[g.sel](pool, g.budget, prior, g.seed)
		if err != nil {
			t.Fatalf("%s l=%d n=%d seed=%d budget=%v: %v", g.sel, g.l, g.n, g.seed, g.budget, err)
		}
		wantEvals := g.evals + 1
		if strings.HasPrefix(g.sel, "greedy") {
			wantEvals = 1
		}
		if !slices.Equal(res.Indices, g.indices) || math.Float64bits(res.JQ) != g.jqBits ||
			res.Cost != g.cost || res.Evaluations != wantEvals {
			t.Errorf("%s l=%d n=%d seed=%d budget=%v:\n got %v JQ %#x cost %v evals %d\nwant %v JQ %#x cost %v evals %d",
				g.sel, g.l, g.n, g.seed, g.budget,
				res.Indices, math.Float64bits(res.JQ), res.Cost, res.Evaluations,
				g.indices, g.jqBits, g.cost, wantEvals)
		}
	}
}

// goldenBudgets are the budgets pinned for ℓ labels: 0.05 is below every
// cost, so the jury is empty. The bucketed DP's state space grows as
// n^(ℓ−1), so only the binary pools get the largest budget.
func goldenBudgets(l int) []float64 {
	if l == 2 {
		return []float64{0.05, 1, 2, 3}
	}
	return []float64{0.05, 1, 2}
}

// goldenSelections, for ℓ = 2, 3, 4, seeds 1–3 (n = 6, 9, 12) and each
// goldenBudgets(ℓ), in the order sel, l, n, seed, budget. The anneal rows
// use seed as the annealing seed.
var goldenSelections = []goldenSelection{
	{"anneal-est20", 2, 6, 1, 0.05, []int{}, 0x3fe379f009b53d92, 0, 0},
	{"anneal-est50", 2, 6, 1, 0.05, []int{}, 0x3fe379f009b53d92, 0, 0},
	{"exhaustive-exact", 2, 6, 1, 0.05, []int{}, 0x3fe379f009b53d92, 0, 0},
	{"exhaustive-est50", 2, 6, 1, 0.05, []int{}, 0x3fe379f009b53d92, 0, 0},
	{"greedy-exact", 2, 6, 1, 0.05, []int{}, 0x3fe379f009b53d92, 0, 0},
	{"greedy-est50", 2, 6, 1, 0.05, []int{}, 0x3fe379f009b53d92, 0, 0},
	{"anneal-est20", 2, 6, 1, 1, []int{0, 2, 3}, 0x3feb7621f5d03f90, 0.7754065577784979, 33},
	{"anneal-est50", 2, 6, 1, 1, []int{0, 2, 3}, 0x3feb7621f5d03f90, 0.7754065577784979, 33},
	{"exhaustive-exact", 2, 6, 1, 1, []int{0, 2, 3}, 0x3feb7621f5d03f90, 0.7754065577784977, 17},
	{"exhaustive-est50", 2, 6, 1, 1, []int{0, 2, 3}, 0x3feb7621f5d03f90, 0.7754065577784977, 17},
	{"greedy-exact", 2, 6, 1, 1, []int{0, 2, 3}, 0x3feb7621f5d03f90, 0.7754065577784977, 1},
	{"greedy-est50", 2, 6, 1, 1, []int{0, 2, 3}, 0x3feb7621f5d03f90, 0.7754065577784977, 1},
	{"anneal-est20", 2, 6, 1, 2, []int{0, 1, 4}, 0x3fec53dd1ce38f02, 1.7215358273777408, 10},
	{"anneal-est50", 2, 6, 1, 2, []int{0, 1, 4}, 0x3fec53dd1ce38f02, 1.7215358273777408, 10},
	{"exhaustive-exact", 2, 6, 1, 2, []int{0, 2, 3, 4}, 0x3fed93bd7e8c1f1c, 1.850648176639076, 45},
	{"exhaustive-est50", 2, 6, 1, 2, []int{0, 2, 3, 4}, 0x3fed93bd7e8c1f1e, 1.850648176639076, 45},
	{"greedy-exact", 2, 6, 1, 2, []int{0, 2, 3, 4}, 0x3fed93bd7e8c1f1c, 1.8506481766390763, 1},
	{"greedy-est50", 2, 6, 1, 2, []int{0, 2, 3, 4}, 0x3fed93bd7e8c1f1e, 1.8506481766390763, 1},
	{"anneal-est20", 2, 6, 1, 3, []int{0, 1, 2, 3, 4, 5}, 0x3fee1040552b948e, 2.972405220947498, 13},
	{"anneal-est50", 2, 6, 1, 3, []int{0, 1, 2, 3, 4, 5}, 0x3fee0dd1efe7d9e6, 2.972405220947498, 13},
	{"exhaustive-exact", 2, 6, 1, 3, []int{0, 1, 2, 3, 4, 5}, 0x3fee1040552b948d, 2.972405220947498, 63},
	{"exhaustive-est50", 2, 6, 1, 3, []int{0, 1, 2, 3, 4, 5}, 0x3fee0dd1efe7d9e6, 2.972405220947498, 63},
	{"greedy-exact", 2, 6, 1, 3, []int{0, 1, 2, 3, 4, 5}, 0x3fee1040552b948d, 2.972405220947498, 1},
	{"greedy-est50", 2, 6, 1, 3, []int{0, 1, 2, 3, 4, 5}, 0x3fee0dd1efe7d9e6, 2.972405220947498, 1},
	{"anneal-est20", 2, 9, 2, 0.05, []int{}, 0x3fe2f5756293e7d6, 0, 0},
	{"anneal-est50", 2, 9, 2, 0.05, []int{}, 0x3fe2f5756293e7d6, 0, 0},
	{"exhaustive-exact", 2, 9, 2, 0.05, []int{}, 0x3fe2f5756293e7d6, 0, 0},
	{"exhaustive-est50", 2, 9, 2, 0.05, []int{}, 0x3fe2f5756293e7d6, 0, 0},
	{"greedy-exact", 2, 9, 2, 0.05, []int{}, 0x3fe2f5756293e7d6, 0, 0},
	{"greedy-est50", 2, 9, 2, 0.05, []int{}, 0x3fe2f5756293e7d6, 0, 0},
	{"anneal-est20", 2, 9, 2, 1, []int{2}, 0x3fed682d853a17d8, 0.6109985204534231, 89},
	{"anneal-est50", 2, 9, 2, 1, []int{2}, 0x3fed682d853a17d8, 0.6109985204534231, 89},
	{"exhaustive-exact", 2, 9, 2, 1, []int{2}, 0x3fed682d853a17d8, 0.6109985204534231, 16},
	{"exhaustive-est50", 2, 9, 2, 1, []int{2}, 0x3fed682d853a17d8, 0.6109985204534231, 16},
	{"greedy-exact", 2, 9, 2, 1, []int{0, 7}, 0x3fed3fd2d533ace5, 0.716435142625016, 1},
	{"greedy-est50", 2, 9, 2, 1, []int{0, 7}, 0x3fed3fd2d533ace5, 0.716435142625016, 1},
	{"anneal-est20", 2, 9, 2, 2, []int{0, 2, 3, 7}, 0x3fef125910ee436e, 1.7761116502961256, 99},
	{"anneal-est50", 2, 9, 2, 2, []int{0, 2, 3, 7}, 0x3fef125910ee436e, 1.7761116502961256, 99},
	{"exhaustive-exact", 2, 9, 2, 2, []int{0, 2, 3, 7}, 0x3fef125910ee4372, 1.7761116502961256, 111},
	{"exhaustive-est50", 2, 9, 2, 2, []int{0, 2, 3, 7}, 0x3fef125910ee4370, 1.7761116502961256, 111},
	{"greedy-exact", 2, 9, 2, 2, []int{0, 2, 3, 7}, 0x3fef125910ee4372, 1.7761116502961256, 1},
	{"greedy-est50", 2, 9, 2, 2, []int{0, 2, 3, 7}, 0x3fef125910ee4370, 1.7761116502961256, 1},
	{"anneal-est20", 2, 9, 2, 3, []int{0, 1, 2, 3, 5, 7}, 0x3fef4e7b413b7278, 2.899464926280382, 34},
	{"anneal-est50", 2, 9, 2, 3, []int{0, 1, 2, 3, 5, 7}, 0x3fef534b00049cf6, 2.8994649262803827, 49},
	{"exhaustive-exact", 2, 9, 2, 3, []int{0, 1, 2, 3, 5, 7}, 0x3fef53c3dba2ea60, 2.899464926280382, 296},
	{"exhaustive-est50", 2, 9, 2, 3, []int{0, 1, 2, 3, 5, 7}, 0x3fef534b00049cf6, 2.899464926280382, 296},
	{"greedy-exact", 2, 9, 2, 3, []int{0, 2, 3, 6, 7}, 0x3fef3ca3fe47f048, 2.693267188658627, 1},
	{"greedy-est50", 2, 9, 2, 3, []int{0, 2, 3, 6, 7}, 0x3fef3ca3fe47f048, 2.693267188658627, 1},
	{"anneal-est20", 2, 12, 3, 0.05, []int{}, 0x3fe360c03940e484, 0, 0},
	{"anneal-est50", 2, 12, 3, 0.05, []int{}, 0x3fe360c03940e484, 0, 0},
	{"exhaustive-exact", 2, 12, 3, 0.05, []int{}, 0x3fe360c03940e484, 0, 0},
	{"exhaustive-est50", 2, 12, 3, 0.05, []int{}, 0x3fe360c03940e484, 0, 0},
	{"greedy-exact", 2, 12, 3, 0.05, []int{}, 0x3fe360c03940e484, 0, 0},
	{"greedy-est50", 2, 12, 3, 0.05, []int{}, 0x3fe360c03940e484, 0, 0},
	{"anneal-est20", 2, 12, 3, 1, []int{6}, 0x3febda9c8af5eba0, 0.953298005420074, 13},
	{"anneal-est50", 2, 12, 3, 1, []int{6}, 0x3febda9c8af5eba0, 0.953298005420074, 13},
	{"exhaustive-exact", 2, 12, 3, 1, []int{6}, 0x3febda9c8af5eba0, 0.953298005420074, 30},
	{"exhaustive-est50", 2, 12, 3, 1, []int{6}, 0x3febda9c8af5eba0, 0.953298005420074, 30},
	{"greedy-exact", 2, 12, 3, 1, []int{6}, 0x3febda9c8af5eba0, 0.953298005420074, 1},
	{"greedy-est50", 2, 12, 3, 1, []int{6}, 0x3febda9c8af5eba0, 0.953298005420074, 1},
	{"anneal-est20", 2, 12, 3, 2, []int{1, 4, 7}, 0x3fecc69985680e30, 1.8738668506000784, 25},
	{"anneal-est50", 2, 12, 3, 2, []int{1, 4, 7}, 0x3fecc69985680e30, 1.8738668506000784, 25},
	{"exhaustive-exact", 2, 12, 3, 2, []int{6, 7, 9}, 0x3fed71dea21e73b0, 1.8697796412161525, 272},
	{"exhaustive-est50", 2, 12, 3, 2, []int{6, 7, 9}, 0x3fed71dea21e73af, 1.8697796412161525, 272},
	{"greedy-exact", 2, 12, 3, 2, []int{6, 7, 9}, 0x3fed71dea21e73b0, 1.8697796412161525, 1},
	{"greedy-est50", 2, 12, 3, 2, []int{6, 7, 9}, 0x3fed71dea21e73af, 1.8697796412161525, 1},
	{"anneal-est20", 2, 12, 3, 3, []int{1, 3, 4, 7, 9, 10}, 0x3fedd899d97f1b49, 2.8774991082313996, 104},
	{"anneal-est50", 2, 12, 3, 3, []int{1, 3, 4, 7, 9, 10}, 0x3fedd899d97f1b4b, 2.8774991082313996, 104},
	{"exhaustive-exact", 2, 12, 3, 3, []int{1, 4, 6, 7, 9}, 0x3fee6ad463828db9, 2.9953504516586427, 1091},
	{"exhaustive-est50", 2, 12, 3, 3, []int{1, 4, 6, 7, 9}, 0x3fee6ad463828db8, 2.9953504516586427, 1091},
	{"greedy-exact", 2, 12, 3, 3, []int{1, 4, 6, 7, 9}, 0x3fee6ad463828db9, 2.9953504516586427, 1},
	{"greedy-est50", 2, 12, 3, 3, []int{1, 4, 6, 7, 9}, 0x3fee6ad463828db8, 2.9953504516586427, 1},
	{"anneal-est20", 3, 6, 1, 0.05, []int{}, 0x3fd7ec42bbb13ab3, 0, 0},
	{"anneal-est50", 3, 6, 1, 0.05, []int{}, 0x3fd7ec42bbb13ab3, 0, 0},
	{"exhaustive-exact", 3, 6, 1, 0.05, []int{}, 0x3fd7ec42bbb13ab3, 0, 0},
	{"exhaustive-est50", 3, 6, 1, 0.05, []int{}, 0x3fd7ec42bbb13ab3, 0, 0},
	{"greedy-exact", 3, 6, 1, 0.05, []int{}, 0x3fd7ec42bbb13ab3, 0, 0},
	{"greedy-est50", 3, 6, 1, 0.05, []int{}, 0x3fd7ec42bbb13ab3, 0, 0},
	{"anneal-est20", 3, 6, 1, 1, []int{0, 1, 4}, 0x3fe80c295f1c492e, 0.994271352592575, 23},
	{"anneal-est50", 3, 6, 1, 1, []int{0, 1, 4}, 0x3fe80c295f1c492e, 0.994271352592575, 23},
	{"exhaustive-exact", 3, 6, 1, 1, []int{0, 1, 4}, 0x3fe80c295f1c492f, 0.994271352592575, 16},
	{"exhaustive-est50", 3, 6, 1, 1, []int{0, 1, 4}, 0x3fe80c295f1c492e, 0.994271352592575, 16},
	{"greedy-exact", 3, 6, 1, 1, []int{0, 1, 4}, 0x3fe80c295f1c492f, 0.9942713525925749, 1},
	{"greedy-est50", 3, 6, 1, 1, []int{0, 1, 4}, 0x3fe80c295f1c492e, 0.9942713525925749, 1},
	{"anneal-est20", 3, 6, 1, 2, []int{0, 1, 3, 4}, 0x3fe9298278299548, 1.3913836132323458, 152},
	{"anneal-est50", 3, 6, 1, 2, []int{0, 1, 3, 4}, 0x3fe930be406be6c8, 1.3913836132323458, 152},
	{"exhaustive-exact", 3, 6, 1, 2, []int{0, 1, 3, 4}, 0x3fe930be406be6c6, 1.3913836132323458, 50},
	{"exhaustive-est50", 3, 6, 1, 2, []int{0, 1, 3, 4}, 0x3fe930be406be6c6, 1.3913836132323458, 50},
	{"greedy-exact", 3, 6, 1, 2, []int{0, 1, 3, 4}, 0x3fe930be406be6c6, 1.3913836132323456, 1},
	{"greedy-est50", 3, 6, 1, 2, []int{0, 1, 3, 4}, 0x3fe930be406be6c6, 1.3913836132323456, 1},
	{"anneal-est20", 3, 9, 2, 0.05, []int{}, 0x3fde5fce3e67cf6d, 0, 0},
	{"anneal-est50", 3, 9, 2, 0.05, []int{}, 0x3fde5fce3e67cf6d, 0, 0},
	{"exhaustive-exact", 3, 9, 2, 0.05, []int{}, 0x3fde5fce3e67cf6d, 0, 0},
	{"exhaustive-est50", 3, 9, 2, 0.05, []int{}, 0x3fde5fce3e67cf6d, 0, 0},
	{"greedy-exact", 3, 9, 2, 0.05, []int{}, 0x3fde5fce3e67cf6d, 0, 0},
	{"greedy-est50", 3, 9, 2, 0.05, []int{}, 0x3fde5fce3e67cf6d, 0, 0},
	{"anneal-est20", 3, 9, 2, 1, []int{0, 3, 5}, 0x3fea665b83ce0e44, 0.9446905490699128, 92},
	{"anneal-est50", 3, 9, 2, 1, []int{0, 3, 5}, 0x3fea665b83ce0e44, 0.9446905490699128, 92},
	{"exhaustive-exact", 3, 9, 2, 1, []int{0, 3, 5}, 0x3fea665b83ce0e45, 0.9446905490699127, 48},
	{"exhaustive-est50", 3, 9, 2, 1, []int{0, 3, 5}, 0x3fea665b83ce0e44, 0.9446905490699127, 48},
	{"greedy-exact", 3, 9, 2, 1, []int{0, 3, 5}, 0x3fea665b83ce0e45, 0.9446905490699127, 1},
	{"greedy-est50", 3, 9, 2, 1, []int{0, 3, 5}, 0x3fea665b83ce0e44, 0.9446905490699127, 1},
	{"anneal-est20", 3, 9, 2, 2, []int{0, 3, 4, 5, 6, 8}, 0x3febaebace5c65f5, 1.9686769112445515, 34},
	{"anneal-est50", 3, 9, 2, 2, []int{0, 3, 4, 5, 6, 8}, 0x3febb0f37eebb9ff, 1.9686769112445515, 34},
	{"exhaustive-exact", 3, 9, 2, 2, []int{0, 3, 5, 7, 8}, 0x3fec2e8d812cbcb2, 1.8344625567639654, 254},
	{"exhaustive-est50", 3, 9, 2, 2, []int{0, 3, 5, 7, 8}, 0x3fec2c794b3a1973, 1.8344625567639654, 254},
	{"greedy-exact", 3, 9, 2, 2, []int{0, 1, 3, 5}, 0x3febb0b007efba85, 1.9852066557565877, 1},
	{"greedy-est50", 3, 9, 2, 2, []int{0, 1, 3, 5}, 0x3febaf8b475b2bd5, 1.9852066557565877, 1},
	{"anneal-est20", 3, 12, 3, 0.05, []int{}, 0x3fdca621fec1044d, 0, 0},
	{"anneal-est50", 3, 12, 3, 0.05, []int{}, 0x3fdca621fec1044d, 0, 0},
	{"exhaustive-exact", 3, 12, 3, 0.05, []int{}, 0x3fdca621fec1044d, 0, 0},
	{"exhaustive-est50", 3, 12, 3, 0.05, []int{}, 0x3fdca621fec1044d, 0, 0},
	{"greedy-exact", 3, 12, 3, 0.05, []int{}, 0x3fdca621fec1044d, 0, 0},
	{"greedy-est50", 3, 12, 3, 0.05, []int{}, 0x3fdca621fec1044d, 0, 0},
	{"anneal-est20", 3, 12, 3, 1, []int{1, 3, 8, 11}, 0x3fe8e1bff9c0961e, 0.9565396362179859, 99},
	{"anneal-est50", 3, 12, 3, 1, []int{1, 3, 8, 11}, 0x3fe8e209ecaf506d, 0.9565396362179859, 99},
	{"exhaustive-exact", 3, 12, 3, 1, []int{1, 3, 8, 11}, 0x3fe8e2e91f7d4e68, 0.956539636217986, 94},
	{"exhaustive-est50", 3, 12, 3, 1, []int{1, 3, 8, 11}, 0x3fe8e209ecaf506c, 0.956539636217986, 94},
	{"greedy-exact", 3, 12, 3, 1, []int{5}, 0x3fe43bafb00584d6, 0.8752316419148919, 1},
	{"greedy-est50", 3, 12, 3, 1, []int{5}, 0x3fe43bafb00584d6, 0.8752316419148919, 1},
	{"anneal-est20", 3, 12, 3, 2, []int{1, 3, 6, 7, 9, 11}, 0x3feb4d4b3fed0604, 1.915421026813104, 50},
	{"anneal-est50", 3, 12, 3, 2, []int{1, 3, 6, 7, 9, 11}, 0x3feb51ec77d1cb84, 1.915421026813104, 50},
	{"exhaustive-exact", 3, 12, 3, 2, []int{3, 6, 8, 9, 11}, 0x3feba324fc2c26cf, 1.9485978114922564, 643},
	{"exhaustive-est50", 3, 12, 3, 2, []int{3, 6, 8, 9, 11}, 0x3feba240dc25a72e, 1.9485978114922564, 643},
	{"greedy-exact", 3, 12, 3, 2, []int{5, 6}, 0x3fe941691bccdeac, 1.875550337891374, 1},
	{"greedy-est50", 3, 12, 3, 2, []int{5, 6}, 0x3fe941691bccdeac, 1.875550337891374, 1},
	{"anneal-est20", 4, 6, 1, 0.05, []int{}, 0x3fd8b3cd2bb263be, 0, 0},
	{"anneal-est50", 4, 6, 1, 0.05, []int{}, 0x3fd8b3cd2bb263be, 0, 0},
	{"exhaustive-exact", 4, 6, 1, 0.05, []int{}, 0x3fd8b3cd2bb263be, 0, 0},
	{"exhaustive-est50", 4, 6, 1, 0.05, []int{}, 0x3fd8b3cd2bb263be, 0, 0},
	{"greedy-exact", 4, 6, 1, 0.05, []int{}, 0x3fd8b3cd2bb263be, 0, 0},
	{"greedy-est50", 4, 6, 1, 0.05, []int{}, 0x3fd8b3cd2bb263be, 0, 0},
	{"anneal-est20", 4, 6, 1, 1, []int{0, 1}, 0x3fe3e5af5792a114, 0.9442867316560581, 3},
	{"anneal-est50", 4, 6, 1, 1, []int{0, 1}, 0x3fe3ec4c1d242aca, 0.9442867316560581, 3},
	{"exhaustive-exact", 4, 6, 1, 1, []int{0, 1}, 0x3fe3ec4c1d242acb, 0.9442867316560581, 6},
	{"exhaustive-est50", 4, 6, 1, 1, []int{0, 1}, 0x3fe3ec4c1d242aca, 0.9442867316560581, 6},
	{"greedy-exact", 4, 6, 1, 1, []int{0, 1}, 0x3fe3ec4c1d242acb, 0.9442867316560581, 1},
	{"greedy-est50", 4, 6, 1, 1, []int{0, 1}, 0x3fe3ec4c1d242aca, 0.9442867316560581, 1},
	{"anneal-est20", 4, 6, 1, 2, []int{0, 1, 2}, 0x3fe660db49162900, 1.8453417743087193, 62},
	{"anneal-est50", 4, 6, 1, 2, []int{0, 1, 2}, 0x3fe6611aba6553f2, 1.8453417743087193, 62},
	{"exhaustive-exact", 4, 6, 1, 2, []int{0, 1, 2}, 0x3fe6611aba6553f5, 1.8453417743087193, 26},
	{"exhaustive-est50", 4, 6, 1, 2, []int{0, 1, 2}, 0x3fe6611aba6553f2, 1.8453417743087193, 26},
	{"greedy-exact", 4, 6, 1, 2, []int{0, 1, 2}, 0x3fe6611aba6553f5, 1.8453417743087193, 1},
	{"greedy-est50", 4, 6, 1, 2, []int{0, 1, 2}, 0x3fe6611aba6553f2, 1.8453417743087193, 1},
	{"anneal-est20", 4, 9, 2, 0.05, []int{}, 0x3fdafd3452e461f1, 0, 0},
	{"anneal-est50", 4, 9, 2, 0.05, []int{}, 0x3fdafd3452e461f1, 0, 0},
	{"exhaustive-exact", 4, 9, 2, 0.05, []int{}, 0x3fdafd3452e461f1, 0, 0},
	{"exhaustive-est50", 4, 9, 2, 0.05, []int{}, 0x3fdafd3452e461f1, 0, 0},
	{"greedy-exact", 4, 9, 2, 0.05, []int{}, 0x3fdafd3452e461f1, 0, 0},
	{"greedy-est50", 4, 9, 2, 0.05, []int{}, 0x3fdafd3452e461f1, 0, 0},
	{"anneal-est20", 4, 9, 2, 1, []int{5, 8}, 0x3fe4259ad3c2a149, 0.9232948984333391, 77},
	{"anneal-est50", 4, 9, 2, 1, []int{5, 8}, 0x3fe443970829ca14, 0.9232948984333391, 77},
	{"exhaustive-exact", 4, 9, 2, 1, []int{5, 8}, 0x3fe443970829ca15, 0.9232948984333391, 17},
	{"exhaustive-est50", 4, 9, 2, 1, []int{5, 8}, 0x3fe443970829ca14, 0.9232948984333391, 17},
	{"greedy-exact", 4, 9, 2, 1, []int{4}, 0x3fe3994240401ef4, 0.913593550536324, 1},
	{"greedy-est50", 4, 9, 2, 1, []int{4}, 0x3fe3994240401ef4, 0.913593550536324, 1},
	{"anneal-est20", 4, 9, 2, 2, []int{4, 5, 6, 7}, 0x3fe769e004cd6aff, 1.920937840076481, 84},
	{"anneal-est50", 4, 9, 2, 2, []int{4, 5, 6, 7}, 0x3fe77270fc14d4f9, 1.920937840076481, 81},
	{"exhaustive-exact", 4, 9, 2, 2, []int{2, 5, 8}, 0x3fe818c333738643, 1.986513779540436, 117},
	{"exhaustive-est50", 4, 9, 2, 2, []int{2, 5, 8}, 0x3fe818c333738643, 1.986513779540436, 117},
	{"greedy-exact", 4, 9, 2, 2, []int{2, 4}, 0x3fe5f3c6225b3657, 1.9768124316434208, 1},
	{"greedy-est50", 4, 9, 2, 2, []int{2, 4}, 0x3fe5ecbe1e7f420e, 1.9768124316434208, 1},
	{"anneal-est20", 4, 12, 3, 0.05, []int{}, 0x3fd484187bace1ad, 0, 0},
	{"anneal-est50", 4, 12, 3, 0.05, []int{}, 0x3fd484187bace1ad, 0, 0},
	{"exhaustive-exact", 4, 12, 3, 0.05, []int{}, 0x3fd484187bace1ad, 0, 0},
	{"exhaustive-est50", 4, 12, 3, 0.05, []int{}, 0x3fd484187bace1ad, 0, 0},
	{"greedy-exact", 4, 12, 3, 0.05, []int{}, 0x3fd484187bace1ad, 0, 0},
	{"greedy-est50", 4, 12, 3, 0.05, []int{}, 0x3fd484187bace1ad, 0, 0},
	{"anneal-est20", 4, 12, 3, 1, []int{8, 9, 10}, 0x3fe7093f2c9ba24e, 0.976346901206983, 63},
	{"anneal-est50", 4, 12, 3, 1, []int{8, 9, 10}, 0x3fe70f86ce4ac5cc, 0.976346901206983, 63},
	{"exhaustive-exact", 4, 12, 3, 1, []int{8, 9, 10}, 0x3fe70f86ce4ac5cc, 0.976346901206983, 42},
	{"exhaustive-est50", 4, 12, 3, 1, []int{8, 9, 10}, 0x3fe70f86ce4ac5cc, 0.976346901206983, 42},
	{"greedy-exact", 4, 12, 3, 1, []int{8, 9, 10}, 0x3fe70f86ce4ac5cc, 0.976346901206983, 1},
	{"greedy-est50", 4, 12, 3, 1, []int{8, 9, 10}, 0x3fe70f86ce4ac5cc, 0.976346901206983, 1},
	{"anneal-est20", 4, 12, 3, 2, []int{2, 7, 8, 9, 10}, 0x3fea1ca68f421a94, 1.911196281030724, 98},
	{"anneal-est50", 4, 12, 3, 2, []int{2, 7, 8, 9, 10}, 0x3fea1fff603b2de4, 1.911196281030724, 98},
	{"exhaustive-exact", 4, 12, 3, 2, []int{2, 7, 8, 9, 10}, 0x3fea207421d0109a, 1.9111962810307241, 369},
	{"exhaustive-est50", 4, 12, 3, 2, []int{2, 7, 8, 9, 10}, 0x3fea1fff603b2de2, 1.9111962810307241, 369},
	{"greedy-exact", 4, 12, 3, 2, []int{2, 6, 7, 9}, 0x3fe9a96164d6e09c, 1.9637474192112214, 1},
	{"greedy-est50", 4, 12, 3, 2, []int{2, 6, 7, 9}, 0x3fe9a95cf65a5380, 1.9637474192112214, 1},
}
