package selection

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"repro/internal/conc"
	"repro/internal/worker"
)

// restartSeedStride separates the derived RNG seeds of annealing
// restarts; restart r runs on Seed + r·restartSeedStride.
const restartSeedStride = 0x9E3779B9

// rngPool recycles the restarts' generators: a math/rand source is 4.9 KB,
// and Seed puts a recycled one in exactly the state rand.NewSource would
// build.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(1)) }}

// Algorithm 3's cooling schedule: the temperature starts at initialTemp
// and halves after every level until it falls below epsilon (27 levels).
const (
	initialTemp = 1.0
	cooling     = 0.5
	epsilon     = 1e-8
)

// Annealing is the simulated-annealing JSP heuristic of Algorithm 3, with
// the add-or-swap local search of Algorithm 4. The state is the selection
// vector X over the N candidates; at each of the N local searches per
// temperature level a random candidate r is drawn and either added (when it
// fits the remaining budget) or swapped against a random member/non-member,
// accepting worsening swaps with Boltzmann probability exp(Δ/T).
//
// Unlike the paper's pseudo-code, the best jury seen across the whole run
// is returned rather than the final state; this never hurts and makes the
// returned quality monotone in the number of iterations.
//
// Objective evaluations go through the objective's Evaluator: the
// per-pool setup runs once per restart, and each move is scored from
// precomputed state with no per-move allocation.
type Annealing struct {
	// Objective is the quality model Select maximizes; Search takes its
	// space ready-made and ignores it.
	Objective Objective
	// Seed makes runs reproducible. Two selectors with equal seeds and
	// inputs return identical juries.
	Seed int64
	// Restarts runs the annealing loop multiple times (fresh random state,
	// derived seeds) and keeps the best jury. Zero means 1. Restarts fan
	// out across a bounded goroutine pool; because every restart derives
	// its RNG and evaluator independently and the results are folded in
	// restart order, the outcome is identical to running them
	// sequentially.
	Restarts int
	// AllowRemoval extends Algorithm 4 with a pure removal move: when the
	// chosen swap is infeasible (it would exceed the budget), the member
	// that would have left the jury may be removed outright, accepted by
	// the same Boltzmann rule. Removals typically lower JQ (Lemma 1), so
	// they fire mostly at high temperature — but they let the search
	// escape juries packed with cheap workers that block every single
	// swap toward an expensive high-quality worker. This is an extension
	// over the paper's algorithm and is off by default.
	AllowRemoval bool
}

// Name implements Selector.
func (a Annealing) Name() string { return "anneal(" + a.Objective.Name() + ")" }

// Select implements Selector.
func (a Annealing) Select(pool worker.Pool, budget, alpha float64) (Result, error) {
	if err := checkSelectInput(pool, budget, alpha); err != nil {
		return Result{}, err
	}
	res, err := a.Search(newSpace(a.Objective, pool, alpha), budget)
	return withJury(pool, res, err)
}

// Search runs the annealing over sp within budget and returns the best
// jury's Indices, JQ, Cost and Evaluations; Jury is left nil. The
// evaluation of the empty starting jury counts.
func (a Annealing) Search(sp Space, budget float64) (Result, error) {
	restarts := a.Restarts
	if restarts < 1 {
		restarts = 1
	}
	results := make([]Result, restarts)
	errs := make([]error, restarts)
	conc.ForEach(runtime.GOMAXPROCS(0), restarts, func(r int) {
		rng := rngPool.Get().(*rand.Rand)
		rng.Seed(a.Seed + int64(r)*restartSeedStride)
		results[r], errs[r] = a.run(sp, budget, rng)
		rngPool.Put(rng)
	})
	// Fold in restart order so the result matches a sequential run
	// bit for bit: the first error wins, ties keep the earlier restart.
	best, evals := results[0], 0
	for r := range restarts {
		if errs[r] != nil {
			return Result{}, errs[r]
		}
		evals += results[r].Evaluations
		if results[r].JQ > best.JQ {
			best = results[r]
		}
	}
	best.Evaluations = evals
	return best, nil
}

// annealSearch is the mutable state of one annealing pass: the selection
// vector, the member list, and the scratch buffer the swap move builds
// candidate juries in. members and spare are two fixed backing arrays
// that trade roles when a move is accepted, so the whole search allocates
// nothing per move.
type annealSearch struct {
	costs        []float64
	empty        float64
	eval         Evaluator
	budget       float64
	rng          *rand.Rand
	allowRemoval bool

	selected []bool // X
	members  []int
	spare    []int
	cost     float64 // M
	curJQ    float64
	evals    int
}

// newAnnealSearch starts a pass from the empty jury.
func newAnnealSearch(sp Space, eval Evaluator, budget float64, rng *rand.Rand, allowRemoval bool) *annealSearch {
	n := len(sp.Costs)
	return &annealSearch{
		costs:        sp.Costs,
		empty:        sp.Empty,
		eval:         eval,
		budget:       budget,
		rng:          rng,
		allowRemoval: allowRemoval,
		selected:     make([]bool, n),
		members:      make([]int, 0, n),
		spare:        make([]int, 0, n),
	}
}

func (s *annealSearch) objective(indices []int) (float64, error) {
	s.evals++
	if len(indices) == 0 {
		return s.empty, nil
	}
	return s.eval.Eval(indices)
}

// run executes one annealing pass (Algorithm 3).
func (a Annealing) run(sp Space, budget float64, rng *rand.Rand) (Result, error) {
	n := len(sp.Costs)
	eval, err := sp.NewEvaluator()
	if err != nil {
		return Result{}, err
	}
	defer release(eval)
	s := newAnnealSearch(sp, eval, budget, rng, a.AllowRemoval)
	s.curJQ, err = s.objective(s.members)
	if err != nil {
		return Result{}, err
	}
	bestJQ := s.curJQ
	bestMembers := append([]int(nil), s.members...)
	bestCost := s.cost

	for temp := initialTemp; temp >= epsilon; temp *= cooling {
		for step := 0; step < n; step++ {
			if err := s.move(temp); err != nil {
				return Result{}, err
			}
			if s.curJQ > bestJQ {
				bestJQ = s.curJQ
				bestMembers = append(bestMembers[:0], s.members...)
				bestCost = s.cost
			}
		}
	}
	sort.Ints(bestMembers)
	return Result{
		Indices:     bestMembers,
		JQ:          bestJQ,
		Cost:        bestCost,
		Evaluations: s.evals,
	}, nil
}

// accept is the Boltzmann acceptance rule for a maximization problem: a
// move with objective change delta ≥ 0 is always accepted; a worsening
// move is accepted with probability exp(delta/temp).
func accept(delta, temp float64, rng *rand.Rand) bool {
	if delta >= 0 {
		return true
	}
	if temp <= 0 {
		return false
	}
	return rng.Float64() <= math.Exp(delta/temp)
}

// move is one local search of Algorithm 3: draw a candidate r, add it
// when it is free and fits the budget (steps 9–11), swap otherwise.
func (s *annealSearch) move(temp float64) error {
	r := s.rng.Intn(len(s.selected))
	if !s.selected[r] && s.cost+s.costs[r] <= s.budget {
		s.selected[r] = true
		s.members = append(s.members, r)
		s.cost += s.costs[r]
		newJQ, err := s.objective(s.members)
		if err != nil {
			return err
		}
		s.curJQ = newJQ
		return nil
	}
	return s.swap(r, temp)
}

// swap implements Algorithm 4: exchange one selected worker against one
// unselected worker, accepting by the Boltzmann rule.
func (s *annealSearch) swap(r int, temp float64) error {
	n := len(s.selected)
	var out, in int // out leaves the jury, in enters
	if !s.selected[r] {
		if len(s.members) == 0 {
			return nil // nothing to swap against
		}
		out = s.members[s.rng.Intn(len(s.members))]
		in = r
	} else {
		free := n - len(s.members)
		if free == 0 {
			return nil // everyone is already selected
		}
		pick := s.rng.Intn(free)
		in = -1
		for i := 0; i < n; i++ {
			if !s.selected[i] {
				if pick == 0 {
					in = i
					break
				}
				pick--
			}
		}
		out = r
	}
	newCost := s.cost - s.costs[out] + s.costs[in]
	candidate := s.spare[:0]
	for _, m := range s.members {
		if m != out {
			candidate = append(candidate, m)
		}
	}
	if newCost > s.budget {
		if !s.allowRemoval || !s.selected[out] {
			return nil
		}
		// Extension: fall back to removing `out` alone.
		newJQ, err := s.objective(candidate)
		if err != nil {
			return err
		}
		if accept(newJQ-s.curJQ, temp, s.rng) {
			s.selected[out] = false
			s.members, s.spare = candidate, s.members
			s.cost -= s.costs[out]
			s.curJQ = newJQ
		}
		return nil
	}
	candidate = append(candidate, in)
	newJQ, err := s.objective(candidate)
	if err != nil {
		return err
	}
	if accept(newJQ-s.curJQ, temp, s.rng) {
		s.selected[out] = false
		s.selected[in] = true
		s.members, s.spare = candidate, s.members
		s.cost = newCost
		s.curJQ = newJQ
	}
	return nil
}
