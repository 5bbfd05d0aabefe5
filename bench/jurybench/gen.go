package main

import (
	"fmt"
	"math/rand/v2"

	"repro/jury/serve"
)

// gen derives every input of a run from the -seed flag: the worker pool,
// the per-request budgets and annealing seeds, and the vote events. Each
// item is a pure function of (seed, stream, index), so a request's
// content does not depend on which client goroutine sent it or when.
type gen struct{ seed int64 }

// Streams keep the warm-up, the measured window and set-up from sharing
// request seeds or idempotency keys.
const (
	streamMeasured = iota
	streamWarmup
	streamSetup
	streamInproc
)

// budgets are cycled by request index.
var budgets = [...]float64{5, 10, 15, 20}

// splitmix64 is a bijective 64-bit mixer; chained, it turns (seed, stream,
// index) into independent-looking words.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (g gen) word(stream, i int, salt uint64) uint64 {
	return splitmix64(splitmix64(splitmix64(uint64(g.seed)^salt)+uint64(stream)) + uint64(i))
}

// pool is a stratified sample of the crowdsim load generator's
// distribution, quality uniform in [0.55, 0.95) and cost uniform over
// 1..5: the i-th worker by quality draws it inside the i-th of n equal
// strata and costs 1 + 2i mod 5, so every five consecutive strata hold
// the five costs, cheap and dear interleaved; the registration order is a
// random permutation. A seed thus changes the instance but not its mix.
// With independent draws, how many cheap high-quality workers a pool
// happened to hold moved selection throughput by ±20% from seed to seed;
// with a random cost order per five strata, the mean jury of an N=32
// pool still ranged from 5.1 to 7.1 members over ten seeds.
func (g gen) pool(n int) []serve.WorkerSpec {
	rng := rand.New(rand.NewPCG(uint64(g.seed), uint64(n)))
	specs := make([]serve.WorkerSpec, n)
	for i, slot := range rng.Perm(n) {
		specs[slot] = serve.WorkerSpec{
			ID:      fmt.Sprintf("n%d-w%03d", n, slot),
			Quality: 0.55 + 0.4*(float64(i)+rng.Float64())/float64(n),
			Cost:    float64(1 + 2*i%5),
		}
	}
	return specs
}

// budget is request i's budget.
func (g gen) budget(i int) float64 { return budgets[i%len(budgets)] }

// selectSeed is request i's annealing seed: distinct per (stream, i), so
// each request is a cache miss unless a workload reuses indices on purpose.
func (g gen) selectSeed(stream, i int) int64 {
	return int64(g.word(stream, i, 0x5e1ec7) >> 1)
}

// vote is vote event i over pool: a uniformly drawn worker, graded correct
// with that worker's registered quality.
func (g gen) vote(pool []serve.WorkerSpec, stream, i int) serve.VoteEvent {
	w := g.word(stream, i, 0x7073e)
	spec := pool[w%uint64(len(pool))]
	u := float64(splitmix64(w)>>11) / (1 << 53)
	return serve.VoteEvent{WorkerID: spec.ID, Correct: u < spec.Quality}
}

// key is the idempotency key of ingest request i.
func (g gen) key(stream, i int) string {
	return fmt.Sprintf("jb-%x-%d-%d", uint64(g.seed), stream, i)
}
