package main

import (
	"slices"
	"testing"

	"repro/jury/serve"
)

// stream renders what a seed generates: the pool and the first requests
// of every stream the workloads draw from.
func stream(g gen) (pool []serve.WorkerSpec, seeds []int64, votes []serve.VoteEvent, keys []string) {
	pool = g.pool(128)
	for s := range streamInproc + 1 {
		for i := range 64 {
			seeds = append(seeds, g.selectSeed(s, i))
			votes = append(votes, g.vote(pool, s, i))
			keys = append(keys, g.key(s, i))
		}
	}
	return pool, seeds, votes, keys
}

func TestGenerationIsDeterministicPerSeed(t *testing.T) {
	p1, s1, v1, k1 := stream(gen{42})
	p2, s2, v2, k2 := stream(gen{42})
	if !slices.Equal(p1, p2) || !slices.Equal(s1, s2) || !slices.Equal(v1, v2) || !slices.Equal(k1, k2) {
		t.Fatal("seed 42 generated two different input sets")
	}
	p3, s3, v3, k3 := stream(gen{43})
	if slices.Equal(p1, p3) || slices.Equal(s1, s3) || slices.Equal(v1, v3) || slices.Equal(k1, k3) {
		t.Fatal("seeds 42 and 43 share part of their inputs")
	}
}

func TestGeneratedInputsAreValid(t *testing.T) {
	g := gen{7}
	pool := g.pool(32)
	ids := make(map[string]bool)
	for _, w := range pool {
		if w.Quality < 0.55 || w.Quality >= 0.95 || w.Cost < 1 || w.Cost > 5 || w.Cost != float64(int(w.Cost)) {
			t.Errorf("worker %+v outside quality [0.55, 0.95) and integer cost 1..5", w)
		}
		ids[w.ID] = true
	}
	if len(ids) != len(pool) {
		t.Fatalf("%d distinct ids in a pool of %d", len(ids), len(pool))
	}
	seeds := make(map[int64]bool)
	keys := make(map[string]bool)
	for s := range streamInproc + 1 {
		for i := range 1000 {
			seeds[g.selectSeed(s, i)] = true
			keys[g.key(s, i)] = true
			if v := g.vote(pool, s, i); !ids[v.WorkerID] {
				t.Fatalf("vote %+v names no pool worker", v)
			}
		}
	}
	if n := 4 * 1000; len(seeds) != n || len(keys) != n {
		t.Fatalf("%d distinct select seeds and %d distinct keys over %d requests", len(seeds), len(keys), n)
	}
	if g.budget(0) != 5 || g.budget(3) != 20 || g.budget(4) != 5 {
		t.Fatal("budgets do not cycle 5/10/15/20")
	}
}
