// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section 6), plus ablation micro-benchmarks for the design
// choices catalogued in DESIGN.md.
//
// Each BenchmarkFig*/BenchmarkTable* regenerates the corresponding
// artifact at a reduced-but-faithful scale (Repeats=1); run
// cmd/experiments for the full sweeps and EXPERIMENTS.md for recorded
// outputs.
package repro_test

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/jq"
	"repro/internal/multichoice"
	"repro/internal/repl"
	"repro/internal/selection"
	"repro/internal/server"
	"repro/internal/voting"
	"repro/internal/worker"
)

// benchConfig keeps one artifact regeneration per benchmark iteration.
func benchConfig() experiments.Config {
	return experiments.Config{Seed: 1, Repeats: 1, Trials: 40, Questions: 10, NumBuckets: 50}
}

func benchmarkArtifact(b *testing.B, id string) {
	b.Helper()
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper artifact -------------------------------------

func BenchmarkFig1BudgetQualityTable(b *testing.B)  { benchmarkArtifact(b, "fig1") }
func BenchmarkFig6aSystemComparison(b *testing.B)   { benchmarkArtifact(b, "fig6a") }
func BenchmarkFig6bSystemComparison(b *testing.B)   { benchmarkArtifact(b, "fig6b") }
func BenchmarkFig6cSystemComparison(b *testing.B)   { benchmarkArtifact(b, "fig6c") }
func BenchmarkFig6dSystemComparison(b *testing.B)   { benchmarkArtifact(b, "fig6d") }
func BenchmarkFig7aAnnealingVsExact(b *testing.B)   { benchmarkArtifact(b, "fig7a") }
func BenchmarkFig7bAnnealingScale(b *testing.B)     { benchmarkArtifact(b, "fig7b") }
func BenchmarkTable3ErrorRanges(b *testing.B)       { benchmarkArtifact(b, "table3") }
func BenchmarkFig8aStrategyComparison(b *testing.B) { benchmarkArtifact(b, "fig8a") }
func BenchmarkFig8bStrategyComparison(b *testing.B) { benchmarkArtifact(b, "fig8b") }
func BenchmarkFig9aVarianceSweep(b *testing.B)      { benchmarkArtifact(b, "fig9a") }
func BenchmarkFig9bBucketSweep(b *testing.B)        { benchmarkArtifact(b, "fig9b") }
func BenchmarkFig9cErrorHistogram(b *testing.B)     { benchmarkArtifact(b, "fig9c") }
func BenchmarkFig9dPruning(b *testing.B)            { benchmarkArtifact(b, "fig9d") }
func BenchmarkFig10aRealBudget(b *testing.B)        { benchmarkArtifact(b, "fig10a") }
func BenchmarkFig10bRealN(b *testing.B)             { benchmarkArtifact(b, "fig10b") }
func BenchmarkFig10cRealCostStd(b *testing.B)       { benchmarkArtifact(b, "fig10c") }
func BenchmarkFig10dPrediction(b *testing.B)        { benchmarkArtifact(b, "fig10d") }

// --- Worked-example micro-benchmarks ---------------------------------------

// BenchmarkFig2ExactJQ measures the Figure 2 worked example: exact JQ of
// MV and BV on the three-worker jury.
func BenchmarkFig2ExactJQ(b *testing.B) {
	pool := worker.UniformCost([]float64{0.9, 0.6, 0.6}, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := jq.Exact(pool, voting.Majority{}, 0.5); err != nil {
			b.Fatal(err)
		}
		if _, err := jq.ExactBV(pool, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks ----------------------------------------------------

// BenchmarkAblationEstimateJQ measures the bucket-based approximation
// (Algorithm 1) across jury sizes, with and without Algorithm 2 pruning —
// the microscopic view of Figure 9(d).
func BenchmarkAblationEstimateJQ(b *testing.B) {
	for _, n := range []int{50, 100, 300, 500} {
		gen := datagen.DefaultConfig()
		gen.N = n
		pool, err := gen.Pool(rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		for _, pruning := range []bool{true, false} {
			name := "n=" + strconv.Itoa(n) + "/pruning=" + strconv.FormatBool(pruning)
			b.Run(name, func(b *testing.B) {
				opts := jq.Options{NumBuckets: 50, DisablePruning: !pruning}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := jq.Estimate(pool, 0.5, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationMVClosedForm compares the O(n²) closed-form MV JQ
// against the exponential enumeration it replaces.
func BenchmarkAblationMVClosedForm(b *testing.B) {
	pool, err := func() (worker.Pool, error) {
		gen := datagen.DefaultConfig()
		gen.N = 15
		return gen.Pool(rand.New(rand.NewSource(2)))
	}()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("closed-form", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := jq.MajorityClosedForm(pool, 0.5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enumeration", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := jq.Exact(pool, voting.Majority{}, 0.5); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSelectors measures the JSP search algorithms on one
// N=14 instance (where the exhaustive optimum is computable).
func BenchmarkAblationSelectors(b *testing.B) {
	gen := datagen.DefaultConfig()
	gen.N = 14
	pool, err := gen.Pool(rand.New(rand.NewSource(3)))
	if err != nil {
		b.Fatal(err)
	}
	selectors := map[string]selection.Selector{
		"exhaustive":     selection.Exhaustive{Objective: selection.BVExactObjective{}},
		"annealing":      selection.Annealing{Objective: selection.BVExactObjective{}, Seed: 1},
		"greedy-quality": selection.GreedyQuality{Objective: selection.BVExactObjective{}},
		"greedy-ratio":   selection.GreedyRatio{Objective: selection.BVExactObjective{}},
		"knapsack":       selection.KnapsackSurrogate{Objective: selection.BVExactObjective{}},
	}
	for name, sel := range selectors {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sel.Select(pool, 0.3, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationAnnealingScale measures one JSP annealing solve as the
// candidate pool grows (the raw operation behind Figure 7b).
func BenchmarkAblationAnnealingScale(b *testing.B) {
	for _, n := range []int{100, 300, 500} {
		gen := datagen.DefaultConfig()
		gen.N = n
		pool, err := gen.Pool(rand.New(rand.NewSource(4)))
		if err != nil {
			b.Fatal(err)
		}
		b.Run("N="+strconv.Itoa(n), func(b *testing.B) {
			sel := selection.Annealing{Objective: selection.BVObjective{}, Seed: 1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sel.Select(pool, 0.5, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationMultiChoiceJQ measures the Section 7 tuple-key JQ
// estimation against the exact enumeration.
func BenchmarkAblationMultiChoiceJQ(b *testing.B) {
	pool := make(multichoice.Pool, 8)
	for i := range pool {
		m, err := multichoice.NewSymmetricConfusion(3, 0.6+0.03*float64(i))
		if err != nil {
			b.Fatal(err)
		}
		pool[i] = multichoice.Worker{Confusion: m, Cost: 1}
	}
	prior := multichoice.UniformPrior(3)
	b.Run("exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := multichoice.ExactBV(pool, prior); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bucketed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := multichoice.EstimateBV(pool, prior, 50); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationExperimentScale regenerates the two ablation artifacts.
func BenchmarkAblationSelectorsArtifact(b *testing.B) {
	benchmarkArtifact(b, "ablation-selectors")
}

func BenchmarkAblationBucketsArtifact(b *testing.B) {
	benchmarkArtifact(b, "ablation-buckets")
}

// --- Estimator and parallel-sweep ablations ---------------------------------

// BenchmarkAblationEstimatorJQ compares three ways of scoring the
// annealing search's jury stream: the one-shot jq.Estimate (per-call
// setup and allocation), the jq.Estimator engine without memoization
// (precomputed pool state, zero steady-state allocation), and the full
// engine with memoization (revisited juries are answered from the memo).
// The workload replays a fixed sequence of overlapping subsets with
// revisits, the shape Algorithm 3 produces.
func BenchmarkAblationEstimatorJQ(b *testing.B) {
	gen := datagen.DefaultConfig()
	gen.N = 120
	pool, err := gen.Pool(rand.New(rand.NewSource(7)))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	subsets := make([][]int, 64)
	for i := range subsets {
		if i%4 == 3 {
			subsets[i] = subsets[rng.Intn(i)] // revisit an earlier jury
			continue
		}
		perm := rng.Perm(gen.N)
		subsets[i] = perm[:8+rng.Intn(9)]
	}
	opts := jq.Options{NumBuckets: 50}
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range subsets {
				if _, err := jq.Estimate(pool.Subset(s), 0.5, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("estimator", func(b *testing.B) {
		est, err := jq.NewEstimator(pool, 0.5, jq.Options{NumBuckets: 50, DisableMemo: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range subsets {
				if _, err := est.Eval(s); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("estimator-memo", func(b *testing.B) {
		est, err := jq.NewEstimator(pool, 0.5, jq.Options{NumBuckets: 50})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range subsets {
				if _, err := est.Eval(s); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblationMVDeltaJQ compares the one-shot closed-form MV JQ
// against the delta-updating MVEvaluator on a tail-swap workload.
func BenchmarkAblationMVDeltaJQ(b *testing.B) {
	gen := datagen.DefaultConfig()
	gen.N = 120
	pool, err := gen.Pool(rand.New(rand.NewSource(9)))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	subsets := make([][]int, 64)
	base := rng.Perm(gen.N)[:20]
	for i := range subsets {
		jury := append([]int(nil), base...)
		jury[len(jury)-1-rng.Intn(4)] = rng.Intn(gen.N) // swap near the tail
		subsets[i] = jury
	}
	b.Run("closed-form", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range subsets {
				if _, err := jq.MajorityClosedForm(pool.Subset(s), 0.5); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("delta", func(b *testing.B) {
		eval, err := jq.NewMVEvaluator(pool, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range subsets {
				if _, err := eval.Eval(s); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblationSweepParallel regenerates one repeat-heavy artifact
// sequentially and with the full goroutine pool; the artifacts are
// byte-identical (TestParallelSweepsMatchSequential), only the wall
// clock differs.
func BenchmarkAblationSweepParallel(b *testing.B) {
	for _, workers := range []int{1, 0} {
		name := "workers=seq"
		if workers == 0 {
			name = "workers=all"
		}
		b.Run(name, func(b *testing.B) {
			cfg := benchConfig()
			cfg.Repeats = 4
			cfg.Parallel = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Run("fig9b", cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServerSelect measures the juryd serving path end to end
// (request decode → registry snapshot → selection → response encode) with
// the selection cache on and off. The cached variant answers every
// repeated request from the signature-keyed cache; the uncached variant
// re-runs the annealing search per request — the gap is the amortization
// the serving subsystem exists to provide. The cached-untraced variant
// disables request tracing (TraceBuffer: -1); comparing it against
// cached bounds the span recorder's overhead on the hottest path.
//
// uncached-N128 is jurybench's select-uncached-N128 request stream in
// process: a 128-worker pool of the benchmark's shape, budgets 5, 10, 15
// and 20 in turn and a fresh seed per request, so its allocs/op and B/op
// show what one served select costs the garbage collector.
func BenchmarkServerSelect(b *testing.B) {
	run := func(b *testing.B, cacheSize, traceBuffer int, specs []server.WorkerSpec, body func(i int) []byte) {
		srv := server.New(server.Config{Alpha: 0.5, Seed: 1, CacheSize: cacheSize, TraceBuffer: traceBuffer})
		if _, err := srv.Registry().Register(context.Background(), specs, 0); err != nil {
			b.Fatal(err)
		}
		h := srv.Handler()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/select", bytes.NewReader(body(i)))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("select: %d %s", w.Code, w.Body)
			}
		}
	}
	rng := rand.New(rand.NewSource(42))
	specs := make([]server.WorkerSpec, 60)
	for i := range specs {
		specs[i] = server.WorkerSpec{
			ID:      "w" + strconv.Itoa(i),
			Quality: 0.55 + 0.4*rng.Float64(),
			Cost:    1 + 9*rng.Float64(),
		}
	}
	budget40 := []byte(`{"budget":40}`)
	fixed := func(int) []byte { return budget40 }
	b.Run("cached", func(b *testing.B) { run(b, 0, 0, specs, fixed) })
	b.Run("cached-untraced", func(b *testing.B) { run(b, 0, -1, specs, fixed) })
	b.Run("uncached", func(b *testing.B) { run(b, -1, 0, specs, fixed) })

	// The worker of quality rank i draws its quality inside the i-th of
	// 128 equal strata of [0.55, 0.95) and costs 1 + 2i mod 5; the
	// registration order is a random permutation.
	shaped := make([]server.WorkerSpec, 128)
	for i, slot := range rng.Perm(len(shaped)) {
		shaped[slot] = server.WorkerSpec{
			ID:      "n128-w" + strconv.Itoa(slot),
			Quality: 0.55 + 0.4*(float64(i)+rng.Float64())/float64(len(shaped)),
			Cost:    float64(1 + 2*i%5),
		}
	}
	budgets := []int{5, 10, 15, 20}
	var buf []byte
	fresh := func(i int) []byte {
		buf = append(buf[:0], `{"budget":`...)
		buf = strconv.AppendInt(buf, int64(budgets[i%len(budgets)]), 10)
		buf = append(buf, `,"seed":`...)
		buf = strconv.AppendInt(buf, int64(i)+1, 10)
		return append(buf, '}')
	}
	b.Run("uncached-N128", func(b *testing.B) { run(b, -1, 0, shaped, fresh) })
}

// BenchmarkServerMultiSelect measures the multi-choice serving path end
// to end (request decode → pool snapshot → annealing over the bucketed
// multi-label JQ estimate → response encode) with the selection cache on
// and off. The multi-choice search is markedly costlier than the binary
// one (the bucket DP runs over (ℓ−1)-tuples of margins), so the cache's
// amortization matters even more here.
func BenchmarkServerMultiSelect(b *testing.B) {
	run := func(b *testing.B, cacheSize int) {
		srv := server.New(server.Config{Alpha: 0.5, Seed: 1, CacheSize: cacheSize})
		rng := rand.New(rand.NewSource(42))
		specs := make([]server.MultiWorkerSpec, 20)
		for i := range specs {
			q := 0.45 + 0.5*rng.Float64()
			specs[i] = server.MultiWorkerSpec{
				ID:      "m" + strconv.Itoa(i),
				Quality: &q,
				Cost:    1 + 9*rng.Float64(),
			}
		}
		if err := srv.PreloadMulti(server.MultiCreateRequest{
			Name: "bench", Labels: 3, Workers: specs,
		}); err != nil {
			b.Fatal(err)
		}
		h := srv.Handler()
		body := []byte(`{"budget":15}`)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/multi/pools/bench/select", bytes.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("multi select: %d %s", w.Code, w.Body)
			}
		}
	}
	b.Run("cached", func(b *testing.B) { run(b, 0) })
	b.Run("uncached", func(b *testing.B) { run(b, -1) })
}

// BenchmarkServerIngest measures the durable ingest path end to end
// (request decode → idempotency dedup → WAL stage → apply → shared
// flush → response encode) under -fsync at increasing parallelism.
// Every mutation waits for its flush outside the store lock, so
// mutations staged while a flush is in flight share the next one, and
// throughput scales with offered parallelism instead of being pinned to
// the device's flush rate.
func BenchmarkServerIngest(b *testing.B) {
	for _, parallelism := range []int{1, 8} {
		b.Run("parallelism="+strconv.Itoa(parallelism), func(b *testing.B) {
			srv, err := server.Open(server.Config{
				Alpha: 0.5, Seed: 1, DataDir: b.TempDir(), Fsync: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.ClosePersistence()
			specs := make([]server.WorkerSpec, 16)
			for i := range specs {
				specs[i] = server.WorkerSpec{ID: "w" + strconv.Itoa(i), Quality: 0.8, Cost: 2}
			}
			if _, err := srv.Registry().Register(context.Background(), specs, 0); err != nil {
				b.Fatal(err)
			}
			h := srv.Handler()
			var seq atomic.Uint64
			b.SetParallelism(parallelism)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					n := seq.Add(1)
					body := []byte(`{"worker_id":"w` + strconv.FormatUint(n%16, 10) + `","correct":true}`)
					req := httptest.NewRequest(http.MethodPost, "/v1/votes", bytes.NewReader(body))
					req.Header.Set("Idempotency-Key", "bench-"+strconv.FormatUint(n, 10))
					w := httptest.NewRecorder()
					h.ServeHTTP(w, req)
					if w.Code != http.StatusOK {
						b.Fatalf("ingest: %d %s", w.Code, w.Body)
					}
				}
			})
		})
	}
}

// BenchmarkServerQuorumIngest is one acked vote under -quorum 2, end to
// end in process: a keyed single vote over loopback HTTP to a primary
// that acks it only once a follower — a second durable server fed by
// repl.Follower over its replication stream — has applied it and
// confirmed it up the stream. The loop is closed, one vote in flight,
// so ns/op is the acked-write latency and allocs/op counts both nodes.
func BenchmarkServerQuorumIngest(b *testing.B) {
	primary, err := server.Open(server.Config{Alpha: 0.5, Seed: 1, DataDir: b.TempDir(), Quorum: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer primary.ClosePersistence()
	ts := httptest.NewServer(primary.Handler())
	defer ts.Close()
	follower, err := server.Open(server.Config{Alpha: 0.5, Seed: 1, DataDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer follower.ClosePersistence()
	follower.SetFollower(ts.URL)
	f, err := repl.NewFollower(follower, repl.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	following := make(chan error, 1)
	go func() { following <- f.Run(ctx) }()
	defer func() {
		cancel()
		<-following
	}()

	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	post := func(path, key string, body []byte) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if key != "" {
			req.Header.Set("Idempotency-Key", key)
		}
		resp, err := client.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 300 {
			b.Fatalf("POST %s: %d", path, resp.StatusCode)
		}
	}
	post("/v1/workers", "", []byte(`{"workers":[{"id":"w0","quality":0.8,"cost":2},{"id":"w1","quality":0.7,"cost":2}]}`))
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		post("/v1/votes", "bench-"+strconv.Itoa(i), []byte(`{"worker_id":"w`+strconv.Itoa(i%2)+`","correct":true}`))
	}
}

// BenchmarkServerOpen is a restart's boot in process: server.Open on a
// data directory holding 50,000 journaled keyed single votes and no
// snapshot, so each boot replays the whole log, decoding and applying
// every record and re-adding its key to the dedup table.
func BenchmarkServerOpen(b *testing.B) {
	const votes = 50_000
	cfg := server.Config{Alpha: 0.5, Seed: 1, DataDir: b.TempDir()}
	srv, err := server.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]server.WorkerSpec, 16)
	for i := range specs {
		specs[i] = server.WorkerSpec{ID: "w" + strconv.Itoa(i), Quality: 0.8, Cost: 2}
	}
	ctx := context.Background()
	if _, err := srv.Registry().Register(ctx, specs, 0); err != nil {
		b.Fatal(err)
	}
	for i := range votes {
		ev := []server.VoteEvent{{WorkerID: specs[i%len(specs)].ID, Correct: i%3 != 0}}
		if _, _, _, err := srv.Registry().IngestKeyed(ctx, ev, "bench-"+strconv.Itoa(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := srv.ClosePersistence(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		srv, err := server.Open(cfg)
		if err != nil {
			b.Fatal(err)
		}
		replayed := srv.PersistenceStatus().Recovery.RecordsReplayed
		if err := srv.ClosePersistence(); err != nil || replayed != votes+1 {
			b.Fatalf("boot replayed %d of %d records: %v", replayed, votes+1, err)
		}
	}
}
