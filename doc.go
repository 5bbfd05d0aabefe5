// Package repro is the root of a reproduction of Zheng, Cheng, Maniu, Mo:
// "On Optimality of Jury Selection in Crowdsourcing" (EDBT 2015).
//
// The public API lives in package repro/jury (binary decision-making
// tasks) and repro/jury/multi (multiple-choice tasks with confusion-matrix
// workers). The implementation lives under internal/: see DESIGN.md for
// the system inventory and EXPERIMENTS.md for the paper-versus-measured
// record. The benchmarks in bench_test.go regenerate every evaluation
// artifact of the paper.
//
// # Performance
//
// The hot path of the whole system is jury-quality evaluation inside the
// Algorithm 3 annealing search: thousands of juries per solve, each
// differing from the previous one by a single add/swap/remove. Three
// evaluation engines in internal/jq serve this workload; each is built
// once per (candidate pool, prior, options) and then scores arbitrary
// subsets — passed as index slices (any order; they are treated as sets)
// or bitmasks — without re-validating, re-normalizing, recomputing
// log-odds, or allocating:
//
//   - jq.NewEstimator: the Algorithm 1 bucket approximation of JQ under
//     Bayesian Voting. Per-worker log-odds are precomputed, the bucket DP
//     runs in reusable scratch buffers, and results are memoized on the
//     jury's canonical (sorted-index) signature, so juries revisited
//     during a search are answered from the table. Eval results are
//     bit-identical to the one-shot jq.Estimate on the same subset; the
//     memo holds at most jq.DefaultMemoLimit juries, and its
//     effectiveness is observable via Stats().Hits/Misses, alongside the
//     per-call KeysVisited/KeysPruned counters.
//   - jq.NewMVEvaluator: the Majority Voting closed form with
//     O(n)-update delta evaluation. A stack of Poisson-binomial DP
//     snapshots (one per jury prefix) makes adding a worker one O(n) row
//     and removing one a rollback to the divergence point, while staying
//     bit-identical to jq.MajorityClosedForm on the canonical subset.
//   - jq.NewExactBVEvaluator: the exponential exact-BV enumeration
//     without per-subset allocation, for small-jury reference runs.
//
// The selection layer picks these up through one seam: every search
// (Annealing, Exhaustive, the greedy walk, the knapsack's final score)
// runs on a selection.Space — the candidates' costs, the empty jury's
// score, and a factory for a selection.Evaluator that scores juries as
// index slices. Every Objective (BV, MV, BV-exact) builds that
// evaluator from its jq engine, so the annealing swap loop allocates
// nothing per move. Nor does a whole search allocate much: an Estimator's
// tables, DP lists and memo map come from a sync.Pool, and every search
// hands them back through Estimator.Release, memo cleared, when its pass
// ends; annealing recycles its restarts' RNGs the same way. A served N = 128 select so
// allocates ~10 KB instead of ~200 KB, which cuts the CPU the garbage
// collector spends per request (BenchmarkServerSelect/uncached-N128
// reports it in process). The multi-choice selectors of internal/multichoice
// build their own Space, whose evaluator scores the materialized
// subset, and run the same searches. Evaluators are single-goroutine;
// parallel searches build one each. Annealing restarts fan out across a
// bounded goroutine pool with per-restart RNGs derived from the seed, and
// the repeat/trial loops of internal/experiments do the same
// (Config.Parallel; 0 = all CPUs, 1 = sequential), folding results in
// index order so parallel sweeps stay byte-identical to sequential runs —
// the wall-clock-measuring panels (fig7b, fig9d) always time their inner
// region sequentially.
//
// To record before/after numbers for a performance change, benchmark the
// ablation suite at both revisions and compare with benchstat:
//
//	go test -bench 'BenchmarkAblation' -benchmem -count 10 -run '^$' . > BENCH_old.txt
//	<apply change>
//	go test -bench 'BenchmarkAblation' -benchmem -count 10 -run '^$' . > BENCH_new.txt
//	benchstat BENCH_old.txt BENCH_new.txt
//
// and keep machine-readable artifacts next to the text files with
// `go test -bench ... -json > BENCH_<rev>.json`. The engines themselves
// are covered by BenchmarkAblationEstimatorJQ (direct vs estimator vs
// estimator+memo), BenchmarkAblationMVDeltaJQ (closed form vs delta),
// and BenchmarkAblationSweepParallel (sequential vs parallel sweeps).
//
// # Serving
//
// The paper frames jury selection as a query a requester asks repeatedly;
// cmd/juryd serves that query as a long-running HTTP daemon built on
// internal/server, with jury/serve as the matching client. Three pieces
// make it a system rather than a CLI in a loop:
//
//   - Worker registry (server.Registry): the candidate pool lives in
//     memory behind an RWMutex. Each worker carries a Beta posterior over
//     its correctness probability, seeded from the registered quality as
//     pseudo-counts (Config.PriorStrength votes' worth). Ingesting a
//     graded vote event is one posterior step; the worker's quality is
//     always the posterior mean, so quality drifts continuously as
//     evidence accumulates — the online-processing view of Section 8.
//   - Selection cache (server.SelectionCache): selections are memoized
//     under a key that includes the pool signature — the registry's
//     persisted mutation count, plus a digest of the member ids for a
//     subset — and budget, prior, strategy, and annealing seed.
//   - Online sessions: sequential vote collection (internal/online) is
//     exposed as a stateful resource; each posted vote advances an
//     online.Session (the incremental engine Collect itself drives) and
//     reports decision, confidence, and the stopping rule's verdict.
//
// Consistency model: a cached jury can never be served stale. The cache
// key names the exact worker states the selection was computed against,
// and every selector is deterministic given that key, so a lookup either
// finds a bit-identical answer or misses. Every mutation, so every vote
// ingest that moves a posterior mean, changes the pool signature, making
// every prior key for that pool unconstructible — invalidation is structural,
// not event-driven, and needs no cross-request coordination. The cost of
// this design is garbage, not wrongness: superseded entries linger until
// LRU eviction (bounded by Config.CacheSize). An entry keeps its jury as
// 4-byte pool indices, listed again from each hit's snapshot; with
// ~12-member juries it retains ~360 B (~700 B with copied member rows),
// so the default 4,096 entries hold ~1.4 MiB of garbage. Selections run
// on immutable pool snapshots outside all locks, so a long annealing
// search never blocks ingestion; a selection raced by an ingest returns
// the jury that was optimal for the snapshot it was asked about, tagged
// with that snapshot's signature. Batch budget sweeps fan out over the bounded
// internal/conc pool. BenchmarkServerSelect records the cached-versus-
// uncached throughput gap; /metrics exposes request counts, per-route
// latency histograms (juryd_request_duration_seconds), cache hit rate,
// and cumulative selection latency at runtime. API.md at the repository
// root is the route-by-route wire reference, kept honest by a test that
// diffs it against the server's registered route table.
//
// # Multi-choice serving
//
// The Section 7 extension — ℓ-ary tasks with confusion-matrix workers
// (jury/multi, internal/multichoice) — is served over HTTP alongside the
// binary routes. Multi-choice workers live in named pools
// (server.MultiRegistry); each pool fixes one label count, so one daemon
// can serve 3-label sentiment and 5-label rating workloads side by side:
//
//   - Dirichlet posteriors: where a binary worker carries one Beta
//     posterior, a multi-choice worker carries one Dirichlet posterior
//     per confusion row, seeded from the registered matrix scaled by the
//     prior strength. A graded multi-label vote event (worker, truth,
//     vote) adds one pseudo-count to the (truth, vote) cell and row
//     `truth` becomes its new posterior mean — rows without evidence
//     never drift.
//   - Signatures: every pool's signature is the multi registry's one
//     mutation count, so drift in any row of any pool invalidates cached
//     selections structurally, exactly like the binary arm (at the price
//     of retiring the other pools' entries too). Multi-choice selections
//     share the binary LRU
//     (disjoint key spaces); their keys also carry the full prior
//     vector, the bucket resolution, and — for the seeded annealing
//     strategy — the seed.
//   - Strategies: "anneal" (simulated annealing over the Section 7
//     bucketed JQ estimate, the default), "greedy" (informativeness-
//     ranked), "exhaustive" (exact enumeration for small pools), plus a
//     JQ endpoint that scores an explicit jury (estimate or exact).
//     The bucketed DP iterates its state maps in sorted-key order, so
//     multi-choice JQ is a pure function of its inputs — map iteration
//     order would otherwise leak into the last ULPs and break both
//     cache determinism and bit-exact WAL replay.
//   - Durability: multi-pool mutations (create, register, ingest, drop)
//     journal through the same WAL and snapshot codecs as the binary
//     registry; records carry the resolved prior strength, and both the
//     pseudo-counts and the derived confusion matrices travel in
//     snapshots, so a recovered pool is bit-identical — signatures,
//     cache keys, and selection outputs carry over restarts (asserted
//     by the multi-pool crash scripts in internal/walltest).
//
// BenchmarkServerMultiSelect records the cached-versus-uncached gap for
// the multi arm; cmd/juryd preloads a pool at boot via -multi-pool (with
// -labels as the fallback label count).
//
// # Durability
//
// juryd started with -data-dir is durable: the registry's Beta
// posteriors and the live collection sessions survive restarts and
// crashes. The design is write-ahead logging plus snapshots
// (internal/wal, internal/server):
//
//   - WAL format: append-only segments of length-prefixed,
//     CRC32-C-checksummed records; segments rotate at a size threshold
//     and are named by the LSN of their first record, so record position
//     is the index. Decoding arbitrary bytes never panics (fuzzed), and
//     only the final segment's tail can legitimately be torn — recovery
//     truncates it; a bad checksum anywhere else fails loudly as
//     corruption rather than silently skipping records.
//   - Journal-then-apply: every mutation (worker register/update/remove,
//     graded vote ingests, session open/vote/finalize/close, multi-pool
//     create/register/ingest/drop, and even the session reaper's
//     evictions) is validated, appended to the WAL
//     under the same lock that orders it, and only then applied in
//     memory. Log order therefore equals application order, a failed
//     append aborts with memory untouched, and a record carries every
//     input replay needs — the resolved prior strength, the voting
//     worker's quality at ingest time, the session id counter — so
//     replay depends on nothing but the log.
//   - Snapshots: every -snapshot-interval (and on graceful shutdown) the
//     full state is serialized to JSON and installed by atomic rename;
//     WAL segments the snapshot covers are deleted. Session log odds are
//     stored as IEEE-754 bit patterns so ±Inf posteriors survive JSON.
//     Recovery = newest snapshot + tail replay; the snapshot(state) +
//     replay(tail) == replay(all) property is tested, along with
//     torn-write, empty-segment and repeated-crash cases, by the
//     internal/walltest harness.
//   - Fsync policy: by default appends ride the OS page cache — they
//     survive kill -9 but not power loss; -fsync syncs every flush,
//     trading disk flushes for full durability. This is the standard
//     WAL tradeoff; pick per deployment.
//   - One commit order: stage, apply, flush, ack. Each mutation
//     reserves its LSN and stages its framed record under the ordering
//     lock, applies in memory, and is acked only after a shared flush
//     covers its LSN: the first waiter writes (and under -fsync syncs)
//     the whole staged batch at once. The segment layout depends only on
//     the record sequence. A failed flush refuses the whole batch with
//     503; nothing unacked survives recovery.
//   - Failure contract: the first WAL failure (append, flush, or fsync)
//     poisons the log — every later append, durability wait and Close
//     refuses with the original typed IOError. Before the daemon degrades
//     and any refused mutation answers 503, the live state is restored
//     to the durable prefix by boot recovery's own snapshot load and
//     replay; if that restore fails, reads answer 503 too. A shutdown
//     that cannot cleanly sync the log is a dirty close: juryd logs it
//     and exits non-zero.
//
// Because replay is deterministic, a recovered registry is bit-identical
// to the pre-crash one — including the persisted mutation count that
// names its pool signatures, so the selection
// cache (rebuilt empty on boot) refills under exactly the keys the
// pre-crash process used, and cached-selection consistency carries over
// restarts unchanged. GET /debug/persistence reports the recovery
// summary (snapshot LSN, records replayed, torn bytes truncated) and
// current log position; jury/serve exposes it as Client.Persistence.
package repro
