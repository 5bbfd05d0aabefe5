package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
)

func fp(v float64) *float64 { return &v }

// colorPoolRequest is the standard 3-label test pool: one symmetric
// worker, one explicit-matrix worker, one weak symmetric worker.
func colorPoolRequest() MultiCreateRequest {
	return MultiCreateRequest{
		Name:   "colors",
		Labels: 3,
		Workers: []MultiWorkerSpec{
			{ID: "m0", Quality: fp(0.8), Cost: 2},
			{ID: "m1", Confusion: [][]float64{
				{0.9, 0.05, 0.05}, {0.1, 0.8, 0.1}, {0.2, 0.2, 0.6},
			}, Cost: 3},
			{ID: "m2", Quality: fp(0.6), Cost: 1},
		},
	}
}

func newMultiTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{Alpha: 0.5, Seed: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	resp, raw := postJSON(t, ts.URL+"/v1/multi/pools", colorPoolRequest())
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create pool: %d %s", resp.StatusCode, raw)
	}
	return s, ts
}

func TestMultiPoolHTTPLifecycle(t *testing.T) {
	_, ts := newMultiTestServer(t)

	// Listing shows the pool with its label count and signature.
	resp, err := http.Get(ts.URL + "/v1/multi/pools")
	if err != nil {
		t.Fatal(err)
	}
	var pools MultiPoolsResponse
	raw := readBody(t, resp)
	mustDecode(t, raw, &pools)
	if len(pools.Pools) != 1 || pools.Pools[0].Labels != 3 ||
		pools.Pools[0].Workers != 3 || pools.Pools[0].Signature == "" {
		t.Fatalf("pools = %+v", pools)
	}

	// Pool detail: posterior-mean matrices and informativeness scores.
	resp, err = http.Get(ts.URL + "/v1/multi/pools/colors")
	if err != nil {
		t.Fatal(err)
	}
	var info MultiPoolInfo
	mustDecode(t, readBody(t, resp), &info)
	if len(info.Workers) != 3 || info.Workers[1].ID != "m1" {
		t.Fatalf("pool info = %+v", info)
	}
	if got := info.Workers[0].Confusion[0][0]; got != 0.8 {
		t.Fatalf("m0 diagonal = %v, want 0.8", got)
	}
	if info.Workers[2].Informativeness >= info.Workers[0].Informativeness {
		t.Fatalf("weak worker not ranked less informative: %+v", info.Workers)
	}

	// Duplicate pool creation is a 409; unknown pool a 404.
	resp, _ = postJSON(t, ts.URL+"/v1/multi/pools", colorPoolRequest())
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate pool: %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/multi/pools/ghost")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost pool: %d", resp.StatusCode)
	}

	// Late registration grows the pool and changes the signature.
	before := pools.Pools[0].Signature
	var reg MultiRegisterResponse
	resp, raw = postJSON(t, ts.URL+"/v1/multi/pools/colors/workers",
		MultiRegisterRequest{Workers: []MultiWorkerSpec{{ID: "m3", Quality: fp(0.7), Cost: 2}}})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d %s", resp.StatusCode, raw)
	}
	mustDecode(t, raw, &reg)
	if reg.PoolSize != 4 || reg.Signature == before {
		t.Fatalf("register response = %+v (before %s)", reg, before)
	}

	// A worker with the wrong label count is rejected whole.
	resp, raw = postJSON(t, ts.URL+"/v1/multi/pools/colors/workers",
		MultiRegisterRequest{Workers: []MultiWorkerSpec{
			{ID: "bad", Confusion: [][]float64{{0.9, 0.1}, {0.2, 0.8}}, Cost: 1}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("label mismatch: %d %s", resp.StatusCode, raw)
	}

	// Specs must set exactly one of confusion and quality.
	resp, _ = postJSON(t, ts.URL+"/v1/multi/pools",
		MultiCreateRequest{Name: "bad", Labels: 2,
			Workers: []MultiWorkerSpec{{ID: "x", Cost: 1}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("spec without matrix or quality: %d", resp.StatusCode)
	}

	// Drop, then 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/multi/pools/colors", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("drop pool: %v %v", resp, err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/v1/multi/pools/colors")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("dropped pool still readable: %d", resp.StatusCode)
	}
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMultiIngestDirichletPosterior pins the posterior math: registering
// a symmetric matrix with strength s seeds each row with s pseudo-counts
// distributed as the row, and each graded event adds one count to the
// (truth, vote) cell before re-normalizing that row — other rows are
// untouched.
func TestMultiIngestDirichletPosterior(t *testing.T) {
	r := NewMultiRegistry()
	if _, err := r.CreatePool(context.Background(), "p", 3, []MultiWorkerSpec{
		{ID: "w", Quality: fp(0.8), Cost: 1},
	}, 8); err != nil {
		t.Fatal(err)
	}
	updated, sig, err := r.Ingest(context.Background(), "p", []MultiVoteEvent{{WorkerID: "w", Truth: 0, Vote: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if sig == "" || len(updated) != 1 || updated[0].Votes != 1 {
		t.Fatalf("ingest = %+v, sig %q", updated, sig)
	}
	m := updated[0].Confusion
	// Row 0 was [0.8, 0.1, 0.1]·8; the event adds one count to cell
	// (0, 1) and the row is re-normalized. The expectation replays the
	// exact float operations (seed counts, +1, ordered row sum, divide)
	// so the comparison is bit-exact.
	q, strength := 0.8, 8.0 // variables: constant folding would be exact where the runtime is not
	off := (1 - q) / 2
	counts := []float64{q * strength, off*strength + 1, off * strength}
	rowSum := 0.0
	for _, c := range counts {
		rowSum += c
	}
	for k, c := range counts {
		if want := c / rowSum; math.Float64bits(m[0][k]) != math.Float64bits(want) {
			t.Fatalf("row 0 = %v, want cell %d = %v", m[0], k, want)
		}
	}
	// Rows 1 and 2 still sum to 1 and keep the symmetric shape.
	for j := 1; j < 3; j++ {
		if m[j][j] != 0.8 {
			t.Fatalf("row %d drifted without evidence: %v", j, m[j])
		}
	}
	// Ingest with out-of-range labels or unknown workers is rejected
	// whole, leaving the version untouched.
	if _, _, err := r.Ingest(context.Background(), "p", []MultiVoteEvent{{WorkerID: "w", Truth: 3, Vote: 0}}); err == nil {
		t.Fatal("out-of-range truth accepted")
	}
	if _, _, err := r.Ingest(context.Background(), "p", []MultiVoteEvent{{WorkerID: "ghost", Truth: 0, Vote: 0}}); err == nil {
		t.Fatal("unknown worker accepted")
	}
	info, _ := r.Get("p")
	if info.Workers[0].Version != 2 {
		t.Fatalf("failed ingests bumped version: %+v", info.Workers[0])
	}
}

// TestMultiSnapshotSubsetCanonicalization is the multi-choice twin of
// TestSnapshotSubsetCanonicalization: equal canonical subsets share one
// signature, and different subsets of a pool at one generation never do.
func TestMultiSnapshotSubsetCanonicalization(t *testing.T) {
	s, _ := newMultiTestServer(t)
	r := s.MultiRegistry()
	pool1, ids1, sig1, _, err := r.Snapshot("colors", []string{"m2", "m0", "m2"})
	if err != nil {
		t.Fatal(err)
	}
	_, _, sig2, _, err := r.Snapshot("colors", []string{"m0", "m2"})
	if err != nil {
		t.Fatal(err)
	}
	if sig1 != sig2 {
		t.Fatalf("equivalent subsets got different signatures: %s vs %s", sig1, sig2)
	}
	if len(pool1) != 2 || ids1[0] != "m0" || ids1[1] != "m2" {
		t.Fatalf("subset not canonicalized: %v", ids1)
	}
	_, _, full, _, _ := r.Snapshot("colors", nil)
	seen := map[string]string{full: "full pool", sig1: "{m0, m2}"}
	for _, sub := range [][]string{{"m0", "m1"}, {"m1", "m2"}, {"m0"}, {"m2"}, {"m0", "m1", "m2"}} {
		_, _, sig, _, err := r.Snapshot("colors", sub)
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := seen[sig]; ok {
			t.Fatalf("subset %v shares signature %q with %s", sub, sig, prev)
		}
		seen[sig] = fmt.Sprint(sub)
	}
	if _, _, _, _, err := r.Snapshot("colors", []string{"ghost"}); !errors.Is(err, ErrWorkerUnknown) {
		t.Fatalf("unknown subset member: %v", err)
	}
}

// TestMultiSelectCacheInvalidationOnDrift is the consistency-model test
// for the multi arm: repeated selections hit the cache, and a single
// graded vote event — which drifts one Dirichlet row — changes the
// full-matrix signature and structurally invalidates the cached jury.
func TestMultiSelectCacheInvalidationOnDrift(t *testing.T) {
	_, ts := newMultiTestServer(t)

	var first MultiSelectResponse
	resp, raw := postJSON(t, ts.URL+"/v1/multi/pools/colors/select", MultiSelectRequest{Budget: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("select: %d %s", resp.StatusCode, raw)
	}
	mustDecode(t, raw, &first)
	if first.Cached || len(first.Jury) == 0 || first.Cost > 5 || first.Labels != 3 {
		t.Fatalf("first select = %+v", first)
	}

	var second MultiSelectResponse
	_, raw = postJSON(t, ts.URL+"/v1/multi/pools/colors/select", MultiSelectRequest{Budget: 5})
	mustDecode(t, raw, &second)
	if !second.Cached {
		t.Fatal("repeated multi selection not served from cache")
	}
	if math.Float64bits(second.JQ) != math.Float64bits(first.JQ) {
		t.Fatalf("cached JQ differs: %v vs %v", second.JQ, first.JQ)
	}
	// Buckets 0 (the default) and the explicit default are the same
	// computation and must share one cache entry.
	var explicit MultiSelectResponse
	_, raw = postJSON(t, ts.URL+"/v1/multi/pools/colors/select",
		MultiSelectRequest{Budget: 5, Buckets: 50})
	mustDecode(t, raw, &explicit)
	if !explicit.Cached {
		t.Fatal("explicit default buckets missed the default-keyed cache entry")
	}
	// Multi-arm hits land on the shared cache counter in /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := readBody(t, resp)
	if !bytes.Contains(metrics, []byte("juryd_cache_hits_total 2\n")) {
		t.Fatalf("metrics after two multi cache hits:\n%s", metrics)
	}
	// The one computed multi select is sized by its reply's evaluations.
	want := fmt.Sprintf("juryd_select_evaluations_sum %d\njuryd_select_evaluations_count 1\n", first.Evaluations)
	if !bytes.Contains(metrics, []byte(want)) {
		t.Fatalf("metrics missing %q:\n%s", want, metrics)
	}

	// One graded event drifts m0's row 1: the signature must change and
	// the cached jury must become unreachable.
	var ing MultiIngestResponse
	resp, raw = postJSON(t, ts.URL+"/v1/multi/pools/colors/votes",
		MultiIngestRequest{Events: []MultiVoteEvent{{WorkerID: "m0", Truth: 1, Vote: 2}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %s", resp.StatusCode, raw)
	}
	mustDecode(t, raw, &ing)
	if ing.Ingested != 1 {
		t.Fatalf("ingested %d events, want 1", ing.Ingested)
	}
	if ing.Signature == first.Signature {
		t.Fatal("pool signature unchanged after posterior drift")
	}

	var third MultiSelectResponse
	_, raw = postJSON(t, ts.URL+"/v1/multi/pools/colors/select", MultiSelectRequest{Budget: 5})
	mustDecode(t, raw, &third)
	if third.Cached {
		t.Fatal("selection after drift served from stale cache")
	}
	if third.Signature != ing.Signature {
		t.Fatalf("selection signature %s != post-ingest signature %s", third.Signature, ing.Signature)
	}
}

func TestMultiSelectStrategiesAndJQ(t *testing.T) {
	_, ts := newMultiTestServer(t)

	jqs := map[string]float64{}
	for _, strategy := range []string{"anneal", "greedy", "exhaustive"} {
		var res MultiSelectResponse
		resp, raw := postJSON(t, ts.URL+"/v1/multi/pools/colors/select",
			MultiSelectRequest{Budget: 6, Strategy: strategy})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("select %s: %d %s", strategy, resp.StatusCode, raw)
		}
		mustDecode(t, raw, &res)
		if res.Strategy != strategy || res.Cost > 6 {
			t.Fatalf("select %s = %+v", strategy, res)
		}
		jqs[strategy] = res.JQ
	}
	// Annealing and exhaustive agree on this 3-worker pool.
	if math.Abs(jqs["anneal"]-jqs["exhaustive"]) > 1e-9 {
		t.Fatalf("anneal %v vs exhaustive %v", jqs["anneal"], jqs["exhaustive"])
	}
	resp, _ := postJSON(t, ts.URL+"/v1/multi/pools/colors/select",
		MultiSelectRequest{Budget: 6, Strategy: "nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad strategy: %d", resp.StatusCode)
	}

	// Subset selection stays inside the subset.
	var sub MultiSelectResponse
	_, raw := postJSON(t, ts.URL+"/v1/multi/pools/colors/select",
		MultiSelectRequest{Budget: 100, WorkerIDs: []string{"m0", "m2"}})
	mustDecode(t, raw, &sub)
	for _, m := range sub.Jury {
		if m.ID != "m0" && m.ID != "m2" {
			t.Fatalf("jury member outside subset: %+v", m)
		}
	}

	// A bad prior (wrong arity) is a 400.
	resp, _ = postJSON(t, ts.URL+"/v1/multi/pools/colors/select",
		MultiSelectRequest{Budget: 6, Prior: []float64{0.5, 0.5}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad prior: %d", resp.StatusCode)
	}

	// JQ endpoint: the estimate of the full pool matches the selection's
	// JQ at unlimited budget, and the exact method agrees closely.
	var est, exact MultiJQResponse
	resp, raw = postJSON(t, ts.URL+"/v1/multi/pools/colors/jq",
		MultiJQRequest{WorkerIDs: []string{"m0", "m1", "m2"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("jq: %d %s", resp.StatusCode, raw)
	}
	mustDecode(t, raw, &est)
	_, raw = postJSON(t, ts.URL+"/v1/multi/pools/colors/jq",
		MultiJQRequest{WorkerIDs: []string{"m0", "m1", "m2"}, Exact: true})
	mustDecode(t, raw, &exact)
	if est.Method != "estimate" || exact.Method != "exact" {
		t.Fatalf("methods = %q, %q", est.Method, exact.Method)
	}
	if math.Abs(est.JQ-exact.JQ) > 0.02 {
		t.Fatalf("estimate %v far from exact %v", est.JQ, exact.JQ)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/multi/pools/colors/jq", MultiJQRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty jq request: %d", resp.StatusCode)
	}
}

// TestMultiConcurrentIngestSelect races graded multi-label ingests
// against selections and JQ queries on one pool (run under -race in CI):
// every acknowledged event must land, and selections must never observe
// a torn matrix (each response's signature matches a state that existed).
func TestMultiConcurrentIngestSelect(t *testing.T) {
	s, ts := newMultiTestServer(t)

	const writers, events = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				id := fmt.Sprintf("m%d", w%3)
				resp, _ := postJSON(t, ts.URL+"/v1/multi/pools/colors/votes",
					MultiIngestRequest{Events: []MultiVoteEvent{
						{WorkerID: id, Truth: i % 3, Vote: (i + w) % 3}}})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("ingest: %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp, raw := postJSON(t, ts.URL+"/v1/multi/pools/colors/select",
					MultiSelectRequest{Budget: float64(2 + i%5)})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("select: %d %s", resp.StatusCode, raw)
					return
				}
				resp, _ = postJSON(t, ts.URL+"/v1/multi/pools/colors/jq",
					MultiJQRequest{WorkerIDs: []string{"m0", "m1"}})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("jq: %d", resp.StatusCode)
					return
				}
			}
		}(r)
	}
	wg.Wait()

	info, err := s.MultiRegistry().Get("colors")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, w := range info.Workers {
		total += w.Votes
		var sum float64
		for _, row := range w.Confusion {
			for _, v := range row {
				sum += v
			}
		}
		if math.Abs(sum-3) > 1e-9 {
			t.Fatalf("worker %s matrix rows no longer stochastic: %v", w.ID, w.Confusion)
		}
	}
	if total != writers*events {
		t.Fatalf("votes landed = %d, want %d", total, writers*events)
	}
}

// TestMultiDurableReplayBitExact drives multi mutations through a
// durable server, crashes it (no final snapshot), reopens, and asserts
// the recovered Dirichlet state — dump bytes and pool signature — is
// bit-identical.
func TestMultiDurableReplayBitExact(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	cfg := Config{Alpha: 0.5, Seed: 1, DataDir: dir}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := colorPoolRequest()
	if err := s.PreloadMulti(req); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.multi.Ingest(context.Background(), "colors", []MultiVoteEvent{
		{WorkerID: "m0", Truth: 0, Vote: 2},
		{WorkerID: "m1", Truth: 2, Vote: 2},
	}); err != nil {
		t.Fatal(err)
	}
	want, err := s.DebugState()
	if err != nil {
		t.Fatal(err)
	}
	wantInfo, _ := s.multi.Get("colors")
	if err := s.ClosePersistence(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.ClosePersistence()
	got, err := r.DebugState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("recovered state differs:\nwant %s\ngot  %s", want, got)
	}
	gotInfo, err := r.multi.Get("colors")
	if err != nil {
		t.Fatal(err)
	}
	if gotInfo.Signature != wantInfo.Signature {
		t.Fatalf("recovered signature %q != %q", gotInfo.Signature, wantInfo.Signature)
	}
	if r.PersistenceStatus().Recovery.MultiPoolsRestored != 1 {
		t.Fatalf("recovery status = %+v", r.PersistenceStatus().Recovery)
	}
}

// TestMetricsLatencyHistograms: every served route exposes a Prometheus
// histogram with cumulative buckets, a sum, and a count equal to its
// request counter.
func TestMetricsLatencyHistograms(t *testing.T) {
	_, ts := newMultiTestServer(t)
	postJSON(t, ts.URL+"/v1/multi/pools/colors/select", MultiSelectRequest{Budget: 5})
	postJSON(t, ts.URL+"/v1/select", SelectRequest{Budget: 5}) // 422: empty binary registry

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text := string(readBody(t, resp))
	for _, want := range []string{
		`juryd_request_duration_seconds_bucket{route="POST /v1/multi/pools/{pool}/select",le="+Inf"} 1`,
		`juryd_request_duration_seconds_count{route="POST /v1/multi/pools/{pool}/select"} 1`,
		`juryd_request_duration_seconds_sum{route="POST /v1/multi/pools/{pool}/select"}`,
		`juryd_request_duration_seconds_bucket{route="POST /v1/select",le="+Inf"} 1`,
		`juryd_requests_total{route="POST /v1/multi/pools"} 1`,
		"juryd_multi_pools 1",
	} {
		if !bytes.Contains([]byte(text), []byte(want)) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestMultiCreateRejectsHugeLabelCounts: ℓ is capped (MaxLabels), so a
// single unauthenticated create request cannot allocate O(ℓ²) matrices
// and OOM the daemon — via explicit labels, the inferred path, or replay.
func TestMultiCreateRejectsHugeLabelCounts(t *testing.T) {
	_, ts := newMultiTestServer(t)
	resp, raw := postJSON(t, ts.URL+"/v1/multi/pools", MultiCreateRequest{
		Name: "huge", Labels: 50000,
		Workers: []MultiWorkerSpec{{ID: "a", Quality: fp(0.8), Cost: 1}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("huge labels: %d %s", resp.StatusCode, raw)
	}
	r := NewMultiRegistry()
	if _, err := r.prepareLocked(&Record{T: RecMultiCreate, Multi: &MultiRecord{
		Pool: "huge", Labels: 50000, Strength: 8,
	}}); err == nil {
		t.Fatal("replay accepted a huge label count")
	}
}

// TestMultiLoadRejectsCorruptCounts: snapshots are plain JSON (no CRC),
// so load must validate the Dirichlet count matrices — a short, negative,
// or zero-sum row would otherwise recover cleanly and panic (or emit NaN
// rows) on the next ingest, poisoning the journaled log.
func TestMultiLoadRejectsCorruptCounts(t *testing.T) {
	good := func() multiPoolPersist {
		return multiPoolPersist{
			Name: "p", Labels: 2,
			Workers: []multiWorkerState{{
				ID: "w", Cost: 1,
				Counts:    [][]float64{{4, 1}, {1, 4}},
				Confusion: [][]float64{{0.8, 0.2}, {0.2, 0.8}},
				Votes:     0, Version: 1,
			}},
		}
	}
	load := func(mutate func(*multiPoolPersist)) error {
		pp := good()
		mutate(&pp)
		return NewMultiRegistry().load(multiRegistryState{Pools: []multiPoolPersist{pp}})
	}
	if err := load(func(*multiPoolPersist) {}); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	cases := map[string]func(*multiPoolPersist){
		"short-counts-row":    func(p *multiPoolPersist) { p.Workers[0].Counts[0] = []float64{4} },
		"negative-count":      func(p *multiPoolPersist) { p.Workers[0].Counts[1][0] = -1 },
		"nan-count":           func(p *multiPoolPersist) { p.Workers[0].Counts[0][0] = math.NaN() },
		"zero-sum-row":        func(p *multiPoolPersist) { p.Workers[0].Counts[0] = []float64{0, 0} },
		"wrong-confusion-dim": func(p *multiPoolPersist) { p.Workers[0].Confusion = [][]float64{{1}} },
	}
	for name, mutate := range cases {
		if err := load(mutate); err == nil {
			t.Errorf("%s: corrupt snapshot recovered cleanly", name)
		}
	}
}
