package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp, raw
}

func mustDecode(t *testing.T, raw []byte, dst any) {
	t.Helper()
	if err := json.Unmarshal(raw, dst); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
}

func paperPoolSpecs() []WorkerSpec {
	// The paper's running-example pool (Figure 1).
	qs := []float64{0.77, 0.70, 0.80, 0.65, 0.60, 0.60, 0.75}
	cs := []float64{9, 5, 6, 7, 5, 2, 3}
	specs := make([]WorkerSpec, len(qs))
	for i := range qs {
		specs[i] = WorkerSpec{ID: fmt.Sprintf("w%d", i), Quality: qs[i], Cost: cs[i]}
	}
	return specs
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{Alpha: 0.5, Seed: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	resp, raw := postJSON(t, ts.URL+"/v1/workers", RegisterRequest{Workers: paperPoolSpecs()})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d %s", resp.StatusCode, raw)
	}
	return s, ts
}

func TestHTTPLifecycle(t *testing.T) {
	_, ts := newTestServer(t)

	// Health.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()

	// List.
	resp, err = http.Get(ts.URL + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	var list ListResponse
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	mustDecode(t, raw, &list)
	if len(list.Workers) != 7 || list.Signature == "" {
		t.Fatalf("list = %+v", list)
	}

	// Get one.
	resp, err = http.Get(ts.URL + "/v1/workers/w2")
	if err != nil {
		t.Fatal(err)
	}
	var info WorkerInfo
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	mustDecode(t, raw, &info)
	if info.Quality != 0.80 || info.Cost != 6 {
		t.Fatalf("w2 = %+v", info)
	}

	// Unknown worker is a 404.
	resp, err = http.Get(ts.URL + "/v1/workers/ghost")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost status = %d", resp.StatusCode)
	}

	// Duplicate registration is a 409.
	resp, raw = postJSON(t, ts.URL+"/v1/workers",
		RegisterRequest{Workers: []WorkerSpec{{ID: "w0", Quality: 0.5, Cost: 1}}})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate register: %d %s", resp.StatusCode, raw)
	}
}

func TestHTTPSelectAndCacheCounter(t *testing.T) {
	s, ts := newTestServer(t)

	var first SelectResponse
	resp, raw := postJSON(t, ts.URL+"/v1/select", SelectRequest{Budget: 15})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("select: %d %s", resp.StatusCode, raw)
	}
	mustDecode(t, raw, &first)
	if first.Cached || len(first.Jury) == 0 || first.JQ <= 0.5 || first.Cost > 15 {
		t.Fatalf("first select = %+v", first)
	}

	var second SelectResponse
	_, raw = postJSON(t, ts.URL+"/v1/select", SelectRequest{Budget: 15})
	mustDecode(t, raw, &second)
	if !second.Cached {
		t.Fatal("repeated selection not served from cache")
	}
	if st := s.CacheStats(); st.Hits != 1 {
		t.Fatalf("cache hits = %d, want 1", st.Hits)
	}

	// Batch ingest a quality-changing event stream over HTTP...
	events := IngestRequest{Events: []VoteEvent{
		{WorkerID: "w5", Correct: true},
		{WorkerID: "w5", Correct: true},
		{WorkerID: "w0", Correct: false},
	}}
	var ing IngestResponse
	resp, raw = postJSON(t, ts.URL+"/v1/votes/batch", events)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %s", resp.StatusCode, raw)
	}
	mustDecode(t, raw, &ing)
	if ing.Ingested != 3 || len(ing.Updated) != 2 {
		t.Fatalf("ingest response = %+v", ing)
	}
	if ing.Signature == first.Signature {
		t.Fatal("pool signature unchanged after ingest")
	}

	// ...and the cached jury is no longer served.
	var third SelectResponse
	_, raw = postJSON(t, ts.URL+"/v1/select", SelectRequest{Budget: 15})
	mustDecode(t, raw, &third)
	if third.Cached {
		t.Fatal("selection after ingest served from stale cache")
	}
	if third.Signature != ing.Signature {
		t.Fatalf("selection signature %s != post-ingest signature %s", third.Signature, ing.Signature)
	}

	// Single-event ingest endpoint.
	resp, raw = postJSON(t, ts.URL+"/v1/votes", VoteEvent{WorkerID: "w1", Correct: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single ingest: %d %s", resp.StatusCode, raw)
	}
	// Unknown worker in an event is a 404.
	resp, _ = postJSON(t, ts.URL+"/v1/votes", VoteEvent{WorkerID: "ghost", Correct: true})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost ingest: %d", resp.StatusCode)
	}
}

func TestHTTPSelectStrategiesAndSubsets(t *testing.T) {
	_, ts := newTestServer(t)

	for _, strategy := range []string{"bv", "mv", "bv-exact", "greedy"} {
		var res SelectResponse
		resp, raw := postJSON(t, ts.URL+"/v1/select", SelectRequest{Budget: 15, Strategy: strategy})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("select %s: %d %s", strategy, resp.StatusCode, raw)
		}
		mustDecode(t, raw, &res)
		if res.Strategy != strategy || res.Cost > 15 {
			t.Fatalf("select %s = %+v", strategy, res)
		}
	}
	resp, _ := postJSON(t, ts.URL+"/v1/select", SelectRequest{Budget: 15, Strategy: "nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad strategy: %d", resp.StatusCode)
	}

	// Subset selection only uses the named workers.
	var res SelectResponse
	_, raw := postJSON(t, ts.URL+"/v1/select",
		SelectRequest{Budget: 100, WorkerIDs: []string{"w4", "w5", "w6"}})
	mustDecode(t, raw, &res)
	if len(res.Jury) == 0 {
		t.Fatalf("subset jury empty: %+v", res)
	}
	for _, m := range res.Jury {
		if m.ID != "w4" && m.ID != "w5" && m.ID != "w6" {
			t.Fatalf("jury member outside subset: %+v", m)
		}
	}

	// Negative budget is a 400.
	resp, _ = postJSON(t, ts.URL+"/v1/select", SelectRequest{Budget: -1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative budget: %d", resp.StatusCode)
	}
}

func TestHTTPSelectBatch(t *testing.T) {
	_, ts := newTestServer(t)
	var res BatchSelectResponse
	resp, raw := postJSON(t, ts.URL+"/v1/select/batch",
		BatchSelectRequest{Budgets: []float64{20, 5, 10}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch select: %d %s", resp.StatusCode, raw)
	}
	mustDecode(t, raw, &res)
	if len(res.Selections) != 3 {
		t.Fatalf("selections = %+v", res.Selections)
	}
	// Results align with the request order; JQ is monotone in budget.
	byBudget := map[float64]float64{}
	for i, sel := range res.Selections {
		if sel.Budget != []float64{20, 5, 10}[i] {
			t.Fatalf("budget order does not match request: %+v", res.Selections)
		}
		byBudget[sel.Budget] = sel.JQ
	}
	if byBudget[5] > byBudget[10]+1e-12 || byBudget[10] > byBudget[20]+1e-12 {
		t.Fatalf("JQ not monotone over budgets: %+v", byBudget)
	}
}

func TestHTTPSessions(t *testing.T) {
	_, ts := newTestServer(t)

	var st SessionState
	resp, raw := postJSON(t, ts.URL+"/v1/sessions", SessionRequest{Confidence: 0.9})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open session: %d %s", resp.StatusCode, raw)
	}
	mustDecode(t, raw, &st)
	if st.ID == "" || st.Done || st.Votes != 0 {
		t.Fatalf("initial session = %+v", st)
	}
	id := st.ID

	// Feed agreeing votes from good workers until confident.
	for i := 0; i < 7 && !st.Done; i++ {
		wid := fmt.Sprintf("w%d", i%7)
		resp, raw = postJSON(t, ts.URL+"/v1/sessions/"+id+"/votes",
			SessionVoteRequest{WorkerID: wid, Vote: 0})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("session vote: %d %s", resp.StatusCode, raw)
		}
		mustDecode(t, raw, &st)
	}
	if !st.Done || st.Stopped != "confident" || st.Decision != 0 {
		t.Fatalf("session did not stop confident: %+v", st)
	}

	// Voting into a finished session conflicts.
	resp, _ = postJSON(t, ts.URL+"/v1/sessions/"+id+"/votes",
		SessionVoteRequest{WorkerID: "w0", Vote: 0})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("vote into done session: %d", resp.StatusCode)
	}

	// State is readable, then the session can be closed exactly once.
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("get session: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("close session: %v %v", resp, err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("closed session still readable: %d", resp.StatusCode)
	}
}

// TestHTTPSessionBudgetExhausted covers the "budget" terminal state: a
// vote that exceeds the remaining budget, when no registered worker is
// affordable either, finalizes the session instead of erroring forever.
func TestHTTPSessionBudgetExhausted(t *testing.T) {
	s := New(Config{Alpha: 0.5, Seed: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	postJSON(t, ts.URL+"/v1/workers",
		RegisterRequest{Workers: []WorkerSpec{{ID: "x", Quality: 0.6, Cost: 5}}})

	var st SessionState
	resp, raw := postJSON(t, ts.URL+"/v1/sessions",
		SessionRequest{Confidence: 0.999999, Budget: 8})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open: %d %s", resp.StatusCode, raw)
	}
	mustDecode(t, raw, &st)

	resp, raw = postJSON(t, ts.URL+"/v1/sessions/"+st.ID+"/votes",
		SessionVoteRequest{WorkerID: "x", Vote: 0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first vote: %d %s", resp.StatusCode, raw)
	}
	mustDecode(t, raw, &st)
	if st.Done || st.Cost != 5 {
		t.Fatalf("after first vote: %+v", st)
	}

	// Second vote costs 5 > remaining 3, and no worker fits 3: the
	// session finalizes with stopped="budget" (the vote is not counted).
	resp, raw = postJSON(t, ts.URL+"/v1/sessions/"+st.ID+"/votes",
		SessionVoteRequest{WorkerID: "x", Vote: 0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("budget-exhausting vote: %d %s", resp.StatusCode, raw)
	}
	mustDecode(t, raw, &st)
	if !st.Done || st.Stopped != "budget" || st.Votes != 1 || st.Cost != 5 {
		t.Fatalf("budget stop = %+v", st)
	}
}

// TestHTTPSessionOverBudgetWithAffordableWorker: the same rejection is a
// 409 when a cheaper worker could still continue the session.
func TestHTTPSessionOverBudgetWithAffordableWorker(t *testing.T) {
	s := New(Config{Alpha: 0.5, Seed: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	postJSON(t, ts.URL+"/v1/workers", RegisterRequest{Workers: []WorkerSpec{
		{ID: "pricey", Quality: 0.8, Cost: 5},
		{ID: "cheap", Quality: 0.6, Cost: 1},
	}})
	var st SessionState
	_, raw := postJSON(t, ts.URL+"/v1/sessions",
		SessionRequest{Confidence: 0.999999, Budget: 8})
	mustDecode(t, raw, &st)
	postJSON(t, ts.URL+"/v1/sessions/"+st.ID+"/votes",
		SessionVoteRequest{WorkerID: "pricey", Vote: 0})
	resp, _ := postJSON(t, ts.URL+"/v1/sessions/"+st.ID+"/votes",
		SessionVoteRequest{WorkerID: "pricey", Vote: 0})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("over-budget vote with affordable alternative: %d", resp.StatusCode)
	}
	var got SessionState
	_, raw = postJSON(t, ts.URL+"/v1/sessions/"+st.ID+"/votes",
		SessionVoteRequest{WorkerID: "cheap", Vote: 0})
	mustDecode(t, raw, &got)
	if got.Votes != 2 || got.Done {
		t.Fatalf("cheap vote after rejection: %+v", got)
	}
}

func TestHTTPMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	var sel SelectResponse
	_, raw := postJSON(t, ts.URL+"/v1/select", SelectRequest{Budget: 15})
	mustDecode(t, raw, &sel)
	postJSON(t, ts.URL+"/v1/select", SelectRequest{Budget: 15})
	postJSON(t, ts.URL+"/v1/votes", VoteEvent{WorkerID: "w0", Correct: true})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, want := range []string{
		"juryd_cache_hits_total 1",
		"juryd_cache_misses_total 1",
		"juryd_votes_ingested_total 1",
		"juryd_selections_computed_total 1",
		// Only the cache miss is sized, by its reply's evaluations.
		fmt.Sprintf("juryd_select_evaluations_sum %d\n", sel.Evaluations),
		"juryd_select_evaluations_count 1\n",
		"juryd_pool_size 7",
		`juryd_requests_total{route="POST /v1/select"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestZeroConfigDefaultsToUniformPrior: server.New must not leave the
// zero-value Alpha (a certain-"no" prior) in effect.
func TestZeroConfigDefaultsToUniformPrior(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var st SessionState
	resp, raw := postJSON(t, ts.URL+"/v1/sessions", SessionRequest{Confidence: 0.9})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open: %d %s", resp.StatusCode, raw)
	}
	mustDecode(t, raw, &st)
	if st.Done || st.Confidence != 0.5 {
		t.Fatalf("zero-config session born at prior %v (done=%v), want uniform 0.5", st.Confidence, st.Done)
	}
}

// TestHTTPUpdateWorkerIDMismatch: a body id that contradicts the path id
// is a caller bug and must be rejected, not silently rewritten.
func TestHTTPUpdateWorkerIDMismatch(t *testing.T) {
	_, ts := newTestServer(t)
	data, _ := json.Marshal(WorkerSpec{ID: "w2", Quality: 0.9, Cost: 1})
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/workers/w1", bytes.NewReader(data))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched PUT: %d, want 400", resp.StatusCode)
	}
	// w1 must be untouched.
	var info WorkerInfo
	getResp, err := http.Get(ts.URL + "/v1/workers/w1")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(getResp.Body)
	getResp.Body.Close()
	mustDecode(t, raw, &info)
	if info.Quality != 0.70 {
		t.Fatalf("mismatched PUT was applied: %+v", info)
	}
}

// TestUnseededStrategiesShareCacheAcrossSeeds: greedy and bv-exact ignore
// the seed, so requests differing only in seed must share one cache entry.
func TestUnseededStrategiesShareCacheAcrossSeeds(t *testing.T) {
	s := New(Config{Alpha: 0.5, Seed: 1})
	if _, err := s.registry.Register(context.Background(), specs3(), 0); err != nil {
		t.Fatal(err)
	}
	seed1, seed2 := int64(1), int64(2)
	first, err := s.selectOne(context.Background(), SelectRequest{Budget: 6, Strategy: "greedy", Seed: &seed1})
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.selectOne(context.Background(), SelectRequest{Budget: 6, Strategy: "greedy", Seed: &seed2})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || !second.Cached {
		t.Fatalf("greedy did not share cache across seeds: %v / %v", first.Cached, second.Cached)
	}
	// The seeded search must still discriminate.
	third, err := s.selectOne(context.Background(), SelectRequest{Budget: 6, Strategy: "bv", Seed: &seed1})
	if err != nil {
		t.Fatal(err)
	}
	fourth, err := s.selectOne(context.Background(), SelectRequest{Budget: 6, Strategy: "bv", Seed: &seed2})
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached || fourth.Cached {
		t.Fatalf("seeded bv wrongly shared cache across seeds: %v / %v", third.Cached, fourth.Cached)
	}
}

func TestHTTPEmptyRegistrySelect(t *testing.T) {
	s := New(Config{Alpha: 0.5, Seed: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, _ := postJSON(t, ts.URL+"/v1/select", SelectRequest{Budget: 10})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("empty registry select: %d", resp.StatusCode)
	}
}
