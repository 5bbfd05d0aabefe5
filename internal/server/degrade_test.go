package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wal"
	"repro/internal/wal/errfs"
)

// newDurableFaultServer opens a durable server on a fault-injecting
// filesystem and registers the paper pool.
func newDurableFaultServer(t *testing.T, faults ...errfs.Fault) (*Server, *httptest.Server, *errfs.FS) {
	t.Helper()
	fsys := errfs.New(wal.OSFS(), faults...)
	cfg := NewConfig()
	cfg.DataDir = t.TempDir()
	cfg.Fsync = true
	cfg.FS = fsys
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { s.ClosePersistence() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	resp, raw := postJSON(t, ts.URL+"/v1/workers", RegisterRequest{Workers: paperPoolSpecs()})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d %s", resp.StatusCode, raw)
	}
	return s, ts, fsys
}

func ingestOne(t *testing.T, url, worker string, key string) *http.Response {
	t.Helper()
	data, _ := json.Marshal(VoteEvent{WorkerID: worker, Correct: true})
	req, err := http.NewRequest("POST", url+"/v1/votes", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func TestDegradedReadOnlyMode(t *testing.T) {
	// WAL fsyncs fail from the 3rd record on (1 register + 1 ingest ok).
	s, ts, _ := newDurableFaultServer(t,
		errfs.Fault{Op: errfs.OpSync, Path: "wal-", After: 2})

	if resp := ingestOne(t, ts.URL, "w0", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy ingest: %d", resp.StatusCode)
	}
	acked, err := s.DebugState()
	if err != nil {
		t.Fatal(err)
	}

	// The failing mutation answers 503 with Retry-After and degrades the
	// server terminally — after its applied vote was restored away.
	resp := ingestOne(t, ts.URL, "w1", "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("failing ingest: %d, want 503", resp.StatusCode)
	}
	if degraded, err := s.DebugState(); err != nil || !bytes.Equal(degraded, acked) {
		t.Fatalf("degraded state differs from the acked prefix (%v):\n%s\nwant\n%s", err, degraded, acked)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("failing ingest: missing Retry-After")
	}
	if degraded, cause := s.DegradedState(); !degraded || cause == nil {
		t.Fatalf("DegradedState() = %v, %v after WAL failure", degraded, cause)
	}

	// Later mutations are refused up front (before the body is decoded).
	resp, raw := postJSON(t, ts.URL+"/v1/sessions", SessionRequest{Confidence: 0.9})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mutation while degraded: %d %s, want 503", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "degraded") {
		t.Fatalf("degraded error body: %s", raw)
	}

	// Reads keep serving from recovered state and the cache.
	resp, raw = postJSON(t, ts.URL+"/v1/select", SelectRequest{Budget: 20})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("select while degraded: %d %s", resp.StatusCode, raw)
	}
	getResp, err := http.Get(ts.URL + "/v1/workers")
	if err != nil || getResp.StatusCode != http.StatusOK {
		t.Fatalf("list while degraded: %v %d", err, getResp.StatusCode)
	}
	getResp.Body.Close()

	// /healthz stays 200 (liveness) but reports degraded; /readyz is 503.
	hResp, err := http.Get(ts.URL + "/healthz")
	if err != nil || hResp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %d", err, hResp.StatusCode)
	}
	var health struct {
		Degraded bool `json:"degraded"`
	}
	json.NewDecoder(hResp.Body).Decode(&health)
	hResp.Body.Close()
	if !health.Degraded {
		t.Fatal("healthz does not report degraded")
	}
	rResp, err := http.Get(ts.URL + "/readyz")
	if err != nil || rResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz: %v %d, want 503", err, rResp.StatusCode)
	}
	rResp.Body.Close()

	// Metrics expose the transition.
	mResp, _ := http.Get(ts.URL + "/metrics")
	body := new(bytes.Buffer)
	body.ReadFrom(mResp.Body)
	mResp.Body.Close()
	if !strings.Contains(body.String(), "juryd_degraded 1") {
		t.Fatal("metrics missing juryd_degraded 1")
	}
	if !strings.Contains(body.String(), "juryd_wal_errors_total 1") {
		t.Fatalf("metrics missing juryd_wal_errors_total 1:\n%s", body.String())
	}
}

func TestDrainRefusesMutationsServesReads(t *testing.T) {
	s, ts := newTestServer(t)
	s.BeginDrain()

	resp := ingestOne(t, ts.URL, "w0", "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest while draining: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain 503 missing Retry-After")
	}
	sResp, raw := postJSON(t, ts.URL+"/v1/select", SelectRequest{Budget: 20})
	if sResp.StatusCode != http.StatusOK {
		t.Fatalf("select while draining: %d %s", sResp.StatusCode, raw)
	}
	rResp, err := http.Get(ts.URL + "/readyz")
	if err != nil || rResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %v %d, want 503", err, rResp.StatusCode)
	}
	rResp.Body.Close()
}

func TestAdmissionControlSheds(t *testing.T) {
	cfg := NewConfig()
	cfg.MaxInFlight = 1
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	postJSON(t, ts.URL+"/v1/workers", RegisterRequest{Workers: paperPoolSpecs()})

	// Occupy the single admission slot directly — equivalent to a request
	// parked inside a handler.
	s.inflight <- struct{}{}

	resp, raw := postJSON(t, ts.URL+"/v1/select", SelectRequest{Budget: 20})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("select over limit: %d %s, want 429", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	// System routes stay exempt.
	hResp, err := http.Get(ts.URL + "/healthz")
	if err != nil || hResp.StatusCode != http.StatusOK {
		t.Fatalf("healthz under overload: %v %d", err, hResp.StatusCode)
	}
	hResp.Body.Close()

	<-s.inflight // free the slot
	resp, raw = postJSON(t, ts.URL+"/v1/select", SelectRequest{Budget: 20})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("select after release: %d %s", resp.StatusCode, raw)
	}
	mResp, _ := http.Get(ts.URL + "/metrics")
	body := new(bytes.Buffer)
	body.ReadFrom(mResp.Body)
	mResp.Body.Close()
	if !strings.Contains(body.String(), "juryd_load_shed_total 1") {
		t.Fatalf("metrics missing juryd_load_shed_total 1:\n%s", body.String())
	}
}

func TestRequestTimeout(t *testing.T) {
	cfg := NewConfig()
	cfg.RequestTimeout = 50 * time.Millisecond
	s := New(cfg)
	// Register a deliberately slow handler through the wrapped route
	// machinery to prove the deadline fires and answers 503 JSON.
	s.route("GET /test/slow", routeRead, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
		writeJSON(w, r, http.StatusOK, map[string]any{"slept": true})
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	start := time.Now()
	resp, err := http.Get(ts.URL + "/test/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("slow request: %d, want 503", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	var body ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
		t.Fatalf("timeout body not JSON error: %v %+v", err, body)
	}
}

func TestIdempotentIngestHTTP(t *testing.T) {
	_, ts := newTestServer(t)

	first := ingestOne(t, ts.URL, "w0", "key-1")
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first keyed ingest: %d", first.StatusCode)
	}
	// Concurrent retries with the same key: exactly one application.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ingestOne(t, ts.URL, "w0", "key-1")
		}()
	}
	wg.Wait()

	resp, raw := postJSON(t, ts.URL+"/v1/select", SelectRequest{Budget: 20})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("select: %d %s", resp.StatusCode, raw)
	}
	getResp, err := http.Get(ts.URL + "/v1/workers/w0")
	if err != nil {
		t.Fatal(err)
	}
	var info WorkerInfo
	json.NewDecoder(getResp.Body).Decode(&info)
	getResp.Body.Close()
	if info.Votes != 1 {
		t.Fatalf("w0 votes = %d after 9 same-key requests, want 1", info.Votes)
	}

	// A different key applies.
	ingestOne(t, ts.URL, "w0", "key-2")
	getResp, _ = http.Get(ts.URL + "/v1/workers/w0")
	json.NewDecoder(getResp.Body).Decode(&info)
	getResp.Body.Close()
	if info.Votes != 2 {
		t.Fatalf("w0 votes = %d after second key, want 2", info.Votes)
	}
}

func TestIdemTableEviction(t *testing.T) {
	tbl := newIdemTable()
	for i := 0; i < idemCapacity+10; i++ {
		tbl.add(string(rune('a')) + string(rune(i)))
	}
	if len(tbl.fifo) != idemCapacity || len(tbl.keys) != idemCapacity {
		t.Fatalf("table size %d/%d, want %d", len(tbl.fifo), len(tbl.keys), idemCapacity)
	}
	// Snapshot/load round-trips bit-exactly.
	snap := tbl.snapshot()
	clone := newIdemTable()
	clone.load(snap)
	snap2 := clone.snapshot()
	if len(snap) != len(snap2) {
		t.Fatalf("round-trip size %d != %d", len(snap2), len(snap))
	}
	for i := range snap {
		if snap[i] != snap2[i] {
			t.Fatalf("round-trip key %d: %q != %q", i, snap2[i], snap[i])
		}
	}
}

// mutationRoute is one journaling route: setup prepares what the
// request needs (a session, a pool) and returns the path argument that
// replaces "{}" in path.
type mutationRoute struct {
	method, path string
	body         any
	setup        func(t *testing.T, url string) string
}

// call issues the route's request and returns its status.
func (rt mutationRoute) call(t *testing.T, url, arg string) int {
	t.Helper()
	var body []byte
	if rt.body != nil {
		var err error
		if body, err = json.Marshal(rt.body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(rt.method, url+strings.ReplaceAll(rt.path, "{}", arg), bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// openSession opens a session and returns its id.
func openSession(t *testing.T, url string) string {
	t.Helper()
	resp, raw := postJSON(t, url+"/v1/sessions", SessionRequest{Confidence: 0.99})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open session: %d %s", resp.StatusCode, raw)
	}
	var st SessionState
	mustDecode(t, raw, &st)
	return st.ID
}

// createColors creates the multi-choice "colors" pool.
func createColors(t *testing.T, url string) string {
	t.Helper()
	if resp, raw := postJSON(t, url+"/v1/multi/pools", colorPoolRequest()); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create pool: %d %s", resp.StatusCode, raw)
	}
	return "colors"
}

// mutationRoutes lists every route that journals a record, each run on
// a server holding the paper pool.
func mutationRoutes() []mutationRoute {
	none := func(*testing.T, string) string { return "" }
	return []mutationRoute{
		{"POST", "/v1/workers", RegisterRequest{Workers: []WorkerSpec{{ID: "new", Quality: 0.7, Cost: 1}}}, none},
		{"PUT", "/v1/workers/w0", WorkerSpec{Quality: 0.75, Cost: 9}, none},
		{"DELETE", "/v1/workers/w0", nil, none},
		{"POST", "/v1/votes", VoteEvent{WorkerID: "w0", Correct: true}, none},
		{"POST", "/v1/votes/batch", IngestRequest{Events: []VoteEvent{{WorkerID: "w0", Correct: true}}}, none},
		{"POST", "/v1/sessions", SessionRequest{Confidence: 0.99}, none},
		{"POST", "/v1/sessions/{}/votes", SessionVoteRequest{WorkerID: "w0", Vote: 1}, openSession},
		{"DELETE", "/v1/sessions/{}", nil, openSession},
		{"POST", "/v1/multi/pools", colorPoolRequest(), none},
		{"POST", "/v1/multi/pools/{}/workers", MultiRegisterRequest{Workers: []MultiWorkerSpec{{ID: "m9", Quality: fp(0.7), Cost: 1}}}, createColors},
		{"POST", "/v1/multi/pools/{}/votes", MultiIngestRequest{Events: []MultiVoteEvent{{WorkerID: "m0", Truth: 0, Vote: 0}}}, createColors},
		{"DELETE", "/v1/multi/pools/{}", nil, createColors},
	}
}

// TestMutationRoutesDiskFaultsAnswer5xx sweeps every journaling route
// over the disk faults its flush can hit — a failed write and a failed
// fsync of the segment — and holds each to the documented answer: a
// server error (503 from degraded mode, never a 4xx), juryd_degraded 1
// and one counted WAL error.
func TestMutationRoutesDiskFaultsAnswer5xx(t *testing.T) {
	for _, op := range []errfs.Op{errfs.OpWrite, errfs.OpSync} {
		for _, rt := range mutationRoutes() {
			t.Run(string(op)+" "+rt.method+" "+rt.path, func(t *testing.T) {
				_, ts, fsys := newDurableFaultServer(t)
				arg := rt.setup(t, ts.URL)
				fsys.Add(errfs.Fault{Op: op, Path: "wal-"})
				if code := rt.call(t, ts.URL, arg); code < 500 {
					t.Fatalf("%s %s with a %s fault on the segment answered %d, want a 5xx (503)", rt.method, rt.path, op, code)
				}
				m := metricsText(t, ts.URL)
				for _, line := range []string{"juryd_degraded 1\n", "juryd_wal_errors_total 1\n"} {
					if !strings.Contains(m, line) {
						t.Fatalf("metrics lack %q:\n%s", line, m)
					}
				}
			})
		}
	}
}

// TestMutationRoutesReachNoRename arms a rename fault on every path and
// drives every journaling route: none renames a file (only snapshots,
// the fence marker and the follower id are installed by rename), so the
// fault never fires and every route succeeds. A route that starts to
// rename fails here and needs a rename row in the sweep above.
func TestMutationRoutesReachNoRename(t *testing.T) {
	for _, rt := range mutationRoutes() {
		t.Run(rt.method+" "+rt.path, func(t *testing.T) {
			_, ts, fsys := newDurableFaultServer(t, errfs.Fault{Op: errfs.OpRename})
			if code := rt.call(t, ts.URL, rt.setup(t, ts.URL)); code >= 400 {
				t.Fatalf("%s %s answered %d", rt.method, rt.path, code)
			}
			if n := fsys.Injected(); n != 0 {
				t.Fatalf("%s %s reached %d renames", rt.method, rt.path, n)
			}
		})
	}
}
