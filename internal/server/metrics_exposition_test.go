package server

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wal"
	"repro/internal/wal/errfs"
)

// metricSample is one parsed exposition line: name, sorted label pairs, value.
type metricSample struct {
	name   string
	labels string // canonical form: k1="v1",k2="v2" sorted by key
	value  float64
}

var expositionLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$`)

// parseExposition parses the Prometheus text format strictly enough to catch
// the bugs that break real scrapers: malformed lines, duplicate series, and
// non-numeric values.
func parseExposition(t *testing.T, body string) []metricSample {
	t.Helper()
	var out []metricSample
	for ln, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := expositionLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed exposition line: %q", ln+1, line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("line %d: non-numeric value in %q: %v", ln+1, line, err)
		}
		labels := ""
		if m[2] != "" {
			pairs := splitLabelPairs(t, m[2])
			sort.Strings(pairs)
			labels = strings.Join(pairs, ",")
		}
		out = append(out, metricSample{name: m[1], labels: labels, value: v})
	}
	return out
}

// splitLabelPairs splits `a="x",b="y"` respecting quoted commas.
func splitLabelPairs(t *testing.T, s string) []string {
	t.Helper()
	var pairs []string
	inQuote := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				inQuote = !inQuote
			}
		case ',':
			if !inQuote {
				pairs = append(pairs, s[start:i])
				start = i + 1
			}
		}
	}
	pairs = append(pairs, s[start:])
	for _, p := range pairs {
		if !strings.Contains(p, "=\"") || !strings.HasSuffix(p, "\"") {
			t.Fatalf("malformed label pair %q in %q", p, s)
		}
	}
	return pairs
}

// scrapeMetrics drives real traffic through a server and returns the parsed
// /metrics payload.
func scrapeMetrics(t *testing.T) []metricSample {
	t.Helper()
	s := New(NewConfig())
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	body := `{"workers":[` +
		`{"id":"w1","quality":0.9,"cost":1},` +
		`{"id":"w2","quality":0.8,"cost":1},` +
		`{"id":"w3","quality":0.7,"cost":1}]}`
	resp, err := http.Post(ts.URL+"/v1/workers", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for i := 0; i < 3; i++ {
		resp, err = http.Post(ts.URL+"/v1/select", "application/json", strings.NewReader(`{"budget":3}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	// One guaranteed error to exercise the per-route error counters.
	resp, err = http.Post(ts.URL+"/v1/select", "application/json", strings.NewReader(`{"budget":`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseExposition(t, string(raw))
}

// TestMetricsExpositionWellFormed asserts structural invariants any Prometheus
// scraper relies on: no duplicate series, cumulative monotone histogram
// buckets, and _count equal to the +Inf bucket.
func TestMetricsExpositionWellFormed(t *testing.T) {
	samples := scrapeMetrics(t)
	if len(samples) == 0 {
		t.Fatal("no samples parsed from /metrics")
	}

	seen := make(map[string]bool)
	for _, s := range samples {
		key := s.name + "{" + s.labels + "}"
		if seen[key] {
			t.Errorf("duplicate series %s", key)
		}
		seen[key] = true
	}

	for _, e := range histogramViolations(samples) {
		t.Error(e)
	}
}

// histogramViolations checks every histogram in one scrape: it has a
// +Inf bucket, its cumulative buckets never decrease, and its _count
// equals the +Inf bucket. It returns one message per violation, and
// one for a scrape that carries no histogram at all.
func histogramViolations(samples []metricSample) []string {
	// Group histogram buckets by (base name, non-le labels).
	type histKey struct{ name, labels string }
	buckets := make(map[histKey][]struct {
		le    float64
		count float64
	})
	counts := make(map[histKey]float64)
	var errs []string
	for _, s := range samples {
		if strings.HasSuffix(s.name, "_bucket") {
			base := strings.TrimSuffix(s.name, "_bucket")
			var rest []string
			le := math.NaN()
			for _, p := range strings.Split(s.labels, ",") {
				if v, ok := strings.CutPrefix(p, `le="`); ok {
					v = strings.TrimSuffix(v, `"`)
					if v == "+Inf" {
						le = math.Inf(1)
					} else if f, err := strconv.ParseFloat(v, 64); err == nil {
						le = f
					}
				} else if p != "" {
					rest = append(rest, p)
				}
			}
			if math.IsNaN(le) {
				errs = append(errs, fmt.Sprintf("bucket series %s{%s} has no valid le label", s.name, s.labels))
				continue
			}
			k := histKey{base, strings.Join(rest, ",")}
			buckets[k] = append(buckets[k], struct{ le, count float64 }{le, s.value})
		}
		if strings.HasSuffix(s.name, "_count") {
			counts[histKey{strings.TrimSuffix(s.name, "_count"), s.labels}] = s.value
		}
	}
	if len(buckets) == 0 {
		return append(errs, "no histogram buckets found on /metrics")
	}
	for k, bs := range buckets {
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		if !math.IsInf(bs[len(bs)-1].le, 1) {
			errs = append(errs, fmt.Sprintf("%s{%s}: missing +Inf bucket", k.name, k.labels))
			continue
		}
		prev := -1.0
		for _, b := range bs {
			if b.count < prev {
				errs = append(errs, fmt.Sprintf("%s{%s}: bucket le=%g count %g < previous %g (not cumulative)",
					k.name, k.labels, b.le, b.count, prev))
			}
			prev = b.count
		}
		c, ok := counts[k]
		if !ok {
			errs = append(errs, fmt.Sprintf("%s{%s}: histogram has buckets but no _count series", k.name, k.labels))
		} else if c != bs[len(bs)-1].count {
			errs = append(errs, fmt.Sprintf("%s{%s}: _count %g != +Inf bucket %g", k.name, k.labels, c, bs[len(bs)-1].count))
		}
	}
	return errs
}

// TestMetricsPerRouteErrorsAndRuntime covers the satellite additions: the
// labeled per-route error counter alongside the legacy global line, build
// info, uptime, and runtime gauges.
func TestMetricsPerRouteErrorsAndRuntime(t *testing.T) {
	samples := scrapeMetrics(t)
	byKey := make(map[string]float64)
	for _, s := range samples {
		byKey[s.name+"{"+s.labels+"}"] = s.value
	}

	if v, ok := byKey[`juryd_request_errors_total{route="POST /v1/select"}`]; !ok || v < 1 {
		t.Errorf("per-route error counter missing or zero: got %v ok=%v", v, ok)
	}
	if v, ok := byKey["juryd_request_errors_total{}"]; !ok || v < 1 {
		t.Errorf("global juryd_request_errors_total missing or zero: got %v ok=%v", v, ok)
	}
	// The request and error counters are derived from the per-route
	// histograms and error counts, so they must agree on every scrape.
	var routes int
	var labeledErrors float64
	for _, s := range samples {
		switch {
		case s.name == "juryd_requests_total":
			routes++
			if c, ok := byKey["juryd_request_duration_seconds_count{"+s.labels+"}"]; !ok || c != s.value {
				t.Errorf("juryd_requests_total{%s} = %g, but its juryd_request_duration_seconds_count = %g (present %v)",
					s.labels, s.value, c, ok)
			}
		case s.name == "juryd_request_errors_total" && s.labels != "":
			labeledErrors += s.value
		}
	}
	if routes == 0 {
		t.Error("no juryd_requests_total series on /metrics")
	}
	if v := byKey["juryd_request_errors_total{}"]; v != labeledErrors {
		t.Errorf("juryd_request_errors_total = %g, want the sum of the per-route series %g", v, labeledErrors)
	}

	wantPresent := []string{
		"juryd_uptime_seconds{}",
		"juryd_goroutines{}",
		"juryd_heap_inuse_bytes{}",
		"juryd_gc_pause_seconds_total{}",
	}
	for _, k := range wantPresent {
		if _, ok := byKey[k]; !ok {
			t.Errorf("missing runtime metric %s", k)
		}
	}
	found := false
	for k, v := range byKey {
		if strings.HasPrefix(k, "juryd_build_info{") {
			found = true
			if v != 1 {
				t.Errorf("juryd_build_info value = %g, want 1", v)
			}
			if !strings.Contains(k, `go_version="go`) {
				t.Errorf("juryd_build_info missing go_version label: %s", k)
			}
		}
	}
	if !found {
		t.Error("juryd_build_info not found on /metrics")
	}
}

// TestMetricsStageHistogramsAppear asserts that stage timing histograms from
// the trace recorder make it onto /metrics after traffic flows.
func TestMetricsStageHistogramsAppear(t *testing.T) {
	samples := scrapeMetrics(t)
	stages := make(map[string]bool)
	for _, s := range samples {
		if s.name == "juryd_stage_duration_seconds_count" {
			for _, p := range strings.Split(s.labels, ",") {
				if v, ok := strings.CutPrefix(p, `stage="`); ok {
					stages[strings.TrimSuffix(v, `"`)] = true
				}
			}
		}
	}
	for _, want := range []string{"cache_lookup", "evaluate", "encode"} {
		if !stages[want] {
			t.Errorf("stage %q missing from juryd_stage_duration_seconds (have %v)", want, stages)
		}
	}
}

// TestTraceDisabledServerStillServes covers TraceBuffer < 0: the recorder is
// nil, /debug/traces reports disabled, and requests still succeed.
func TestTraceDisabledServerStillServes(t *testing.T) {
	cfg := NewConfig()
	cfg.TraceBuffer = -1
	s := New(cfg)
	if s.Recorder() != nil {
		t.Fatal("recorder should be nil when TraceBuffer < 0")
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	if _, err := s.registry.Register(context.Background(), []WorkerSpec{{ID: "w1", Quality: 0.9, Cost: 1}}, s.cfg.PriorStrength); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/select", "application/json", strings.NewReader(`{"budget":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("select with tracing disabled: status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), `"enabled":false`) {
		t.Fatalf("/debug/traces with tracing disabled = %s, want enabled:false", raw)
	}
}

// TestDebugTracesEndToEnd issues a select and an ingest with client-supplied
// request IDs and asserts both traces come back from /debug/traces with their
// stage breakdowns.
func TestDebugTracesEndToEnd(t *testing.T) {
	s := New(NewConfig())
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	post := func(path, reqID, body string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-Id", reqID)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			raw, _ := io.ReadAll(resp.Body)
			t.Fatalf("POST %s: status %d body %s", path, resp.StatusCode, raw)
		}
		if got := resp.Header.Get("X-Request-Id"); got != reqID {
			t.Fatalf("POST %s: echoed request id %q, want %q", path, got, reqID)
		}
	}

	post("/v1/workers", "trace-reg-1", `{"workers":[{"id":"w1","quality":0.9,"cost":1},{"id":"w2","quality":0.6,"cost":1}]}`)
	post("/v1/select", "trace-sel-1", `{"budget":2}`)
	post("/v1/votes", "trace-ing-1", `{"worker_id":"w1","correct":true}`)

	resp, err := http.Get(ts.URL + "/debug/traces?n=16")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, id := range []string{"trace-sel-1", "trace-ing-1"} {
		if !strings.Contains(body, fmt.Sprintf("%q", id)) {
			t.Errorf("/debug/traces missing trace for request id %s: %s", id, body)
		}
	}
	for _, stage := range []string{"cache_lookup", "evaluate", "apply", "encode"} {
		if !strings.Contains(body, fmt.Sprintf(`"stage":%q`, stage)) {
			t.Errorf("/debug/traces missing stage %q spans: %s", stage, body)
		}
	}
}

// TestDebugTracesCarryWALSpans issues mutations against a durable
// server, with and without -fsync, and asserts the WAL encode, append
// (staging) and flush stages and the apply stage show up in the traces,
// and every flush in the batch-size histogram on /metrics. Under -fsync
// the sync must also be traced as wal_fsync and land in the dedicated
// fsync histogram; without it neither may appear. In the GroupCommit
// row two more votes stage while the first vote's sync is held, so the
// histogram must count the one flush they share as a batch of two.
func TestDebugTracesCarryWALSpans(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fsync bool
		// held is how many votes stage behind the first vote's held sync.
		held    int
		stages  []string
		absent  []string
		metrics []string
	}{
		{
			name:    "Fsync",
			fsync:   true,
			stages:  []string{"wal_encode", "wal_append", "wal_flush", "wal_fsync", "apply"},
			metrics: []string{"juryd_wal_fsync_seconds_count 2\n", "juryd_wal_batch_records_count 2\n"},
		},
		{
			name:   "Fsync+GroupCommit",
			fsync:  true,
			held:   2,
			stages: []string{"wal_encode", "wal_append", "wal_flush", "wal_fsync", "apply"},
			// The fsync histogram is the traced stage: each of the four
			// mutations records the sync its ack waited on.
			metrics: []string{"juryd_wal_fsync_seconds_count 4\n", "juryd_wal_batch_records_count 3\n",
				"juryd_wal_batch_records_sum 4\n", `juryd_wal_batch_records_bucket{le="1"} 2` + "\n"},
		},
		{
			name:    "NoFsync",
			stages:  []string{"wal_encode", "wal_append", "wal_flush", "apply"},
			absent:  []string{"wal_fsync"},
			metrics: []string{"juryd_wal_batch_records_count 2\n"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Sync #1 is the registration's; the first vote's sync #2 is
			// held until the other votes have staged.
			gate := make(chan struct{})
			fsys := errfs.New(wal.OSFS(), errfs.Fault{Op: errfs.OpSync, Path: "wal-", After: 1, Times: 1, Gate: gate})
			s, err := Open(Config{Alpha: 0.5, Seed: 1, DataDir: t.TempDir(), Fsync: tc.fsync, FS: fsys})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			t.Cleanup(func() { s.ClosePersistence() })
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(ts.Close)
			var opened sync.Once
			release := func() { opened.Do(func() { close(gate) }) }
			t.Cleanup(release) // before the server's: a failed check must not hang it

			post := func(path, body string) {
				t.Helper()
				resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode/100 != 2 {
					t.Fatalf("POST %s: status %d", path, resp.StatusCode)
				}
			}
			get := func(path string) string {
				t.Helper()
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				raw, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				return string(raw)
			}
			post("/v1/workers", `{"workers":[{"id":"w1","quality":0.9,"cost":1},{"id":"w2","quality":0.6,"cost":1}]}`)
			post("/v1/select", `{"budget":2}`)
			if tc.held == 0 {
				release()
				post("/v1/votes", `{"worker_id":"w1","correct":true}`)
			} else {
				codes := make(chan int, 1+tc.held)
				vote := func() {
					resp, err := http.Post(ts.URL+"/v1/votes", "application/json",
						strings.NewReader(`{"worker_id":"w1","correct":true}`))
					if err != nil {
						codes <- -1
						return
					}
					resp.Body.Close()
					codes <- resp.StatusCode
				}
				waitFor := func(what string, done func() bool) {
					t.Helper()
					for deadline := time.Now().Add(5 * time.Second); !done(); time.Sleep(time.Millisecond) {
						if time.Now().After(deadline) {
							t.Fatalf("timed out waiting for %s", what)
						}
					}
				}
				go vote()
				waitFor("the first vote's held sync", func() bool { return fsys.Injected() >= 1 })
				for i := 0; i < tc.held; i++ {
					go vote()
					// register=1, first vote=2, held votes from 3 on
					waitFor("a held vote to stage", func() bool { return s.PersistenceStatus().NextLSN >= uint64(4+i) })
				}
				release()
				for i := 0; i < 1+tc.held; i++ {
					if code := <-codes; code != http.StatusOK {
						t.Fatalf("POST /v1/votes: status %d", code)
					}
				}
			}

			traces := get("/debug/traces")
			for _, stage := range tc.stages {
				if !strings.Contains(traces, fmt.Sprintf(`"stage":%q`, stage)) {
					t.Errorf("/debug/traces missing stage %q: %s", stage, traces)
				}
			}
			metrics := get("/metrics")
			for _, stage := range tc.absent {
				if strings.Contains(traces, fmt.Sprintf(`"stage":%q`, stage)) ||
					strings.Contains(metrics, fmt.Sprintf(`stage=%q`, stage)) {
					t.Errorf("stage %q traced or exposed without -fsync", stage)
				}
			}
			for _, name := range tc.metrics {
				if !strings.Contains(metrics, name) {
					t.Errorf("%s missing from /metrics", name)
				}
			}
		})
	}
}

// TestMetricsQuorumWaitStage pins the quorum_wait stage: a -quorum 2 ack
// records its wait for the follower's confirmation, and a server without
// a quorum records none.
func TestMetricsQuorumWaitStage(t *testing.T) {
	stageCount := func(samples []metricSample) (float64, bool) {
		for _, s := range samples {
			if s.name == "juryd_stage_duration_seconds_count" && s.labels == `stage="quorum_wait"` {
				return s.value, true
			}
		}
		return 0, false
	}
	if _, ok := stageCount(scrapeMetrics(t)); ok {
		t.Fatal("quorum_wait observed on a server without -quorum")
	}

	s, err := Open(Config{Alpha: 0.5, Seed: 1, DataDir: t.TempDir(), Quorum: 2, QuorumTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.ClosePersistence() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	acked := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/workers", "application/json",
			strings.NewReader(`{"workers":[{"id":"w1","quality":0.9,"cost":1}]}`))
		if err != nil {
			acked <- 0
			return
		}
		resp.Body.Close()
		acked <- resp.StatusCode
	}()
	// Play the follower: once the registration is durable, confirm it.
	for s.persist.log.Synced() == 0 {
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/v1/repl/stream?from=1&epoch=1&follower_id=f&wait_ms=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if code := <-acked; code != http.StatusCreated {
		t.Fatalf("quorum-gated register: %d, want 201", code)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if n, _ := stageCount(parseExposition(t, string(raw))); n != 1 {
		t.Fatalf("quorum_wait count = %g, want 1", n)
	}
}

// TestMetricsReplStreamsOpen pins juryd_repl_streams_open, the soak
// gauge of attached followers: 0 on a primary without followers, 1
// while one stream is open, and back to 0 once it ends.
func TestMetricsReplStreamsOpen(t *testing.T) {
	s, _ := durable(t)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	journalSome(t, ts.URL, 0) // 1 record
	const open = "juryd_repl_streams_open"
	if got := metricValue(t, ts.URL, open); got != 0 {
		t.Fatalf("%s = %g before any stream, want 0", open, got)
	}
	resp, w := openStream(t, ts.URL, "from=0&epoch=1&follower_id=f&wait_ms=30000")
	defer w.Close()
	if _, err := readBatch(resp.Body); err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, ts.URL, open); got != 1 {
		t.Fatalf("%s = %g with one stream open, want 1", open, got)
	}
	resp.Body.Close()
	waitMetric(t, ts.URL, open, 0)
}
