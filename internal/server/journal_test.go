package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestMutationsRecordOneApplySpan drives every mutating route against a
// durable server and reads each request's trace back from /debug/traces:
// every journaled mutation must record exactly one apply span, so its
// in-memory apply time is attributed instead of landing in the
// unattributed remainder. Requests that journal nothing (a refused
// mutation, a keyed retry) record none.
func TestMutationsRecordOneApplySpan(t *testing.T) {
	s, _ := durable(t)
	s.sessions.cap = 2
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	steps := []struct {
		method, path, body, key string
		status                  int
		applies                 int
	}{
		{"POST", "/v1/workers", `{"workers":[{"id":"a","quality":0.8,"cost":3},{"id":"b","quality":0.7,"cost":2},{"id":"c","quality":0.6,"cost":1}]}`, "", 201, 1},
		{"PUT", "/v1/workers/c", `{"quality":0.65,"cost":1}`, "", 200, 1},
		{"POST", "/v1/votes", `{"worker_id":"a","correct":true}`, "k1", 200, 1},
		{"POST", "/v1/votes", `{"worker_id":"a","correct":true}`, "k1", 200, 0}, // keyed retry
		{"POST", "/v1/votes/batch", `{"events":[{"worker_id":"a","correct":true},{"worker_id":"b","correct":false}]}`, "", 200, 1},
		{"DELETE", "/v1/workers/b", "", "", 200, 1},
		{"DELETE", "/v1/workers/b", "", "", 404, 0},                                 // refused
		{"POST", "/v1/sessions", `{"confidence":0.99,"budget":3.5}`, "", 201, 1},    // s1
		{"POST", "/v1/sessions/s1/votes", `{"worker_id":"a","vote":1}`, "", 200, 1}, // vote
		{"POST", "/v1/sessions/s1/votes", `{"worker_id":"c","vote":1}`, "", 200, 1}, // budget stop
		{"POST", "/v1/sessions", `{"confidence":0.99}`, "", 201, 1},                 // s2
		{"POST", "/v1/sessions", `{"confidence":0.99}`, "", 201, 2},                 // reap s1, open s3
		{"DELETE", "/v1/sessions/s2", "", "", 200, 1},
		{"POST", "/v1/multi/pools", `{"name":"colors","labels":3,"workers":[{"id":"m0","quality":0.8,"cost":2}]}`, "", 201, 1},
		{"POST", "/v1/multi/pools/colors/workers", `{"workers":[{"id":"m1","quality":0.7,"cost":1}]}`, "", 201, 1},
		{"POST", "/v1/multi/pools/colors/votes", `{"events":[{"worker_id":"m0","truth":0,"vote":0}]}`, "k2", 200, 1},
		{"POST", "/v1/multi/pools/colors/votes", `{"events":[{"worker_id":"m0","truth":0,"vote":0}]}`, "k2", 200, 0}, // keyed retry
		{"DELETE", "/v1/multi/pools/colors", "", "", 200, 1},
	}
	for i, st := range steps {
		req, err := http.NewRequest(st.method, ts.URL+st.path, strings.NewReader(st.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-Id", fmt.Sprintf("mut-%d", i))
		if st.key != "" {
			req.Header.Set("Idempotency-Key", st.key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != st.status {
			t.Fatalf("step %d %s %s: status %d, want %d: %s", i, st.method, st.path, resp.StatusCode, st.status, raw)
		}
	}

	resp, err := http.Get(ts.URL + fmt.Sprintf("/debug/traces?n=%d", len(steps)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var traces DebugTracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	applies := map[string]int{}
	for _, tr := range traces.Recent {
		applies[tr.ID] += 0 // a trace with no apply span still counts as seen
		for _, sp := range tr.Spans {
			if sp.Stage == "apply" {
				applies[tr.ID]++
			}
		}
	}
	for i, st := range steps {
		id := fmt.Sprintf("mut-%d", i)
		got, ok := applies[id]
		if !ok {
			t.Errorf("step %d %s %s: no trace %s", i, st.method, st.path, id)
		} else if got != st.applies {
			t.Errorf("step %d %s %s: %d apply spans, want %d", i, st.method, st.path, got, st.applies)
		}
	}
}
