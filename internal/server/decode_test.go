package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// postRaw sends body to the server's handler as-is and returns the status
// and reply.
func postRaw(t *testing.T, s *Server, path string, body []byte) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// durableServer is a journaling server over a fresh data directory.
func durableServer(t *testing.T) *Server {
	t.Helper()
	s, err := Open(Config{Alpha: 0.5, Seed: 1, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.ClosePersistence() })
	return s
}

// TestDecodeStrictBody: a request body holds exactly one JSON value of
// at most maxBodyBytes. Anything after the value but whitespace is a
// 400, a larger body a 413, and a refused body registers and journals
// nothing.
func TestDecodeStrictBody(t *testing.T) {
	one := `{"workers":[{"id":"a","quality":0.8,"cost":3}]}`
	padded := one + strings.Repeat(" ", 2<<20-len(one))
	var big RegisterRequest
	for i := 0; i < 34000; i++ {
		big.Workers = append(big.Workers, WorkerSpec{ID: fmt.Sprintf("w%05d", i), Quality: 0.8, Cost: 3})
	}
	bigBody, err := json.Marshal(big)
	if err != nil {
		t.Fatal(err)
	}
	if len(bigBody) <= maxBodyBytes {
		t.Fatalf("valid body is %d bytes, want more than maxBodyBytes", len(bigBody))
	}
	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"second value", one + `{"workers":[{"id":"zzz","quality":0.8,"cost":3}]}`, http.StatusBadRequest},
		{"trailing garbage", one + " garbage", http.StatusBadRequest},
		{"2 MiB padded", padded, http.StatusRequestEntityTooLarge},
		{"oversized valid", string(bigBody), http.StatusRequestEntityTooLarge},
		{"trailing whitespace", one + " \n\t\n", http.StatusCreated},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := durableServer(t)
			code, reply := postRaw(t, s, "/v1/workers", []byte(tc.body))
			if code != tc.want {
				t.Fatalf("status %d %.200s, want %d", code, reply, tc.want)
			}
			if code == http.StatusCreated {
				return
			}
			if n := s.registry.Len(); n != 0 {
				t.Errorf("registry holds %d workers after a refused request, want 0", n)
			}
			if next := s.PersistenceStatus().NextLSN; next != 1 {
				t.Errorf("next LSN = %d after a refused request, want 1 (nothing journaled)", next)
			}
		})
	}
}

// TestDecodeOptionalBody: the promote route takes an empty body, but
// refuses trailing data like every other route. A primary answers a
// well-formed promote with 200 (already primary).
func TestDecodeOptionalBody(t *testing.T) {
	s := New(Config{Alpha: 0.5, Seed: 1})
	for _, tc := range []struct {
		body string
		want int
	}{
		{"", http.StatusOK},
		{`{"advertise":"http://x:1"}`, http.StatusOK},
		{`{"advertise":"http://x:1"} {}`, http.StatusBadRequest},
		{`{} garbage`, http.StatusBadRequest},
	} {
		if code, reply := postRaw(t, s, "/v1/repl/promote", []byte(tc.body)); code != tc.want {
			t.Errorf("promote with body %q: %d %s, want %d", tc.body, code, reply, tc.want)
		}
	}
}
