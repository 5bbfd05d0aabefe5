package repl

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wal"
)

// startPrimary opens a durable primary behind an HTTP server and
// journals a registration plus votes more records.
func startPrimary(t *testing.T, votes int) (*server.Server, string) {
	t.Helper()
	srv, err := server.Open(server.Config{Alpha: 0.5, Seed: 1, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.ClosePersistence() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	post(t, ts.URL+"/v1/workers", `{"workers":[{"id":"ann","quality":0.8,"cost":3}]}`)
	for range votes {
		vote(t, ts.URL)
	}
	return srv, ts.URL
}

func post(t *testing.T, url, body string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		t.Fatalf("POST %s: %d", url, resp.StatusCode)
	}
}

func vote(t *testing.T, url string) {
	t.Helper()
	post(t, url+"/v1/votes", `{"worker_id":"ann","correct":true}`)
}

// newFollower opens a fresh follower of primary whose streams stay open
// wait with nothing to ship.
func newFollower(t *testing.T, primary string, wait time.Duration) (*server.Server, *Follower) {
	t.Helper()
	srv, err := server.Open(server.Config{Alpha: 0.5, Seed: 1, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.ClosePersistence() })
	srv.SetFollower(primary)
	f, err := NewFollower(srv, Options{Wait: wait})
	if err != nil {
		t.Fatal(err)
	}
	return srv, f
}

// streamResult is what one Follower.stream call returned, and when.
type streamResult struct {
	advanced bool
	err      error
	at       time.Time
}

// goStream runs one stream in the background.
func goStream(ctx context.Context, f *Follower) <-chan streamResult {
	done := make(chan streamResult, 1)
	go func() {
		advanced, err := f.stream(ctx)
		done <- streamResult{advanced, err, time.Now()}
	}()
	return done
}

// waitApplied polls until srv has applied lsn and returns how long that
// took.
func waitApplied(t *testing.T, srv *server.Server, lsn wal.LSN) time.Duration {
	t.Helper()
	start := time.Now()
	for srv.AppliedLSN() < lsn {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("follower applied %d, want %d", srv.AppliedLSN(), lsn)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return time.Since(start)
}

// TestStreamFirstBatchWithin100ms: a stream's first batch is applied
// well inside 100 ms of the open — the open sends no body the client
// must probe for, and waits for nothing the primary already holds.
func TestStreamFirstBatchWithin100ms(t *testing.T) {
	_, primary := startPrimary(t, 2) // 3 records
	srv, f := newFollower(t, primary, 5*time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	done := goStream(ctx, f)
	took := waitApplied(t, srv, 3)
	cancel()
	<-done
	if took > 100*time.Millisecond {
		t.Fatalf("first batch applied %v after the open, want under 100 ms", took)
	}
}

// TestStreamIdleEndsAtWaitTrackingWatermark: one stream applies commits
// as they come, the follower's lag gauges follow each batch's
// watermark, and once nothing commits the primary ends the stream after
// the follower's wait.
func TestStreamIdleEndsAtWaitTrackingWatermark(t *testing.T) {
	_, primary := startPrimary(t, 0) // 1 record
	srv, f := newFollower(t, primary, 300*time.Millisecond)
	done := goStream(context.Background(), f)
	waitApplied(t, srv, 1)
	for lsn := wal.LSN(2); lsn <= 3; lsn++ {
		vote(t, primary)
		waitApplied(t, srv, lsn)
		if st := srv.ReplStatus(); st.PrimaryDurableLSN != uint64(lsn) || st.LagRecords != 0 || !st.Connected {
			t.Fatalf("after lsn %d: repl status %+v, want connected at durable %d with no lag", lsn, st, lsn)
		}
	}
	last := time.Now()
	select {
	case r := <-done:
		if r.err != nil || !r.advanced {
			t.Fatalf("idle stream ended with advanced %v, err %v", r.advanced, r.err)
		}
		if idle := r.at.Sub(last); idle < 250*time.Millisecond {
			t.Fatalf("stream ended %v after the last commit, want its 300 ms wait", idle)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("idle stream outlived its wait by seconds")
	}
	if st := srv.ReplStatus(); st.PrimaryDurableLSN != 3 || st.LagRecords != 0 {
		t.Fatalf("after the stream: repl status %+v, want durable 3 with no lag", st)
	}
}

// TestStreamRepointTakesEffectAtNextBatch: a follower repointed while
// its stream is open applies nothing more from the old primary; the
// next batch ends the stream, and the next stream goes to the new one.
func TestStreamRepointTakesEffectAtNextBatch(t *testing.T) {
	_, oldPrimary := startPrimary(t, 0) // 1 record
	streams := make(chan string, 4)
	newPrimary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		streams <- r.URL.Path
		w.Header().Set(server.ReplDurableLSNHeader, "1")
		w.WriteHeader(http.StatusNoContent)
	}))
	t.Cleanup(newPrimary.Close)
	srv, f := newFollower(t, oldPrimary, 30*time.Second)
	done := goStream(context.Background(), f)
	waitApplied(t, srv, 1)

	if err := srv.Repoint(newPrimary.URL); err != nil {
		t.Fatal(err)
	}
	vote(t, oldPrimary) // lsn 2, shipped on the open stream
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("repointed stream: %v", r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the batch after a repoint did not end the stream")
	}
	if got := srv.AppliedLSN(); got != 1 {
		t.Fatalf("follower applied %d after its repoint, want the old primary's batch left alone at 1", got)
	}
	if advanced, err := f.stream(context.Background()); err != nil || advanced {
		t.Fatalf("stream after the repoint: advanced %v, err %v", advanced, err)
	}
	if got := <-streams; got != "/v1/repl/stream" {
		t.Fatalf("new primary saw %q, want a stream", got)
	}
}
