// Chaos-mode extensions of the walltest harness: scripted disk-fault
// runs. A chaos test starts a durable server over a fault-injecting
// filesystem, drives mutations into the fault, and asserts the failure
// contract — acked mutations survive recovery bit-exactly, unacked ones
// vanish, and the degraded server keeps answering reads.
package walltest

import (
	"context"
	"errors"
	"net/http"
	"testing"

	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wal/errfs"
	"repro/jury/serve"
)

// StartFaulty opens a durable server over an errfs injector wrapping the
// real filesystem, with fsync on so every acked mutation is a
// stable-storage fact. The env's client has retries disabled: a chaos
// run wants to observe the first 503, not paper over it.
func StartFaulty(t testing.TB, cfg server.Config, faults ...errfs.Fault) (*Env, *errfs.FS) {
	t.Helper()
	fsys := errfs.New(wal.OSFS(), faults...)
	cfg.Fsync = true
	cfg.FS = fsys
	env := Start(t, cfg)
	env.Client.WithRetry(serve.RetryPolicy{MaxAttempts: 1})
	return env, fsys
}

// CrashDirty simulates kill -9 on a server whose WAL is already failing:
// stop serving and abandon the log. Close errors are what a dying disk
// produces and are deliberately ignored — the surviving bytes are
// whatever the journal managed to sync.
func (e *Env) CrashDirty() {
	e.t.Helper()
	e.HTTP.Close()
	e.Srv.ClosePersistence()
}

// DriveToFailure applies the script in order until a step is refused
// with 503 — the scripted disk fault surfacing as degraded mode — and
// returns how many steps were acked before it. The whole script
// completing means the fault never fired: a broken test.
func (e *Env) DriveToFailure(script []Step) int {
	e.t.Helper()
	for i, step := range script {
		if err := step(e); err != nil {
			var apiErr *serve.APIError
			if errors.As(err, &apiErr) && apiErr.Status == http.StatusServiceUnavailable {
				return i
			}
			e.t.Fatalf("walltest: step %d failed outside the degraded contract: %v", i, err)
		}
	}
	e.t.Fatalf("walltest: script completed without tripping the injected fault")
	return -1
}

// AssertDegradedReads asserts the degraded-mode contract on a live env:
// the server admits it is degraded, keeps serving reads and selections,
// refuses mutations with 503 + Retry-After, stays live on /healthz, and
// reports not-ready on /readyz.
func AssertDegradedReads(t testing.TB, e *Env) {
	t.Helper()
	ctx := context.Background()
	degraded, cause := e.Srv.DegradedState()
	if !degraded || cause == nil {
		t.Fatalf("walltest: DegradedState() = %v, %v; want degraded with a cause", degraded, cause)
	}
	if _, err := e.Client.Workers(ctx); err != nil {
		t.Fatalf("walltest: degraded list: %v", err)
	}
	if _, err := e.Client.Select(ctx, serve.SelectRequest{Budget: 10}); err != nil {
		t.Fatalf("walltest: degraded select: %v", err)
	}
	_, err := e.Client.IngestVoteKeyed(ctx,
		serve.VoteEvent{WorkerID: "ann", Correct: true}, serve.NewIdempotencyKey())
	var apiErr *serve.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("walltest: degraded mutation = %v, want 503", err)
	}
	if apiErr.RetryAfter <= 0 {
		t.Fatalf("walltest: degraded 503 has no Retry-After hint")
	}
	hResp, err := http.Get(e.HTTP.URL + "/healthz")
	if err != nil || hResp.StatusCode != http.StatusOK {
		t.Fatalf("walltest: degraded healthz: %v %d, want 200", err, hResp.StatusCode)
	}
	hResp.Body.Close()
	rResp, err := http.Get(e.HTTP.URL + "/readyz")
	if err != nil || rResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("walltest: degraded readyz: %v %d, want 503", err, rResp.StatusCode)
	}
	rResp.Body.Close()
}
