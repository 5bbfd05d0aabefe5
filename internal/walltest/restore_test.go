package walltest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wal/errfs"
	"repro/jury/serve"
)

// startWriteFaulty is StartFaulty without -fsync — the configuration
// jurybench runs — with the WAL's writes failing after the first after.
func startWriteFaulty(t *testing.T, dir string, after int) (*Env, *errfs.FS) {
	t.Helper()
	fsys := errfs.New(wal.OSFS(), errfs.Fault{Op: errfs.OpWrite, Path: "wal-", After: after})
	cfg := BaseConfig(dir)
	cfg.FS = fsys
	env := Start(t, cfg)
	env.Client.WithRetry(serve.RetryPolicy{MaxAttempts: 1})
	return env, fsys
}

// TestRestoreWriteFaultWithoutFsync fails a write without -fsync. The
// refused ingest was applied before its flush, so the server must first
// restore the durable prefix — the restore's first segment read is held
// at a gate to catch it in the act: not yet degraded, the refused
// ingest not yet answered — and only then degrade and answer 503. The
// degraded server then serves exactly what a restart recovers.
func TestRestoreWriteFaultWithoutFsync(t *testing.T) {
	dir := t.TempDir()
	script := chaosScript()
	env, fsys := startWriteFaulty(t, dir, 3)
	env.Drive(script[:3])

	gate := make(chan struct{})
	var opened sync.Once
	release := func() { opened.Do(func() { close(gate) }) }
	t.Cleanup(release) // before the HTTP server's: a failed check must not hang it
	fsys.Add(errfs.Fault{Op: errfs.OpOpen, Path: "wal-", Times: 1, Gate: gate})
	refused := make(chan error, 1)
	go func() { refused <- script[3](env) }()
	waitForInjection(t, fsys, 2) // the write fault, then the restore's open
	if degraded, _ := env.Srv.DegradedState(); degraded {
		t.Fatal("server degraded before restoring the durable prefix")
	}
	select {
	case err := <-refused:
		t.Fatalf("refused ingest answered (%v) before the restore finished", err)
	default:
	}
	release()
	var apiErr *serve.APIError
	if err := <-refused; !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("ingest through the write fault = %v, want 503", err)
	}

	AssertDegradedReads(t, env)
	AssertRestored(t, env)
	AssertSameState(t, Reference(t, BaseConfig(dir), script, 3), env)
}

// TestRestoreBringsBackEvictedIdempotencyKey fills the binary registry's
// idempotency table to its 4,096 keys, then makes one more keyed ingest
// fail its write. Applying it evicted the oldest key; the restore must
// bring that key back and drop the refused one, as a restart would.
func TestRestoreBringsBackEvictedIdempotencyKey(t *testing.T) {
	const keys = 4096
	dir := t.TempDir()
	env, _ := startWriteFaulty(t, dir, 1+keys)
	if err := Register(serve.WorkerSpec{ID: "ann", Quality: 0.9, Cost: 4})(env); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	vote := []server.VoteEvent{{WorkerID: "ann", Correct: true}}
	for i := 0; i < keys; i++ {
		if _, _, _, err := env.Srv.Registry().IngestKeyed(ctx, vote, fmt.Sprintf("k%04d", i)); err != nil {
			t.Fatalf("keyed ingest %d: %v", i, err)
		}
	}
	if _, _, _, err := env.Srv.Registry().IngestKeyed(ctx, vote, "refused"); !errors.Is(err, server.ErrDegraded) {
		t.Fatalf("keyed ingest through the write fault = %v, want ErrDegraded", err)
	}

	AssertRestored(t, env)
	doc, err := env.Srv.DebugState()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), `"k0000"`) || strings.Contains(string(doc), `"refused"`) {
		t.Fatal("restored idempotency table lost the evicted key k0000 or kept the refused one")
	}
	w, err := env.Client.Worker(ctx, "ann")
	if err != nil {
		t.Fatal(err)
	}
	if w.Votes != keys {
		t.Fatalf("restored votes = %d, want %d", w.Votes, keys)
	}
}

// TestRestoreReadFaultRefusesReads fails the restore itself: the first
// segment read after the refused write faults, as on a dying disk. The
// live stores may still hold the refused write, so every read answers
// 503 naming the cause, like a node whose boot recovery failed; a
// restart on a healthy disk recovers the acked prefix.
func TestRestoreReadFaultRefusesReads(t *testing.T) {
	dir := t.TempDir()
	script := chaosScript()
	env, fsys := startWriteFaulty(t, dir, 3)
	env.Drive(script[:3])
	fsys.Add(errfs.Fault{Op: errfs.OpRead, Path: "wal-"})

	var apiErr *serve.APIError
	if err := script[3](env); !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("ingest through the write fault = %v, want 503", err)
	}
	if degraded, _ := env.Srv.DegradedState(); !degraded {
		t.Fatal("server not degraded after the refused write")
	}
	ctx := context.Background()
	if _, err := env.Client.Workers(ctx); !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable ||
		!strings.Contains(apiErr.Message, "restoring the durable prefix failed") {
		t.Fatalf("list after a failed restore = %v, want 503 naming the failed restore", err)
	}
	if _, err := env.Client.Select(ctx, serve.SelectRequest{Budget: 10}); !errors.As(err, &apiErr) ||
		apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("select after a failed restore = %v, want 503", err)
	}
	resp, err := http.Get(env.HTTP.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after a failed restore = %d %s, want 503", resp.StatusCode, body)
	}
	env.CrashDirty()

	recovered := Start(t, BaseConfig(dir))
	AssertSameState(t, Reference(t, BaseConfig(dir), script, 3), recovered)
}
