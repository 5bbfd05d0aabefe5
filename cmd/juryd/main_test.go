package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// lineWriter hands each written line to a channel, so the test can watch
// for the "listening on" banner.
type lineWriter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	lines chan string
}

func (w *lineWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	for {
		line, err := w.buf.ReadString('\n')
		if err != nil {
			w.buf.WriteString(line) // incomplete line: push back
			break
		}
		select {
		case w.lines <- strings.TrimSpace(line):
		default:
		}
	}
	return len(p), nil
}

// startDaemon runs the daemon on a random port and returns its base URL
// and a cancel that triggers graceful shutdown.
func startDaemon(t *testing.T, args ...string) (string, context.CancelFunc, chan error) {
	t.Helper()
	base, cancel, done, _ := startDaemonWatch(t, args...)
	return base, cancel, done
}

// startDaemonWatch is startDaemon plus the daemon's log writer, for
// tests that synchronize on later log lines (e.g. the shutdown banner).
func startDaemonWatch(t *testing.T, args ...string) (string, context.CancelFunc, chan error, *lineWriter) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out := &lineWriter{lines: make(chan string, 16)}
	done := make(chan error, 1)
	go func() { done <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), out) }()

	deadline := time.After(5 * time.Second)
	for {
		select {
		case line := <-out.lines:
			if addr, ok := strings.CutPrefix(line, "juryd: listening on "); ok {
				return "http://" + addr, cancel, done, out
			}
		case err := <-done:
			t.Fatalf("daemon exited early: %v", err)
		case <-deadline:
			t.Fatal("daemon never announced its address")
		}
	}
}

// waitForLine blocks until the daemon logs a line with the prefix.
func waitForLine(t *testing.T, w *lineWriter, prefix string) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case line := <-w.lines:
			if strings.HasPrefix(line, prefix) {
				return
			}
		case <-deadline:
			t.Fatalf("never saw log line %q", prefix)
		}
	}
}

func TestDaemonServesAndShutsDownGracefully(t *testing.T) {
	base, cancel, done := startDaemon(t)
	defer cancel()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"status":"ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}

	// Register a worker and select over HTTP end to end.
	resp, err = http.Post(base+"/v1/workers", "application/json",
		strings.NewReader(`{"workers":[{"id":"a","quality":0.8,"cost":1},{"id":"b","quality":0.7,"cost":1},{"id":"c","quality":0.6,"cost":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d", resp.StatusCode)
	}
	resp, err = http.Post(base+"/v1/select", "application/json", strings.NewReader(`{"budget":3}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"jq"`) {
		t.Fatalf("select: %d %s", resp.StatusCode, body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

func TestDaemonPreloadsPoolFile(t *testing.T) {
	dir := t.TempDir()
	pool := filepath.Join(dir, "pool.json")
	var b strings.Builder
	b.WriteString(`{"workers":[`)
	for i := 0; i < 5; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"id":"w%d","quality":0.6,"cost":1}`, i)
	}
	b.WriteString(`]}`)
	if err := os.WriteFile(pool, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	base, cancel, done := startDaemon(t, "-pool", pool)
	defer func() { cancel(); <-done }()

	resp, err := http.Get(base + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := strings.Count(string(body), `"id"`); got != 5 {
		t.Fatalf("preloaded %d workers, want 5: %s", got, body)
	}
}

// TestDaemonDurableRestart boots with -data-dir, mutates, restarts, and
// checks the state and the /debug/persistence recovery counters survive.
func TestDaemonDurableRestart(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "data")

	base, cancel, done := startDaemon(t, "-data-dir", dataDir)
	resp, err := http.Post(base+"/v1/workers", "application/json",
		strings.NewReader(`{"workers":[{"id":"a","quality":0.8,"cost":1},{"id":"b","quality":0.7,"cost":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Post(base+"/v1/votes", "application/json",
		strings.NewReader(`{"worker_id":"a","correct":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("first daemon shutdown: %v", err)
	}

	base, cancel, done = startDaemon(t, "-data-dir", dataDir)
	defer func() { cancel(); <-done }()
	resp, err = http.Get(base + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := strings.Count(string(body), `"id"`); got != 2 {
		t.Fatalf("recovered %d workers, want 2: %s", got, body)
	}
	if !strings.Contains(string(body), `"votes":1`) {
		t.Fatalf("ingested vote lost across restart: %s", body)
	}
	resp, err = http.Get(base + "/debug/persistence")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"enabled":true`) {
		t.Fatalf("persistence status: %s", body)
	}
	// Graceful shutdown snapshotted, so the restart replayed nothing.
	if !strings.Contains(string(body), `"records_replayed":0`) {
		t.Fatalf("expected snapshot-only recovery, got %s", body)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-addr"}, io.Discard); err == nil {
		t.Fatal("bad flags accepted")
	}
	if err := run(context.Background(), []string{"-pool", "/does/not/exist.json"}, io.Discard); err == nil {
		t.Fatal("missing pool file accepted")
	}
}

// TestDaemonPreloadsMultiPoolFile boots with -multi-pool (labels coming
// from the -labels flag, not the file) and selects over the preloaded
// confusion-matrix pool end to end.
func TestDaemonPreloadsMultiPoolFile(t *testing.T) {
	dir := t.TempDir()
	pool := filepath.Join(dir, "mpool.json")
	data := `{"name":"colors","workers":[
		{"id":"m0","quality":0.8,"cost":2},
		{"id":"m1","confusion":[[0.9,0.05,0.05],[0.1,0.8,0.1],[0.2,0.2,0.6]],"cost":3},
		{"id":"m2","quality":0.65,"cost":1}]}`
	if err := os.WriteFile(pool, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}

	base, cancel, done := startDaemon(t, "-multi-pool", pool, "-labels", "3")
	defer func() { cancel(); <-done }()

	resp, err := http.Get(base + "/v1/multi/pools/colors")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.Count(string(body), `"id"`) != 3 {
		t.Fatalf("preloaded pool: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"labels":3`) {
		t.Fatalf("label count missing: %s", body)
	}
	resp, err = http.Post(base+"/v1/multi/pools/colors/select", "application/json",
		strings.NewReader(`{"budget":5}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"jq"`) {
		t.Fatalf("multi select: %d %s", resp.StatusCode, body)
	}

	// A multi-pool file that resolves no label count must refuse to boot.
	noLabels := filepath.Join(dir, "nolabels.json")
	if err := os.WriteFile(noLabels, []byte(`{"name":"x","workers":[{"id":"a","quality":0.7,"cost":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-multi-pool", noLabels}, io.Discard); err == nil {
		t.Fatal("multi-pool file without labels accepted")
	}
}

// TestDaemonDurableRestartWithPreloadFlags: a supervisor restarts the
// daemon with the same argv (-pool/-multi-pool plus -data-dir); the
// journaled first preload is recovered from the WAL, so the second boot
// must skip the redundant preload instead of crash-looping on
// ErrWorkerExists/ErrPoolExists.
func TestDaemonDurableRestartWithPreloadFlags(t *testing.T) {
	dir := t.TempDir()
	dataDir := filepath.Join(dir, "data")
	pool := filepath.Join(dir, "pool.json")
	mpool := filepath.Join(dir, "mpool.json")
	if err := os.WriteFile(pool, []byte(`{"workers":[{"id":"a","quality":0.8,"cost":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mpool, []byte(`{"name":"colors","labels":3,"workers":[{"id":"m0","quality":0.7,"cost":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-data-dir", dataDir, "-pool", pool, "-multi-pool", mpool}

	base, cancel, done := startDaemon(t, args...)
	resp, err := http.Post(base+"/v1/multi/pools/colors/votes", "application/json",
		strings.NewReader(`{"events":[{"worker_id":"m0","truth":0,"vote":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("first daemon shutdown: %v", err)
	}

	// Same argv again: must boot (skipping both preloads) and keep the
	// recovered Dirichlet drift.
	base, cancel, done = startDaemon(t, args...)
	defer func() { cancel(); <-done }()
	resp, err = http.Get(base + "/v1/multi/pools/colors")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"votes":1`) {
		t.Fatalf("recovered multi pool: %d %s", resp.StatusCode, body)
	}
	resp, err = http.Get(base + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Count(string(body), `"id"`) != 1 {
		t.Fatalf("recovered binary pool: %s", body)
	}
}

// TestPreloadDriftDetection: the restart-skip path must surface workers
// a preload file gained since the recovered registration, rather than
// silently dropping them (the atomic preload aborts on the first
// already-registered id).
func TestPreloadDriftDetection(t *testing.T) {
	s := server.New(server.NewConfig())
	if err := s.Preload([]server.WorkerSpec{{ID: "a", Quality: 0.8, Cost: 1}}); err != nil {
		t.Fatal(err)
	}
	q := 0.7
	if err := s.PreloadMulti(server.MultiCreateRequest{
		Name: "colors", Labels: 3,
		Workers: []server.MultiWorkerSpec{{ID: "m0", Quality: &q, Cost: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	missing := missingPreloadWorkers(s, []server.WorkerSpec{
		{ID: "a", Quality: 0.8, Cost: 1},
		{ID: "b", Quality: 0.6, Cost: 2}, // added to the file post-recovery
	})
	if len(missing) != 1 || missing[0] != "b" {
		t.Fatalf("missing = %v, want [b]", missing)
	}
	missingMulti := missingMultiPreloadWorkers(s, server.MultiCreateRequest{
		Name: "colors",
		Workers: []server.MultiWorkerSpec{
			{ID: "m0", Quality: &q, Cost: 1},
			{ID: "m1", Quality: &q, Cost: 2}, // added post-recovery
		},
	})
	if len(missingMulti) != 1 || missingMulti[0] != "m1" {
		t.Fatalf("missing multi = %v, want [m1]", missingMulti)
	}
	if got := missingMultiPreloadWorkers(s, server.MultiCreateRequest{Name: "ghost"}); got != nil {
		t.Fatalf("vanished pool should report nothing, got %v", got)
	}
}

// TestDaemonShutdownUnderLoad triggers graceful shutdown while selection
// requests are in flight: every in-flight select must complete 200, no
// mutation may be acked after the drain banner, run() must return nil,
// and the final checkpoint must land so the reboot replays nothing.
func TestDaemonShutdownUnderLoad(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "data")
	base, cancel, done, out := startDaemonWatch(t, "-data-dir", dataDir)

	var b strings.Builder
	b.WriteString(`{"workers":[`)
	for i := 0; i < 40; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"id":"w%d","quality":%g,"cost":%d}`, i, 0.55+float64(i%40)*0.01, 1+i%3)
	}
	b.WriteString(`]}`)
	resp, err := http.Post(base+"/v1/workers", "application/json", strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d", resp.StatusCode)
	}
	resp, err = http.Post(base+"/v1/votes", "application/json",
		strings.NewReader(`{"worker_id":"w0","correct":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-shutdown ingest: %d", resp.StatusCode)
	}

	// Load: distinct budgets, so every select is a cache-missing compute.
	results := make(chan int, 16)
	for i := 0; i < cap(results); i++ {
		go func(budget int) {
			resp, err := http.Post(base+"/v1/select", "application/json",
				strings.NewReader(fmt.Sprintf(`{"budget":%d}`, budget)))
			if err != nil {
				results <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results <- resp.StatusCode
		}(5 + i)
	}
	time.Sleep(20 * time.Millisecond) // let the load get in flight
	cancel()

	// Drain is active once the banner prints; from here on no mutation
	// may be acknowledged (503 while draining, connection errors after).
	waitForLine(t, out, "juryd: shutting down")
	for i := 0; i < 20; i++ {
		resp, err := http.Post(base+"/v1/votes", "application/json",
			strings.NewReader(`{"worker_id":"w0","correct":true}`))
		if err != nil {
			break
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusOK {
			t.Fatal("mutation acked after drain began")
		}
	}

	for i := 0; i < cap(results); i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("in-flight select finished with %d, want 200", code)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown under load: %v", err)
	}

	// The final checkpoint landed despite the load, and only the acked
	// ingest survived.
	base, cancel, done = startDaemon(t, "-data-dir", dataDir)
	defer func() { cancel(); <-done }()
	resp, err = http.Get(base + "/debug/persistence")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"records_replayed":0`) {
		t.Fatalf("expected snapshot-only recovery, got %s", body)
	}
	resp, err = http.Get(base + "/v1/workers/w0")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"votes":1`) {
		t.Fatalf("w0 after reboot = %s, want exactly the 1 acked vote", body)
	}
}

// TestDaemonChaosFsyncDegrades boots with the fault-injection flag: the
// scripted fsync failure degrades the daemon to read-only, readiness
// flips while liveness and reads hold, shutdown reports the dirty close
// as an error (the poisoned log cannot be synced, so the process must
// exit non-zero), and a clean reboot recovers exactly the acked
// mutations.
func TestDaemonChaosFsyncDegrades(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "data")
	// Sync budget 3: the registration plus two ingests are acked, the
	// third ingest trips the fault.
	base, cancel, done, out := startDaemonWatch(t,
		"-data-dir", dataDir, "-fsync", "-chaos-fsync-after", "3")

	resp, err := http.Post(base+"/v1/workers", "application/json",
		strings.NewReader(`{"workers":[{"id":"a","quality":0.8,"cost":1},{"id":"b","quality":0.7,"cost":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d", resp.StatusCode)
	}
	acked := 0
	for i := 0; i < 10; i++ {
		resp, err := http.Post(base+"/v1/votes", "application/json",
			strings.NewReader(`{"worker_id":"a","correct":true}`))
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			break
		}
		if code != http.StatusOK {
			t.Fatalf("ingest %d: %d", i, code)
		}
		acked++
	}
	if acked != 2 {
		t.Fatalf("acked %d ingests before the injected fault, want 2", acked)
	}

	// Degraded contract over the daemon's own endpoints.
	resp, err = http.Get(base + "/readyz")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz: %v %d, want 503", err, resp.StatusCode)
	}
	resp.Body.Close()
	resp, err = http.Get(base + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %d, want 200", err, resp.StatusCode)
	}
	resp.Body.Close()
	resp, err = http.Get(base + "/v1/workers")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded read: %v %d, want 200", err, resp.StatusCode)
	}
	resp.Body.Close()

	cancel()
	waitForLine(t, out, "juryd: degraded at shutdown")
	err = <-done
	if err == nil {
		t.Fatal("degraded shutdown returned nil, want a dirty-close error (the log was poisoned)")
	}
	if !strings.Contains(err.Error(), "dirty close") {
		t.Fatalf("degraded shutdown = %v, want a dirty-close error", err)
	}

	// Clean reboot (no fault): exactly the acked mutations recovered.
	base, cancel, done = startDaemon(t, "-data-dir", dataDir)
	defer func() { cancel(); <-done }()
	resp, err = http.Get(base + "/v1/workers/a")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"votes":2`) {
		t.Fatalf("worker a after reboot = %s, want the 2 acked votes", body)
	}
}

// TestDaemonBootRecoveryFailureDiagnosis makes recovery impossible (a
// snapshot pointing past a vanished WAL) and checks the daemon refuses
// to boot with a single diagnostic line instead of serving bad state.
// persistenceDoc fetches and decodes /debug/persistence.
func persistenceDoc(t *testing.T, base string) server.PersistenceStatus {
	t.Helper()
	resp, err := http.Get(base + "/debug/persistence")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.PersistenceStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode persistence: %v", err)
	}
	return st
}

// TestDaemonFollowerReplicates boots a durable primary and a -follow
// replica end to end: the follower bootstraps, converges to the
// primary's state fingerprint, serves reads, and bounces mutations to
// the primary with a 421.
func TestDaemonFollowerReplicates(t *testing.T) {
	pDir, fDir := t.TempDir(), t.TempDir()
	pBase, pCancel, pDone := startDaemon(t, "-data-dir", pDir)
	defer pCancel()

	resp, err := http.Post(pBase+"/v1/workers", "application/json",
		strings.NewReader(`{"workers":[{"id":"a","quality":0.8,"cost":1},{"id":"b","quality":0.7,"cost":1},{"id":"c","quality":0.6,"cost":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d", resp.StatusCode)
	}
	for i := 0; i < 10; i++ {
		resp, err := http.Post(pBase+"/v1/votes/batch", "application/json",
			strings.NewReader(`{"events":[{"worker_id":"a","correct":true},{"worker_id":"b","correct":false}]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: %d", i, resp.StatusCode)
		}
	}

	fBase, fCancel, fDone := startDaemon(t, "-data-dir", fDir, "-follow", pBase)
	defer fCancel()

	// Convergence: the follower's state fingerprint matches the primary's.
	want := persistenceDoc(t, pBase)
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := persistenceDoc(t, fBase)
		if got.StateSHA256 == want.StateSHA256 && got.NextLSN == want.NextLSN {
			if got.Repl == nil || got.Repl.Primary == "" {
				t.Fatalf("converged follower reports no repl status: %+v", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged: follower %+v, primary %+v", got, want)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Reads serve locally; mutations answer 421 naming the primary.
	resp, err = http.Get(fBase + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"a"`) {
		t.Fatalf("follower read: %d %s", resp.StatusCode, body)
	}
	resp, err = http.Post(fBase+"/v1/workers", "application/json",
		strings.NewReader(`{"workers":[{"id":"z","quality":0.5,"cost":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("follower mutation: %d, want 421", resp.StatusCode)
	}
	if got := resp.Header.Get(server.PrimaryHeader); got != pBase {
		t.Fatalf("%s = %q, want %q", server.PrimaryHeader, got, pBase)
	}

	// Both shut down cleanly, follower first (its stream drops with the
	// primary either way, but this order keeps the exit quiet).
	fCancel()
	if err := <-fDone; err != nil {
		t.Fatalf("follower shutdown: %v", err)
	}
	pCancel()
	if err := <-pDone; err != nil {
		t.Fatalf("primary shutdown: %v", err)
	}
}

// TestDaemonFollowerRestartKeepsQuorumIdentity: a follower restarted on
// the same data dir confirms under the identity it had before, so one
// physical follower never counts twice toward -quorum. With -quorum 3
// and a single follower, a write that the follower confirms, and then
// confirms again after a restart, must time out with 503 instead of
// being acknowledged on two confirmations from one copy.
func TestDaemonFollowerRestartKeepsQuorumIdentity(t *testing.T) {
	pDir, fDir := t.TempDir(), t.TempDir()
	pBase, pCancel, pDone := startDaemon(t, "-data-dir", pDir, "-quorum", "3", "-quorum-timeout", "3s")
	defer pCancel()
	fBase, fCancel, fDone := startDaemon(t, "-data-dir", fDir, "-follow", pBase)
	defer func() { fCancel() }()
	idBefore, err := os.ReadFile(filepath.Join(fDir, "follower-id"))
	if err != nil {
		t.Fatalf("follower kept no identity: %v", err)
	}

	status := make(chan int, 1)
	go func() {
		resp, err := http.Post(pBase+"/v1/workers", "application/json",
			strings.NewReader(`{"workers":[{"id":"a","quality":0.8,"cost":1}]}`))
		if err != nil {
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	// Once the follower has applied the write, its next stream poll
	// confirms it; give that poll time to land, then restart.
	deadline := time.Now().Add(5 * time.Second)
	for st := persistenceDoc(t, fBase); st.Repl == nil || st.Repl.AppliedLSN < 1; st = persistenceDoc(t, fBase) {
		if time.Now().After(deadline) {
			t.Fatalf("follower never applied the write: %+v", st.Repl)
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)
	fCancel()
	if err := <-fDone; err != nil {
		t.Fatalf("follower shutdown: %v", err)
	}
	_, fCancel, fDone = startDaemon(t, "-data-dir", fDir, "-follow", pBase)

	select {
	case code := <-status:
		if code != http.StatusServiceUnavailable {
			t.Fatalf("write confirmed by one follower across a restart answered %d, want 503", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("quorum-gated write never answered")
	}
	idAfter, err := os.ReadFile(filepath.Join(fDir, "follower-id"))
	if err != nil || !bytes.Equal(idAfter, idBefore) {
		t.Fatalf("follower identity changed across a restart: %q -> %q (%v)", idBefore, idAfter, err)
	}

	fCancel()
	if err := <-fDone; err != nil {
		t.Fatalf("follower shutdown: %v", err)
	}
	pCancel()
	if err := <-pDone; err != nil {
		t.Fatalf("primary shutdown: %v", err)
	}
}

// TestDaemonFollowerFlagValidation: -follow without a data dir or with
// preload flags must refuse to boot instead of diverging later.
func TestDaemonFollowerFlagValidation(t *testing.T) {
	err := run(context.Background(), []string{"-follow", "http://127.0.0.1:1"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-data-dir") {
		t.Fatalf("follow without data dir: %v, want a -data-dir error", err)
	}
	err = run(context.Background(), []string{
		"-follow", "http://127.0.0.1:1", "-data-dir", t.TempDir(), "-pool", "pool.json",
	}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-pool") {
		t.Fatalf("follow with preload: %v, want a preload refusal", err)
	}
}

// TestDaemonQuorumNeedsDataDir: -quorum without -data-dir must refuse
// to boot; an in-memory daemon has no log a follower could confirm.
func TestDaemonQuorumNeedsDataDir(t *testing.T) {
	// The deadline only matters if the daemon wrongly boots and serves.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := run(ctx, []string{"-addr", "127.0.0.1:0", "-quorum", "2"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "data dir") {
		t.Fatalf("-quorum 2 without -data-dir: %v, want a data dir error", err)
	}
}

func TestDaemonBootRecoveryFailureDiagnosis(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "data")
	base, cancel, done := startDaemon(t, "-data-dir", dataDir)
	resp, err := http.Post(base+"/v1/workers", "application/json",
		strings.NewReader(`{"workers":[{"id":"a","quality":0.8,"cost":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("first shutdown: %v", err)
	}

	segs, err := filepath.Glob(filepath.Join(dataDir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments to remove (%v)", err)
	}
	for _, seg := range segs {
		if err := os.Remove(seg); err != nil {
			t.Fatal(err)
		}
	}

	err = run(context.Background(), []string{"-addr", "127.0.0.1:0", "-data-dir", dataDir}, io.Discard)
	if err == nil {
		t.Fatal("boot with unrecoverable state must fail")
	}
	msg := err.Error()
	if !strings.Contains(msg, "boot recovery from") || !strings.Contains(msg, "snapshot covers lsn") {
		t.Fatalf("diagnosis %q does not name the failure", msg)
	}
	if strings.Contains(msg, "\n") {
		t.Fatalf("diagnosis is not one line: %q", msg)
	}
}
