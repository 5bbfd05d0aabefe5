package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/server"
)

// childEnv makes the test binary run juryd's main instead of the tests.
// Daemon tests re-execute the binary with it set, so each daemon is a
// real process that can be killed with SIGKILL, needs no nested go
// build, and is race-instrumented whenever the tests are.
const childEnv = "JURYD_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// patience bounds every wait on a daemon: boot, a log line, exit after
// SIGTERM, convergence. It is generous because race-instrumented
// daemons on a loaded 2-vCPU runner are slow, and a wait only lasts
// that long when the test is failing anyway.
const patience = 30 * time.Second

// daemon is one juryd child process listening on an ephemeral port.
type daemon struct {
	URL    string
	t      *testing.T
	cmd    *exec.Cmd
	out    *syncBuffer
	exited chan struct{} // closed once Wait returned; waitErr holds its result
	// waitErr is written before exited is closed and read only after.
	waitErr error
}

// syncBuffer collects the child's interleaved stdout and stderr.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startDaemon runs juryd with args plus -addr 127.0.0.1:0 as a child
// process and waits for its listening banner. The daemon is killed at
// test cleanup if still running; a child that reported a data race, or
// exited with the race detector's status 66, fails the test.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	d := &daemon{t: t, out: &syncBuffer{}, exited: make(chan struct{})}
	d.cmd = exec.Command(exe, args...)
	d.cmd.Env = append(os.Environ(), childEnv+"=1")
	d.cmd.Stdout, d.cmd.Stderr = d.out, d.out
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	t.Cleanup(func() {
		d.Kill()
		out := d.out.String()
		if strings.Contains(out, "WARNING: DATA RACE") || d.cmd.ProcessState.ExitCode() == 66 {
			t.Errorf("juryd %v reported a data race:\n%s", args, out)
		} else if t.Failed() {
			t.Logf("juryd %v output:\n%s", args, d.tail())
		}
	})
	d.URL = "http://" + d.WaitLine("juryd: listening on ")
	return d
}

// WaitLine waits until the daemon has printed a complete line starting
// with prefix and returns the rest of that line.
func (d *daemon) WaitLine(prefix string) string {
	d.t.Helper()
	deadline := time.Now().Add(patience)
	for {
		lines := strings.Split(d.out.String(), "\n")
		for _, line := range lines[:len(lines)-1] { // the last is incomplete
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				return rest
			}
		}
		select {
		case <-d.exited:
			d.t.Fatalf("juryd exited (%v) before printing %q:\n%s", d.waitErr, prefix, d.tail())
		default:
		}
		if time.Now().After(deadline) {
			d.t.Fatalf("juryd never printed %q:\n%s", prefix, d.tail())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Stop sends SIGTERM and waits for the exit. It returns nil on a zero
// exit status, and otherwise an error carrying the status and the tail
// of the daemon's output. Stop calls no testing methods, so a test may
// run it on its own goroutine.
func (d *daemon) Stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-d.exited:
	case <-time.After(patience):
		d.Kill()
		return fmt.Errorf("juryd still running %v after SIGTERM:\n%s", patience, d.tail())
	}
	if d.waitErr != nil {
		return fmt.Errorf("juryd exited: %w\n%s", d.waitErr, d.tail())
	}
	return nil
}

// Kill sends SIGKILL and waits for the process to be gone: a crash, with
// no drain, final snapshot or WAL close.
func (d *daemon) Kill() {
	d.cmd.Process.Kill() // fails only when the process already exited
	<-d.exited
}

// tail returns the last lines of the daemon's output.
func (d *daemon) tail() string {
	lines := strings.Split(strings.TrimRight(d.out.String(), "\n"), "\n")
	return strings.Join(lines[max(0, len(lines)-30):], "\n")
}

// do sends one request to the daemon and returns the response with its
// body read. A transport error fails the test.
func (d *daemon) do(method, path, body string) (*http.Response, string) {
	d.t.Helper()
	req, err := http.NewRequest(method, d.URL+path, strings.NewReader(body))
	if err != nil {
		d.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		d.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		d.t.Fatalf("%s %s: read body: %v", method, path, err)
	}
	return resp, string(raw)
}

// expect sends one request and fails the test unless it answers status
// with a body containing every fragment.
func (d *daemon) expect(method, path, body string, status int, fragments ...string) (*http.Response, string) {
	d.t.Helper()
	resp, got := d.do(method, path, body)
	if resp.StatusCode != status {
		d.t.Fatalf("%s %s = %d %s, want %d", method, path, resp.StatusCode, got, status)
	}
	for _, f := range fragments {
		if !strings.Contains(got, f) {
			d.t.Fatalf("%s %s = %s, want it to contain %s", method, path, got, f)
		}
	}
	return resp, got
}

// persistence fetches and decodes /debug/persistence.
func (d *daemon) persistence() server.PersistenceStatus {
	d.t.Helper()
	_, body := d.expect(http.MethodGet, "/debug/persistence", "", http.StatusOK)
	var st server.PersistenceStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		d.t.Fatalf("decode persistence: %v", err)
	}
	return st
}

// waitConverged waits until the follower holds the primary's log
// position and bit-identical state.
func waitConverged(t *testing.T, follower, primary *daemon) {
	t.Helper()
	want := primary.persistence()
	deadline := time.Now().Add(patience)
	for {
		got := follower.persistence()
		if got.NextLSN == want.NextLSN && got.StateSHA256 == want.StateSHA256 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged: next_lsn %d sha %s, primary next_lsn %d sha %s",
				got.NextLSN, got.StateSHA256, want.NextLSN, want.StateSHA256)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// threeWorkers is the registration the crash and replication tests share.
const threeWorkers = `{"workers":[
	{"id":"a","quality":0.8,"cost":3},
	{"id":"b","quality":0.7,"cost":2},
	{"id":"c","quality":0.6,"cost":1}]}`

const (
	voteC     = `{"worker_id":"c","correct":true}`
	voteBMiss = `{"worker_id":"b","correct":false}`
)

func TestDaemonServesAndShutsDownGracefully(t *testing.T) {
	d := startDaemon(t)
	d.expect(http.MethodGet, "/healthz", "", http.StatusOK, `"status":"ok"`)
	// Register a worker and select over HTTP end to end.
	d.expect(http.MethodPost, "/v1/workers",
		`{"workers":[{"id":"a","quality":0.8,"cost":1},{"id":"b","quality":0.7,"cost":1},{"id":"c","quality":0.6,"cost":1}]}`,
		http.StatusCreated)
	d.expect(http.MethodPost, "/v1/select", `{"budget":3}`, http.StatusOK, `"jq"`)
	if err := d.Stop(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
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

	d := startDaemon(t, "-pool", pool)
	if _, body := d.expect(http.MethodGet, "/v1/workers", "", http.StatusOK); strings.Count(body, `"id"`) != 5 {
		t.Fatalf("preloaded %d workers, want 5: %s", strings.Count(body, `"id"`), body)
	}
}

// TestDaemonDurableRestart boots with -data-dir, ingests into a binary
// and a multi-choice pool, stops the daemon either gracefully or with
// kill -9 mid-stream, and checks that the reboot recovers every acked
// mutation and serves selections over it.
func TestDaemonDurableRestart(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(*testing.T, *daemon)
	}{
		{"sigterm", func(t *testing.T, d *daemon) {
			if err := d.Stop(); err != nil {
				t.Fatalf("first daemon shutdown: %v", err)
			}
		}},
		{"kill-9", func(_ *testing.T, d *daemon) { d.Kill() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dataDir := filepath.Join(t.TempDir(), "data")
			d := startDaemon(t, "-data-dir", dataDir, "-snapshot-interval", "2s")
			d.expect(http.MethodPost, "/v1/workers", threeWorkers, http.StatusCreated)
			d.expect(http.MethodPost, "/v1/multi/pools", `{"name":"colors","labels":3,
				"workers":[{"id":"m0","quality":0.8,"cost":2},{"id":"m1","quality":0.65,"cost":1}]}`,
				http.StatusCreated)
			d.expect(http.MethodPost, "/v1/multi/pools/colors/votes",
				`{"events":[{"worker_id":"m0","truth":0,"vote":0},{"worker_id":"m0","truth":1,"vote":2}]}`,
				http.StatusOK)
			for i := 0; i < 40; i++ {
				d.expect(http.MethodPost, "/v1/votes", voteC, http.StatusOK)
			}
			tc.stop(t, d)

			d = startDaemon(t, "-data-dir", dataDir)
			if _, body := d.expect(http.MethodGet, "/v1/workers", "", http.StatusOK, `"votes":40`); strings.Count(body, `"id"`) != 3 {
				t.Fatalf("recovered workers = %s, want 3", body)
			}
			_, body := d.expect(http.MethodGet, "/debug/persistence", "", http.StatusOK, `"enabled":true`)
			// A graceful shutdown snapshots, so its reboot replays nothing.
			if tc.name == "sigterm" && !strings.Contains(body, `"records_replayed":0`) {
				t.Fatalf("expected snapshot-only recovery, got %s", body)
			}
			d.expect(http.MethodPost, "/v1/select", `{"budget":6}`, http.StatusOK, `"jq"`)
			// The multi-choice pool and its Dirichlet drift survived too.
			d.expect(http.MethodGet, "/v1/multi/pools/colors", "", http.StatusOK, `"votes":2`)
			d.expect(http.MethodPost, "/v1/multi/pools/colors/select", `{"budget":3}`, http.StatusOK, `"jq"`)
			if err := d.Stop(); err != nil {
				t.Fatalf("recovered daemon shutdown: %v", err)
			}
		})
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-addr"}, io.Discard); err == nil {
		t.Fatal("bad flags accepted")
	}
	if err := run(context.Background(), []string{"-pool", "/does/not/exist.json"}, io.Discard); err == nil {
		t.Fatal("missing pool file accepted")
	}
	// Every mutation now applies, then waits for a shared flush: the
	// deleted mode switch is an unknown flag.
	if err := run(context.Background(), []string{"-group-commit"}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("-group-commit = %v, want an unknown flag", err)
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

	d := startDaemon(t, "-multi-pool", pool, "-labels", "3")
	if _, body := d.expect(http.MethodGet, "/v1/multi/pools/colors", "", http.StatusOK, `"labels":3`); strings.Count(body, `"id"`) != 3 {
		t.Fatalf("preloaded pool: %s", body)
	}
	d.expect(http.MethodPost, "/v1/multi/pools/colors/select", `{"budget":5}`, http.StatusOK, `"jq"`)

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

	d := startDaemon(t, args...)
	d.expect(http.MethodPost, "/v1/multi/pools/colors/votes",
		`{"events":[{"worker_id":"m0","truth":0,"vote":1}]}`, http.StatusOK)
	if err := d.Stop(); err != nil {
		t.Fatalf("first daemon shutdown: %v", err)
	}

	// Same argv again: must boot (skipping both preloads) and keep the
	// recovered Dirichlet drift.
	d = startDaemon(t, args...)
	d.expect(http.MethodGet, "/v1/multi/pools/colors", "", http.StatusOK, `"votes":1`)
	if _, body := d.expect(http.MethodGet, "/v1/workers", "", http.StatusOK); strings.Count(body, `"id"`) != 1 {
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
// mutation may be acked after the drain banner, the daemon must exit
// zero, and the final checkpoint must land so the reboot replays nothing.
func TestDaemonShutdownUnderLoad(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "data")
	d := startDaemon(t, "-data-dir", dataDir)

	var b strings.Builder
	b.WriteString(`{"workers":[`)
	for i := 0; i < 40; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"id":"w%d","quality":%g,"cost":%d}`, i, 0.55+float64(i%40)*0.01, 1+i%3)
	}
	b.WriteString(`]}`)
	d.expect(http.MethodPost, "/v1/workers", b.String(), http.StatusCreated)
	d.expect(http.MethodPost, "/v1/votes", `{"worker_id":"w0","correct":true}`, http.StatusOK)

	// Load: distinct budgets, so every select is a cache-missing compute.
	const inflight = 16
	results := make(chan int, inflight)
	for i := 0; i < inflight; i++ {
		go func(budget int) {
			resp, err := http.Post(d.URL+"/v1/select", "application/json",
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
	// Every select is in flight once its cache lookup missed: the miss is
	// counted inside the handler, before the compute.
	wantMisses := fmt.Sprintf("juryd_cache_misses_total %d\n", inflight)
	for deadline := time.Now().Add(patience); ; {
		if _, metrics := d.expect(http.MethodGet, "/metrics", "", http.StatusOK); strings.Contains(metrics, wantMisses) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("selects never reached the cache: want %q", wantMisses)
		}
		time.Sleep(2 * time.Millisecond)
	}
	stopped := make(chan error, 1)
	go func() { stopped <- d.Stop() }()

	// Drain is active once the banner prints; from here on no mutation
	// may be acknowledged (503 while draining, connection errors after).
	d.WaitLine("juryd: shutting down")
	for i := 0; i < 20; i++ {
		resp, err := http.Post(d.URL+"/v1/votes", "application/json",
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

	for i := 0; i < inflight; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("in-flight select finished with %d, want 200", code)
		}
	}
	if err := <-stopped; err != nil {
		t.Fatalf("shutdown under load: %v", err)
	}

	// The final checkpoint landed despite the load, and only the acked
	// ingest survived.
	d = startDaemon(t, "-data-dir", dataDir)
	d.expect(http.MethodGet, "/debug/persistence", "", http.StatusOK, `"records_replayed":0`)
	d.expect(http.MethodGet, "/v1/workers/w0", "", http.StatusOK, `"votes":1`)
}

// TestDaemonShutdownIdleConnection: a client connection that never
// sends a request (http.Transport leaves such spare dials behind) must
// not turn a graceful shutdown into an error exit that skips the final
// checkpoint and the WAL close.
func TestDaemonShutdownIdleConnection(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "data")
	d := startDaemon(t, "-data-dir", dataDir, "-drain", "1s")
	idle, err := net.Dial("tcp", strings.TrimPrefix(d.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	// The listener accepts in dial order, so once this request (on a new
	// connection) is answered, the idle connection was accepted too.
	d.expect(http.MethodPost, "/v1/workers", `{"workers":[{"id":"a","quality":0.8,"cost":1}]}`, http.StatusCreated)
	if err := d.Stop(); err != nil {
		t.Fatalf("shutdown with an idle connection: %v", err)
	}
	if snaps, _ := filepath.Glob(filepath.Join(dataDir, "snapshot-*.json")); len(snaps) == 0 {
		t.Fatal("no final snapshot in the data dir")
	}
}

// TestDaemonChaosFsyncDegrades boots with the fault-injection flag and
// ingests votes one client at a time (per-record: each flush carries one
// vote) or from several clients at once (group-commit: a flush carries
// every vote staged while the previous one ran). The scripted fsync
// failure degrades the daemon to read-only, readiness flips while
// liveness, reads and metrics hold, and then the daemon either shuts
// down or is killed. The refused votes were applied before their flush
// failed, so the degraded daemon must have restored the durable prefix:
// it reads exactly the acked votes and the state_sha256 a restart
// recovers. A shutdown is a dirty close (the poisoned log cannot be
// synced) and must exit non-zero. Either way a clean reboot recovers
// exactly the acked mutations and takes writes again.
func TestDaemonChaosFsyncDegrades(t *testing.T) {
	for _, mode := range []struct {
		name    string
		clients int
	}{{"per-record", 1}, {"group-commit", 8}} {
		for _, kill := range []bool{false, true} {
			name := mode.name + "/sigterm"
			if kill {
				name = mode.name + "/kill-9"
			}
			t.Run(name, func(t *testing.T) {
				dataDir := filepath.Join(t.TempDir(), "data")
				// Sync budget 25: the registration is sync 1, and syncs
				// 2..25 each ack at least one vote before sync 26 trips the
				// injected fsync failure. One client flushes once per vote,
				// so it is acked exactly 24.
				d := startDaemon(t, "-data-dir", dataDir, "-fsync", "-chaos-fsync-after", "25")
				d.expect(http.MethodPost, "/v1/workers", threeWorkers, http.StatusCreated)
				acked := ingestUntilRefused(t, d, mode.clients)
				if acked < 24 || mode.clients == 1 && acked != 24 {
					t.Fatalf("acked %d ingests before the injected fault from %d clients, want 24 (at least 24 from several)",
						acked, mode.clients)
				}
				votes := fmt.Sprintf(`"votes":%d,`, acked)

				// Degraded: not ready, still live, reads and metrics serve.
				d.expect(http.MethodGet, "/readyz", "", http.StatusServiceUnavailable)
				d.expect(http.MethodGet, "/healthz", "", http.StatusOK, `"degraded":true`)
				d.expect(http.MethodGet, "/v1/workers/c", "", http.StatusOK, votes)
				d.expect(http.MethodPost, "/v1/select", `{"budget":6}`, http.StatusOK, `"jq"`)
				// Each refused vote counts a WAL error; one client sends one.
				// The 25 successful flushes made the registration and
				// exactly the acked votes durable.
				walErrors := "juryd_wal_errors_total "
				if mode.clients == 1 {
					walErrors += "1\n"
				}
				d.expect(http.MethodGet, "/metrics", "", http.StatusOK,
					"juryd_degraded 1\n", walErrors, "juryd_wal_batch_records_count 25\n",
					fmt.Sprintf("juryd_wal_batch_records_sum %d\n", 1+acked))
				degradedSHA := d.persistence().StateSHA256

				if kill {
					d.Kill()
				} else {
					err := d.Stop()
					if err == nil || !strings.Contains(err.Error(), "dirty close") {
						t.Fatalf("degraded shutdown = %v, want a dirty-close non-zero exit", err)
					}
					d.WaitLine("juryd: degraded at shutdown")
				}

				// Clean reboot (no fault): exactly the acked mutations, and
				// exactly the state the degraded daemon was serving.
				d = startDaemon(t, "-data-dir", dataDir)
				if got := d.persistence().StateSHA256; got != degradedSHA {
					t.Fatalf("restarted state_sha256 = %s, degraded daemon served %s", got, degradedSHA)
				}
				d.expect(http.MethodGet, "/readyz", "", http.StatusOK, `"ready":true`)
				d.expect(http.MethodGet, "/v1/workers/c", "", http.StatusOK, votes)
				d.expect(http.MethodPost, "/v1/votes", voteC, http.StatusOK, `"ingested":1`)
				if err := d.Stop(); err != nil {
					t.Fatalf("recovered daemon shutdown: %v", err)
				}
			})
		}
	}
}

// ingestUntilRefused posts voteC from clients concurrent clients, each
// until its first 503 (at most 40 votes apiece), and returns how many
// were acked. Any other status or a transport error fails the test.
func ingestUntilRefused(t *testing.T, d *daemon, clients int) int {
	t.Helper()
	acked := make(chan int, clients)
	errs := make(chan error, clients)
	for range clients {
		go func() {
			n := 0
			defer func() { acked <- n }()
			for range 40 {
				resp, err := http.Post(d.URL+"/v1/votes", "application/json", strings.NewReader(voteC))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					n++
				case http.StatusServiceUnavailable:
					return
				default:
					errs <- fmt.Errorf("ingest: status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	total := 0
	for range clients {
		total += <-acked
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	return total
}

// TestDaemonFollowerReplicates boots a durable primary and a -follow
// replica: the follower bootstraps, is killed with kill -9 mid-stream
// while the primary keeps taking writes, restarts from its own journal,
// converges to the primary's state fingerprint, serves reads, and
// bounces mutations to the primary with a 421.
func TestDaemonFollowerReplicates(t *testing.T) {
	pDir, fDir := t.TempDir(), t.TempDir()
	p := startDaemon(t, "-data-dir", pDir)
	p.expect(http.MethodPost, "/v1/workers", threeWorkers, http.StatusCreated)
	for i := 0; i < 10; i++ {
		p.expect(http.MethodPost, "/v1/votes/batch",
			`{"events":[{"worker_id":"a","correct":true},{"worker_id":"b","correct":false}]}`, http.StatusOK)
	}

	followArgs := []string{"-data-dir", fDir, "-follow", p.URL, "-max-lag", "5s"}
	f := startDaemon(t, followArgs...)
	// 25 votes while the stream is live, then a replica crash, which
	// must lose nothing the follower journaled; 25 more while it is down.
	for i := 0; i < 25; i++ {
		p.expect(http.MethodPost, "/v1/votes", voteC, http.StatusOK)
	}
	f.Kill()
	for i := 0; i < 25; i++ {
		p.expect(http.MethodPost, "/v1/votes", voteBMiss, http.StatusOK)
	}
	f = startDaemon(t, followArgs...)

	// Mutations answer 421 naming the primary.
	resp, _ := f.expect(http.MethodPost, "/v1/votes", voteC, http.StatusMisdirectedRequest)
	if got := resp.Header.Get(server.PrimaryHeader); got != p.URL {
		t.Fatalf("%s = %q, want %q", server.PrimaryHeader, got, p.URL)
	}
	waitConverged(t, f, p)
	if st := f.persistence(); st.Repl == nil || st.Repl.Primary == "" {
		t.Fatalf("converged follower reports no repl status: %+v", st)
	}
	// The converged replica serves the replicated reads and is ready.
	f.expect(http.MethodGet, "/v1/workers", "", http.StatusOK, `"votes":25`)
	f.expect(http.MethodPost, "/v1/select", `{"budget":6}`, http.StatusOK, `"jq"`)
	f.expect(http.MethodGet, "/readyz", "", http.StatusOK, `"ready":true`)
	f.expect(http.MethodGet, "/metrics", "", http.StatusOK, "juryd_repl_connected 1\n")

	// The drain ends the follower's parked poll, so the primary stops
	// cleanly with its follower still attached.
	if err := p.Stop(); err != nil {
		t.Fatalf("primary shutdown: %v", err)
	}
	if err := f.Stop(); err != nil {
		t.Fatalf("follower shutdown: %v", err)
	}
}

// TestDaemonFailover is the three-node failover: a -quorum 2 primary
// acks 50 votes, dies by kill -9, `juryd -promote` promotes one follower
// (warning that the dead primary could not be fenced) and the other is
// repointed at it. The new primary holds every acked vote and takes
// writes under epoch 2. The old primary comes back believing it is
// primary, takes the fence, refuses writes, and stays fenced across
// another kill -9 because fence.json is durable.
func TestDaemonFailover(t *testing.T) {
	pDir := t.TempDir()
	p := startDaemon(t, "-data-dir", pDir, "-quorum", "2")
	a := startDaemon(t, "-data-dir", t.TempDir(), "-follow", p.URL)
	b := startDaemon(t, "-data-dir", t.TempDir(), "-follow", p.URL)
	// Under -quorum 2 every 200 proves the record is on the primary and
	// confirmed applied by a follower.
	p.expect(http.MethodPost, "/v1/workers", threeWorkers, http.StatusCreated)
	for i := 0; i < 50; i++ {
		p.expect(http.MethodPost, "/v1/votes", voteC, http.StatusOK)
	}
	// Both followers converge fully, so either is promotable and the
	// post-failover assertions are deterministic.
	waitConverged(t, a, p)
	waitConverged(t, b, p)

	p.Kill()
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-promote", a.URL, "-advertise", a.URL}, &out); err != nil {
		t.Fatalf("juryd -promote: %v", err)
	}
	for _, want := range []string{
		"promoted " + a.URL + " to primary (epoch 2",
		"WARNING: old primary " + p.URL + " unreachable",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("juryd -promote printed %q, want %q", out.String(), want)
		}
	}
	b.expect(http.MethodPost, "/v1/repl/repoint", `{"primary":"`+a.URL+`"}`, http.StatusOK)

	// The new primary holds every acked vote, serves writes under epoch 2,
	// and the repointed follower converges to it.
	a.expect(http.MethodGet, "/v1/workers", "", http.StatusOK, `"votes":50`)
	if resp, _ := a.expect(http.MethodGet, "/healthz", "", http.StatusOK); resp.Header.Get(server.EpochHeader) != "2" {
		t.Fatalf("%s = %q after promotion, want 2", server.EpochHeader, resp.Header.Get(server.EpochHeader))
	}
	a.expect(http.MethodPost, "/v1/votes", voteBMiss, http.StatusOK, `"ingested":1`)
	waitConverged(t, b, a)

	// The old primary resurrects believing it is still primary (the
	// promote-time fence could not land on a dead process); the operator
	// contract is to deliver the fence before it serves.
	p = startDaemon(t, "-data-dir", pDir)
	p.expect(http.MethodPost, "/v1/repl/fence", `{"epoch":2,"primary":"`+a.URL+`"}`, http.StatusOK, `"fenced":true`)
	resp, _ := p.expect(http.MethodPost, "/v1/votes", voteC, http.StatusMisdirectedRequest)
	if got := resp.Header.Get(server.PrimaryHeader); got != a.URL {
		t.Fatalf("fenced %s = %q, want %q", server.PrimaryHeader, got, a.URL)
	}
	p.expect(http.MethodGet, "/readyz", "", http.StatusServiceUnavailable)
	// The fence survives another hard crash.
	p.Kill()
	if _, err := os.Stat(filepath.Join(pDir, "fence.json")); err != nil {
		t.Fatalf("fence marker: %v", err)
	}
	p = startDaemon(t, "-data-dir", pDir)
	p.expect(http.MethodPost, "/v1/votes", voteC, http.StatusMisdirectedRequest)
	// No write leaked through the fenced node into the acked count.
	a.expect(http.MethodGet, "/v1/workers", "", http.StatusOK, `"votes":50`)

	for _, d := range []*daemon{b, a, p} {
		if err := d.Stop(); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	}
}

// TestRunPromote drives the -promote one-shot against live nodes: with
// the old primary alive the promotion fences it, promoting the new
// primary again reports it is already primary, and a promotion the node
// refuses makes run fail, which main turns into a non-zero exit.
func TestRunPromote(t *testing.T) {
	p := startDaemon(t, "-data-dir", t.TempDir())
	f := startDaemon(t, "-data-dir", t.TempDir(), "-follow", p.URL)
	p.expect(http.MethodPost, "/v1/workers", threeWorkers, http.StatusCreated)
	waitConverged(t, f, p)

	var out bytes.Buffer
	if err := run(context.Background(), []string{"-promote", f.URL, "-advertise", f.URL}, &out); err != nil {
		t.Fatalf("juryd -promote: %v", err)
	}
	if want := "promoted " + f.URL + " to primary (epoch 2"; !strings.Contains(out.String(), want) ||
		!strings.Contains(out.String(), "old primary "+p.URL+" fenced") {
		t.Fatalf("juryd -promote printed %q, want %q and the old primary fenced", out.String(), want)
	}
	resp, _ := p.expect(http.MethodPost, "/v1/votes", voteC, http.StatusMisdirectedRequest)
	if got := resp.Header.Get(server.PrimaryHeader); got != f.URL {
		t.Fatalf("fenced %s = %q, want %q", server.PrimaryHeader, got, f.URL)
	}

	out.Reset()
	if err := run(context.Background(), []string{"-promote", f.URL}, &out); err != nil {
		t.Fatalf("second juryd -promote: %v", err)
	}
	if want := f.URL + " is already primary (epoch 2"; !strings.Contains(out.String(), want) {
		t.Fatalf("second juryd -promote printed %q, want %q", out.String(), want)
	}

	refusing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"server: cannot promote a degraded follower"}`, http.StatusServiceUnavailable)
	}))
	defer refusing.Close()
	err := run(context.Background(), []string{"-promote", refusing.URL}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "503") || !strings.Contains(err.Error(), "degraded follower") {
		t.Fatalf("refused promote = %v, want an error naming the 503 and its cause", err)
	}

	for _, d := range []*daemon{f, p} {
		if err := d.Stop(); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
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
	p := startDaemon(t, "-data-dir", pDir, "-quorum", "3", "-quorum-timeout", "3s")
	f := startDaemon(t, "-data-dir", fDir, "-follow", p.URL)
	idBefore, err := os.ReadFile(filepath.Join(fDir, "follower-id"))
	if err != nil {
		t.Fatalf("follower kept no identity: %v", err)
	}

	status := make(chan int, 1)
	go func() {
		resp, err := http.Post(p.URL+"/v1/workers", "application/json",
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
	for st := f.persistence(); st.Repl == nil || st.Repl.AppliedLSN < 1; st = f.persistence() {
		if time.Now().After(deadline) {
			t.Fatalf("follower never applied the write: %+v", st.Repl)
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)
	if err := f.Stop(); err != nil {
		t.Fatalf("follower shutdown: %v", err)
	}
	f = startDaemon(t, "-data-dir", fDir, "-follow", p.URL)

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

	for _, d := range []*daemon{f, p} {
		if err := d.Stop(); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
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

// TestDaemonBootRecoveryFailureDiagnosis makes recovery impossible (a
// snapshot pointing past a vanished WAL) and checks the daemon refuses
// to boot with a single diagnostic line instead of serving bad state.
func TestDaemonBootRecoveryFailureDiagnosis(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "data")
	d := startDaemon(t, "-data-dir", dataDir)
	d.expect(http.MethodPost, "/v1/workers", `{"workers":[{"id":"a","quality":0.8,"cost":1}]}`, http.StatusCreated)
	if err := d.Stop(); err != nil {
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
