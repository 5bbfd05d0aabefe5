// Multi-node extension of the harness: primaries and followers wired by
// real HTTP log shipping (internal/repl), with the fault injectors the
// replication tests script — follower kill/restart, stream severing at
// arbitrary byte boundaries, and convergence waits. The assertion
// surface is the same AssertSameState the single-node crash tests use:
// a follower at the primary's durable LSN must be bit-identical to it.

package walltest

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/wal"
)

// FollowerEnv is one follower: a durable Env in follower mode plus its
// running stream loop.
type FollowerEnv struct {
	*Env
	// Primary is the primary base URL the loop streams from (possibly a
	// severing proxy in front of the real one).
	Primary string
	cfg     server.Config
	cancel  context.CancelFunc
	exited  chan struct{}
	err     error // loop exit error; read only after exited is closed
}

// fastOpts are repl options tuned for tests: short long-polls so
// convergence waits settle in milliseconds, short backoff so severed
// streams retry immediately.
func fastOpts() repl.Options {
	return repl.Options{
		Wait:       150 * time.Millisecond,
		MinBackoff: 2 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
	}
}

// StartFollower opens a follower of primaryURL on cfg (cfg.DataDir
// required) and starts its stream loop. The follower replicates from its
// local log position: a fresh directory streams the primary's history
// from LSN 0 — use BootstrapFollower instead when the primary has
// truncated its log.
func StartFollower(t testing.TB, cfg server.Config, primaryURL string) *FollowerEnv {
	t.Helper()
	if cfg.DataDir == "" {
		t.Fatal("walltest: StartFollower needs cfg.DataDir")
	}
	env := Start(t, cfg)
	env.Srv.SetFollower(primaryURL)
	fe := &FollowerEnv{Env: env, Primary: primaryURL, cfg: cfg}
	fe.startLoop()
	return fe
}

// BootstrapFollower is StartFollower for a follower joining from scratch:
// if the data dir holds no state it first installs the primary's
// snapshot (GET /v1/repl/snapshot) and positions the local log after it,
// then streams only the tail.
func BootstrapFollower(t testing.TB, cfg server.Config, primaryURL string) *FollowerEnv {
	t.Helper()
	has, err := wal.HasState(cfg.FS, cfg.DataDir)
	if err != nil {
		t.Fatalf("walltest: probe %s: %v", cfg.DataDir, err)
	}
	if !has {
		if _, err := repl.Bootstrap(context.Background(), cfg.FS, primaryURL, cfg.DataDir); err != nil {
			t.Fatalf("walltest: bootstrap follower: %v", err)
		}
	}
	return StartFollower(t, cfg, primaryURL)
}

func (fe *FollowerEnv) startLoop() {
	f, err := repl.NewFollower(fe.Srv, fastOpts())
	if err != nil {
		fe.t.Fatalf("walltest: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	fe.cancel = cancel
	fe.exited = make(chan struct{})
	go func() {
		fe.err = f.Run(ctx)
		close(fe.exited)
	}()
	fe.t.Cleanup(func() {
		cancel()
		<-fe.exited
	})
}

// StopStream cancels the follower's stream loop and returns its exit
// error (nil for a plain cancel). The follower keeps serving HTTP.
func (fe *FollowerEnv) StopStream() error {
	fe.t.Helper()
	fe.cancel()
	return fe.WaitDone(10 * time.Second)
}

// WaitDone waits for the loop to exit — the way terminal conditions
// (truncation horizon, divergence, local WAL failure) surface — and
// returns its exit error.
func (fe *FollowerEnv) WaitDone(timeout time.Duration) error {
	fe.t.Helper()
	select {
	case <-fe.exited:
		return fe.err
	case <-time.After(timeout):
		fe.t.Fatal("walltest: follower stream loop did not terminate")
		return nil
	}
}

// Kill simulates kill -9 on the follower mid-stream: sever the loop and
// abandon the process state. The data dir survives with whatever the
// local journal held; Restart recovers from it. Tests tear the WAL tail
// afterwards (Tear) to model a write cut mid-record.
func (fe *FollowerEnv) Kill() {
	fe.t.Helper()
	fe.cancel()
	select {
	case <-fe.exited:
	case <-time.After(10 * time.Second):
		fe.t.Fatal("walltest: follower stream loop did not exit on kill")
	}
	fe.CrashDirty()
}

// Restart reboots a killed follower from its surviving data dir: local
// crash recovery first (snapshot + WAL tail, torn record truncated),
// then the stream resumes from the recovered LSN.
func (fe *FollowerEnv) Restart(t testing.TB) *FollowerEnv {
	t.Helper()
	return StartFollower(t, fe.cfg, fe.Primary)
}

// WaitCaughtUp blocks until every follower's applied LSN equals the
// primary's durable watermark. Call it only at quiescent points (no
// in-flight primary mutations), where it makes "caught up" equivalent to
// "bit-identical" — which AssertConverged then asserts.
func WaitCaughtUp(t testing.TB, primary *Env, followers ...*FollowerEnv) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		target := primary.Srv.PersistenceStatus().DurableLSN
		behind := false
		for _, fe := range followers {
			if uint64(fe.Srv.AppliedLSN()) != target {
				behind = true
				break
			}
		}
		if !behind {
			return
		}
		if time.Now().After(deadline) {
			applied := make([]uint64, len(followers))
			for i, fe := range followers {
				applied[i] = uint64(fe.Srv.AppliedLSN())
			}
			t.Fatalf("walltest: followers never caught up: primary durable %d, applied %v", target, applied)
		}
		time.Sleep(3 * time.Millisecond)
	}
}

// AssertConverged waits for the followers to reach the primary's durable
// watermark and asserts each is bit-identical to it — state dump, pool
// signatures, selection probes (cache keys) and multi pools.
func AssertConverged(t testing.TB, primary *Env, followers ...*FollowerEnv) {
	t.Helper()
	WaitCaughtUp(t, primary, followers...)
	for _, fe := range followers {
		AssertSameState(t, primary, fe.Env)
	}
}

// ---------------------------------------------------------------------------
// Stream severing.

// SeveringProxy fronts a primary and truncates stream response bodies at
// byte counts chosen by cut — the injector for "the connection died at
// an arbitrary byte boundary, possibly mid-frame". Every other route
// passes through untouched.
type SeveringProxy struct {
	*httptest.Server
	target string
	cut    func(bodyLen int) int
}

// StartSeveringProxy builds the proxy; cut receives each stream body's
// length and returns how many bytes to deliver (>= len passes it whole).
func StartSeveringProxy(t testing.TB, target string, cut func(bodyLen int) int) *SeveringProxy {
	t.Helper()
	p := &SeveringProxy{target: target, cut: cut}
	p.Server = httptest.NewServer(http.HandlerFunc(p.serve))
	t.Cleanup(p.Close)
	return p
}

func (p *SeveringProxy) serve(w http.ResponseWriter, r *http.Request) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, p.target+r.URL.RequestURI(), r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	if r.URL.Path == "/v1/repl/stream" && resp.StatusCode == http.StatusOK {
		if k := p.cut(len(body)); k < len(body) {
			body = body[:k]
		}
	}
	for key, vals := range resp.Header {
		if key == "Content-Length" {
			continue // the truncated body sets its own
		}
		w.Header()[key] = vals
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}
