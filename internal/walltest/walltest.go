// Package walltest is the crash-recovery test harness for the durable
// juryd server. A test scripts a mutation sequence, drives it over HTTP
// against a durable server, simulates a crash — optionally tearing the
// WAL tail at a chosen byte offset, the way kill -9 mid-write would —
// recovers a fresh server from the surviving files, and asserts the
// recovered state is bit-identical to a reference obtained by replaying
// the same script into a plain in-memory server: the full state dump
// (posteriors included), the pool signature, and the selection responses
// (hence the selection-cache keys) must all match exactly.
package walltest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/server"
	"repro/jury/serve"
)

// Env is one running server (durable or in-memory reference) plus the
// HTTP plumbing the scripts drive it through.
type Env struct {
	t      testing.TB
	Dir    string // data dir; "" for an in-memory reference
	Srv    *server.Server
	HTTP   *httptest.Server
	Client *serve.Client
}

// BaseConfig is the durable server configuration the harness uses; tests
// tweak SegmentBytes to force rotation.
func BaseConfig(dir string) server.Config {
	return server.Config{Alpha: 0.5, Seed: 1, DataDir: dir}
}

// Start opens a server under cfg (durable when cfg.DataDir is set,
// recovering whatever the directory holds) and serves it over HTTP.
func Start(t testing.TB, cfg server.Config) *Env {
	t.Helper()
	srv, err := server.Open(cfg)
	if err != nil {
		t.Fatalf("walltest: open server: %v", err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return &Env{t: t, Dir: cfg.DataDir, Srv: srv, HTTP: hs, Client: serve.NewClient(hs.URL)}
}

// Crash simulates kill -9: stop serving and drop the WAL handle with no
// final snapshot. The on-disk state is exactly what the journal held.
func (e *Env) Crash() {
	e.t.Helper()
	e.HTTP.Close()
	if err := e.Srv.ClosePersistence(); err != nil {
		e.t.Fatalf("walltest: crash: %v", err)
	}
}

// Step is one scripted mutation.
type Step func(e *Env) error

// Drive applies the script in order, failing the test on any step error,
// and returns the byte size of the newest WAL segment after each step —
// the offsets Tear targets to cut mid-record.
func (e *Env) Drive(script []Step) []int64 {
	e.t.Helper()
	offsets := make([]int64, len(script))
	for i, step := range script {
		if err := step(e); err != nil {
			e.t.Fatalf("walltest: step %d: %v", i, err)
		}
		if e.Dir != "" {
			_, offsets[i] = TailSegment(e.t, e.Dir)
		}
	}
	return offsets
}

// Reference replays script[:n] into a fresh in-memory server built from
// cfg with durability stripped.
func Reference(t testing.TB, cfg server.Config, script []Step, n int) *Env {
	t.Helper()
	cfg.DataDir = ""
	env := Start(t, cfg)
	env.Drive(script[:n])
	return env
}

// TailSegment returns the path and size of the newest WAL segment in
// dir. Fixed-width hex names make lexical order equal LSN order.
func TailSegment(t testing.TB, dir string) (string, int64) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("walltest: no WAL segments in %s (err %v)", dir, err)
	}
	sort.Strings(paths)
	last := paths[len(paths)-1]
	st, err := os.Stat(last)
	if err != nil {
		t.Fatalf("walltest: stat %s: %v", last, err)
	}
	return last, st.Size()
}

// Tear truncates the newest WAL segment to the absolute byte size — the
// kill-at-byte-offset primitive of the harness.
func Tear(t testing.TB, dir string, size int64) {
	t.Helper()
	path, cur := TailSegment(t, dir)
	if size > cur {
		t.Fatalf("walltest: tear to %d beyond segment size %d", size, cur)
	}
	if err := os.Truncate(path, size); err != nil {
		t.Fatalf("walltest: truncate %s: %v", path, err)
	}
}

// CopyDir clones a data directory (flat: segments and snapshots), so one
// mutation run can be torn at several offsets.
func CopyDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatalf("walltest: read %s: %v", src, err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatalf("walltest: copy %s: %v", e.Name(), err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatalf("walltest: copy %s: %v", e.Name(), err)
		}
	}
	return dst
}

// AssertSameState asserts want and got hold bit-identical durable state:
// the full JSON state dump (Beta posteriors, session log-odds bits, id
// counters), the pool signature, and — the selection cache's
// consistency token — identical selection responses for a probe sweep,
// so every cache key the recovered server constructs matches the
// reference's.
func AssertSameState(t testing.TB, want, got *Env) {
	t.Helper()
	dw, err := want.Srv.DebugState()
	if err != nil {
		t.Fatalf("walltest: reference DebugState: %v", err)
	}
	dg, err := got.Srv.DebugState()
	if err != nil {
		t.Fatalf("walltest: recovered DebugState: %v", err)
	}
	if !bytes.Equal(dw, dg) {
		t.Fatalf("walltest: state dumps differ\nreference: %s\nrecovered: %s", dw, dg)
	}
	ctx := context.Background()
	lw, err := want.Client.Workers(ctx)
	if err != nil {
		t.Fatalf("walltest: reference Workers: %v", err)
	}
	lg, err := got.Client.Workers(ctx)
	if err != nil {
		t.Fatalf("walltest: recovered Workers: %v", err)
	}
	if lw.Signature != lg.Signature {
		t.Fatalf("walltest: pool signatures differ: reference %q, recovered %q",
			lw.Signature, lg.Signature)
	}
	assertSameMultiState(t, want, got)
	if len(lw.Workers) == 0 {
		return // nothing to select over
	}
	for _, budget := range []float64{0, 3, 7.5, 1e9} {
		rw, errW := want.Client.Select(ctx, serve.SelectRequest{Budget: budget})
		rg, errG := got.Client.Select(ctx, serve.SelectRequest{Budget: budget})
		if (errW == nil) != (errG == nil) {
			t.Fatalf("walltest: select(budget %v) errors differ: %v vs %v", budget, errW, errG)
		}
		if errW != nil {
			continue
		}
		rw.Cached, rg.Cached = false, false
		if rw.Signature != rg.Signature {
			t.Fatalf("walltest: select(budget %v) signatures differ: %q vs %q",
				budget, rw.Signature, rg.Signature)
		}
		if math.Float64bits(rw.JQ) != math.Float64bits(rg.JQ) {
			t.Fatalf("walltest: select(budget %v) JQ differs: %v vs %v", budget, rw.JQ, rg.JQ)
		}
		if fmt.Sprint(rw.Jury) != fmt.Sprint(rg.Jury) {
			t.Fatalf("walltest: select(budget %v) juries differ:\n%v\n%v", budget, rw.Jury, rg.Jury)
		}
	}
}

// assertSameMultiState compares the multi-choice pools of two servers:
// pool inventory and signatures (which name the persisted mutation
// count), plus a multi-select probe per pool so the recovered server
// constructs exactly the reference's cache keys and juries.
func assertSameMultiState(t testing.TB, want, got *Env) {
	t.Helper()
	ctx := context.Background()
	pw, err := want.Client.MultiPools(ctx)
	if err != nil {
		t.Fatalf("walltest: reference MultiPools: %v", err)
	}
	pg, err := got.Client.MultiPools(ctx)
	if err != nil {
		t.Fatalf("walltest: recovered MultiPools: %v", err)
	}
	if fmt.Sprint(pw) != fmt.Sprint(pg) {
		t.Fatalf("walltest: multi pools differ:\nreference: %v\nrecovered: %v", pw, pg)
	}
	for _, pool := range pw {
		if pool.Workers == 0 {
			continue
		}
		for _, budget := range []float64{0, 4, 1e9} {
			rw, errW := want.Client.MultiSelect(ctx, pool.Name, serve.MultiSelectRequest{Budget: budget})
			rg, errG := got.Client.MultiSelect(ctx, pool.Name, serve.MultiSelectRequest{Budget: budget})
			if (errW == nil) != (errG == nil) {
				t.Fatalf("walltest: multi select(%s, budget %v) errors differ: %v vs %v",
					pool.Name, budget, errW, errG)
			}
			if errW != nil {
				continue
			}
			rw.Cached, rg.Cached = false, false
			if rw.Signature != rg.Signature {
				t.Fatalf("walltest: multi select(%s, budget %v) signatures differ: %q vs %q",
					pool.Name, budget, rw.Signature, rg.Signature)
			}
			if math.Float64bits(rw.JQ) != math.Float64bits(rg.JQ) {
				t.Fatalf("walltest: multi select(%s, budget %v) JQ differs: %v vs %v",
					pool.Name, budget, rw.JQ, rg.JQ)
			}
			if fmt.Sprint(rw.Jury) != fmt.Sprint(rg.Jury) {
				t.Fatalf("walltest: multi select(%s, budget %v) juries differ:\n%v\n%v",
					pool.Name, budget, rw.Jury, rg.Jury)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Step constructors.

// Register adds workers.
func Register(specs ...serve.WorkerSpec) Step {
	return func(e *Env) error {
		return e.Client.RegisterWorkers(context.Background(), specs)
	}
}

// Ingest feeds one batch of graded vote events. The Idempotency-Key is
// drawn once at construction, so driving the same Step into the durable
// run and the in-memory reference journals identical records — the
// dedup-key state is part of the bit-exact recovery contract.
func Ingest(events ...serve.VoteEvent) Step {
	key := serve.NewIdempotencyKey()
	return func(e *Env) error {
		_, err := e.Client.IngestVotesKeyed(context.Background(), events, key)
		return err
	}
}

// Update replaces one worker's quality and cost.
func Update(spec serve.WorkerSpec) Step {
	return func(e *Env) error {
		_, err := e.Client.UpdateWorker(context.Background(), spec)
		return err
	}
}

// Remove deregisters one worker.
func Remove(id string) Step {
	return func(e *Env) error {
		return e.Client.RemoveWorker(context.Background(), id)
	}
}

// OpenSession opens an online collection session (ids are assigned
// sequentially: s1, s2, ... within one server).
func OpenSession(req serve.SessionRequest) Step {
	return func(e *Env) error {
		_, err := e.Client.OpenSession(context.Background(), req)
		return err
	}
}

// SessionVote feeds one vote into a session. Conflict replies (session
// already done, vote over budget) are tolerated — they are deterministic,
// so reference and recovered runs agree on them — which lets random
// scripts vote blindly.
func SessionVote(sessionID, workerID string, vote int) Step {
	return func(e *Env) error {
		_, err := e.Client.SessionVote(context.Background(), sessionID, workerID, vote)
		var apiErr *serve.APIError
		if errors.As(err, &apiErr) && apiErr.Status == 409 {
			return nil
		}
		return err
	}
}

// CloseSession removes a session.
func CloseSession(id string) Step {
	return func(e *Env) error {
		return e.Client.CloseSession(context.Background(), id)
	}
}

// Snapshot checkpoints the durable server's state (no-op on the
// in-memory reference, so scripts containing it replay cleanly).
func Snapshot() Step {
	return func(e *Env) error {
		return e.Srv.SnapshotNow()
	}
}

// CreateMultiPool creates a multi-choice pool.
func CreateMultiPool(req serve.MultiCreateRequest) Step {
	return func(e *Env) error {
		_, err := e.Client.CreateMultiPool(context.Background(), req)
		return err
	}
}

// RegisterMulti adds confusion-matrix workers to an existing pool.
func RegisterMulti(pool string, specs ...serve.MultiWorkerSpec) Step {
	return func(e *Env) error {
		_, err := e.Client.RegisterMultiWorkers(context.Background(), pool, specs)
		return err
	}
}

// MultiIngest feeds one batch of graded multi-label vote events, under
// one construction-time Idempotency-Key (see Ingest).
func MultiIngest(pool string, events ...serve.MultiVoteEvent) Step {
	key := serve.NewIdempotencyKey()
	return func(e *Env) error {
		_, err := e.Client.IngestMultiVotesKeyed(context.Background(), pool, events, key)
		return err
	}
}

// DropMultiPool deletes a pool.
func DropMultiPool(name string) Step {
	return func(e *Env) error {
		return e.Client.DropMultiPool(context.Background(), name)
	}
}
