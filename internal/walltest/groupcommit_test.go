package walltest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wal/errfs"
	"repro/jury/serve"
)

// fsyncConfig is BaseConfig with every flush synced.
func fsyncConfig(dir string) server.Config {
	cfg := BaseConfig(dir)
	cfg.Fsync = true
	return cfg
}

// waitNextLSN polls the durable server until its WAL has reserved LSNs up
// to next-1 — the signal that concurrent mutators have staged their
// records, whether or not those records are durable yet.
func waitNextLSN(t testing.TB, e *Env, next uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := e.Srv.PersistenceStatus(); st.NextLSN >= next {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("walltest: WAL never reached next LSN %d (at %d)",
				next, e.Srv.PersistenceStatus().NextLSN)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosGroupCommitFaultMidBatch is the failed-flush story: a batch
// leader's fsync is held at a gate while a binary ingest, a multi-choice
// ingest and a session vote stage behind it — each applied in memory
// before its flush — then the flush fails with the unsynced tail dropped
// (power loss). Every waiter in the batch, leader and followers alike,
// must be refused with 503, and the degraded server must already serve
// exactly the acked prefix: the restore rolled back all three stores.
// Recovery must hold that same prefix. Because the votes were never
// acked, their idempotency keys must not survive either — a
// post-recovery retry applies for real.
func TestChaosGroupCommitFaultMidBatch(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	// Syncs #1-#3 are the setup's flushes and pass; sync #4 is the batch
	// under test: gated, then failed with the tail dropped.
	env, fsys := StartFaulty(t, fsyncConfig(dir), errfs.Fault{
		Op: errfs.OpSync, Path: "wal-", After: 3, Times: 1,
		Gate: gate, DropUnsynced: true, Err: errfs.ErrInjected,
	})
	var opened sync.Once
	release := func() { opened.Do(func() { close(gate) }) }
	t.Cleanup(release) // before the HTTP server's: a failed check must not hang it

	setup := []Step{
		Register(
			serve.WorkerSpec{ID: "ann", Quality: 0.9, Cost: 4},
			serve.WorkerSpec{ID: "bob", Quality: 0.7, Cost: 2},
			serve.WorkerSpec{ID: "cam", Quality: 0.6, Cost: 1},
		),
		CreateMultiPool(serve.MultiCreateRequest{Name: "colors", Labels: 3,
			Workers: []serve.MultiWorkerSpec{{ID: "m0", Quality: q(0.8), Cost: 2}}}),
		OpenSession(serve.SessionRequest{Confidence: 0.95, Budget: 40}),
	}
	env.Drive(setup)

	// The leader ingest: its commit leads the gated flush.
	leaderStep := Ingest(serve.VoteEvent{WorkerID: "ann", Correct: true})
	leaderErr := make(chan error, 1)
	go func() { leaderErr <- leaderStep(env) }()
	waitForInjection(t, fsys, 1) // the leader is inside its held fsync

	// Followers from all three stores stage into the next batch while the
	// leader's flush is pinned; their LSNs are reserved before the gate
	// opens. SessionVote tolerates 409s, so the vote goes through the
	// client directly.
	followerSteps := []Step{
		Ingest(serve.VoteEvent{WorkerID: "bob", Correct: false}),
		MultiIngest("colors", serve.MultiVoteEvent{WorkerID: "m0", Truth: 1, Vote: 1}),
		func(e *Env) error {
			_, err := e.Client.SessionVote(context.Background(), "s1", "cam", 1)
			return err
		},
	}
	followerErrs := make(chan error, len(followerSteps))
	var wg sync.WaitGroup
	for i, step := range followerSteps {
		wg.Add(1)
		go func(step Step) {
			defer wg.Done()
			followerErrs <- step(env)
		}(step)
		// setup=1..3, leader=4, followers 5.. staged in order
		waitNextLSN(t, env, uint64(len(setup)+2+i+1))
	}
	release()

	for i := 0; i < 1+len(followerSteps); i++ {
		var err error
		if i == 0 {
			err = <-leaderErr
		} else {
			err = <-followerErrs
		}
		var apiErr *serve.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
			t.Fatalf("batched mutation %d = %v, want 503 (nothing in the failed batch may be acked)", i, err)
		}
	}
	wg.Wait()
	AssertDegradedReads(t, env)
	// Degraded, the server already serves exactly the acked prefix.
	reference := Reference(t, BaseConfig(dir), setup, len(setup))
	AssertSameState(t, reference, env)
	AssertRestored(t, env)
	env.CrashDirty()

	// Recovery: exactly the acked prefix.
	recovered := Start(t, BaseConfig(dir))
	AssertSameState(t, reference, recovered)

	// The unacked votes' idempotency keys died with their records: the
	// same keyed step re-delivered now must apply, not dedup.
	if err := leaderStep(recovered); err != nil {
		t.Fatalf("post-recovery retry of the unacked ingest: %v", err)
	}
	w, err := recovered.Client.Worker(context.Background(), "ann")
	if err != nil {
		t.Fatal(err)
	}
	if w.Votes != 1 {
		t.Fatalf("ann has %d votes after retrying the unacked ingest, want 1", w.Votes)
	}
}

// waitForInjection polls the injector until n faults have fired — the
// cross-goroutine signal that a gated sync has been entered.
func waitForInjection(t testing.TB, fsys *errfs.FS, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for fsys.Injected() < n {
		if time.Now().After(deadline) {
			t.Fatalf("walltest: injector never fired %d faults (at %d)", n, fsys.Injected())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosGroupCommitSequentialFaultRecoversAckedPrefix cuts the
// classic fsync-failure chaos script with sequential callers. A caller
// that waits for its ack before sending the next step never shares a
// flush, so every successful flush carries exactly one record and the
// After-N fault cuts at a step boundary: the batch-size histogram counts
// one single-record flush per acked step, the degraded server already
// serves the reference state of the acked prefix, and recovery lands on
// that same state.
func TestChaosGroupCommitSequentialFaultRecoversAckedPrefix(t *testing.T) {
	dir := t.TempDir()
	script := chaosScript()
	env, _ := StartFaulty(t, BaseConfig(dir),
		errfs.Fault{Op: errfs.OpSync, Path: "wal-", After: 3, DropUnsynced: true})

	acked := env.DriveToFailure(script)
	if acked != 3 {
		t.Fatalf("acked %d steps, want 3 (register + 2 ingests)", acked)
	}
	metrics := metricsText(t, env)
	for _, want := range []string{
		fmt.Sprintf("juryd_wal_batch_records_bucket{le=\"1\"} %d\n", acked),
		fmt.Sprintf("juryd_wal_batch_records_count %d\n", acked),
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics lacks %q: each acked sequential step must flush alone", want)
		}
	}
	AssertDegradedReads(t, env)
	reference := Reference(t, BaseConfig(dir), script, acked)
	AssertSameState(t, reference, env)
	env.CrashDirty()

	recovered := Start(t, BaseConfig(dir))
	AssertSameState(t, reference, recovered)
}

// metricsText fetches the env's /metrics exposition.
func metricsText(t testing.TB, e *Env) string {
	t.Helper()
	resp, err := http.Get(e.HTTP.URL + "/metrics")
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

// TestPropertyGroupCommitReplayEqualsPerRecord drives one script — the
// same Step values, so the same idempotency keys — through two durable
// servers: sequentially (one record per flush) and with its first steps
// sent concurrently while the first flush is held, so their records
// share one batch. It crashes both and demands the WAL directories hold
// byte-identical segment files and the recovered states match
// bit-exactly: the layout depends only on the record sequence.
func TestPropertyGroupCommitReplayEqualsPerRecord(t *testing.T) {
	script := append(chaosScript(),
		Update(serve.WorkerSpec{ID: "bob", Quality: 0.75, Cost: 2}),
		Ingest(
			serve.VoteEvent{WorkerID: "ann", Correct: true},
			serve.VoteEvent{WorkerID: "cam", Correct: false},
		),
		Remove("cam"),
	)
	const held = 2 // steps 2..3 stage behind step 1's held flush

	seqDir, batchDir := t.TempDir(), t.TempDir()
	seqCfg := fsyncConfig(seqDir)
	seqCfg.SegmentBytes = 512 // force rotations through both runs
	seqEnv := Start(t, seqCfg)
	seqEnv.Drive(script)
	seqEnv.Crash()

	gate := make(chan struct{})
	batchCfg := BaseConfig(batchDir)
	batchCfg.SegmentBytes = 512
	batchEnv, fsys := StartFaulty(t, batchCfg,
		errfs.Fault{Op: errfs.OpSync, Path: "wal-", Times: 1, Gate: gate})
	var opened sync.Once
	release := func() { opened.Do(func() { close(gate) }) }
	t.Cleanup(release) // before the HTTP server's: a failed check must not hang it
	errs := make(chan error, 1+held)
	for i, step := range script[:1+held] {
		go func(step Step) { errs <- step(batchEnv) }(step)
		if i == 0 {
			waitForInjection(t, fsys, 1) // step 1 leads the held flush
		} else {
			waitNextLSN(t, batchEnv, uint64(i+2)) // staged in script order
		}
	}
	release()
	for range 1 + held {
		if err := <-errs; err != nil {
			t.Fatalf("batched step: %v", err)
		}
	}
	batchEnv.Drive(script[1+held:])
	// One flush per step, except that the held steps share one.
	if want := fmt.Sprintf("juryd_wal_batch_records_count %d\n", len(script)-held+1); !strings.Contains(metricsText(t, batchEnv), want) {
		t.Fatalf("/metrics lacks %q: the %d steps staged behind the held flush must share one", want, held)
	}
	batchEnv.Crash()

	seqSegs := segmentFiles(t, seqDir)
	batchSegs := segmentFiles(t, batchDir)
	if len(seqSegs) != len(batchSegs) || len(seqSegs) < 2 {
		t.Fatalf("segment counts differ (or no rotation): sequential %d, batched %d",
			len(seqSegs), len(batchSegs))
	}
	for i := range seqSegs {
		if filepath.Base(seqSegs[i]) != filepath.Base(batchSegs[i]) {
			t.Fatalf("segment %d named %s vs %s", i,
				filepath.Base(seqSegs[i]), filepath.Base(batchSegs[i]))
		}
		a, err := os.ReadFile(seqSegs[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(batchSegs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("segment %s differs between the sequential and batched runs",
				filepath.Base(seqSegs[i]))
		}
	}

	recoveredSeq := Start(t, BaseConfig(seqDir))
	recoveredBatch := Start(t, BaseConfig(batchDir))
	AssertSameState(t, recoveredSeq, recoveredBatch)
	reference := Reference(t, BaseConfig(seqDir), script, len(script))
	AssertSameState(t, reference, recoveredBatch)
}

// segmentFiles lists dir's WAL segments in LSN order.
func segmentFiles(t testing.TB, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("walltest: no WAL segments in %s (err %v)", dir, err)
	}
	sort.Strings(paths)
	return paths
}

// TestChaosGroupCommitConcurrentLoadRecovers hammers an -fsync server
// with concurrent keyed ingests (no faults), crashes it, and
// checks the recovered vote totals equal exactly what was acked — the
// durability watermark must never ack a record a clean replay cannot
// produce.
func TestChaosGroupCommitConcurrentLoadRecovers(t *testing.T) {
	dir := t.TempDir()
	env := Start(t, fsyncConfig(dir))
	register := Register(
		serve.WorkerSpec{ID: "ann", Quality: 0.9, Cost: 4},
		serve.WorkerSpec{ID: "bob", Quality: 0.7, Cost: 2},
	)
	if err := register(env); err != nil {
		t.Fatal(err)
	}

	const writers, perWriter = 8, 10
	var wg sync.WaitGroup
	errs := make(chan error, writers*perWriter)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				_, err := env.Client.IngestVoteKeyed(context.Background(),
					serve.VoteEvent{WorkerID: "ann", Correct: true}, serve.NewIdempotencyKey())
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	acked := 0
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent keyed ingest: %v", err)
		}
		acked++
	}
	env.Crash()

	recovered := Start(t, BaseConfig(dir))
	w, err := recovered.Client.Worker(context.Background(), "ann")
	if err != nil {
		t.Fatal(err)
	}
	if w.Votes != acked {
		t.Fatalf("recovered %d votes, want the %d acked", w.Votes, acked)
	}
}

// TestChaosGroupCommitSnapshotWhileDegraded: refused ingests are
// applied in memory before their flush fails, and the restore takes
// them back out before the server degrades. In the per-record row the
// failed flush carries one ingest; in the group-commit row it carries
// two that staged behind a held flush, after whose ingest was acked. A
// snapshot taken afterwards must still be refused with ErrDegraded (and
// counted) — a poisoned log refuses snapshots — and recovery must land
// on exactly the acked prefix instead of failing on a snapshot that
// runs past the end of the log.
func TestChaosGroupCommitSnapshotWhileDegraded(t *testing.T) {
	register := Register(
		serve.WorkerSpec{ID: "ann", Quality: 0.9, Cost: 4},
		serve.WorkerSpec{ID: "bob", Quality: 0.7, Cost: 2},
		serve.WorkerSpec{ID: "cam", Quality: 0.6, Cost: 1},
	)
	for _, tc := range []struct {
		name  string
		group bool
	}{{"per-record", false}, {"group-commit", true}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			script := []Step{register, Ingest(serve.VoteEvent{WorkerID: "ann", Correct: true})}
			var env *Env
			acked := 1
			if !tc.group {
				env, _ = StartFaulty(t, BaseConfig(dir), errfs.Fault{
					Op: errfs.OpSync, Path: "wal-", After: 1, Times: 1, DropUnsynced: true,
				})
				if got := env.DriveToFailure(script); got != acked {
					t.Fatalf("acked %d steps, want 1 (the registration)", got)
				}
			} else {
				script = append(script,
					Ingest(serve.VoteEvent{WorkerID: "bob", Correct: false}),
					Ingest(serve.VoteEvent{WorkerID: "cam", Correct: true}))
				acked = 2
				env = driveSharedFlushFailure(t, dir, script)
			}
			AssertRestored(t, env)
			if err := env.Srv.SnapshotNow(); !errors.Is(err, server.ErrDegraded) {
				t.Errorf("SnapshotNow on a degraded server = %v, want ErrDegraded", err)
			}
			if got := env.Srv.Metrics().SnapshotErrors(); got != 1 {
				t.Errorf("snapshot errors = %d, want 1", got)
			}
			env.CrashDirty()

			recovered := Start(t, BaseConfig(dir))
			reference := Reference(t, BaseConfig(dir), script, acked)
			AssertSameState(t, reference, recovered)
		})
	}
}

// driveSharedFlushFailure starts an -fsync server on dir and fails one
// flush that carries several records: script[0] is acked alone,
// script[1] leads a flush held inside its sync, every later step stages
// behind it, and once the gate opens script[1] is acked while the
// flush the later steps share fails with the unsynced tail dropped.
// Each later step must be refused with 503.
func driveSharedFlushFailure(t *testing.T, dir string, script []Step) *Env {
	t.Helper()
	gate := make(chan struct{})
	// Faults are consulted in order: sync #2 is held then passes, and
	// sync #3 fails.
	env, fsys := StartFaulty(t, BaseConfig(dir),
		errfs.Fault{Op: errfs.OpSync, Path: "wal-", After: 2, Times: 1, DropUnsynced: true},
		errfs.Fault{Op: errfs.OpSync, Path: "wal-", After: 1, Times: 1, Gate: gate},
	)
	var opened sync.Once
	release := func() { opened.Do(func() { close(gate) }) }
	t.Cleanup(release) // before the HTTP server's: a failed check must not hang it
	if err := script[0](env); err != nil {
		t.Fatalf("first step: %v", err)
	}
	leaderErr := make(chan error, 1)
	go func() { leaderErr <- script[1](env) }()
	waitForInjection(t, fsys, 1) // script[1] is inside its held sync
	errs := make(chan error, len(script)-2)
	for i, step := range script[2:] {
		go func(step Step) { errs <- step(env) }(step)
		waitNextLSN(t, env, uint64(i+4)) // staged in script order
	}
	release()
	if err := <-leaderErr; err != nil {
		t.Fatalf("held step: %v", err)
	}
	for range len(script) - 2 {
		var apiErr *serve.APIError
		if err := <-errs; !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
			t.Fatalf("step in the failed shared flush = %v, want 503", err)
		}
	}
	return env
}
