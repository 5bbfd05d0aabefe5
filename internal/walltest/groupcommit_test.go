package walltest

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wal/errfs"
	"repro/jury/serve"
)

// groupConfig is BaseConfig with fsync-bound group commit on.
func groupConfig(dir string) server.Config {
	cfg := BaseConfig(dir)
	cfg.Fsync = true
	cfg.GroupCommit = true
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

// TestChaosGroupCommitFaultMidBatch is the tentpole failure story: a
// batch leader's fsync is held at a gate while more keyed ingests stage
// behind it, then the flush fails with the unsynced tail dropped (power
// loss). Every waiter in the batch — leader and followers alike — must be
// refused with 503, the server must degrade, and recovery must hold
// exactly the acked prefix: the registration, none of the batched votes.
// Because the votes were never acked, their idempotency keys must not
// survive either — a post-recovery retry applies for real.
func TestChaosGroupCommitFaultMidBatch(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	// Sync #1 is the registration's flush and passes; sync #2 is the
	// batch under test: gated, then failed with the tail dropped.
	env, fsys := StartFaulty(t, groupConfig(dir), errfs.Fault{
		Op: errfs.OpSync, Path: "wal-", After: 1, Times: 1,
		Gate: gate, DropUnsynced: true, Err: errfs.ErrInjected,
	})

	register := Register(
		serve.WorkerSpec{ID: "ann", Quality: 0.9, Cost: 4},
		serve.WorkerSpec{ID: "bob", Quality: 0.7, Cost: 2},
		serve.WorkerSpec{ID: "cam", Quality: 0.6, Cost: 1},
	)
	if err := register(env); err != nil {
		t.Fatalf("register: %v", err)
	}

	// The leader ingest: its commit leads the gated flush.
	leaderStep := Ingest(serve.VoteEvent{WorkerID: "ann", Correct: true})
	leaderErr := make(chan error, 1)
	go func() { leaderErr <- leaderStep(env) }()
	waitForInjection(t, fsys, 1) // the leader is inside its held fsync

	// Two followers stage into the next batch while the leader's flush is
	// pinned; their LSNs are reserved before the gate opens.
	followerSteps := []Step{
		Ingest(serve.VoteEvent{WorkerID: "bob", Correct: false}),
		Ingest(serve.VoteEvent{WorkerID: "cam", Correct: true}),
	}
	followerErrs := make(chan error, len(followerSteps))
	var wg sync.WaitGroup
	for _, step := range followerSteps {
		wg.Add(1)
		go func(step Step) {
			defer wg.Done()
			followerErrs <- step(env)
		}(step)
	}
	waitNextLSN(t, env, 5) // register=1, leader=2, followers=3,4 staged
	close(gate)

	for i := 0; i < 1+len(followerSteps); i++ {
		var err error
		if i == 0 {
			err = <-leaderErr
		} else {
			err = <-followerErrs
		}
		var apiErr *serve.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
			t.Fatalf("batched ingest %d = %v, want 503 (nothing in the failed batch may be acked)", i, err)
		}
	}
	wg.Wait()
	AssertDegradedReads(t, env)
	env.CrashDirty()

	// Recovery: exactly the acked prefix — the registration alone.
	recovered := Start(t, BaseConfig(dir))
	reference := Reference(t, BaseConfig(dir), []Step{register}, 1)
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

// TestChaosGroupCommitSequentialFaultRecoversAckedPrefix reruns the
// classic fsync-failure chaos script with group commit on: sequential
// callers flush once per record, so the After-N fault cuts at the same
// step boundary and recovery must land on the same acked prefix as the
// per-record mode test.
func TestChaosGroupCommitSequentialFaultRecoversAckedPrefix(t *testing.T) {
	dir := t.TempDir()
	script := chaosScript()
	env, _ := StartFaulty(t, groupConfig(dir),
		errfs.Fault{Op: errfs.OpSync, Path: "wal-", After: 3, DropUnsynced: true})

	acked := env.DriveToFailure(script)
	if acked != 3 {
		t.Fatalf("acked %d steps, want 3 (register + 2 ingests)", acked)
	}
	AssertDegradedReads(t, env)
	env.CrashDirty()

	recovered := Start(t, BaseConfig(dir))
	reference := Reference(t, BaseConfig(dir), script, acked)
	AssertSameState(t, reference, recovered)
}

// TestPropertyGroupCommitReplayEqualsPerRecord drives one script — the
// same Step values, so the same idempotency keys — through a per-record
// durable server and a group-commit one, crashes both, and demands the
// recovered states match bit-exactly AND the WAL directories hold
// byte-identical segment files: for a sequential workload the batched
// path must be indistinguishable on disk.
func TestPropertyGroupCommitReplayEqualsPerRecord(t *testing.T) {
	script := append(chaosScript(),
		Update(serve.WorkerSpec{ID: "bob", Quality: 0.75, Cost: 2}),
		Ingest(
			serve.VoteEvent{WorkerID: "ann", Correct: true},
			serve.VoteEvent{WorkerID: "cam", Correct: false},
		),
		Remove("cam"),
	)

	plainDir, groupDir := t.TempDir(), t.TempDir()
	plainCfg := BaseConfig(plainDir)
	plainCfg.Fsync = true
	plainCfg.SegmentBytes = 256 // force rotations through both paths
	groupCfg := groupConfig(groupDir)
	groupCfg.SegmentBytes = 256

	plainEnv := Start(t, plainCfg)
	plainEnv.Drive(script)
	plainEnv.Crash()
	groupEnv := Start(t, groupCfg)
	groupEnv.Drive(script)
	groupEnv.Crash()

	plainSegs := segmentFiles(t, plainDir)
	groupSegs := segmentFiles(t, groupDir)
	if len(plainSegs) != len(groupSegs) || len(plainSegs) < 2 {
		t.Fatalf("segment counts differ (or no rotation): per-record %d, group %d",
			len(plainSegs), len(groupSegs))
	}
	for i := range plainSegs {
		if filepath.Base(plainSegs[i]) != filepath.Base(groupSegs[i]) {
			t.Fatalf("segment %d named %s vs %s", i,
				filepath.Base(plainSegs[i]), filepath.Base(groupSegs[i]))
		}
		a, err := os.ReadFile(plainSegs[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(groupSegs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("segment %s differs between per-record and group-commit runs",
				filepath.Base(plainSegs[i]))
		}
	}

	recoveredPlain := Start(t, BaseConfig(plainDir))
	recoveredGroup := Start(t, BaseConfig(groupDir))
	AssertSameState(t, recoveredPlain, recoveredGroup)
	reference := Reference(t, BaseConfig(plainDir), script, len(script))
	AssertSameState(t, reference, recoveredGroup)
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

// TestChaosGroupCommitConcurrentLoadRecovers hammers a group-commit
// server with concurrent keyed ingests (no faults), crashes it, and
// checks the recovered vote totals equal exactly what was acked — the
// durability watermark must never ack a record a clean replay cannot
// produce.
func TestChaosGroupCommitConcurrentLoadRecovers(t *testing.T) {
	dir := t.TempDir()
	env := Start(t, groupConfig(dir))
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

// TestChaosGroupCommitSnapshotWhileDegraded: under group commit a refused
// ingest is applied in memory before its flush fails, so a snapshot taken
// afterwards would cover an LSN the power loss dropped. The snapshot must
// be refused with ErrDegraded (and counted), and recovery must land on
// exactly the acked prefix instead of failing on a snapshot that runs
// past the end of the log. A degraded per-record server refuses the same
// way: any poisoned log refuses snapshots.
func TestChaosGroupCommitSnapshotWhileDegraded(t *testing.T) {
	for _, tc := range []struct {
		name  string
		group bool
	}{{"per-record", false}, {"group-commit", true}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := BaseConfig(dir)
			cfg.GroupCommit = tc.group // StartFaulty turns on Fsync
			env, _ := StartFaulty(t, cfg, errfs.Fault{
				Op: errfs.OpSync, Path: "wal-", After: 1, Times: 1, DropUnsynced: true,
			})
			register := Register(
				serve.WorkerSpec{ID: "ann", Quality: 0.9, Cost: 4},
				serve.WorkerSpec{ID: "bob", Quality: 0.7, Cost: 2},
			)
			script := []Step{register, Ingest(serve.VoteEvent{WorkerID: "ann", Correct: true})}
			if acked := env.DriveToFailure(script); acked != 1 {
				t.Fatalf("acked %d steps, want 1 (the registration)", acked)
			}
			if err := env.Srv.SnapshotNow(); !errors.Is(err, server.ErrDegraded) {
				t.Errorf("SnapshotNow on a degraded server = %v, want ErrDegraded", err)
			}
			if got := env.Srv.Metrics().SnapshotErrors(); got != 1 {
				t.Errorf("snapshot errors = %d, want 1", got)
			}
			env.CrashDirty()

			recovered := Start(t, BaseConfig(dir))
			reference := Reference(t, BaseConfig(dir), script, 1)
			AssertSameState(t, reference, recovered)
		})
	}
}
