package walltest

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"syscall"
	"testing"

	"repro/internal/wal/errfs"
	"repro/jury/serve"
)

// chaosScript is the scripted mutation sequence the disk faults cut
// into: one registration and five single-vote ingests, each a separate
// WAL record (and, with Fsync on, a separate fsync).
func chaosScript() []Step {
	return []Step{
		Register(
			serve.WorkerSpec{ID: "ann", Quality: 0.9, Cost: 4},
			serve.WorkerSpec{ID: "bob", Quality: 0.7, Cost: 2},
			serve.WorkerSpec{ID: "cam", Quality: 0.6, Cost: 1},
		),
		Ingest(serve.VoteEvent{WorkerID: "ann", Correct: true}),
		Ingest(serve.VoteEvent{WorkerID: "bob", Correct: false}),
		Ingest(serve.VoteEvent{WorkerID: "cam", Correct: true}),
		Ingest(serve.VoteEvent{WorkerID: "ann", Correct: true}),
		Ingest(serve.VoteEvent{WorkerID: "bob", Correct: true}),
	}
}

// AssertRestored asserts that a degraded env serves exactly the state a
// clean restart on its data dir recovers: equal state_sha256. A refused
// write was applied before its flush failed, so this holds only because
// the server restored the durable prefix before it degraded. The
// restart runs on a copy of the directory, so the env keeps serving.
func AssertRestored(t testing.TB, e *Env) {
	t.Helper()
	restarted := Start(t, BaseConfig(CopyDir(t, e.Dir)))
	defer restarted.Crash()
	got, want := e.Srv.PersistenceStatus().StateSHA256, restarted.Srv.PersistenceStatus().StateSHA256
	if got != want {
		t.Fatalf("walltest: degraded state_sha256 %s, a restart recovers %s", got, want)
	}
}

// TestChaosFsyncFailureMidIngest fails the WAL fsync mid-script, with
// the unsynced tail dropped the way power loss drops the page cache.
// Contract: the failing ingest is refused (503, server degraded), reads
// stay available and serve exactly the acked prefix, and a clean reboot
// recovers that same prefix.
func TestChaosFsyncFailureMidIngest(t *testing.T) {
	dir := t.TempDir()
	script := chaosScript()
	env, _ := StartFaulty(t, BaseConfig(dir),
		errfs.Fault{Op: errfs.OpSync, Path: "wal-", After: 3, DropUnsynced: true})

	acked := env.DriveToFailure(script)
	if acked != 3 {
		t.Fatalf("acked %d steps, want 3 (register + 2 ingests)", acked)
	}
	AssertDegradedReads(t, env)
	AssertRestored(t, env)
	env.CrashDirty()

	recovered := Start(t, BaseConfig(dir))
	reference := Reference(t, BaseConfig(dir), script, acked)
	AssertSameState(t, reference, recovered)
}

// TestChaosENOSPCDuringRotation makes segment rotation hit a full disk.
// The append that needed the new segment is refused and the server
// degrades with ENOSPC as the cause; recovery finds the acked prefix in
// the surviving segments.
func TestChaosENOSPCDuringRotation(t *testing.T) {
	dir := t.TempDir()
	script := chaosScript()
	cfg := BaseConfig(dir)
	cfg.SegmentBytes = 256 // force a rotation a few records in
	env, _ := StartFaulty(t, cfg,
		errfs.Fault{Op: errfs.OpCreate, Path: "wal-", After: 1, Err: syscall.ENOSPC})

	acked := env.DriveToFailure(script)
	if acked < 1 || acked >= len(script) {
		t.Fatalf("acked %d steps, want the fault inside the script", acked)
	}
	if _, cause := env.Srv.DegradedState(); !errors.Is(cause, syscall.ENOSPC) {
		t.Fatalf("degraded cause = %v, want ENOSPC", cause)
	}
	AssertDegradedReads(t, env)
	AssertRestored(t, env)
	env.CrashDirty()

	recovered := Start(t, BaseConfig(dir))
	reference := Reference(t, BaseConfig(dir), script, acked)
	AssertSameState(t, reference, recovered)
}

// TestChaosShortWriteTornTail cuts one record's write short, leaving a
// torn tail on disk. The append is refused, the degraded server restores
// the acked prefix without reading the torn record, and recovery
// truncates exactly the torn bytes and lands on the same prefix.
func TestChaosShortWriteTornTail(t *testing.T) {
	dir := t.TempDir()
	script := chaosScript()
	const torn = 5
	env, _ := StartFaulty(t, BaseConfig(dir),
		errfs.Fault{Op: errfs.OpWrite, Path: "wal-", After: 3, Short: torn})

	acked := env.DriveToFailure(script)
	if acked != 3 {
		t.Fatalf("acked %d steps, want 3", acked)
	}
	// The restore replays only up to the watermark, never into the torn
	// record, so it succeeds and reads keep serving.
	AssertDegradedReads(t, env)
	AssertRestored(t, env)
	env.CrashDirty()

	recovered := Start(t, BaseConfig(dir))
	st, err := recovered.Client.Persistence(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Recovery == nil || st.Recovery.TornBytesTruncated != torn {
		t.Fatalf("recovery = %+v, want %d torn bytes truncated", st.Recovery, torn)
	}
	reference := Reference(t, BaseConfig(dir), script, acked)
	AssertSameState(t, reference, recovered)
}

// TestChaosSnapshotInstallFailure fails the rename that installs a
// snapshot. Snapshots are an optimization — the WAL still holds
// everything — so the server must NOT degrade: the failure is counted,
// mutations keep working, a later snapshot succeeds, and recovery
// reproduces the full state.
func TestChaosSnapshotInstallFailure(t *testing.T) {
	dir := t.TempDir()
	script := chaosScript()
	env, _ := StartFaulty(t, BaseConfig(dir),
		errfs.Fault{Op: errfs.OpRename, Path: "snapshot-", Times: 1})

	env.Drive(script)
	if err := env.Srv.SnapshotNow(); err == nil {
		t.Fatal("snapshot through injected rename fault should fail")
	}
	if degraded, cause := env.Srv.DegradedState(); degraded {
		t.Fatalf("snapshot failure degraded the server: %v", cause)
	}
	mResp, err := http.Get(env.HTTP.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mResp.Body)
	mResp.Body.Close()
	if !strings.Contains(string(metrics), "juryd_snapshot_errors_total 1") {
		t.Fatalf("metrics missing juryd_snapshot_errors_total 1:\n%s", metrics)
	}

	// The server keeps accepting mutations, and the next snapshot (the
	// fault is single-shot) lands.
	extra := Ingest(serve.VoteEvent{WorkerID: "cam", Correct: false})
	if err := extra(env); err != nil {
		t.Fatalf("ingest after snapshot failure: %v", err)
	}
	if err := env.Srv.SnapshotNow(); err != nil {
		t.Fatalf("retried snapshot: %v", err)
	}
	env.Crash()

	recovered := Start(t, BaseConfig(dir))
	reference := Reference(t, BaseConfig(dir), append(script, extra), len(script)+1)
	AssertSameState(t, reference, recovered)
}

// TestChaosIdempotentRetryAcrossRecovery replays a keyed ingest blindly:
// before the crash, after the crash, and against the recovered server.
// The vote must apply exactly once, and the recovered dedup state must
// be bit-identical to a reference that saw the ingest once.
func TestChaosIdempotentRetryAcrossRecovery(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	register := Register(serve.WorkerSpec{ID: "ann", Quality: 0.8, Cost: 3})
	ingest := Ingest(serve.VoteEvent{WorkerID: "ann", Correct: true})
	script := []Step{register, ingest}

	env := Start(t, BaseConfig(dir))
	env.Drive(script)
	// A pre-crash retry of the same step (same construction-time key) is
	// deduplicated live.
	if err := ingest(env); err != nil {
		t.Fatalf("live retry: %v", err)
	}
	env.Crash()

	recovered := Start(t, BaseConfig(dir))
	// A post-recovery retry is deduplicated from the replayed WAL state.
	if err := ingest(recovered); err != nil {
		t.Fatalf("post-recovery retry: %v", err)
	}
	w, err := recovered.Client.Worker(ctx, "ann")
	if err != nil {
		t.Fatal(err)
	}
	if w.Votes != 1 {
		t.Fatalf("ann has %d votes after 3 deliveries of one keyed ingest, want 1", w.Votes)
	}
	reference := Reference(t, BaseConfig(dir), script, len(script))
	AssertSameState(t, reference, recovered)
}
