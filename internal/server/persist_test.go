package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/online"
	"repro/internal/voting"
	"repro/internal/wal"
	"repro/internal/wal/errfs"
)

// durable opens a durable server rooted in a fresh temp dir.
func durable(t *testing.T) (*Server, Config) {
	t.Helper()
	cfg := Config{Alpha: 0.5, Seed: 1, DataDir: t.TempDir()}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, cfg
}

// reopen crash-stops s and recovers a fresh server from the same dir.
func reopen(t *testing.T, s *Server, cfg Config) *Server {
	t.Helper()
	if err := s.ClosePersistence(); err != nil {
		t.Fatalf("ClosePersistence: %v", err)
	}
	s2, err := Open(cfg)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return s2
}

func TestOpenWithoutDataDirIsInMemory(t *testing.T) {
	s, err := Open(Config{Alpha: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.PersistenceStatus(); st.Enabled {
		t.Fatalf("in-memory server reports persistence enabled: %+v", st)
	}
	if err := s.SnapshotNow(); err != nil {
		t.Fatalf("SnapshotNow without persistence: %v", err)
	}
	if err := s.ClosePersistence(); err != nil {
		t.Fatalf("ClosePersistence without persistence: %v", err)
	}
}

// TestJournalFailureAbortsMutation: a failed WAL append must leave the
// in-memory registry untouched (write-ahead, not write-behind).
func TestJournalFailureAbortsMutation(t *testing.T) {
	// Every WAL write after the first fails.
	boom := errors.New("disk full")
	s, err := Open(Config{Alpha: 0.5, Seed: 1, DataDir: t.TempDir(),
		FS: errfs.New(wal.OSFS(), errfs.Fault{Op: errfs.OpWrite, Path: "wal-", After: 1, Err: boom})})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.registry.Register(context.Background(), []WorkerSpec{{ID: "ok", Quality: 0.8, Cost: 1}}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.registry.Register(context.Background(), []WorkerSpec{{ID: "lost", Quality: 0.7, Cost: 1}}, 0); !errors.Is(err, boom) {
		t.Fatalf("Register with failing journal: %v, want %v", err, boom)
	}
	if _, _, err := s.registry.Ingest(context.Background(), []VoteEvent{{WorkerID: "ok", Correct: true}}); !errors.Is(err, boom) {
		t.Fatalf("Ingest with failing journal: %v, want %v", err, boom)
	}
	if got := s.registry.Len(); got != 1 {
		t.Fatalf("registry len after aborted register = %d, want 1", got)
	}
	info, err := s.registry.Get("ok")
	if err != nil || info.Votes != 0 {
		t.Fatalf("worker mutated by aborted ingest: %+v, %v", info, err)
	}
}

// TestRecoveryRoundTrip: mutate, crash, recover; the recovered dump is
// byte-identical and the signature (the selection-cache key component)
// matches.
func TestRecoveryRoundTrip(t *testing.T) {
	s, cfg := durable(t)
	if _, err := s.registry.Register(context.Background(), []WorkerSpec{
		{ID: "a", Quality: 0.8, Cost: 3},
		{ID: "b", Quality: 0.7, Cost: 2},
	}, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.registry.Ingest(context.Background(), []VoteEvent{
		{WorkerID: "a", Correct: true},
		{WorkerID: "b", Correct: false},
		{WorkerID: "a", Correct: true},
	}); err != nil {
		t.Fatal(err)
	}
	wantDump, err := s.DebugState()
	if err != nil {
		t.Fatal(err)
	}
	wantSig, _ := s.registry.Signature()

	s2 := reopen(t, s, cfg)
	gotDump, err := s2.DebugState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantDump, gotDump) {
		t.Fatalf("recovered dump differs\nwant %s\ngot  %s", wantDump, gotDump)
	}
	gotSig, _ := s2.registry.Signature()
	if wantSig != gotSig {
		t.Fatalf("recovered signature %q != pre-crash %q", gotSig, wantSig)
	}
}

// TestConcurrentIngestRecovery is the acceptance scenario: sustained
// concurrent vote ingestion, then a crash; the recovered posteriors and
// pool signature must be bit-identical to the pre-crash state, which
// requires the WAL order to match the lock (application) order exactly.
func TestConcurrentIngestRecovery(t *testing.T) {
	s, cfg := durable(t)
	specs := make([]WorkerSpec, 8)
	for i := range specs {
		specs[i] = WorkerSpec{ID: string(rune('a' + i)), Quality: 0.6, Cost: 1}
	}
	if _, err := s.registry.Register(context.Background(), specs, 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				ev := VoteEvent{WorkerID: specs[(g+i)%len(specs)].ID, Correct: i%3 != 0}
				if _, _, err := s.registry.Ingest(context.Background(), []VoteEvent{ev}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	wantDump, _ := s.DebugState()
	wantSig, _ := s.registry.Signature()

	s2 := reopen(t, s, cfg)
	gotDump, _ := s2.DebugState()
	gotSig, _ := s2.registry.Signature()
	if !bytes.Equal(wantDump, gotDump) {
		t.Fatalf("recovered state differs from pre-crash state\nwant %s\ngot  %s", wantDump, gotDump)
	}
	if wantSig != gotSig {
		t.Fatalf("recovered signature %q != pre-crash %q", gotSig, wantSig)
	}
	if st := s2.PersistenceStatus(); st.Recovery.RecordsReplayed != 1+8*40 {
		t.Fatalf("RecordsReplayed = %d, want %d", st.Recovery.RecordsReplayed, 1+8*40)
	}
}

// TestVoteCloseRaceKeepsLogReplayable is the regression test for the
// journal-ordering hole: a voter that looked a session up just before a
// concurrent close must never journal its vote record after the close
// record — such a log would fail replay on every subsequent boot. The
// hammer drives votes and closes concurrently and then proves the WAL
// still recovers.
func TestVoteCloseRaceKeepsLogReplayable(t *testing.T) {
	for iter := 0; iter < 15; iter++ {
		s, cfg := durable(t)
		st, err := s.sessions.Open(context.Background(), online.Config{Alpha: 0.5, Confidence: 0.999})
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 10; i++ {
					// Unknown/done conflicts are expected mid-race.
					s.sessions.Observe(context.Background(), st.ID, 0.6, 1, voting.Yes)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			s.sessions.Close(context.Background(), st.ID)
		}()
		close(start)
		wg.Wait()
		// The only assertion that matters: recovery must succeed.
		s2 := reopen(t, s, cfg)
		if _, err := s2.sessions.Get(st.ID); err == nil {
			t.Fatal("closed session resurrected by replay")
		}
		if err := s2.ClosePersistence(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReapIsJournaled: the reaper's wall-clock decision must come from
// the log on replay, never be remade — otherwise replay would resurrect
// or lose sessions depending on when recovery runs.
func TestReapIsJournaled(t *testing.T) {
	s, cfg := durable(t)
	s.sessions.cap = 2
	// Confidence 0.5 is satisfied by the uniform prior: these sessions
	// are born Done and thus reapable.
	done := online.Config{Alpha: 0.5, Confidence: 0.5}
	for i := 0; i < 2; i++ {
		if _, err := s.sessions.Open(context.Background(), done); err != nil {
			t.Fatal(err)
		}
	}
	// The third open trips the cap, reaps s1 and s2, and must journal it.
	live := online.Config{Alpha: 0.5, Confidence: 0.99}
	if _, err := s.sessions.Open(context.Background(), live); err != nil {
		t.Fatal(err)
	}
	if got := s.sessions.Len(); got != 1 {
		t.Fatalf("live sessions after reap = %d, want 1", got)
	}
	wantDump, _ := s.DebugState()
	s2 := reopen(t, s, cfg)
	if got := s2.sessions.Len(); got != 1 {
		t.Fatalf("recovered sessions = %d, want 1 (reap must replay from the log)", got)
	}
	gotDump, _ := s2.DebugState()
	if !bytes.Equal(wantDump, gotDump) {
		t.Fatalf("recovered dump differs\nwant %s\ngot  %s", wantDump, gotDump)
	}
}

// TestBudgetExhaustedStopPersists: StopBudget is a caller-side verdict;
// it must survive a crash via its own record type.
func TestBudgetExhaustedStopPersists(t *testing.T) {
	s, cfg := durable(t)
	st, err := s.sessions.Open(context.Background(), online.Config{Alpha: 0.5, Confidence: 0.99, Budget: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.sessions.MarkBudgetExhausted(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	s2 := reopen(t, s, cfg)
	got, err := s2.sessions.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Done || got.Stopped != "budget" {
		t.Fatalf("recovered session = %+v, want Done with Stopped=budget", got)
	}
}

// TestSessionWithInfiniteLogOddsSurvives: a degenerate prior drives the
// posterior log odds to ±Inf, which plain JSON floats cannot carry; the
// bit-pattern encoding must round-trip it through snapshot + recovery.
func TestSessionWithInfiniteLogOddsSurvives(t *testing.T) {
	s, cfg := durable(t)
	st, err := s.sessions.Open(context.Background(), online.Config{Alpha: 1, Confidence: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.Confidence != 1 {
		t.Fatalf("degenerate-prior session = %+v, want Done at confidence 1", st)
	}
	if err := s.SnapshotNow(); err != nil {
		t.Fatalf("SnapshotNow over Inf log odds: %v", err)
	}
	wantDump, _ := s.DebugState()
	s2 := reopen(t, s, cfg)
	gotDump, _ := s2.DebugState()
	if !bytes.Equal(wantDump, gotDump) {
		t.Fatalf("Inf log odds did not survive recovery\nwant %s\ngot  %s", wantDump, gotDump)
	}
}

// TestSnapshotSkipsWhenUnchanged: idle snapshot ticks must not churn
// files.
func TestSnapshotSkipsWhenUnchanged(t *testing.T) {
	s, _ := durable(t)
	if err := s.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if got := s.PersistenceStatus().SnapshotsWritten; got != 0 {
		t.Fatalf("snapshot of a never-mutated server written (%d), want skipped", got)
	}
	if _, err := s.registry.Register(context.Background(), []WorkerSpec{{ID: "a", Quality: 0.8, Cost: 1}}, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if err := s.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if got := s.PersistenceStatus().SnapshotsWritten; got != 1 {
		t.Fatalf("SnapshotsWritten = %d, want 1 (second tick unchanged)", got)
	}
}

// TestPersistenceStatusFields sanity-checks the /debug/persistence
// payload after a recovery.
func TestPersistenceStatusFields(t *testing.T) {
	s, cfg := durable(t)
	if _, err := s.registry.Register(context.Background(), []WorkerSpec{{ID: "a", Quality: 0.8, Cost: 1}}, 0); err != nil {
		t.Fatal(err)
	}
	s2 := reopen(t, s, cfg)
	st := s2.PersistenceStatus()
	if !st.Enabled || st.DataDir != cfg.DataDir {
		t.Fatalf("status = %+v, want enabled in %s", st, cfg.DataDir)
	}
	if st.NextLSN != 2 {
		t.Fatalf("NextLSN = %d, want 2 after one record", st.NextLSN)
	}
	if st.Recovery == nil || st.Recovery.RecordsReplayed != 1 || st.Recovery.WorkersRestored != 1 {
		t.Fatalf("recovery status = %+v, want 1 record replayed, 1 worker", st.Recovery)
	}
	if !strings.Contains(st.RecoveredAt, "T") {
		t.Fatalf("RecoveredAt = %q, want RFC 3339", st.RecoveredAt)
	}
}

// TestPreloadIsJournaled: a -pool preload must survive restarts like any
// registration.
func TestPreloadIsJournaled(t *testing.T) {
	s, cfg := durable(t)
	if err := s.Preload([]WorkerSpec{{ID: "p", Quality: 0.9, Cost: 2}}); err != nil {
		t.Fatal(err)
	}
	s2 := reopen(t, s, cfg)
	if got := s2.registry.Len(); got != 1 {
		t.Fatalf("recovered preloaded registry len = %d, want 1", got)
	}
	// Re-preloading the same pool file into recovered state conflicts.
	if err := s2.Preload([]WorkerSpec{{ID: "p", Quality: 0.9, Cost: 2}}); !errors.Is(err, ErrWorkerExists) {
		t.Fatalf("re-preload: %v, want ErrWorkerExists", err)
	}
}

// TestSnapshotsRaceMutations takes snapshots while every store mutates
// concurrently through its own API — no HTTP handler in between — under
// group commit, where commits wait outside the store locks. Each
// snapshot must cover exactly the records its LSN names, so recovery
// from the last snapshot plus the tail reproduces the live state
// bit-exactly.
func TestSnapshotsRaceMutations(t *testing.T) {
	cfg := Config{Alpha: 0.5, Seed: 1, DataDir: t.TempDir(), Fsync: true, GroupCommit: true}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := 0.8
	if _, err := s.registry.Register(ctx, []WorkerSpec{{ID: "a", Quality: 0.8, Cost: 1}}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.multi.CreatePool(ctx, "p", 3, []MultiWorkerSpec{{ID: "m", Quality: &q, Cost: 1}}, 0); err != nil {
		t.Fatal(err)
	}
	const writers, rounds = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("k%d-%d", w, i)
				if _, _, _, err := s.registry.IngestKeyed(ctx, []VoteEvent{{WorkerID: "a", Correct: i%2 == 0}}, key); err != nil {
					t.Error(err)
					return
				}
				if _, _, _, err := s.multi.IngestKeyed(ctx, "p", []MultiVoteEvent{{WorkerID: "m", Truth: i % 3, Vote: w % 3}}, key); err != nil {
					t.Error(err)
					return
				}
				st, err := s.sessions.Open(ctx, online.Config{Alpha: 0.5, Confidence: 0.999})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := s.sessions.Observe(ctx, st.ID, 0.6, 1, voting.Yes); err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					if err := s.sessions.Close(ctx, st.ID); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	snapErr := make(chan error, 1)
	go func() {
		defer close(snapErr)
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := s.SnapshotNow(); err != nil {
				snapErr <- err
				return
			}
		}
	}()
	wg.Wait()
	close(done)
	if err := <-snapErr; err != nil {
		t.Fatalf("SnapshotNow: %v", err)
	}
	want, err := s.DebugState()
	if err != nil {
		t.Fatal(err)
	}
	got, err := reopen(t, s, cfg).DebugState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("recovered state differs\nwant %s\ngot  %s", want, got)
	}
}
