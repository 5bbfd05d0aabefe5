package walltest

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wal/errfs"
	"repro/jury/serve"
)

// replScript is a mutation mix spanning both WAL arms — binary registry,
// multi-choice pools, and a session — so convergence checks cover every
// replicated record type.
func replScript() []Step {
	return append(multiScript(),
		OpenSession(serve.SessionRequest{Confidence: 0.95, Budget: 40}),
		SessionVote("s1", "ann", 0),
		SessionVote("s1", "bob", 1),
		Ingest(ev("ann", true), ev("bob", true)),
	)
}

// TestReplFollowersConverge is the basic shipping contract: one follower
// streaming live while the primary mutates, another joining afterwards
// and replaying the full history from LSN 0 — both must end bit-identical
// to the primary (state dump, pool signatures, selection probes).
func TestReplFollowersConverge(t *testing.T) {
	primary := Start(t, BaseConfig(t.TempDir()))
	live := StartFollower(t, BaseConfig(t.TempDir()), primary.HTTP.URL)

	primary.Drive(replScript())
	late := StartFollower(t, BaseConfig(t.TempDir()), primary.HTTP.URL)
	AssertConverged(t, primary, live, late)

	// The follower knows and reports what it is.
	st := live.Srv.ReplStatus()
	if st == nil || st.Primary != primary.HTTP.URL || !st.Connected || st.LagRecords != 0 {
		t.Fatalf("follower ReplStatus = %+v, want connected to %s with zero lag", st, primary.HTTP.URL)
	}
	if ps := primary.Srv.ReplStatus(); ps != nil {
		t.Fatalf("primary reports a ReplStatus: %+v", ps)
	}
	resp, err := http.Get(live.HTTP.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("follower readyz: %v %d, want 200", err, resp.StatusCode)
	}
	resp.Body.Close()
}

// TestReplFollowerRestartKeepsQuorumIdentity is the in-process twin of
// cmd/juryd's TestDaemonFollowerRestartKeepsQuorumIdentity: a follower
// restarted on the same data dir confirms under the identity it had
// before, so one copy of the log never counts twice toward the quorum.
// With quorum 3 and one follower, a write that the follower confirms,
// and confirms again after a restart, must time out with 503.
func TestReplFollowerRestartKeepsQuorumIdentity(t *testing.T) {
	cfg := BaseConfig(t.TempDir())
	cfg.Quorum, cfg.QuorumTimeout = 3, 2*time.Second
	primary := Start(t, cfg)
	// The follower streams through front, which reports the first poll
	// from LSN 1 once the primary has answered it: by then the primary
	// has recorded the follower's confirmation of the write.
	confirmed := make(chan struct{})
	var once sync.Once
	h := primary.Srv.Handler()
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if r.URL.Path == "/v1/repl/stream" && r.URL.Query().Get("from") == "1" {
			once.Do(func() { close(confirmed) })
		}
	}))
	t.Cleanup(front.Close)
	fDir := t.TempDir()
	f := StartFollower(t, BaseConfig(fDir), front.URL)
	idBefore, err := os.ReadFile(filepath.Join(fDir, "follower-id"))
	if err != nil {
		t.Fatalf("follower kept no identity: %v", err)
	}

	status := make(chan int, 1)
	go func() {
		resp, err := http.Post(primary.HTTP.URL+"/v1/workers", "application/json",
			strings.NewReader(`{"workers":[{"id":"a","quality":0.8,"cost":1}]}`))
		if err != nil {
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	select {
	case <-confirmed:
	case <-time.After(5 * time.Second):
		t.Fatal("follower never confirmed the write")
	}
	f.Kill()
	f.Restart(t)

	select {
	case code := <-status:
		if code != http.StatusServiceUnavailable {
			t.Fatalf("write confirmed by one follower across a restart answered %d, want 503", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("quorum-gated write never answered")
	}
	idAfter, err := os.ReadFile(filepath.Join(fDir, "follower-id"))
	if err != nil || string(idAfter) != string(idBefore) {
		t.Fatalf("follower identity changed across a restart: %q -> %q (%v)", idBefore, idAfter, err)
	}
}

// TestReplFollowerRejectsMutations asserts the write-path fence: a
// mutation sent to a follower is refused with 421 and the primary's
// address in X-Juryd-Primary, before any body processing could journal.
func TestReplFollowerRejectsMutations(t *testing.T) {
	primary := Start(t, BaseConfig(t.TempDir()))
	primary.Drive([]Step{Register(w("ann", 0.8, 3))})
	f := StartFollower(t, BaseConfig(t.TempDir()), primary.HTTP.URL)
	WaitCaughtUp(t, primary, f)

	resp, err := http.Post(f.HTTP.URL+"/v1/votes/batch", "application/json",
		strings.NewReader(`{"events":[{"worker_id":"ann","correct":true}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("follower mutation status = %d, want 421", resp.StatusCode)
	}
	if got := resp.Header.Get(server.PrimaryHeader); got != primary.HTTP.URL {
		t.Fatalf("%s = %q, want %q", server.PrimaryHeader, got, primary.HTTP.URL)
	}
	// Nothing was journaled by the refused write.
	if applied := f.Srv.AppliedLSN(); uint64(applied) != primary.Srv.PersistenceStatus().DurableLSN {
		t.Fatalf("refused mutation moved the follower: applied %d", applied)
	}
}

// TestReplFollowerKillRestartMidStream kills a follower with the stream
// in flight, tears its WAL tail mid-record (the write the kill cut
// short), and restarts it: recovery drops the torn record, the stream
// re-ships it, and the follower converges bit-exactly.
func TestReplFollowerKillRestartMidStream(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	script := randomScript(rng, 60)
	primary := Start(t, BaseConfig(t.TempDir()))
	fDir := t.TempDir()
	f := StartFollower(t, BaseConfig(fDir), primary.HTTP.URL)

	primary.Drive(script[:20])
	WaitCaughtUp(t, primary, f)
	primary.Drive(script[20:40])
	f.Kill() // mid-stream: chunk 2 may be partially applied
	_, size := TailSegment(t, fDir)
	Tear(t, fDir, size-3) // the kill also cut the last local write short

	primary.Drive(script[40:])
	restarted := f.Restart(t)
	AssertConverged(t, primary, restarted)
}

// TestReplRotationTruncationMidStream runs the primary with tiny segments
// (constant rotation) and snapshot-truncates its log mid-stream. A
// caught-up follower sails through; a fresh follower that tries to
// stream the truncated history from LSN 0 is told 410 (terminal
// ErrSnapshotNeeded); bootstrapping from the snapshot joins it cleanly.
func TestReplRotationTruncationMidStream(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	script := randomScript(rng, 40)
	cfgP := BaseConfig(t.TempDir())
	cfgP.SegmentBytes = 256
	primary := Start(t, cfgP)
	live := StartFollower(t, BaseConfig(t.TempDir()), primary.HTTP.URL)

	primary.Drive(script[:25])
	WaitCaughtUp(t, primary, live)
	primary.Drive([]Step{Snapshot()}) // checkpoints and truncates the log
	primary.Drive(script[25:])

	stranded := StartFollower(t, BaseConfig(t.TempDir()), primary.HTTP.URL)
	if err := stranded.WaitDone(10 * time.Second); !errors.Is(err, repl.ErrSnapshotNeeded) {
		t.Fatalf("fresh follower against a truncated log: %v, want ErrSnapshotNeeded", err)
	}
	stranded.CrashDirty()

	joined := BootstrapFollower(t, BaseConfig(t.TempDir()), primary.HTTP.URL)
	AssertConverged(t, primary, live, joined)
}

// TestReplPropertyBootstrapEqualsFullStream is the satellite property
// test: for random mutation scripts, a follower built from
// snapshot-bootstrap plus the streamed tail must equal a follower that
// streamed the entire history from LSN 0 — and both must equal the
// primary, byte-exact in registry, session and multi state.
func TestReplPropertyBootstrapEqualsFullStream(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			script := randomScript(rng, 50)
			primary := Start(t, BaseConfig(t.TempDir()))
			full := StartFollower(t, BaseConfig(t.TempDir()), primary.HTTP.URL)

			primary.Drive(script[:30])
			WaitCaughtUp(t, primary, full)
			primary.Drive([]Step{Snapshot()}) // late joiners must bootstrap now
			primary.Drive(script[30:])

			boot := BootstrapFollower(t, BaseConfig(t.TempDir()), primary.HTTP.URL)
			AssertConverged(t, primary, full, boot)

			// The convergence fingerprint agrees everywhere.
			want := primary.Srv.PersistenceStatus()
			for _, fe := range []*FollowerEnv{full, boot} {
				got := fe.Srv.PersistenceStatus()
				if got.StateSHA256 == "" || got.StateSHA256 != want.StateSHA256 {
					t.Fatalf("state_sha256 = %q, want %q", got.StateSHA256, want.StateSHA256)
				}
				if got.NextLSN != want.NextLSN {
					t.Fatalf("next_lsn = %d, want %d", got.NextLSN, want.NextLSN)
				}
			}
		})
	}
}

// TestReplStreamSevering cuts stream response bodies at random byte
// boundaries — including mid-frame — on every other poll. The follower
// must apply each delivered prefix, re-request the rest, and converge.
func TestReplStreamSevering(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	primary := Start(t, BaseConfig(t.TempDir()))
	var mu sync.Mutex
	cutRng := rand.New(rand.NewSource(7))
	polls := 0
	proxy := StartSeveringProxy(t, primary.HTTP.URL, func(bodyLen int) int {
		mu.Lock()
		defer mu.Unlock()
		polls++
		if polls%2 == 0 {
			return bodyLen // alternate full deliveries guarantee progress
		}
		return cutRng.Intn(bodyLen + 1)
	})
	f := StartFollower(t, BaseConfig(t.TempDir()), proxy.URL)

	primary.Drive(randomScript(rng, 60))
	AssertConverged(t, primary, f)
	mu.Lock()
	defer mu.Unlock()
	if polls == 0 {
		t.Fatal("proxy saw no stream traffic")
	}
}

// TestReplFollowerLocalWALFault fails the follower's own journal mid-
// replication, with and without -fsync: the follower must degrade (stop
// advancing), report only the records its log holds as applied, keep
// serving reads at its last applied state, report the primary's lead as
// lag, and — restarted against a healthy disk — recover its local prefix
// and converge.
func TestReplFollowerLocalWALFault(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fsync bool
	}{{"no-fsync", false}, {"fsync", true}} {
		t.Run(tc.name, func(t *testing.T) {
			primary := Start(t, BaseConfig(t.TempDir()))
			script := []Step{
				Register(w("ann", 0.8, 3), w("bob", 0.7, 2)),
				Ingest(ev("ann", true)),
				Ingest(ev("bob", false)),
				Ingest(ev("ann", true)),
				Ingest(ev("bob", true)),
				Ingest(ev("ann", false)),
				Ingest(ev("bob", true)),
				Ingest(ev("ann", true)),
			}
			// The follower writes each shipped batch with one write, so
			// it gets the first 4 records in one batch (its first write)
			// and, its stream paused while the primary commits the rest,
			// those in a second, whose write fails.
			primary.Drive(script[:4])
			fDir := t.TempDir()
			cfgF := BaseConfig(fDir)
			cfgF.Fsync = tc.fsync
			cfgF.FS = errfs.New(wal.OSFS(), errfs.Fault{Op: errfs.OpWrite, Path: "wal-", After: 1})
			f := StartFollower(t, cfgF, primary.HTTP.URL)
			WaitCaughtUp(t, primary, f)
			if err := f.StopStream(); err != nil {
				t.Fatalf("pausing the follower's stream: %v", err)
			}
			primary.Drive(script[4:])
			f.startLoop()
			if err := f.WaitDone(10 * time.Second); !errors.Is(err, server.ErrDegraded) {
				t.Fatalf("follower with failing WAL exited with %v, want ErrDegraded", err)
			}
			if applied := uint64(f.Srv.AppliedLSN()); applied != 4 {
				t.Fatalf("follower applied %d records through a WAL that fails at the 5th, want 4", applied)
			}
			if degraded, _ := f.Srv.DegradedState(); !degraded {
				t.Fatal("follower did not degrade on local WAL failure")
			}
			st := f.Srv.ReplStatus()
			if st == nil || st.LagRecords != uint64(len(script))-4 {
				t.Fatalf("follower lag = %+v, want %d records behind", st, len(script)-4)
			}
			// Reads keep serving the last applied state; readiness flags the node.
			if _, err := f.Client.Workers(t.Context()); err != nil {
				t.Fatalf("degraded follower list: %v", err)
			}
			if _, err := f.Client.Select(t.Context(), serve.SelectRequest{Budget: 10}); err != nil {
				t.Fatalf("degraded follower select: %v", err)
			}
			resp, err := http.Get(f.HTTP.URL + "/readyz")
			if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("degraded follower readyz: %v %d, want 503", err, resp.StatusCode)
			}
			resp.Body.Close()

			// Restart on a healthy disk: local recovery replays the 4
			// journaled records, the stream ships the rest, and the
			// follower converges.
			f.Kill()
			restarted := StartFollower(t, BaseConfig(fDir), primary.HTTP.URL)
			AssertConverged(t, primary, restarted)
		})
	}
}

// TestReplFollowerFlushesOncePerBatch: a follower journals a shipped
// batch as a primary journals a mutation, staging and applying every
// record and then making the batch durable with one flush. A follower
// that catches up on the whole script, shipped as one batch, writes its
// WAL once.
func TestReplFollowerFlushesOncePerBatch(t *testing.T) {
	primary := Start(t, BaseConfig(t.TempDir()))
	primary.Drive(replScript())
	n := primary.Srv.PersistenceStatus().DurableLSN
	f := StartFollower(t, BaseConfig(t.TempDir()), primary.HTTP.URL)
	AssertConverged(t, primary, f)
	m := metricsText(t, f.Env)
	for _, want := range []string{"juryd_wal_batch_records_count 1\n", fmt.Sprintf("juryd_wal_batch_records_sum %d\n", n)} {
		if !strings.Contains(m, want) {
			t.Errorf("follower that caught up on %d records in one batch: /metrics lacks %q", n, want)
		}
	}
}

// TestReplFollowerWALFaultNeverConfirmsPastDurable: a follower confirms
// only what its flush made durable. Its WAL write fails partway through
// the batch of a -quorum 2 primary's concurrent writes: the primary's
// quorum table stays at the follower's durable prefix, and every write
// the follower could not make durable answers 503.
func TestReplFollowerWALFaultNeverConfirmsPastDurable(t *testing.T) {
	cfg := BaseConfig(t.TempDir())
	cfg.Quorum, cfg.QuorumTimeout = 2, time.Second
	primary := Start(t, cfg)
	cfgF := BaseConfig(t.TempDir())
	cfgF.FS = errfs.New(wal.OSFS(), errfs.Fault{Op: errfs.OpWrite, Path: "wal-", After: 1, Short: 6})
	f := StartFollower(t, cfgF, primary.HTTP.URL)
	primary.Drive([]Step{Register(w("ann", 0.8, 3), w("bob", 0.7, 2))}) // the follower's first write

	const writes = 6
	codes := make(chan int, writes)
	for i := range writes {
		go func() {
			resp, err := http.Post(primary.HTTP.URL+"/v1/votes", "application/json",
				strings.NewReader(fmt.Sprintf(`{"worker_id":"ann","correct":%t}`, i%2 == 0)))
			if err != nil {
				codes <- 0
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	for range writes {
		if code := <-codes; code != http.StatusServiceUnavailable {
			t.Errorf("a write the follower could not make durable answered %d, want 503", code)
		}
	}
	if err := f.WaitDone(10 * time.Second); !errors.Is(err, server.ErrDegraded) {
		t.Fatalf("follower with failing WAL exited with %v, want ErrDegraded", err)
	}
	durable := f.Srv.PersistenceStatus().DurableLSN
	if durable != 1 || uint64(f.Srv.AppliedLSN()) != durable {
		t.Fatalf("follower durable %d, applied %d, want both 1", durable, f.Srv.AppliedLSN())
	}
	st := primary.Srv.PersistenceStatus()
	if st.DurableLSN != 1+writes {
		t.Fatalf("primary durable %d, want %d", st.DurableLSN, 1+writes)
	}
	if len(st.QuorumAcks) != 1 {
		t.Fatalf("primary quorum table %v, want one follower", st.QuorumAcks)
	}
	for id, confirmed := range st.QuorumAcks {
		if confirmed > durable {
			t.Fatalf("follower %s confirmed lsn %d past its durable prefix %d", id, confirmed, durable)
		}
	}
	AssertRestored(t, f.Env)
}

// TestReplPrimaryDegradesFollowerHoldsDurable is the power-loss chaos
// satellite: the primary's fsync fails mid-script with the unsynced tail
// dropped. Because only records at or below the durability watermark are
// ever shipped, the follower must hold at exactly the primary's durable
// LSN — never applying the record a power loss would revoke — while both
// nodes keep serving reads.
func TestReplPrimaryDegradesFollowerHoldsDurable(t *testing.T) {
	script := chaosScript()
	primary, _ := StartFaulty(t, BaseConfig(t.TempDir()),
		errfs.Fault{Op: errfs.OpSync, Path: "wal-", After: 3, DropUnsynced: true})
	f := StartFollower(t, BaseConfig(t.TempDir()), primary.HTTP.URL)

	acked := primary.DriveToFailure(script)
	if acked != 3 {
		t.Fatalf("acked %d steps, want 3", acked)
	}
	AssertDegradedReads(t, primary)
	AssertRestored(t, primary)

	WaitCaughtUp(t, primary, f)
	durable := primary.Srv.PersistenceStatus().DurableLSN
	if durable != 3 {
		t.Fatalf("primary durable LSN = %d, want 3", durable)
	}
	// Give the stream a few more polls: the follower must hold, not creep
	// past the watermark toward the primary's revocable in-memory record.
	time.Sleep(50 * time.Millisecond)
	if applied := uint64(f.Srv.AppliedLSN()); applied != durable {
		t.Fatalf("follower applied %d, want to hold at durable %d", applied, durable)
	}
	// The follower's state is exactly the acked prefix — bit-identical to
	// a reference that never saw the revoked mutation.
	reference := Reference(t, BaseConfig(""), script, acked)
	AssertSameState(t, reference, f.Env)
	// The stream still answers (a poisoned log serves its committed
	// prefix), so the follower reports itself connected and caught up.
	st := f.Srv.ReplStatus()
	if st == nil || !st.Connected || st.LagRecords != 0 {
		t.Fatalf("follower ReplStatus = %+v, want connected at zero lag", st)
	}
}

// TestReplPrimaryWriteFaultFollowerConverges is the write-fault twin of
// TestReplPrimaryDegradesFollowerHoldsDurable: the primary's flush tears
// a record onto disk and fails. A caught-up follower is served from the
// primary's in-memory tail of its newest segment, which only a
// successful flush extends, so the follower converges to exactly the
// primary's durable prefix and its state, never the torn bytes.
func TestReplPrimaryWriteFaultFollowerConverges(t *testing.T) {
	script := chaosScript()
	primary, _ := StartFaulty(t, BaseConfig(t.TempDir()),
		errfs.Fault{Op: errfs.OpWrite, Path: "wal-", After: 3, Short: 6})
	f := StartFollower(t, BaseConfig(t.TempDir()), primary.HTTP.URL)

	acked := primary.DriveToFailure(script)
	if acked != 3 {
		t.Fatalf("acked %d steps, want 3", acked)
	}
	AssertRestored(t, primary)
	WaitCaughtUp(t, primary, f)
	if durable := primary.Srv.PersistenceStatus().DurableLSN; durable != 3 {
		t.Fatalf("primary durable LSN = %d, want 3", durable)
	}
	time.Sleep(50 * time.Millisecond)
	if applied := uint64(f.Srv.AppliedLSN()); applied != 3 {
		t.Fatalf("follower applied %d, want to hold at durable 3", applied)
	}
	if got, want := f.Srv.PersistenceStatus().StateSHA256, primary.Srv.PersistenceStatus().StateSHA256; got != want {
		t.Fatalf("follower state_sha256 %s, primary %s", got, want)
	}
	AssertSameState(t, Reference(t, BaseConfig(""), script, acked), f.Env)

	resp, err := http.Get(primary.HTTP.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if m := string(body); !strings.Contains(m, `juryd_repl_stream_reads_total{source="tail"} `) ||
		strings.Contains(m, `juryd_repl_stream_reads_total{source="tail"} 0`+"\n") {
		t.Fatalf("the caught-up follower was never served from the tail:\n%s", body)
	}
}
