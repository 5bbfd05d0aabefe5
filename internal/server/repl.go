package server

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
)

// Replication. A durable primary serves its committed WAL prefix over
// GET /v1/repl/stream (long-poll: the handler parks on the durability
// watermark until new records commit) and its full state over
// GET /v1/repl/snapshot (for followers bootstrapping from scratch or
// stranded behind the log-truncation horizon). A follower (SetFollower)
// appends the shipped frames to its own WAL and applies them through the
// same Apply paths recovery uses, so its state — posteriors, sessions,
// pool signatures, and therefore selection-cache keys — is bit-identical
// to the primary's at every applied LSN. Followers serve every read
// route and reject mutations with 421 plus the primary's address in the
// X-Juryd-Primary header.
//
// Only records at or below the primary's durability watermark are ever
// shipped: a follower can never apply a record that a primary power loss
// would revoke, so "follower applied LSN <= primary durable LSN" is an
// invariant, not a race.

// PrimaryHeader is the response header carrying the primary's address on
// a 421 mutation rejection from a follower.
const PrimaryHeader = "X-Juryd-Primary"

// Replication stream/snapshot headers.
const (
	// ReplFirstLSNHeader is the LSN of the first record in a stream body.
	ReplFirstLSNHeader = "X-Repl-First-Lsn"
	// ReplCountHeader is the number of records in a stream body.
	ReplCountHeader = "X-Repl-Count"
	// ReplDurableLSNHeader is the primary's durability watermark at
	// response time (also on 204, so an idle follower still tracks lag).
	ReplDurableLSNHeader = "X-Repl-Durable-Lsn"
	// ReplOldestLSNHeader is the primary's truncation horizon, sent with
	// 410 so a stranded follower knows how far behind it is.
	ReplOldestLSNHeader = "X-Repl-Oldest-Lsn"
	// ReplSnapshotLSNHeader is the LSN a shipped snapshot covers.
	ReplSnapshotLSNHeader = "X-Repl-Snapshot-Lsn"
)

// Stream long-poll bounds.
const (
	defaultStreamWait = 10 * time.Second
	maxStreamWait     = 60 * time.Second
)

// FollowerError is the mutation-rejection error of a read-only replica:
// it maps to 421 (Misdirected Request) with the primary's address in
// X-Juryd-Primary, so a follower-aware client can redirect the write.
type FollowerError struct {
	// Primary is the primary's base URL, as configured by -follow.
	Primary string
}

func (e *FollowerError) Error() string {
	return fmt.Sprintf("server: read-only replica: send mutations to the primary at %s", e.Primary)
}

// replState is the follower-mode state of a Server.
type replState struct {
	since time.Time

	mu             sync.Mutex
	primary        string // mutable: Repoint retargets it after a promotion
	connected      bool
	primaryDurable wal.LSN
	lastContact    time.Time
	lastCaughtUp   time.Time
}

// primaryURL reads the current primary base URL under the lock.
func (rs *replState) primaryURL() string {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.primary
}

// setPrimary retargets the follower at a new primary (Repoint).
func (rs *replState) setPrimary(url string) {
	rs.mu.Lock()
	rs.primary = url
	rs.mu.Unlock()
}

// SetFollower puts the server in follower (read-only replica) mode:
// every mutation route answers 421 with the primary's address, and
// ReplStatus starts reporting lag. Call it once, before serving traffic;
// records arrive via ApplyReplicated (driven by internal/repl).
func (s *Server) SetFollower(primary string) {
	s.repl.Store(&replState{primary: primary, since: time.Now()})
}

// IsFollower reports whether SetFollower was called.
func (s *Server) IsFollower() bool { return s.repl.Load() != nil }

// ReplObserve records one contact with the primary: its durability
// watermark as reported on the stream response, and whether the stream
// is currently healthy. The follower loop calls it after every response
// (connected) and on every transport failure (not connected).
func (s *Server) ReplObserve(primaryDurable wal.LSN, connected bool) {
	rs := s.repl.Load()
	if rs == nil {
		return
	}
	now := time.Now()
	applied := s.AppliedLSN()
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.connected = connected
	if connected {
		rs.lastContact = now
		if primaryDurable > rs.primaryDurable {
			rs.primaryDurable = primaryDurable
		}
		if applied >= rs.primaryDurable {
			rs.lastCaughtUp = now
		}
	}
}

// AppliedLSN is the LSN of the last record in the local log — on a
// follower, the last replicated record it has applied. 0 without
// persistence.
func (s *Server) AppliedLSN() wal.LSN {
	if s.persist == nil {
		return 0
	}
	return s.persist.log.NextLSN() - 1
}

// ReplStatus reports the follower's replication position and lag, nil on
// a primary (or any non-follower server).
func (s *Server) ReplStatus() *ReplStatus {
	rs := s.repl.Load()
	if rs == nil {
		return nil
	}
	applied := s.AppliedLSN()
	rs.mu.Lock()
	defer rs.mu.Unlock()
	st := &ReplStatus{
		Primary:           rs.primary,
		Epoch:             s.epochs.current(),
		Connected:         rs.connected,
		AppliedLSN:        uint64(applied),
		PrimaryDurableLSN: uint64(rs.primaryDurable),
	}
	if rs.primaryDurable > applied {
		st.LagRecords = uint64(rs.primaryDurable - applied)
	}
	// Staleness: how long since this follower was last provably caught up
	// to the primary's durable watermark. Caught-up-right-now reports 0.
	switch {
	case st.LagRecords == 0 && rs.connected && !rs.lastCaughtUp.IsZero():
		st.LagSeconds = 0
	case !rs.lastCaughtUp.IsZero():
		st.LagSeconds = time.Since(rs.lastCaughtUp).Seconds()
	default:
		st.LagSeconds = time.Since(rs.since).Seconds()
	}
	if !rs.lastContact.IsZero() {
		st.LastContact = rs.lastContact.UTC().Format(time.RFC3339Nano)
	}
	return st
}

// ApplyReplicated journals one shipped record to the local WAL and
// applies it in memory — the follower's (only) mutation path. lsn must
// be exactly AppliedLSN()+1: the stream is contiguous, and a gap means
// the follower and primary have diverged. A local WAL failure degrades
// the server exactly like a primary's journal failure would: replication
// stops advancing, reads keep serving the last applied state.
func (s *Server) ApplyReplicated(lsn wal.LSN, payload []byte) error {
	// A node mid-promotion (or already promoted) must not apply another
	// shipped frame: its log now continues under its own epoch. The stream
	// loop maps this to a clean stop, not an error.
	if s.promoting.Load() || s.repl.Load() == nil {
		return ErrNotFollower
	}
	p := s.persist
	if p == nil {
		return errors.New("server: replication requires persistence (-data-dir)")
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return fmt.Errorf("server: replicated record at lsn %d: %w", lsn, err)
	}
	// The shipped record is journaled verbatim and applied only once it
	// is durable, under the freeze like any mutation; the apply is replay,
	// which never takes the freeze itself.
	p.freeze.RLock()
	defer p.freeze.RUnlock()
	if next := p.log.NextLSN(); lsn != next {
		return fmt.Errorf("server: replication gap: shipped lsn %d, local log expects %d", lsn, next)
	}
	ctx := context.TODO() // the stream loop carries no request trace
	got, err := p.journalNow(ctx, payload)
	if err != nil {
		return err
	}
	if got != lsn {
		return fmt.Errorf("server: replication lsn skew: journaled %d, want %d", got, lsn)
	}
	if err := s.applyRecord(&rec); err != nil {
		// The record is in the local log but not in memory: terminal
		// inconsistency for this process. Degrade so /readyz flags it.
		s.enterDegraded(err)
		return fmt.Errorf("server: replicated apply at lsn %d: %w", lsn, err)
	}
	return nil
}

// writeReplMetrics appends the follower gauges to /metrics; no-op on a
// primary.
func (s *Server) writeReplMetrics(w io.Writer) {
	st := s.ReplStatus()
	if st == nil {
		return
	}
	connected := 0
	if st.Connected {
		connected = 1
	}
	fmt.Fprintf(w, `# HELP juryd_follower Whether this process is a read-only replica (1) following a primary.
# TYPE juryd_follower gauge
juryd_follower 1
# HELP juryd_repl_connected Whether the replication stream to the primary is currently healthy.
# TYPE juryd_repl_connected gauge
juryd_repl_connected %d
# HELP juryd_repl_applied_lsn Last replicated WAL record applied locally.
# TYPE juryd_repl_applied_lsn gauge
juryd_repl_applied_lsn %d
# HELP juryd_repl_primary_durable_lsn Primary durability watermark as of the last stream contact.
# TYPE juryd_repl_primary_durable_lsn gauge
juryd_repl_primary_durable_lsn %d
# HELP juryd_repl_lag_records Records the primary has committed that this follower has not applied.
# TYPE juryd_repl_lag_records gauge
juryd_repl_lag_records %d
# HELP juryd_repl_lag_seconds Seconds since this follower was last caught up to the primary's durable watermark.
# TYPE juryd_repl_lag_seconds gauge
juryd_repl_lag_seconds %g
`, connected, st.AppliedLSN, st.PrimaryDurableLSN, st.LagRecords, st.LagSeconds)
}

// ---------------------------------------------------------------------------
// Primary-side endpoints.

// parseLSNParam parses a query parameter as an LSN; empty means 0.
func parseLSNParam(v string) (wal.LSN, error) {
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("server: bad lsn %q", v)
	}
	return wal.LSN(n), nil
}

// handleReplStream is GET /v1/repl/stream?from=<lsn>&epoch=<e>&
// follower_id=<id>: the log-shipping long poll. from is the LSN the
// follower has applied through ("send me from+1 onward") and epoch the
// epoch it applied from under; the response body is raw WAL framing
// (ScanSegment decodes it), covering only records at or below the
// durability watermark. 204 means nothing new committed within the wait
// or before the server began draining; 410 means
// the requested records are behind the truncation horizon and the
// follower must re-bootstrap from /v1/repl/snapshot; 409 means the
// follower claims records this primary never committed (divergence).
func (s *Server) handleReplStream(w http.ResponseWriter, r *http.Request) {
	p := s.persist
	if p == nil {
		writeJSON(w, r, http.StatusPreconditionFailed,
			ErrorResponse{Error: "server: replication requires a durable primary (start it with -data-dir)"})
		return
	}
	q := r.URL.Query()
	from, err := parseLSNParam(q.Get("from"))
	if err != nil {
		writeError(w, r, err)
		return
	}
	wait := defaultStreamWait
	if v := q.Get("wait_ms"); v != "" {
		ms, err := strconv.ParseUint(v, 10, 32)
		if err != nil {
			writeError(w, r, fmt.Errorf("server: bad wait_ms %q", v))
			return
		}
		wait = min(time.Duration(ms)*time.Millisecond, maxStreamWait)
	}
	reqEpoch, err := strconv.ParseUint(q.Get("epoch"), 10, 64)
	id := q.Get("follower_id")
	if err != nil || reqEpoch == 0 || id == "" {
		writeError(w, r, fmt.Errorf("server: a stream poll needs an epoch above 0 and a follower_id (got epoch %q, follower_id %q)",
			q.Get("epoch"), id))
		return
	}
	// Every stream response names this node's epoch, so a follower of a
	// deposed primary can tell "stale primary" (retry elsewhere) from
	// genuine divergence.
	cur := s.epochs.current()
	w.Header().Set(ReplEpochHeader, strconv.FormatUint(cur, 10))
	if reqEpoch > cur {
		// The caller has seen a newer epoch than we ever wrote: a newer
		// primary exists, so this node must fence itself — a poll from the
		// future is as much proof as an explicit fence call. The in-memory
		// fence holds even if the durable marker fails, but a marker
		// failure means a crash would resurrect this node unfenced — so it
		// must not pass silently.
		if ferr := s.Fence(reqEpoch, ""); ferr != nil {
			s.metrics.FenceError()
			s.logger.Error("durable fence marker failed; fence is memory-only until delivered again",
				"fence_epoch", reqEpoch, "error", ferr)
		}
		writeJSON(w, r, http.StatusConflict, ErrorResponse{Error: fmt.Sprintf(
			"server: stale primary: caller has seen epoch %d, this node is at epoch %d", reqEpoch, cur)})
		return
	}
	// Log matching: the epoch the follower applied `from` under must be
	// the epoch this primary wrote it under, or the logs forked there —
	// e.g. an old primary rejoining with acked-but-never-shipped records.
	if from > 0 {
		if have := s.epochs.at(from); have != reqEpoch {
			writeJSON(w, r, http.StatusConflict, ErrorResponse{Error: fmt.Sprintf(
				"server: replication divergence: follower applied lsn %d under epoch %d but this primary wrote it under epoch %d",
				from, reqEpoch, have)})
			return
		}
	}
	if from >= p.log.NextLSN() {
		writeJSON(w, r, http.StatusConflict, ErrorResponse{Error: fmt.Sprintf(
			"server: replication divergence: follower applied through lsn %d but this primary's log ends at %d",
			from, p.log.NextLSN()-1)})
		return
	}
	// The follower's applied LSN doubles as its durability confirmation
	// for quorum-gated acks (piggybacked: no extra round trips). Recorded
	// only after every divergence check above passed: a diverged caller —
	// e.g. a resurrected ex-primary whose `from` counts journaled-but-
	// never-shipped records under a forked epoch — must not vouch for
	// LSNs this log never shipped, or quorum could ack writes no genuine
	// follower holds.
	s.quorum.observe(id, uint64(from))
	// Park until a newer record is durable, the wait runs out, the
	// follower goes away or the server drains. A poisoned (degraded) log
	// will never advance the watermark again, but its committed prefix
	// is still servable — followers converge to the durable LSN and hold
	// there — so the poison error just ends the wait.
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	stop := context.AfterFunc(s.drain, cancel)
	defer stop()
	synced, err := p.log.WaitSynced(ctx, from)
	if errors.Is(err, wal.ErrClosed) {
		writeJSON(w, r, http.StatusServiceUnavailable, ErrorResponse{Error: "server: log closed"})
		return
	}
	w.Header().Set(ReplDurableLSNHeader, strconv.FormatUint(uint64(synced), 10))
	if synced <= from {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	tr := obs.TraceFrom(r.Context())
	span := tr.Begin(obs.StageReplRead)
	frames, count, err := p.log.ReadCommitted(from+1, 0)
	span.End()
	switch {
	case errors.Is(err, wal.ErrTruncated):
		w.Header().Set(ReplOldestLSNHeader, strconv.FormatUint(uint64(p.log.OldestLSN()), 10))
		writeJSON(w, r, http.StatusGone, ErrorResponse{Error: fmt.Sprintf(
			"server: lsn %d is behind the truncation horizon; bootstrap from /v1/repl/snapshot", from+1)})
		return
	case err != nil:
		writeJSON(w, r, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	case count == 0:
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(ReplFirstLSNHeader, strconv.FormatUint(uint64(from+1), 10))
	w.Header().Set(ReplCountHeader, strconv.Itoa(count))
	w.WriteHeader(http.StatusOK)
	w.Write(frames)
}

// handleReplSnapshot is GET /v1/repl/snapshot: the follower bootstrap.
// It captures the full state under the snapshot freeze (so the LSN
// watermark is exact), waits for the captured prefix to be durable (a
// follower must never receive state containing records a primary power
// loss could revoke), and ships the snapshot document with its covered
// LSN in X-Repl-Snapshot-Lsn. 204 means the primary has never journaled
// anything — the follower starts from LSN 0 with empty state.
func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	p := s.persist
	if p == nil {
		writeJSON(w, r, http.StatusPreconditionFailed,
			ErrorResponse{Error: "server: replication requires a durable primary (start it with -data-dir)"})
		return
	}
	state, upTo, err := s.captureDurable()
	if err != nil {
		// A follower must never receive a record a primary power loss
		// could revoke, so a poisoned primary refuses bootstraps.
		writeError(w, r, err)
		return
	}
	if upTo == 0 {
		w.Header().Set(ReplSnapshotLSNHeader, "0")
		w.WriteHeader(http.StatusNoContent)
		return
	}
	payload, err := json.Marshal(state)
	if err != nil {
		writeJSON(w, r, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(ReplSnapshotLSNHeader, strconv.FormatUint(uint64(upTo), 10))
	w.WriteHeader(http.StatusOK)
	w.Write(payload)
}

// stateSHA is the hex SHA-256 of the canonical state document — the
// cheap cross-node convergence check surfaced in /debug/persistence: two
// nodes with equal next_lsn and equal state_sha256 hold bit-identical
// state.
func (s *Server) stateSHA() string {
	doc, err := s.DebugState()
	if err != nil {
		return ""
	}
	return fmt.Sprintf("%x", sha256.Sum256(doc))
}
