package server

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
)

// Replication. A durable primary serves its committed WAL prefix over
// GET /v1/repl/stream and its full state over GET /v1/repl/snapshot
// (for followers bootstrapping from scratch or stranded behind the
// log-truncation horizon). A stream is one long-lived full-duplex
// exchange per follower: once it answers 200 the primary writes a batch
// of raw WAL frames each time records commit, and the follower writes
// its applied LSN up the request body after applying each batch — the
// confirmation quorum-gated acks wait for. A follower (SetFollower)
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
	// ReplFirstLSNHeader is the LSN of the first record a stream ships.
	ReplFirstLSNHeader = "X-Repl-First-Lsn"
	// ReplDurableLSNHeader is the primary's durability watermark when the
	// stream opened (also on 204, so an idle follower still tracks lag).
	ReplDurableLSNHeader = "X-Repl-Durable-Lsn"
	// ReplOldestLSNHeader is the primary's truncation horizon, sent with
	// 410 so a stranded follower knows how far behind it is.
	ReplOldestLSNHeader = "X-Repl-Oldest-Lsn"
	// ReplSnapshotLSNHeader is the LSN a shipped snapshot covers.
	ReplSnapshotLSNHeader = "X-Repl-Snapshot-Lsn"
)

// Stream framing. A 200 stream body is a sequence of batches, each
// [u64 durable watermark][u32 byte length][raw WAL frames]; the request
// body carries the follower's confirmations, each a u64 applied LSN.
// Integers are little-endian, like the WAL framing they wrap.
const (
	// ReplBatchHeaderBytes is the size of a batch's header.
	ReplBatchHeaderBytes = 12
	// ReplConfirmBytes is the size of one confirmation.
	ReplConfirmBytes = 8
)

// Stream bounds.
const (
	// defaultStreamWait and maxStreamWait bound wait_ms: how long a
	// stream stays open with nothing to ship.
	defaultStreamWait = 10 * time.Second
	maxStreamWait     = 60 * time.Second
	// streamWriteGrace is how long a batch write may still take once its
	// stream has ended, so a follower that stopped reading cannot hold
	// the handler past drain.
	streamWriteGrace = time.Second
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
// follower_id=<id>[&wait_ms=<ms>]: one follower's replication stream.
// from is the LSN the follower has applied through ("send me from+1
// onward") and epoch the epoch it applied from under. The open answers
// 409 when the follower claims records this primary never committed
// (divergence) or names a newer epoch (this node fences itself), 410
// when from+1 is behind the truncation horizon (bootstrap from
// /v1/repl/snapshot), 503 when the log is closed, 204 when nothing
// commits within wait_ms or before the server drains, and 200 once there
// is a batch to ship. After the 200 the handler writes one batch per
// commit it sees — only ever records at or below the durability
// watermark — and reads the follower's confirmations off the request
// body (readConfirms). The stream ends after wait_ms with nothing to
// ship, at drain, when the log closes or a read fails (the reconnect
// then gets its 503, 410 or 500), or when the follower goes away or
// confirms what this stream did not ship it.
func (s *Server) handleReplStream(w http.ResponseWriter, r *http.Request) {
	p := s.persist
	if p == nil {
		writeJSON(w, r, http.StatusPreconditionFailed,
			ErrorResponse{Error: "server: replication requires a durable primary (start it with -data-dir)"})
		return
	}
	// Confirmations come up the request body while batches go down: full
	// duplex. No answer reads that body to its end, so the connection
	// closes with the answer, and a past read deadline keeps the server's
	// drain of the unread body after the handler from blocking; it also
	// ends readConfirms' blocked read, so no goroutine outlives the
	// request. A GET without a body confirms only its from.
	rc := http.NewResponseController(w)
	confirms := r.Body != http.NoBody && rc.EnableFullDuplex() == nil
	var confirming chan struct{} // closed when readConfirms returns
	if confirms {
		w.Header().Set("Connection", "close")
		defer func() {
			rc.SetReadDeadline(time.Now())
			if confirming != nil {
				<-confirming
			}
		}()
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
		writeError(w, r, fmt.Errorf("server: a stream needs an epoch above 0 and a follower_id (got epoch %q, follower_id %q)",
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
		// primary exists, so this node must fence itself — a stream from
		// the future is as much proof as an explicit fence call. The
		// in-memory fence holds even if the durable marker fails, but a
		// marker failure means a crash would resurrect this node unfenced
		// — so it must not pass silently.
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
	// The follower's applied LSN is its first durability confirmation for
	// quorum-gated acks. Recorded only after every divergence check above
	// passed: a diverged caller — e.g. a resurrected ex-primary whose
	// `from` counts journaled-but-never-shipped records under a forked
	// epoch — must not vouch for LSNs this log never shipped, or quorum
	// could ack writes no genuine follower holds.
	s.quorum.observe(id, uint64(from))
	s.metrics.replStreamsOpen.Add(1)
	defer s.metrics.replStreamsOpen.Add(-1)
	// The stream's context ends when wait_ms passes with nothing shipped
	// (idle, re-armed after every batch), at drain, when the follower
	// goes away, or when readConfirms ends it. Every wait below parks on
	// it; nothing is registered per batch.
	ctx, end := context.WithCancel(r.Context())
	defer end()
	stopDrain := context.AfterFunc(s.drain, end)
	defer stopDrain()
	idle := time.AfterFunc(wait, end)
	defer idle.Stop()
	waiter := p.log.WatchSynced(ctx)
	defer waiter.Stop()
	synced, err := waiter.Wait(from)
	if errors.Is(err, wal.ErrClosed) {
		writeJSON(w, r, http.StatusServiceUnavailable, ErrorResponse{Error: "server: log closed"})
		return
	}
	w.Header().Set(ReplDurableLSNHeader, strconv.FormatUint(uint64(synced), 10))
	if synced <= from {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	frames, count, err := s.readBatch(from + 1)
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
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set(ReplFirstLSNHeader, strconv.FormatUint(uint64(from+1), 10))
	// The connection ends with the stream even without a request body:
	// the write grace below may outlive the handler.
	h.Set("Connection", "close")
	w.WriteHeader(http.StatusOK)
	stopGrace := context.AfterFunc(ctx, func() { rc.SetWriteDeadline(time.Now().Add(streamWriteGrace)) })
	defer stopGrace()
	var shipped atomic.Uint64 // the last LSN this stream has shipped
	if confirms {
		confirming = make(chan struct{})
		go func(prev uint64) {
			defer close(confirming)
			s.readConfirms(r.Body, id, prev, &shipped, end)
		}(uint64(from))
	}
	var header [ReplBatchHeaderBytes]byte
	for {
		from += wal.LSN(count)
		// Published before the write: a fast follower's confirmation of
		// this batch must find it.
		shipped.Store(uint64(from))
		binary.LittleEndian.PutUint64(header[0:8], uint64(synced))
		binary.LittleEndian.PutUint32(header[8:12], uint32(len(frames)))
		if _, err := w.Write(header[:]); err != nil {
			return
		}
		if _, err := w.Write(frames); err != nil {
			return
		}
		if rc.Flush() != nil {
			return
		}
		idle.Reset(wait)
		if synced, err = waiter.Wait(from); err != nil || synced <= from {
			return // closed, or the stream's context ended
		}
		if frames, count, err = s.readBatch(from + 1); err != nil || count == 0 {
			return // the reconnect gets its 410 or 500
		}
	}
}

// readBatch reads the committed records from `from` on for one stream
// answer or batch, feeding its time to the repl_read stage: a stream
// outlives the per-request trace, which stores only the first spans.
func (s *Server) readBatch(from wal.LSN) ([]byte, int, error) {
	start := time.Now()
	frames, count, err := s.persist.log.ReadCommitted(from, 0)
	s.recorder.ObserveStage(obs.StageReplRead, time.Since(start))
	return frames, count, err
}

// readConfirms reads follower id's confirmations off its stream's
// request body and records each in the quorum table. A confirmation
// counts only above the previous one (at first, the stream's from) and
// at most the last LSN this stream has shipped; any other value ends
// the stream with nothing recorded, as a failed read does. A body that
// simply ends leaves the stream running: it confirms nothing more.
func (s *Server) readConfirms(body io.Reader, id string, prev uint64, shipped *atomic.Uint64, end context.CancelFunc) {
	var buf [ReplConfirmBytes]byte
	for {
		if _, err := io.ReadFull(body, buf[:]); err != nil {
			if err != io.EOF {
				end()
			}
			return
		}
		lsn := binary.LittleEndian.Uint64(buf[:])
		if last := shipped.Load(); lsn <= prev || lsn > last {
			s.logger.Warn("replication stream ended: confirmation out of range",
				"follower_id", id, "confirmed", lsn, "previous", prev, "shipped", last)
			end()
			return
		}
		prev = lsn
		s.quorum.observe(id, lsn)
	}
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
