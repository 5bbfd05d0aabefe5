package server

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
)

// Promotion and fencing. Every primary writes under a monotonically
// increasing epoch. Epoch 1 is implicit (a freshly initialized log needs
// no boot record); each promotion journals a RecEpoch record carrying the
// new epoch number and its own LSN, so the epoch history replays from the
// WAL like any other state and every node that has applied the same
// prefix agrees on which epoch governs every LSN. The stream handler uses
// that agreement as a Raft-style log-matching check: a follower's request
// names the epoch of its last applied record, and a mismatch against the
// primary's own epoch-at-that-LSN is divergence, caught before a single
// forked record ships.
//
// Fencing is how a deposed primary is kept from accepting writes it can
// no longer replicate: an explicit POST /v1/repl/fence (or a stream
// request from a higher epoch) records "a newer primary holds epoch E".
// The fence is in effect while the fence epoch exceeds the node's own
// current epoch — so it clears itself if the node later rejoins as a
// follower and replays the RecEpoch record that outranks it — and it is
// persisted to fence.json so a fenced primary stays fenced across a
// restart.

// EpochHeader is stamped on every HTTP response: the epoch of the serving
// node, so clients and operators can spot a stale primary at a glance.
const EpochHeader = "X-Juryd-Epoch"

// ReplEpochHeader carries the answering node's current epoch on every
// replication stream response. A follower that sees a LOWER epoch than
// its own in a stream 409 knows the primary is stale (retry/repoint, not
// divergence).
const ReplEpochHeader = "X-Repl-Epoch"

// fenceFile is the durable fence marker in the data dir. It is not log
// state (wal.HasState ignores it): a wiped-and-rebootstrapped node starts
// unfenced by construction.
const fenceFile = "fence.json"

// defaultQuorumTimeout bounds the ack wait for quorum-gated mutations
// when Config.QuorumTimeout is zero.
const defaultQuorumTimeout = 5 * time.Second

var (
	// ErrQuorumTimeout marks a mutation that is durable on the primary but
	// was not confirmed by enough followers within the timeout. The
	// mutation may still replicate; a keyed retry resolves either way
	// (dedup answers it once the quorum recovers).
	ErrQuorumTimeout = errors.New("server: quorum not reached: mutation durable locally but unconfirmed by followers")
	// ErrNotFollower is returned by follower-only operations (repoint,
	// replicated applies) on a node serving as primary.
	ErrNotFollower = errors.New("server: not a follower")
	// ErrPromoting is returned when a promotion is already in flight.
	ErrPromoting = errors.New("server: promotion already in progress")
	// ErrFenceStale rejects a fence request whose epoch does not outrank
	// the node's current epoch — fencing the legitimate holder of an epoch
	// with its own (or an older) epoch would be a correctness bug, not an
	// operation.
	ErrFenceStale = errors.New("server: fence epoch is not newer than the current epoch")
)

// FencedError is the mutation-rejection error of a fenced ex-primary: a
// newer primary holds a higher epoch, so this node must never acknowledge
// another write. Maps to 421 with the new primary's address (when known)
// in X-Juryd-Primary, exactly like a follower's rejection — to a client,
// "fenced primary" and "replica" mean the same thing: write elsewhere.
type FencedError struct {
	// Epoch is the fencing (newer) epoch.
	Epoch uint64
	// Primary is the new primary's base URL; may be empty when the fence
	// arrived without one (e.g. via a stream request from a higher epoch).
	Primary string
}

func (e *FencedError) Error() string {
	if e.Primary == "" {
		return fmt.Sprintf("server: fenced: a newer primary holds epoch %d; this node is read-only", e.Epoch)
	}
	return fmt.Sprintf("server: fenced: a newer primary at %s holds epoch %d; this node is read-only", e.Primary, e.Epoch)
}

// ---------------------------------------------------------------------------
// Epoch table.

// EpochEntry records that Epoch governs records from StartLSN onward
// (until a later entry's StartLSN). The table replays from RecEpoch
// records and travels in snapshots, so it is part of the bit-exact state.
type EpochEntry struct {
	Epoch    uint64 `json:"epoch"`
	StartLSN uint64 `json:"start_lsn"`
}

// epochTable is the replayed promotion history. The zero value is epoch 1
// with no recorded entries.
type epochTable struct {
	mu      sync.RWMutex
	entries []EpochEntry
}

// current is the newest epoch; 1 when no promotion was ever recorded.
func (t *epochTable) current() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.entries) == 0 {
		return 1
	}
	return t.entries[len(t.entries)-1].Epoch
}

// at is the epoch governing lsn: the newest entry with StartLSN <= lsn,
// or 1 before any recorded promotion.
func (t *epochTable) at(lsn wal.LSN) uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	// First entry with StartLSN > lsn; the one before it governs.
	i := sort.Search(len(t.entries), func(i int) bool {
		return t.entries[i].StartLSN > uint64(lsn)
	})
	if i == 0 {
		return 1
	}
	return t.entries[i-1].Epoch
}

// prepareLocked validates a RecEpoch record and returns the step that
// appends it. Epochs and start LSNs must be strictly increasing — a
// violation means the log being replayed was forked. Callers hold t.mu.
func (t *epochTable) prepareLocked(rec *Record) (func(), error) {
	if len(t.entries) > 0 {
		last := t.entries[len(t.entries)-1]
		if rec.Epoch <= last.Epoch || rec.StartLSN <= last.StartLSN {
			return nil, fmt.Errorf("server: epoch record (%d @ lsn %d) does not advance (%d @ lsn %d)",
				rec.Epoch, rec.StartLSN, last.Epoch, last.StartLSN)
		}
	} else if rec.Epoch <= 1 {
		return nil, fmt.Errorf("server: epoch record %d does not advance the implicit epoch 1", rec.Epoch)
	}
	return func() {
		t.entries = append(t.entries, EpochEntry{Epoch: rec.Epoch, StartLSN: rec.StartLSN})
	}, nil
}

// add appends one promotion as boot replay does: through a txn that
// journals nothing.
func (t *epochTable) add(epoch uint64, start wal.LSN) error {
	return (&txn{ctx: context.Background()}).runLocked(&t.mu,
		&Record{T: RecEpoch, Epoch: epoch, StartLSN: uint64(start)}, t.prepareLocked)
}

// snapshot copies the table for the snapshot document.
func (t *epochTable) snapshot() []EpochEntry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.entries) == 0 {
		return nil
	}
	return append([]EpochEntry(nil), t.entries...)
}

// load replaces the table from a snapshot document, replaying each entry
// through add so a snapshot faces the same fork check as the WAL.
func (t *epochTable) load(entries []EpochEntry) error {
	t.mu.Lock()
	t.entries = nil
	t.mu.Unlock()
	for _, e := range entries {
		if err := t.add(e.Epoch, wal.LSN(e.StartLSN)); err != nil {
			return err
		}
	}
	return nil
}

// CurrentEpoch is the epoch this node believes is newest — on a primary,
// the epoch it writes under.
func (s *Server) CurrentEpoch() uint64 { return s.epochs.current() }

// EpochAt is the epoch governing lsn in this node's replayed history
// (what a follower reports on its stream requests for log matching).
func (s *Server) EpochAt(lsn wal.LSN) uint64 { return s.epochs.at(lsn) }

// ---------------------------------------------------------------------------
// Fencing.

// fenceDoc is the fence.json document.
type fenceDoc struct {
	Epoch   uint64 `json:"epoch"`
	Primary string `json:"primary,omitempty"`
}

// loadFence reads the durable fence marker; ok is false when none exists.
func loadFence(fsys wal.FS, dir string) (fenceDoc, bool, error) {
	data, err := fsys.ReadFile(filepath.Join(dir, fenceFile))
	if errors.Is(err, os.ErrNotExist) {
		return fenceDoc{}, false, nil
	}
	if err != nil {
		return fenceDoc{}, false, err
	}
	var doc fenceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return fenceDoc{}, false, fmt.Errorf("server: %s: %w", fenceFile, err)
	}
	return doc, true, nil
}

// saveFence installs the fence marker (wal.Install), so a crash leaves
// either the old fence or the new, and a nil return means the fence
// survives power loss.
func saveFence(fsys wal.FS, dir string, doc fenceDoc) error {
	payload, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return wal.Install(fsys, dir, fenceFile, payload)
}

// followerIDFile holds a follower's replication identity in its data dir.
const followerIDFile = "follower-id"

// FollowerID returns the replication identity kept in the data dir,
// drawing and installing (wal.Install) a random one on first use. The
// primary counts -quorum confirmations per id, so the id must outlive
// the process: under a fresh id, a restarted follower would confirm the
// LSNs it had already confirmed a second time and count twice. The id
// belongs to the data dir, so wiping the dir draws a new one; a server
// without one has no identity to keep and gets an error.
func (s *Server) FollowerID() (string, error) {
	p := s.persist
	if p == nil {
		return "", errors.New("server: a follower identity needs a data dir")
	}
	path := filepath.Join(p.dir, followerIDFile)
	data, err := p.fs.ReadFile(path)
	if err == nil {
		id := strings.TrimSpace(string(data))
		if id == "" {
			return "", fmt.Errorf("server: %s is empty", path)
		}
		return id, nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return "", err
	}
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	id := "follower-" + hex.EncodeToString(b[:])
	if err := wal.Install(p.fs, p.dir, followerIDFile, []byte(id+"\n")); err != nil {
		return "", err
	}
	return id, nil
}

// FencedState reports whether the node is currently fenced, and by which
// epoch and primary. The fence is live only while its epoch exceeds the
// node's own: a node that catches up past the fencing epoch (by replaying
// the promotion as a follower, or by being promoted itself) is no longer
// the stale primary the fence was guarding against.
func (s *Server) FencedState() (fenced bool, epoch uint64, primary string) {
	s.fenceMu.Lock()
	epoch, primary = s.fenceEpoch, s.fencePrimary
	s.fenceMu.Unlock()
	if epoch == 0 {
		return false, 0, ""
	}
	return epoch > s.epochs.current(), epoch, primary
}

// Fence records that a newer primary holds epoch (with its base URL, when
// known): this node must not acknowledge writes under any older epoch.
// Idempotent: re-fencing at or below an existing fence epoch keeps the
// higher fence (and fills in a missing primary URL). epoch must outrank
// the node's current epoch (ErrFenceStale otherwise). The fence takes
// effect in memory before the durable marker is written; a marker write
// failure is returned but does NOT lift the in-memory fence.
func (s *Server) Fence(epoch uint64, primary string) error {
	// fenceMu spans the stale-check and the install, so FencedState readers
	// see them as one atomic step. A concurrent Promote can still advance
	// s.epochs between the check and a reader's re-evaluation — that race
	// is benign by construction: FencedState re-compares the fence epoch
	// against the current epoch on every call, so a fence outranked by a
	// promotion is inert, and the worst outcome here is a spurious
	// ErrFenceStale for a caller racing the promotion it lost to.
	s.fenceMu.Lock()
	if cur := s.epochs.current(); epoch <= cur {
		s.fenceMu.Unlock()
		return fmt.Errorf("%w: fence epoch %d, current epoch %d", ErrFenceStale, epoch, cur)
	}
	if epoch > s.fenceEpoch {
		s.fenceEpoch = epoch
		s.fencePrimary = primary
	} else if epoch == s.fenceEpoch && s.fencePrimary == "" && primary != "" {
		s.fencePrimary = primary
	}
	doc := fenceDoc{Epoch: s.fenceEpoch, Primary: s.fencePrimary}
	s.fenceMu.Unlock()
	if p := s.persist; p != nil {
		if err := saveFence(p.fs, p.dir, doc); err != nil {
			return fmt.Errorf("server: fenced in memory, but persisting %s failed: %w", fenceFile, err)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Quorum acks.

// quorumAcks tracks, per follower, the highest durable LSN it has
// confirmed (on its replication stream: the from it opened with, then
// one confirmation per batch applied). With Config.Quorum = N, a
// mutation is acknowledged only once N-1 distinct followers have
// confirmed its LSN — which is what makes "promote the most-caught-up
// follower" provably preserve every acknowledged mutation.
type quorumAcks struct {
	mu   sync.Mutex
	acks map[string]uint64
	// advanced is closed when a confirmation advances, waking every
	// parked waiter to recount; the first waiter after that makes the
	// next one.
	advanced chan struct{}
}

// observe records follower id's confirmed durable LSN and wakes the
// waiters to recount.
func (q *quorumAcks) observe(id string, lsn uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.acks == nil {
		q.acks = make(map[string]uint64)
	}
	if lsn <= q.acks[id] {
		return
	}
	q.acks[id] = lsn
	if q.advanced != nil {
		close(q.advanced)
		q.advanced = nil
	}
}

// confirmedLocked counts followers whose confirmed LSN covers lsn.
func (q *quorumAcks) confirmedLocked(lsn uint64) int {
	n := 0
	for _, v := range q.acks {
		if v >= lsn {
			n++
		}
	}
	return n
}

// wait blocks until need followers confirm lsn, ctx ends (its error),
// or timeout passes (context.DeadlineExceeded). It derives no context
// and registers nothing on ctx: one select on ctx, a plain timer and
// the advance channel.
func (q *quorumAcks) wait(ctx context.Context, lsn uint64, need int, timeout time.Duration) error {
	var timer *time.Timer
	for {
		q.mu.Lock()
		if q.confirmedLocked(lsn) >= need {
			q.mu.Unlock()
			return nil
		}
		if q.advanced == nil {
			q.advanced = make(chan struct{})
		}
		advanced := q.advanced
		q.mu.Unlock()
		if timer == nil {
			timer = time.NewTimer(timeout)
			defer timer.Stop()
		}
		select {
		case <-advanced:
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
			return context.DeadlineExceeded
		}
	}
}

// snapshot copies the ack table (for status/debug).
func (q *quorumAcks) snapshot() map[string]uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.acks) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(q.acks))
	for k, v := range q.acks {
		out[k] = v
	}
	return out
}

// quorumWait gates one mutation ack on the follower quorum inside a
// quorum_wait span, error-tagged when the quorum timed out; a no-op (and
// no span) unless Config.Quorum > 1 and the mutation journaled a record
// (lsn above 0).
func (s *Server) quorumWait(ctx context.Context, lsn wal.LSN) error {
	need := s.cfg.Quorum - 1
	if need <= 0 || lsn == 0 {
		return nil
	}
	timeout := s.cfg.QuorumTimeout
	if timeout <= 0 {
		timeout = defaultQuorumTimeout
	}
	tr := obs.TraceFrom(ctx)
	start := time.Now()
	if err := s.quorum.wait(ctx, uint64(lsn), need, timeout); err != nil {
		tr.AddErr(obs.StageQuorumWait, start, time.Since(start))
		s.metrics.QuorumTimeout()
		return fmt.Errorf("%w: lsn %d needs %d follower confirmation(s): %v", ErrQuorumTimeout, lsn, need, err)
	}
	tr.Add(obs.StageQuorumWait, start, time.Since(start))
	return nil
}

// ---------------------------------------------------------------------------
// Promotion and repointing.

// fenceClient delivers the best-effort fence call to the old primary
// during a promotion; short timeout — a dead primary must not stall the
// failover it caused.
var fenceClient = &http.Client{Timeout: 2 * time.Second}

// Promote turns this follower into a writable primary under a new epoch:
// it stops accepting replicated frames, drains in-flight applies (the
// snapshot freeze doubles as the barrier), stages and applies the
// RecEpoch record opening epoch N+1 at the next LSN, makes it durable
// (a failed flush restores and degrades, as for any write), switches out
// of follower mode, and best-effort fences the old primary (advertise is
// the base URL the promoted node should be reached at; it rides along on
// the fence so clients bounced by the old primary land here). Promoting an
// already-primary node is an idempotent no-op (AlreadyPrimary).
func (s *Server) Promote(ctx context.Context, advertise string) (PromoteResponse, error) {
	rs := s.repl.Load()
	if rs == nil {
		return PromoteResponse{
			AlreadyPrimary: true,
			Epoch:          s.epochs.current(),
			AppliedLSN:     uint64(s.AppliedLSN()),
		}, nil
	}
	if degraded, cause := s.DegradedState(); degraded {
		return PromoteResponse{}, fmt.Errorf("server: cannot promote a degraded follower: %w (%v)", ErrDegraded, cause)
	}
	if s.Draining() {
		return PromoteResponse{}, fmt.Errorf("server: cannot promote: %w", ErrDraining)
	}
	p := s.persist
	if p == nil {
		return PromoteResponse{}, errors.New("server: promotion requires persistence (-data-dir)")
	}
	if !s.promoting.CompareAndSwap(false, true) {
		return PromoteResponse{}, ErrPromoting
	}
	defer s.promoting.Store(false)
	// The exclusive freeze drains every in-flight ApplyReplicated (each
	// holds the freeze shared while it stages and applies), so the epoch
	// record lands directly after the last applied frame.
	p.freeze.Lock()
	newEpoch := s.epochs.current() + 1
	// A fenced follower knows a newer primary held the fence epoch; its
	// promotion must open an epoch past that one, or the node would come
	// up as a "primary" still outranked by its own fence marker —
	// answering every mutation with 421 toward a possibly-dead primary.
	// Cascaded failovers hit this: epochs.current() lags the fence when
	// the fencing primary died before shipping its RecEpoch record.
	var supersededFence uint64
	s.fenceMu.Lock()
	if s.fenceEpoch >= newEpoch {
		supersededFence = s.fenceEpoch
		newEpoch = s.fenceEpoch + 1
	}
	s.fenceMu.Unlock()
	start := p.log.NextLSN()
	tx := &txn{j: p.journal, ctx: ctx}
	err := s.applyRecord(tx, &Record{T: RecEpoch, Epoch: newEpoch, StartLSN: uint64(start)})
	p.freeze.Unlock()
	// The durability step, never quorum-gated: there are no followers yet.
	if serr := tx.settle(); serr != nil {
		err = serr
	}
	if err != nil {
		return PromoteResponse{}, fmt.Errorf("server: promote: %w", err)
	}
	oldPrimary := rs.primaryURL()
	// Order matters: the epoch record is durable before the node starts
	// acknowledging writes under it.
	s.repl.Store(nil)
	s.logger.Info("promoted to primary", "epoch", newEpoch, "epoch_record_lsn", uint64(start),
		"old_primary", oldPrimary, "superseded_fence_epoch", supersededFence)
	res := PromoteResponse{
		Promoted:             true,
		Epoch:                newEpoch,
		AppliedLSN:           uint64(start),
		OldPrimary:           oldPrimary,
		SupersededFenceEpoch: supersededFence,
	}
	if oldPrimary != "" {
		res.OldPrimaryFenced = fenceRemote(ctx, oldPrimary, newEpoch, advertise)
	}
	return res, nil
}

// fenceRemote posts the fence call to base; false means it did not land
// (dead primary — deliver the fence when it resurrects, or wipe it).
func fenceRemote(ctx context.Context, base string, epoch uint64, advertise string) bool {
	body, err := json.Marshal(FenceRequest{Epoch: epoch, Primary: advertise})
	if err != nil {
		return false
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		base+"/v1/repl/fence", bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := fenceClient.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	return resp.StatusCode < 300
}

// Repoint retargets a follower's replication at a new primary base URL
// (after a promotion elsewhere). The stream loop picks the new target up
// at the next batch or stream, whichever comes first. ErrNotFollower on
// a primary.
func (s *Server) Repoint(primary string) error {
	rs := s.repl.Load()
	if rs == nil {
		return ErrNotFollower
	}
	rs.setPrimary(primary)
	return nil
}

// PrimaryURL is the primary this follower currently replicates from; ""
// on a primary. The follower stream loop re-reads it at every batch and
// every stream, so a Repoint takes effect without restarting the loop.
func (s *Server) PrimaryURL() string {
	rs := s.repl.Load()
	if rs == nil {
		return ""
	}
	return rs.primaryURL()
}

// ---------------------------------------------------------------------------
// HTTP handlers.

// handlePromote is POST /v1/repl/promote: fence-and-switch this follower
// into a writable primary under the next epoch (see Promote).
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	var req PromoteRequest
	if err := decodeBody(w, r, &req, true); err != nil {
		writeError(w, r, err)
		return
	}
	res, err := s.Promote(r.Context(), req.Advertise)
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, r, http.StatusOK, res)
}

// handleFence is POST /v1/repl/fence: record that a newer primary holds
// the given epoch; this node stops acknowledging writes (421) until it
// catches up past that epoch as a follower. When fence.json cannot be
// installed the fence still holds in memory, and the route answers 500
// and counts juryd_fence_errors_total.
func (s *Server) handleFence(w http.ResponseWriter, r *http.Request) {
	var req FenceRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, r, err)
		return
	}
	if req.Epoch == 0 {
		writeError(w, r, errors.New("server: fence needs an epoch"))
		return
	}
	if err := s.Fence(req.Epoch, req.Primary); err != nil {
		if !errors.Is(err, ErrFenceStale) {
			// Fenced in memory, but the marker did not persist: count
			// it as the stream's self-fence does.
			s.metrics.FenceError()
		}
		writeError(w, r, err)
		return
	}
	fenced, epoch, primary := s.FencedState()
	writeJSON(w, r, http.StatusOK, FenceResponse{
		Fenced:       fenced,
		Epoch:        epoch,
		Primary:      primary,
		CurrentEpoch: s.epochs.current(),
	})
}

// handleRepoint is POST /v1/repl/repoint: retarget this follower's
// replication stream at a new primary (after a promotion elsewhere).
func (s *Server) handleRepoint(w http.ResponseWriter, r *http.Request) {
	var req RepointRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, r, err)
		return
	}
	if req.Primary == "" {
		writeError(w, r, errors.New("server: repoint needs a primary url"))
		return
	}
	if err := s.Repoint(req.Primary); err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, r, http.StatusOK, RepointResponse{Primary: req.Primary})
}
