package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/online"
	"repro/internal/wal"
)

// Durability. With Config.DataDir set, every journaled record takes one
// path (journal.go) in one order: stage, apply, flush, then ack or
// confirm. That holds for registry, multi-registry and session
// mutations, for the records a follower applies (ApplyReplicated) and
// for a promotion's epoch record (Promote). Under the snapshot freeze
// and the store's own lock, the store's prepareLocked validates the
// record and returns its apply step; the record then stages and reserves
// its LSN, so the WAL order and the in-memory order are identical, and
// only then is it applied. The store lock and the freeze are released
// before the durability step waits for the flush — that is what lets
// independent registries, sessions and pools, or every record of a
// shipped batch, share one write and one fsync — and the handler
// acknowledges only after the flush (and, with a quorum, the followers)
// confirm the record; a follower confirms only what its flush made
// durable. A refused stage changes nothing; a failed flush leaves the
// record applied, so before it answers 503 restoreDurable rebuilds the
// stores from the durable prefix and the server degrades to read-only
// mode. A snapshot captures under the freeze exclusively and then waits
// for the log to be durable: every LSN a snapshot covers must be
// durable, or recovery would find the snapshot ahead of the log.
// Recovery (Open) loads the newest snapshot and replays the WAL tail
// through the same prepareLocked steps with a txn that journals nothing,
// then resumes journaling; because replay is deterministic, a recovered
// registry carries bit-identical posteriors and therefore produces
// bit-identical pool signatures — the selection cache (which starts
// empty after a restart) refills under exactly the keys the pre-crash
// process was using.

// RecordType tags one WAL record.
type RecordType string

// The journaled mutation types.
const (
	RecRegister      RecordType = "register"
	RecUpdate        RecordType = "update"
	RecRemove        RecordType = "remove"
	RecIngest        RecordType = "ingest"
	RecSessionOpen   RecordType = "session-open"
	RecSessionVote   RecordType = "session-vote"
	RecSessionBudget RecordType = "session-budget"
	RecSessionClose  RecordType = "session-close"
	RecSessionReap   RecordType = "session-reap"
	RecMultiCreate   RecordType = "multi-create"
	RecMultiRegister RecordType = "multi-register"
	RecMultiIngest   RecordType = "multi-ingest"
	RecMultiDrop     RecordType = "multi-drop"
	// RecEpoch opens a new primary epoch: the first record a promoted
	// follower writes. It carries its own LSN (StartLSN) so the epoch
	// table replays self-contained from any snapshot+tail combination.
	RecEpoch RecordType = "epoch"
)

// Record is one durable mutation, the unit of WAL replay. Every input a
// mutation depends on is captured in the record itself (the resolved
// prior strength, the voting worker's quality at ingest time, the session
// id counter), so replay needs no environment and reconstructs state
// bit-identically regardless of configuration or clock.
type Record struct {
	T RecordType `json:"t"`
	// Key is the client-generated idempotency key of a keyed ingest
	// (RecIngest, RecMultiIngest); "" for unkeyed mutations. Dedup runs
	// before journaling, so a key appears in the log at most once; replay
	// re-adds it to the dedup table, which is what makes exactly-once
	// survive crash recovery.
	Key string `json:"key,omitempty"`
	// Specs carries the registered (RecRegister) or replacement
	// (RecUpdate, single element) worker specs.
	Specs []WorkerSpec `json:"specs,omitempty"`
	// Strength is the resolved default prior strength behind Specs.
	Strength float64 `json:"strength,omitempty"`
	// WorkerID names the removed worker (RecRemove).
	WorkerID string `json:"worker_id,omitempty"`
	// Events carries an ingested vote batch (RecIngest).
	Events []VoteEvent `json:"events,omitempty"`
	// Session carries the session-record payload (RecSession*).
	Session *SessionRecord `json:"session,omitempty"`
	// Multi carries the multi-choice registry payload (RecMulti*).
	Multi *MultiRecord `json:"multi,omitempty"`
	// Epoch and StartLSN carry a promotion (RecEpoch): the new epoch
	// number and the LSN of this record itself.
	Epoch    uint64 `json:"epoch,omitempty"`
	StartLSN uint64 `json:"start_lsn,omitempty"`
}

// MultiRecord is the multi-choice-mutation payload of a Record.
type MultiRecord struct {
	// Pool names the pool acted on (all types).
	Pool string `json:"pool"`
	// Labels is the created pool's resolved label count (RecMultiCreate).
	Labels int `json:"labels,omitempty"`
	// Specs carries the registered worker specs (RecMultiCreate,
	// RecMultiRegister) and Strength the resolved default prior strength
	// behind them, so replay needs no configuration.
	Specs    []MultiWorkerSpec `json:"specs,omitempty"`
	Strength float64           `json:"strength,omitempty"`
	// Events carries an ingested multi-label vote batch (RecMultiIngest).
	Events []MultiVoteEvent `json:"events,omitempty"`
}

// SessionRecord is the session-mutation payload of a Record.
type SessionRecord struct {
	// ID is the session acted on (all types but reap).
	ID string `json:"id,omitempty"`
	// Next is the id counter value the open consumed (RecSessionOpen).
	Next uint64 `json:"next,omitempty"`
	// Config is the opened session's stopping rule (RecSessionOpen).
	Config *online.Config `json:"config,omitempty"`
	// Quality and Cost are the voting worker's registry state at ingest
	// time and Vote the answer (RecSessionVote) — captured in the record
	// so replay does not depend on the registry's replay position.
	Quality float64 `json:"quality,omitempty"`
	Cost    float64 `json:"cost,omitempty"`
	Vote    int     `json:"vote,omitempty"`
	// Reaped lists the sessions dropped by one reap pass (RecSessionReap).
	Reaped []string `json:"reaped,omitempty"`
}

// serverState is the JSON snapshot document: the full durable state of a
// Server as of one WAL position.
type serverState struct {
	Registry registryState      `json:"registry"`
	Sessions sessionsState      `json:"sessions"`
	Multi    multiRegistryState `json:"multi"`
	// Epochs is the promotion history (empty on a never-promoted
	// cluster; omitted then, so pre-failover snapshots replay unchanged).
	Epochs []EpochEntry `json:"epochs,omitempty"`
}

// multiRegistryState serializes the multi-choice registry, pools in
// creation order.
type multiRegistryState struct {
	Gen   uint64             `json:"gen"`
	Pools []multiPoolPersist `json:"pools,omitempty"`
	// Idem is the ingest idempotency-key table in insertion order.
	Idem []string `json:"idem,omitempty"`
}

// multiPoolPersist is one pool's full state.
type multiPoolPersist struct {
	Name    string             `json:"name"`
	Labels  int                `json:"labels"`
	Workers []multiWorkerState `json:"workers"`
}

// registryState serializes the worker registry in registration order.
type registryState struct {
	Gen     uint64        `json:"gen"`
	Workers []workerState `json:"workers"`
	// Idem is the ingest idempotency-key table in insertion order.
	Idem []string `json:"idem,omitempty"`
}

// sessionsState serializes the live sessions, ordered by id.
type sessionsState struct {
	Next     uint64           `json:"next"`
	Sessions []sessionPersist `json:"sessions,omitempty"`
}

type sessionPersist struct {
	ID    string                 `json:"id"`
	State online.SessionSnapshot `json:"state"`
}

// Persistence binds a Server to its WAL and snapshot files.
type Persistence struct {
	dir string
	fs  wal.FS
	*journal

	// mu guards the fields below, and orders a snapshot's install and
	// truncation against restoreDurable.
	mu           sync.Mutex
	lastSnapshot wal.LSN
	snapshots    uint64
	recovery     RecoveryStatus
	recoveredAt  time.Time
}

// Open builds a Server like New and, when cfg.DataDir is set, makes it
// durable: recover state from the newest snapshot plus the WAL tail
// (truncating a torn trailing record), then journal every subsequent
// mutation. With an empty DataDir it is exactly New, except that it
// refuses Quorum > 1: an in-memory server has no log to ship, so no
// follower could ever confirm the writes it would ack.
func Open(cfg Config) (*Server, error) {
	if cfg.Quorum > 1 && cfg.DataDir == "" {
		return nil, fmt.Errorf("server: quorum %d needs a data dir: an in-memory server has no log for followers to confirm", cfg.Quorum)
	}
	s := New(cfg)
	if cfg.DataDir == "" {
		return s, nil
	}
	fsys := cfg.FS
	if fsys == nil {
		fsys = wal.OSFS()
	}
	p := &Persistence{dir: cfg.DataDir, fs: fsys}
	log, info, err := wal.Open(cfg.DataDir, wal.Options{
		SegmentBytes: cfg.SegmentBytes,
		Fsync:        cfg.Fsync,
		// The resolved fsys, not the raw cfg.FS: snapshots already fall
		// back to OSFS, and the log must never land on a different
		// filesystem than them.
		FS:      fsys,
		OnFlush: func(records int) { s.metrics.WALBatch(records) },
		OnRead:  s.metrics.ReplStreamRead,
	})
	if err != nil {
		return nil, fmt.Errorf("server: open wal: %w", err)
	}
	if p.recovery, err = s.recoverDurable(fsys, cfg.DataDir, log); err != nil {
		log.Close()
		return nil, err
	}
	p.lastSnapshot = wal.LSN(p.recovery.SnapshotLSN)
	p.recovery.TornBytesTruncated = info.TornBytes
	p.journal = &journal{s: s, log: log}
	s.registry.j, s.multi.j, s.sessions.j = p.journal, p.journal, p.journal
	p.recovery.WorkersRestored = s.registry.Len()
	p.recovery.SessionsRestored = s.sessions.Len()
	p.recovery.MultiPoolsRestored = s.multi.Len()
	p.recoveredAt = time.Now()
	// A durable fence outlives the process: a fenced ex-primary that
	// restarts is still fenced until it rejoins and replays the epoch
	// that outranks the fence.
	if doc, ok, err := loadFence(fsys, cfg.DataDir); err != nil {
		log.Close()
		return nil, fmt.Errorf("server: load fence: %w", err)
	} else if ok {
		s.fenceMu.Lock()
		s.fenceEpoch = doc.Epoch
		s.fencePrimary = doc.Primary
		s.fenceMu.Unlock()
	}
	s.persist = p
	return s, nil
}

// recoverDurable loads the newest snapshot in dir into s's stores and
// replays log's durable records after it: exactly the state a restart
// recovers. Open runs it at boot, restoreDurable after a failed flush.
func (s *Server) recoverDurable(fsys wal.FS, dir string, log *wal.Log) (RecoveryStatus, error) {
	var rs RecoveryStatus
	lsn, payload, found, err := wal.LatestSnapshotFS(fsys, dir)
	if err != nil {
		return rs, fmt.Errorf("server: load snapshot: %w", err)
	}
	if found {
		var st serverState
		if err = json.Unmarshal(payload, &st); err == nil {
			err = s.loadState(st)
		}
		if err != nil {
			return rs, fmt.Errorf("server: snapshot at lsn %d: %w", lsn, err)
		}
	}
	if end := log.Synced(); end < lsn {
		return rs, fmt.Errorf("%w: snapshot covers lsn %d but the log ends at %d", wal.ErrCorrupt, lsn, end)
	}
	rs.SnapshotLSN = uint64(lsn)
	replayed := &txn{ctx: context.Background()} // no journal: the log already holds them
	err = log.Replay(lsn+1, func(l wal.LSN, payload []byte) error {
		var rec Record
		err := json.Unmarshal(payload, &rec)
		if err == nil {
			err = s.applyRecord(replayed, &rec)
		}
		if err != nil {
			return fmt.Errorf("record at lsn %d: %w", l, err)
		}
		rs.RecordsReplayed++
		return nil
	})
	if err != nil {
		if start := log.OldestLSN(); errors.Is(err, wal.ErrTruncated) && start > lsn+1 {
			// The records between the snapshot and the retained log are
			// gone: booting would silently drop acknowledged writes.
			return rs, fmt.Errorf("%w: snapshot covers lsn %d but the log starts at %d", wal.ErrCorrupt, lsn, start)
		}
		return rs, fmt.Errorf("server: replay: %w", err)
	}
	return rs, nil
}

// loadState replaces every store's contents with a state document, each
// store under its own lock.
func (s *Server) loadState(st serverState) error {
	return errors.Join(s.registry.load(st.Registry), s.sessions.load(st.Sessions),
		s.multi.load(st.Multi), s.epochs.load(st.Epochs))
}

// restoreDurable loads the durable prefix, recovered into a scratch
// server, into the live stores and flushes the selection cache. The
// generations move back; that is safe only because the server degrades
// next, for good.
func (s *Server) restoreDurable() error {
	p := s.persist
	p.mu.Lock() // a snapshot install must not truncate what this replays
	defer p.mu.Unlock()
	scratch := &Server{registry: NewRegistry(), multi: NewMultiRegistry(), sessions: newSessionStore()}
	if _, err := scratch.recoverDurable(p.fs, p.dir, p.log); err != nil {
		return err
	}
	err := s.loadState(scratch.captureState())
	s.cache.Flush()
	return err
}

// applyRecord runs one record the log dictates through tx, under the
// lock of the store it names, validated by the same prepare step as the
// live path, so a logically corrupt log fails instead of silently
// diverging: boot replay (tx without a journal), a follower's shipped
// record and a promotion's epoch record (tx journals, under the freeze).
func (s *Server) applyRecord(tx *txn, rec *Record) error {
	switch rec.T {
	case RecRegister, RecUpdate, RecRemove, RecIngest:
		return tx.runLocked(&s.registry.mu, rec, s.registry.prepareLocked)
	case RecSessionOpen, RecSessionVote, RecSessionBudget, RecSessionClose, RecSessionReap:
		return s.sessions.apply(tx, rec)
	case RecMultiCreate, RecMultiRegister, RecMultiIngest, RecMultiDrop:
		return tx.runLocked(&s.multi.mu, rec, s.multi.prepareLocked)
	case RecEpoch:
		return tx.runLocked(&s.epochs.mu, rec, s.epochs.prepareLocked)
	default:
		return fmt.Errorf("server: unknown record type %q", rec.T)
	}
}

// SnapshotNow captures a consistent snapshot of the full server state,
// installs it atomically, and truncates WAL segments the snapshot covers.
// It is a no-op without persistence or when nothing changed since the
// last snapshot. A failure is counted in juryd_snapshot_errors_total
// but is NOT degrading: the WAL still holds every mutation, the
// previous snapshot (if any) is still installed, and a later attempt
// can succeed — the caller should log and keep serving. On a degraded
// server it fails with ErrDegraded.
func (s *Server) SnapshotNow() error {
	err := s.snapshotNow()
	if err != nil {
		s.metrics.SnapshotError()
	}
	return err
}

func (s *Server) snapshotNow() error {
	p := s.persist
	if p == nil {
		return nil
	}
	state, upTo, err := s.captureDurable()
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if upTo == p.lastSnapshot {
		return nil // unchanged; with no snapshot (lastSnapshot 0), nothing journaled
	}
	payload, err := json.Marshal(state)
	if err != nil {
		return fmt.Errorf("server: snapshot encode: %w", err)
	}
	if err := wal.WriteSnapshotFS(p.fs, p.dir, upTo, payload); err != nil {
		return fmt.Errorf("server: snapshot write: %w", err)
	}
	p.lastSnapshot = upTo
	p.snapshots++
	if _, err := p.log.TruncateBefore(upTo + 1); err != nil {
		return fmt.Errorf("server: wal truncate: %w", err)
	}
	return nil
}

// ClosePersistence syncs and closes the WAL. Mutations after it fail;
// call it only on shutdown (after a final SnapshotNow, if desired). A
// non-nil error means the close was dirty — the log was poisoned or the
// final flush failed, so an unsynced tail may not have reached stable
// storage — and the process should exit non-zero after reporting it.
func (s *Server) ClosePersistence() error {
	if s.persist == nil {
		return nil
	}
	return s.persist.log.Close()
}

// PersistenceStatus reports the durability state for /debug/persistence.
func (s *Server) PersistenceStatus() PersistenceStatus {
	p := s.persist
	if p == nil {
		return PersistenceStatus{Enabled: false}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	rec := p.recovery
	fenced, fenceEpoch, fencePrimary := s.FencedState()
	return PersistenceStatus{
		Enabled:          true,
		DataDir:          p.dir,
		Fsync:            s.cfg.Fsync,
		NextLSN:          uint64(p.log.NextLSN()),
		DurableLSN:       uint64(p.log.Synced()),
		Segments:         p.log.Segments(),
		LastSnapshotLSN:  uint64(p.lastSnapshot),
		SnapshotsWritten: p.snapshots,
		RecoveredAt:      p.recoveredAt.UTC().Format(time.RFC3339Nano),
		Recovery:         &rec,
		StateSHA256:      s.stateSHA(),
		Repl:             s.ReplStatus(),
		Epoch:            s.epochs.current(),
		Quorum:           s.cfg.Quorum,
		QuorumAcks:       s.quorum.snapshot(),
		Fenced:           fenced,
		FenceEpoch:       fenceEpoch,
		FencePrimary:     fencePrimary,
	}
}

// captureDurable is the capture step snapshots and follower bootstraps
// share: the state document and the LSN it covers, taken under the
// exclusive freeze — which waits out every write between staging and
// apply, so the watermark is exact — followed by a durability wait.
// A poisoned log refuses with ErrDegraded: its applied tail may never
// have reached the disk, and every LSN a snapshot covers must be
// durable.
func (s *Server) captureDurable() (serverState, wal.LSN, error) {
	p := s.persist
	p.freeze.Lock()
	state := s.captureState()
	upTo := p.log.NextLSN() - 1
	p.freeze.Unlock()
	if err := p.log.WaitDurable(); err != nil {
		return serverState{}, 0, fmt.Errorf("%w: %w", ErrDegraded, err)
	}
	return state, upTo, nil
}

// captureState assembles the full durable state (the snapshot document).
// Callers that need an exact LSN watermark go through captureDurable;
// read-only diagnostics may call it bare.
func (s *Server) captureState() serverState {
	return serverState{
		Registry: s.registry.persistState(),
		Sessions: s.sessions.persistState(),
		Multi:    s.multi.persistState(),
		Epochs:   s.epochs.snapshot(),
	}
}

// DebugState marshals the full durable state (the snapshot document) of
// the server, persistence enabled or not — the bit-exact comparison
// surface used by the crash-recovery harness, the replication harness,
// and /debug tooling.
func (s *Server) DebugState() ([]byte, error) {
	return json.Marshal(s.captureState())
}

// sessionOrdinal extracts the numeric part of a session id ("s17" -> 17)
// for stable persist ordering; non-conforming ids sort last, lexically.
func sessionOrdinal(id string) (uint64, bool) {
	if !strings.HasPrefix(id, "s") {
		return 0, false
	}
	n, err := strconv.ParseUint(id[1:], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// sessionIDLess orders session ids numerically (s2 before s10).
func sessionIDLess(a, b string) bool {
	na, oka := sessionOrdinal(a)
	nb, okb := sessionOrdinal(b)
	if oka && okb {
		return na < nb
	}
	if oka != okb {
		return oka
	}
	return a < b
}

// sortSessionIDs orders ids numerically (s2 before s10).
func sortSessionIDs(ids []string) {
	sort.Slice(ids, func(i, j int) bool { return sessionIDLess(ids[i], ids[j]) })
}
