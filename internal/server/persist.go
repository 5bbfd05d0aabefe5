package server

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/online"
	"repro/internal/wal"
)

// Durability. With Config.DataDir set, every registry, multi-registry
// and session mutation takes one journaled path (journal.go). Under the
// shared snapshot freeze and the store's own lock, the store's
// prepareLocked validates the record and returns its apply step; the
// record then reserves its LSN, so the WAL order and the in-memory order
// are identical, and only then is it applied. The store lock is released
// before the commit waits for durability — under group commit that is
// what lets independent registries, sessions and pools share one fsync —
// and the handler acknowledges only after the commit (and, with a
// quorum, the followers) confirm the record. A failed reservation changes
// nothing; a failed commit leaves the mutation applied but
// unacknowledged and flips the server into degraded read-only mode (the
// record never reached stable storage, so a restart recovers exactly the
// acknowledged prefix). The freeze is held until the commit, and a
// snapshot captures under it exclusively and then waits for the log to
// be durable: every LSN a snapshot covers must be durable, or recovery
// would find the snapshot ahead of the log. Recovery (Open) loads the
// newest snapshot and replays the WAL tail through the same
// prepareLocked steps, then resumes journaling; because replay is
// deterministic, a recovered registry carries bit-identical posteriors
// and therefore produces bit-identical pool signatures — the selection
// cache (which starts empty after a restart) refills under exactly the
// keys the pre-crash process was using.

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
	Name    string               `json:"name"`
	Labels  int                  `json:"labels"`
	Workers []multiWorkerPersist `json:"workers"`
}

// multiWorkerPersist is one multi-choice worker's full Dirichlet state.
// Both the pseudo-counts and the derived confusion matrix travel in the
// snapshot (Go's JSON encoder round-trips float64s exactly), so recovery
// is bit-identical without re-deriving rows.
type multiWorkerPersist struct {
	ID        string      `json:"id"`
	Cost      float64     `json:"cost"`
	Counts    [][]float64 `json:"counts"`
	Confusion [][]float64 `json:"confusion"`
	Votes     int         `json:"votes"`
	Version   int64       `json:"version"`
}

// registryState serializes the worker registry in registration order.
type registryState struct {
	Gen     uint64          `json:"gen"`
	Workers []workerPersist `json:"workers"`
	// Idem is the ingest idempotency-key table in insertion order.
	Idem []string `json:"idem,omitempty"`
}

// workerPersist is one worker's full posterior state. Go's JSON encoder
// emits float64s with round-trip precision, so A/B/Quality/Cost survive
// the snapshot bit-identically.
type workerPersist struct {
	ID      string  `json:"id"`
	Quality float64 `json:"quality"`
	Cost    float64 `json:"cost"`
	A       float64 `json:"a"`
	B       float64 `json:"b"`
	Votes   int     `json:"votes"`
	Correct int     `json:"correct"`
	Version int64   `json:"version"`
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

	mu           sync.Mutex // guards the fields below
	fsync        bool
	group        bool
	haveSnapshot bool
	lastSnapshot wal.LSN
	snapshots    uint64
	recovery     RecoveryStatus
	recoveredAt  time.Time
}

// Open builds a Server like New and, when cfg.DataDir is set, makes it
// durable: recover state from the newest snapshot plus the WAL tail
// (truncating a torn trailing record), then journal every subsequent
// mutation. With an empty DataDir it is exactly New.
func Open(cfg Config) (*Server, error) {
	s := New(cfg)
	if cfg.DataDir == "" {
		return s, nil
	}
	fsys := cfg.FS
	if fsys == nil {
		fsys = wal.OSFS()
	}
	p := &Persistence{dir: cfg.DataDir, fs: fsys, fsync: cfg.Fsync, group: cfg.Fsync && cfg.GroupCommit}
	lsn, payload, found, err := wal.LatestSnapshotFS(fsys, cfg.DataDir)
	if err != nil {
		return nil, fmt.Errorf("server: load snapshot: %w", err)
	}
	from := wal.LSN(0)
	if found {
		var st serverState
		if err := json.Unmarshal(payload, &st); err != nil {
			return nil, fmt.Errorf("server: snapshot at lsn %d: %w", lsn, err)
		}
		if err := s.registry.load(st.Registry); err != nil {
			return nil, fmt.Errorf("server: snapshot at lsn %d: %w", lsn, err)
		}
		if err := s.sessions.load(st.Sessions); err != nil {
			return nil, fmt.Errorf("server: snapshot at lsn %d: %w", lsn, err)
		}
		if err := s.multi.load(st.Multi); err != nil {
			return nil, fmt.Errorf("server: snapshot at lsn %d: %w", lsn, err)
		}
		if err := s.epochs.load(st.Epochs); err != nil {
			return nil, fmt.Errorf("server: snapshot at lsn %d: %w", lsn, err)
		}
		from = lsn
		p.haveSnapshot = true
		p.lastSnapshot = lsn
		p.recovery.SnapshotLSN = uint64(lsn)
	}
	log, info, err := wal.Open(cfg.DataDir, wal.Options{
		SegmentBytes: cfg.SegmentBytes,
		Fsync:        cfg.Fsync,
		// The resolved fsys, not the raw cfg.FS: snapshots already fall
		// back to OSFS, and the log must never land on a different
		// filesystem than them.
		FS:            fsys,
		GroupCommit:   cfg.GroupCommit,
		MaxBatchBytes: cfg.MaxBatchBytes,
		OnFlush:       func(records int) { s.metrics.WALBatch(records) },
	})
	if err != nil {
		return nil, fmt.Errorf("server: open wal: %w", err)
	}
	if info.NextLSN < from+1 {
		log.Close()
		return nil, fmt.Errorf("%w: snapshot covers lsn %d but the log ends at %d",
			wal.ErrCorrupt, from, info.NextLSN-1)
	}
	p.recovery.TornBytesTruncated = info.TornBytes
	replayErr := log.Replay(from+1, func(l wal.LSN, payload []byte) error {
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("record at lsn %d: %w", l, err)
		}
		if err := s.applyRecord(&rec); err != nil {
			return fmt.Errorf("record at lsn %d: %w", l, err)
		}
		p.recovery.RecordsReplayed++
		return nil
	})
	if replayErr != nil {
		log.Close()
		return nil, fmt.Errorf("server: replay: %w", replayErr)
	}
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

// applyRecord replays one journaled record — the recovery path shared by
// WAL replay and (via the walltest harness) reference replays.
func (s *Server) applyRecord(rec *Record) error {
	switch rec.T {
	case RecRegister, RecUpdate, RecRemove, RecIngest:
		return s.registry.Apply(rec)
	case RecSessionOpen, RecSessionVote, RecSessionBudget, RecSessionClose, RecSessionReap:
		return s.sessions.Apply(rec)
	case RecMultiCreate, RecMultiRegister, RecMultiIngest, RecMultiDrop:
		return s.multi.Apply(rec)
	case RecEpoch:
		return s.epochs.add(rec.Epoch, wal.LSN(rec.StartLSN))
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
// server whose log lost its unsynced tail it fails with ErrDegraded.
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
	if p.haveSnapshot && upTo == p.lastSnapshot {
		return nil
	}
	if !p.haveSnapshot && upTo == 0 {
		return nil // nothing ever journaled: the empty state needs no file
	}
	payload, err := json.Marshal(state)
	if err != nil {
		return fmt.Errorf("server: snapshot encode: %w", err)
	}
	if err := wal.WriteSnapshotFS(p.fs, p.dir, upTo, payload); err != nil {
		return fmt.Errorf("server: snapshot write: %w", err)
	}
	p.haveSnapshot = true
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
		Fsync:            p.fsync,
		GroupCommit:      p.group,
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
		Fenced:           fenced,
		FenceEpoch:       fenceEpoch,
		FencePrimary:     fencePrimary,
	}
}

// captureDurable is the capture step snapshots and follower bootstraps
// share: the state document and the LSN it covers, taken under the
// exclusive freeze — which waits out every mutation between reservation
// and commit, so the watermark is exact — followed by a durability wait.
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
