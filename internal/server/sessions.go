package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/online"
	"repro/internal/voting"
)

// ErrSessionUnknown is returned for requests against a missing session id.
var ErrSessionUnknown = errors.New("server: unknown session")

// defaultMaxSessions bounds resident sessions. When the cap is hit, Open
// first reaps finished and long-idle sessions; only if every resident
// session is live does opening another one fail.
const defaultMaxSessions = 10000

// sessionIdleTTL is how long an unfinished session may sit untouched
// before the reaper may reclaim it under cap pressure.
const sessionIdleTTL = time.Hour

// sessionStore holds the live online-collection sessions. Each session
// wraps an online.Session (the incremental Bayesian stopping rule) behind
// its own lock so votes for different sessions never contend.
type sessionStore struct {
	mu   sync.RWMutex
	next uint64
	cap  int
	now  func() time.Time // injectable clock for tests
	live map[string]*liveSession
	// j journals every session mutation (nil: in memory only).
	j *journal
}

type liveSession struct {
	mu        sync.Mutex
	id        string
	sess      *online.Session
	lastTouch time.Time
	// closed marks a session whose close/reap record is already in the
	// journal. It is set under mu in the same critical section that
	// journals the deletion, and every per-session mutator checks it
	// after locking mu: a voter that looked the session up just before
	// it was closed must not journal a vote *after* the close record —
	// replay would apply the close first and fail on the orphaned vote,
	// poisoning the log.
	closed bool
}

func newSessionStore() *sessionStore {
	return &sessionStore{
		cap:  defaultMaxSessions,
		now:  time.Now,
		live: make(map[string]*liveSession),
	}
}

// Open starts a session and returns its id and initial state.
func (st *sessionStore) Open(ctx context.Context, cfg online.Config) (SessionState, error) {
	if err := cfg.Validate(); err != nil {
		return SessionState{}, err
	}
	var state SessionState
	err := st.j.mutate(ctx, &st.mu, func(tx *txn) error {
		if len(st.live) >= st.cap {
			if err := st.reapLocked(tx); err != nil {
				return err
			}
		}
		if len(st.live) >= st.cap {
			// The reap (if any) is already journaled; its commit still
			// runs even though the open itself fails.
			return fmt.Errorf("server: session limit (%d) reached", st.cap)
		}
		n := st.next + 1
		id := "s" + strconv.FormatUint(n, 10)
		cfgCopy := cfg
		rec := &Record{T: RecSessionOpen, Session: &SessionRecord{ID: id, Next: n, Config: &cfgCopy}}
		if err := tx.run(rec, st.prepareLocked); err != nil {
			return err
		}
		state = sessionState(id, st.live[id].sess.State())
		return nil
	})
	if err != nil {
		return SessionState{}, err
	}
	return state, nil
}

// reapLocked drops sessions that are Done (their result has been
// delivered to the caller that finished them) or idle past
// sessionIdleTTL (abandoned by their client). The dropped ids are
// journaled as one reap record — reaping depends on the wall clock, so
// replay must take the decision from the log, not remake it. Every dead
// session's lock is held from the liveness check through the journal
// reservation and the closed-mark, so no concurrent voter can slip a
// vote record behind the reap record (see liveSession.closed). Callers
// hold st.mu, and hold several ls.mu at once safely because reap and
// Close (the only deletion paths) are serialized by st.mu, and voters
// never hold more than one.
func (st *sessionStore) reapLocked(tx *txn) error {
	cutoff := st.now().Add(-sessionIdleTTL)
	var dead []*liveSession
	for _, ls := range st.live {
		ls.mu.Lock()
		if ls.sess.State().Done || ls.lastTouch.Before(cutoff) {
			dead = append(dead, ls) // keep locked until deletion commits
		} else {
			ls.mu.Unlock()
		}
	}
	defer func() {
		for _, ls := range dead {
			ls.mu.Unlock()
		}
	}()
	if len(dead) == 0 {
		return nil
	}
	sort.Slice(dead, func(i, j int) bool { return sessionIDLess(dead[i].id, dead[j].id) })
	ids := make([]string, len(dead))
	for i, ls := range dead {
		ids[i] = ls.id
	}
	if err := tx.run(&Record{T: RecSessionReap, Session: &SessionRecord{Reaped: ids}}, st.prepareLocked); err != nil {
		return err
	}
	for _, ls := range dead {
		ls.closed = true
	}
	return nil
}

// Get returns a session's current state.
func (st *sessionStore) Get(id string) (SessionState, error) {
	ls, err := st.lookup(id)
	if err != nil {
		return SessionState{}, err
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.closed {
		return SessionState{}, fmt.Errorf("%w: %q", ErrSessionUnknown, id)
	}
	ls.lastTouch = st.now()
	return sessionState(id, ls.sess.State()), nil
}

// Observe feeds one vote (weighted by the worker's quality and cost) into
// a session. The worker's quality and cost at ingest time travel in the
// record, so replaying the vote is exact whatever the registry looked
// like.
func (st *sessionStore) Observe(ctx context.Context, id string, quality, cost float64, v voting.Vote) (SessionState, error) {
	return st.mutateSession(ctx, id, &Record{T: RecSessionVote, Session: &SessionRecord{
		ID: id, Quality: quality, Cost: cost, Vote: int(v),
	}})
}

// BudgetRemaining returns how much of the session's budget is unspent,
// and whether the session is budget-bounded at all.
func (st *sessionStore) BudgetRemaining(id string) (float64, bool, error) {
	ls, err := st.lookup(id)
	if err != nil {
		return 0, false, err
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.closed {
		return 0, false, fmt.Errorf("%w: %q", ErrSessionUnknown, id)
	}
	cfg := ls.sess.Config()
	if cfg.Budget == 0 {
		return 0, false, nil
	}
	return cfg.Budget - ls.sess.State().Cost, true, nil
}

// MarkBudgetExhausted finalizes a session with the "budget" stop reason.
func (st *sessionStore) MarkBudgetExhausted(ctx context.Context, id string) (SessionState, error) {
	return st.mutateSession(ctx, id, &Record{T: RecSessionBudget, Session: &SessionRecord{ID: id}})
}

// mutateSession journals and applies one vote or budget-stop record
// under the session's own lock, returning the session's state after it
// (also when the record is refused).
func (st *sessionStore) mutateSession(ctx context.Context, id string, rec *Record) (SessionState, error) {
	ls, err := st.lookup(id)
	if err != nil {
		return SessionState{}, err
	}
	var state SessionState
	err = st.j.mutate(ctx, &ls.mu, func(tx *txn) error {
		if ls.closed {
			return fmt.Errorf("%w: %q", ErrSessionUnknown, id)
		}
		ls.lastTouch = st.now()
		err := tx.run(rec, ls.prepareLocked)
		state = sessionState(id, ls.sess.State())
		return err
	})
	return state, err
}

// Close removes a session. The close record is journaled while holding
// the session's own lock, so a voter racing the close either lands its
// vote record before the close record (and replay applies both, in
// order) or observes the closed mark and journals nothing.
func (st *sessionStore) Close(ctx context.Context, id string) error {
	rec := &Record{T: RecSessionClose, Session: &SessionRecord{ID: id}}
	return st.j.mutate(ctx, &st.mu, func(tx *txn) error {
		ls, ok := st.live[id]
		if !ok {
			return fmt.Errorf("%w: %q", ErrSessionUnknown, id)
		}
		ls.mu.Lock()
		defer ls.mu.Unlock()
		if err := tx.run(rec, st.prepareLocked); err != nil {
			return err
		}
		ls.closed = true
		return nil
	})
}

// Len returns the number of live sessions.
func (st *sessionStore) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.live)
}

func (st *sessionStore) lookup(id string) (*liveSession, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	ls, ok := st.live[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrSessionUnknown, id)
	}
	return ls, nil
}

// Apply replays one journaled session record without re-journaling it —
// the recovery path. Replay bypasses the session cap and the reaper:
// which sessions exist is decided by the log, not remade from the clock.
func (st *sessionStore) Apply(rec *Record) error {
	if rec.Session == nil {
		return fmt.Errorf("server: %s record without session payload", rec.T)
	}
	if rec.T != RecSessionVote && rec.T != RecSessionBudget {
		return replay(&st.mu, rec, st.prepareLocked)
	}
	ls, err := st.lookup(rec.Session.ID)
	if err != nil {
		return err
	}
	return replay(&ls.mu, rec, ls.prepareLocked)
}

// prepareLocked validates a session open, close or reap record and
// returns the step that applies it — shared by the live path and replay.
// Callers hold st.mu. The live-only policy (the cap, the reaper's
// choice, the closed marks) stays with the live mutators.
func (st *sessionStore) prepareLocked(rec *Record) (func(), error) {
	sr := rec.Session
	switch rec.T {
	case RecSessionOpen:
		if sr.Config == nil {
			return nil, fmt.Errorf("server: session-open record without config")
		}
		sess, err := online.NewSession(*sr.Config)
		if err != nil {
			return nil, err
		}
		if _, ok := st.live[sr.ID]; ok {
			return nil, fmt.Errorf("server: duplicate session %q", sr.ID)
		}
		return func() {
			st.next = max(st.next, sr.Next)
			st.live[sr.ID] = &liveSession{id: sr.ID, sess: sess, lastTouch: st.now()}
		}, nil
	case RecSessionClose, RecSessionReap:
		ids := sr.Reaped
		if rec.T == RecSessionClose {
			ids = []string{sr.ID}
		}
		for _, id := range ids {
			if _, ok := st.live[id]; !ok {
				return nil, fmt.Errorf("%w: %q", ErrSessionUnknown, id)
			}
		}
		return func() {
			for _, id := range ids {
				delete(st.live, id)
			}
		}, nil
	}
	return nil, fmt.Errorf("server: record type %q is not a session record", rec.T)
}

// prepareLocked validates a vote or budget-stop record against the
// session and returns the step that applies it. Callers hold ls.mu.
func (ls *liveSession) prepareLocked(rec *Record) (func(), error) {
	sr := rec.Session
	switch rec.T {
	case RecSessionVote:
		if err := ls.sess.Check(sr.Quality, sr.Cost); err != nil {
			return nil, err
		}
		return func() {
			_, _ = ls.sess.Observe(sr.Quality, sr.Cost, voting.Vote(sr.Vote)) // Check admitted it
		}, nil
	case RecSessionBudget:
		if ls.sess.State().Done {
			return nil, nil // already stopped: nothing to journal
		}
		return func() { ls.sess.MarkBudgetExhausted() }, nil
	}
	return nil, fmt.Errorf("server: record type %q is not a session record", rec.T)
}

// persistState serializes the live sessions for a snapshot, ordered by
// session id so the document is deterministic.
func (st *sessionStore) persistState() sessionsState {
	st.mu.RLock()
	defer st.mu.RUnlock()
	ids := make([]string, 0, len(st.live))
	for id := range st.live {
		ids = append(ids, id)
	}
	sortSessionIDs(ids)
	out := sessionsState{Next: st.next}
	for _, id := range ids {
		ls := st.live[id]
		ls.mu.Lock()
		out.Sessions = append(out.Sessions, sessionPersist{ID: id, State: ls.sess.Snapshot()})
		ls.mu.Unlock()
	}
	return out
}

// load replaces the store contents with a snapshot's state — the
// recovery path, called before the server starts serving. Idle clocks
// restart at recovery time: a session that survived a crash should not be
// reaped for pre-crash idleness.
func (st *sessionStore) load(state sessionsState) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	live := make(map[string]*liveSession, len(state.Sessions))
	for _, sp := range state.Sessions {
		if sp.ID == "" {
			return errors.New("server: session snapshot with empty id")
		}
		if _, ok := live[sp.ID]; ok {
			return fmt.Errorf("server: duplicate session %q in snapshot", sp.ID)
		}
		sess, err := online.RestoreSession(sp.State)
		if err != nil {
			return fmt.Errorf("server: restore session %q: %w", sp.ID, err)
		}
		live[sp.ID] = &liveSession{id: sp.ID, sess: sess, lastTouch: st.now()}
	}
	st.live = live
	st.next = state.Next
	return nil
}

func sessionState(id string, s online.State) SessionState {
	out := SessionState{
		ID:         id,
		Decision:   int(s.Decision),
		Confidence: s.Confidence,
		Votes:      s.Votes,
		Cost:       s.Cost,
		Done:       s.Done,
	}
	if s.Done {
		out.Stopped = s.Stopped.String()
	}
	return out
}
