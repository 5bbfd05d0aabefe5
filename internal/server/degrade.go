package server

import (
	"errors"
	"fmt"
	"net/http"
)

// Failure-domain errors: both map to 503 with a Retry-After header.
var (
	// ErrDegraded marks a server whose write-ahead log failed: recovered
	// state is intact and reads keep serving, but no mutation can be made
	// durable, so all are refused until the process is restarted against
	// a healthy disk.
	ErrDegraded = errors.New("server: degraded read-only mode: write-ahead log failed")
	// ErrDraining marks a server in shutdown drain: in-flight reads
	// complete, new mutations are refused so the final checkpoint is the
	// last word.
	ErrDraining = errors.New("server: draining for shutdown")
)

// enterDegraded transitions the server into degraded read-only mode,
// remembering the first cause. The transition is terminal for the
// process lifetime: the WAL poison is sticky (wal.ErrFailed), so a
// "recovered" disk would still leave an un-journaled gap — only a
// restart, which replays the log from a known-good prefix, exits the
// mode.
func (s *Server) enterDegraded(cause error) {
	s.degradedMu.Lock()
	if s.degradedCause == nil {
		s.degradedCause = cause
	}
	s.degradedMu.Unlock()
	s.degraded.Store(true)
}

// readable is the admission check for read routes: once restoring the
// durable prefix failed, the stores may still hold refused writes, so
// reads answer 503 naming the cause, as after a failed boot recovery.
func (s *Server) readable() error {
	if err := s.unrestored.Load(); err != nil {
		return fmt.Errorf("%w: restoring the durable prefix failed: %w", ErrDegraded, *err)
	}
	return nil
}

// DegradedState reports whether the server is degraded and the first
// disk error that caused it.
func (s *Server) DegradedState() (bool, error) {
	if !s.degraded.Load() {
		return false, nil
	}
	s.degradedMu.Lock()
	defer s.degradedMu.Unlock()
	return true, s.degradedCause
}

// BeginDrain refuses mutations from now on (503 + Retry-After) while
// reads keep serving, and ends every parked stream poll. Call it before
// http.Server.Shutdown so nothing mutates state between the final
// checkpoint and process exit, and no follower's poll holds Shutdown.
func (s *Server) BeginDrain() { s.beginDrain() }

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.drain.Err() != nil }

// mutable is the fast-path admission check for mutation routes: it
// fails when the server is a read-only replica, degraded, or draining,
// before the request body is even decoded.
func (s *Server) mutable() error {
	if rs := s.repl.Load(); rs != nil {
		return &FollowerError{Primary: rs.primaryURL()}
	}
	if fenced, epoch, primary := s.FencedState(); fenced {
		// A fenced ex-primary must never acknowledge another write: a
		// newer primary holds a higher epoch. 421 like a follower, with
		// the new primary's address when the fence carried one.
		return &FencedError{Epoch: epoch, Primary: primary}
	}
	if degraded, cause := s.DegradedState(); degraded {
		return fmt.Errorf("%w (%v)", ErrDegraded, cause)
	}
	if s.Draining() {
		return ErrDraining
	}
	return nil
}

// handleReady is GET /readyz: readiness as a load balancer or orchestra-
// tor sees it. Unlike /healthz (liveness: the process is up and can
// answer), readiness goes false — 503 — when the server should stop
// receiving writes: degraded read-only mode or shutdown drain.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if degraded, cause := s.DegradedState(); degraded {
		writeJSON(w, r, http.StatusServiceUnavailable, map[string]any{
			"ready":    false,
			"degraded": true,
			"cause":    cause.Error(),
		})
		return
	}
	if s.Draining() {
		writeJSON(w, r, http.StatusServiceUnavailable, map[string]any{
			"ready":    false,
			"draining": true,
		})
		return
	}
	if fenced, epoch, primary := s.FencedState(); fenced {
		// A fenced ex-primary serves reads but must receive no writes:
		// not ready, and the body names where writes belong now.
		writeJSON(w, r, http.StatusServiceUnavailable, map[string]any{
			"ready":   false,
			"fenced":  true,
			"epoch":   epoch,
			"primary": primary,
		})
		return
	}
	if st := s.ReplStatus(); st != nil {
		// A follower is ready while it is fresh enough: past the -max-lag
		// staleness bound it goes 503 so load balancers stop routing
		// reads that need recency to it. MaxLag 0 means "any lag is fine".
		if s.cfg.MaxLag > 0 && st.LagSeconds > s.cfg.MaxLag.Seconds() {
			writeJSON(w, r, http.StatusServiceUnavailable, map[string]any{
				"ready":       false,
				"follower":    true,
				"stale":       true,
				"lag_records": st.LagRecords,
				"lag_seconds": st.LagSeconds,
			})
			return
		}
		writeJSON(w, r, http.StatusOK, map[string]any{
			"ready":       true,
			"follower":    true,
			"lag_records": st.LagRecords,
		})
		return
	}
	writeJSON(w, r, http.StatusOK, map[string]any{"ready": true})
}
