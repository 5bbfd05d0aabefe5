package server

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
)

// journal is the one path every journaled mutation takes. Each store
// holds it by pointer; it is nil for an in-memory server (and a
// standalone registry), and mutate then skips every journal step, so the
// stores run the same code either way. It owns the record encoding and
// the append with its trace spans, the degrade-on-failure path, the
// quorum-gated commit, the duplicate-ack barrier, and the snapshot freeze.
type journal struct {
	s   *Server
	log *wal.Log
	// freeze orders mutations against snapshot capture: a mutation holds
	// it shared from before it takes its store lock until its records are
	// durable, and capture holds it exclusively, so a snapshot sees all or
	// none of each mutation and covers only durable LSNs.
	freeze sync.RWMutex
}

// mutate runs one live mutation. body runs under the snapshot freeze and
// mu; it validates, and journals and applies each record through
// tx.run. Once mu is released, mutate waits for the reserved records to
// commit. A commit failure wins over body's own error: whatever body
// reserved was applied and must be settled first.
func (j *journal) mutate(ctx context.Context, mu sync.Locker, body func(tx *txn) error) error {
	if j != nil {
		j.freeze.RLock()
	}
	tx := &txn{j: j, ctx: ctx}
	mu.Lock()
	err := body(tx)
	mu.Unlock()
	if cerr := tx.commit(); cerr != nil {
		return cerr
	}
	return err
}

// txn is one mutation in flight on the journaled path.
type txn struct {
	j   *journal
	ctx context.Context
	// last is the newest record reserved so far; the log is ordered, so
	// its commit covers every earlier one.
	last *wal.Pending
	// dup marks a keyed-ingest retry: nothing is reserved, and the ack
	// waits on the barrier instead.
	dup bool
}

// run validates rec with prepare (the store's prepareLocked), reserves
// its WAL record, and applies it inside an apply span. A failed
// reservation leaves the store untouched; a nil apply step means rec
// changes nothing, so nothing is journaled.
func (tx *txn) run(rec *Record, prepare func(*Record) (func(), error)) error {
	apply, err := prepare(rec)
	if err != nil || apply == nil {
		return err
	}
	if tx.j != nil {
		payload, err := tx.j.encode(tx.ctx, rec)
		if err != nil {
			return err
		}
		if tx.last, err = tx.j.append(tx.ctx, payload); err != nil {
			return err
		}
	}
	span := obs.TraceFrom(tx.ctx).Begin(obs.StageApply)
	apply()
	span.End()
	return nil
}

// duplicate is the keyed-ingest dedup both registries share: a key idem
// already holds was applied before (dedup runs before journaling, so the
// log carries each key at most once), so the retry applies and journals
// nothing, and its ack waits on the barrier.
func (tx *txn) duplicate(idem *idemTable, key string) bool {
	if key == "" {
		return false
	}
	span := obs.TraceFrom(tx.ctx).Begin(obs.StageIdem)
	tx.dup = idem.has(key)
	span.End()
	return tx.dup
}

// commit is the ack gate: wait until the reserved records are durable,
// release the freeze (a snapshot may now cover them), then wait for the
// follower quorum.
func (tx *txn) commit() error {
	j := tx.j
	if j == nil {
		return nil
	}
	var err error
	if tx.last != nil {
		err = j.wait(tx.ctx, tx.last)
	}
	j.freeze.RUnlock()
	switch {
	case err != nil:
		return err
	case tx.dup:
		return j.barrier(tx.ctx)
	case tx.last != nil:
		return j.s.quorumWait(tx.ctx, tx.last.LSN())
	}
	return nil
}

// replay applies one journaled record without journaling it, validated by
// the same prepare step as the live path, so a logically corrupt log
// fails recovery instead of silently diverging. It never takes the
// freeze: ApplyReplicated already holds it, and a recursive read lock
// deadlocks against a waiting snapshot.
func replay(mu sync.Locker, rec *Record, prepare func(*Record) (func(), error)) error {
	mu.Lock()
	defer mu.Unlock()
	apply, err := prepare(rec)
	if err == nil && apply != nil {
		apply()
	}
	return err
}

// encode marshals rec inside a wal_encode span.
func (j *journal) encode(ctx context.Context, rec *Record) ([]byte, error) {
	span := obs.TraceFrom(ctx).Begin(obs.StageWALEncode)
	payload, err := json.Marshal(rec)
	span.End()
	if err != nil {
		return nil, fmt.Errorf("server: journal encode: %w", err)
	}
	return payload, nil
}

// append reserves the next LSN for payload. On the per-record path the
// write (and under -fsync its flush) completes here; under group commit
// the record is only staged, and wait blocks for the shared flush.
func (j *journal) append(ctx context.Context, payload []byte) (*wal.Pending, error) {
	tr := obs.TraceFrom(ctx)
	start := time.Now()
	pend, err := j.log.Begin(payload)
	d := time.Since(start)
	if err != nil {
		// Error-tagged, so the request that poisoned the log stays
		// visible in /debug/traces.
		tr.AddErr(obs.StageWALAppend, start, d)
		return nil, j.fail(err)
	}
	var fsync time.Duration
	if pend.Done() {
		fsync = pend.FsyncDuration()
	}
	// The per-record fsync runs at the tail of the append interval.
	tr.Add(obs.StageWALAppend, start, d-fsync)
	if fsync > 0 {
		tr.Add(obs.StageWALFsync, start.Add(d-fsync), fsync)
	}
	return pend, nil
}

// wait blocks until pend is durable.
func (j *journal) wait(ctx context.Context, pend *wal.Pending) error {
	if pend.Done() {
		return nil // the per-record append was durable when it returned
	}
	tr := obs.TraceFrom(ctx)
	start := time.Now()
	err := pend.Wait()
	d := time.Since(start)
	if err != nil {
		tr.AddErr(obs.StageWALFlush, start, d)
		return j.fail(err)
	}
	tr.Add(obs.StageWALFlush, start, d)
	if fsync := pend.FsyncDuration(); fsync > 0 {
		tr.Add(obs.StageWALFsync, start, fsync)
	}
	return nil
}

// barrier is the duplicate-ack wait: a keyed retry vouches for the
// original record, which under group commit may still await its flush,
// so it is acknowledged only once the whole log is durable and — the
// whole-log watermark standing in for the original's LSN —
// quorum-confirmed.
func (j *journal) barrier(ctx context.Context) error {
	if err := j.log.WaitDurable(); err != nil {
		return j.fail(err)
	}
	return j.s.quorumWait(ctx, j.log.NextLSN()-1)
}

// fail degrades the server on a WAL failure. The poison is sticky
// (wal.ErrFailed), so this and every later mutation answers 503 while
// reads keep serving; the record never reached stable storage, so a
// restart recovers exactly the acknowledged prefix.
func (j *journal) fail(err error) error {
	j.s.metrics.WALError()
	j.s.enterDegraded(err)
	return fmt.Errorf("%w: %w", ErrDegraded, err)
}
