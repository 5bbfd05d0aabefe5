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
// the append with its trace spans, the restore on a failed flush, the
// quorum-gated commit, the duplicate-ack barrier, and the snapshot freeze.
type journal struct {
	s   *Server
	log *wal.Log
	// freeze orders mutations against snapshot capture: a mutation holds
	// it shared from before it takes its store lock until its records are
	// durable, and capture holds it exclusively, so a snapshot sees all or
	// none of each mutation and covers only durable LSNs.
	freeze   sync.RWMutex
	restored sync.Once // runs the one restore (restore)
}

// mutate runs one live mutation: stage, apply, flush, ack. body runs
// under the snapshot freeze and mu; it validates, and stages and applies
// each record through tx.run. Once mu is released, mutate waits for the
// staged records to commit. A commit failure wins over body's own error:
// whatever body staged was applied and must be settled first.
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
	// last is the LSN of the newest record staged so far (0: none); the
	// log is ordered, so its commit covers every earlier one.
	last wal.LSN
	// dup marks a keyed-ingest retry: nothing is staged, and the ack
	// waits on the barrier instead.
	dup     bool
	refused error // the WAL failure that refused a stage
}

// run validates rec with prepare (the store's prepareLocked), stages
// its WAL record, and applies it inside an apply span. A refused stage
// leaves the store untouched; a nil apply step means rec changes
// nothing, so nothing is journaled.
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
		lsn, err := tx.j.append(tx.ctx, payload)
		if err != nil {
			tx.refused = err
			return err
		}
		tx.last = lsn
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

// commit is the ack gate: wait until the staged records are durable,
// release the freeze (a snapshot may now cover them), then wait for the
// follower quorum. A duplicate vouches for an original that may still
// await its flush, so it waits for the whole log, durable and
// quorum-confirmed. A WAL failure is refused through restore.
func (tx *txn) commit() error {
	j := tx.j
	if j == nil {
		return nil
	}
	err := tx.refused
	if err == nil && tx.last != 0 {
		err = j.wait(tx.ctx, tx.last)
	}
	j.freeze.RUnlock()
	if err == nil && tx.dup {
		if err = j.log.WaitDurable(); err != nil {
			j.s.metrics.WALError()
		}
	}
	switch {
	case err != nil:
		return j.restore(err)
	case tx.dup:
		return j.s.quorumWait(tx.ctx, j.log.NextLSN()-1)
	case tx.last != 0:
		return j.s.quorumWait(tx.ctx, tx.last)
	}
	return nil
}

// restore refuses a mutation after a WAL failure. The first refusal
// takes the freeze exclusively (every in-flight mutation has applied),
// restores the durable prefix, then degrades; later ones wait for it.
// Callers hold no store lock and no freeze.
func (j *journal) restore(cause error) error {
	j.restored.Do(func() {
		j.freeze.Lock()
		defer j.freeze.Unlock()
		if err := j.s.restoreDurable(); err != nil {
			j.s.unrestored.Store(&err)
		}
		j.s.enterDegraded(cause)
	})
	return fmt.Errorf("%w: %w", ErrDegraded, cause)
}

// journalNow journals payload before its caller (ApplyReplicated,
// Promote) applies it, so a WAL failure degrades with nothing to restore.
func (j *journal) journalNow(ctx context.Context, payload []byte) (wal.LSN, error) {
	lsn, err := j.append(ctx, payload)
	if err == nil {
		err = j.wait(ctx, lsn)
	}
	if err != nil {
		j.s.enterDegraded(err)
		return 0, fmt.Errorf("%w: %w", ErrDegraded, err)
	}
	return lsn, nil
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

// append stages payload and reserves its LSN inside a wal_append span;
// the write and any fsync happen in wait.
func (j *journal) append(ctx context.Context, payload []byte) (wal.LSN, error) {
	tr := obs.TraceFrom(ctx)
	start := time.Now()
	lsn, err := j.log.Begin(payload)
	d := time.Since(start)
	if err != nil {
		// Error-tagged, so the request that hit the poisoned log stays
		// visible in /debug/traces.
		tr.AddErr(obs.StageWALAppend, start, d)
		j.s.metrics.WALError()
		return 0, err
	}
	tr.Add(obs.StageWALAppend, start, d)
	return lsn, nil
}

// wait blocks until record lsn is durable: a wal_flush span over the
// shared write, plus a wal_fsync span of the sync Log.Wait reports under
// -fsync.
func (j *journal) wait(ctx context.Context, lsn wal.LSN) error {
	tr := obs.TraceFrom(ctx)
	start := time.Now()
	fsync, err := j.log.Wait(lsn)
	d := time.Since(start)
	if err != nil {
		tr.AddErr(obs.StageWALFlush, start, d)
		j.s.metrics.WALError()
		return err
	}
	tr.Add(obs.StageWALFlush, start, d)
	if fsync > 0 {
		tr.Add(obs.StageWALFsync, start, fsync)
	}
	return nil
}
