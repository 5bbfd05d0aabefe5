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

// journal is the one path every journaled record takes: a live
// mutation, a follower's shipped record, and a promotion's epoch record
// all stage, apply, then flush. Each store holds it by pointer; it is nil
// for an in-memory server (and a standalone registry), and a txn without
// one skips every journal step, which is also how boot replay applies the
// log. It owns the record encoding and the append with its trace spans,
// the durability step with its restore on a failed flush, the
// quorum-gated ack, the duplicate-ack barrier, and the snapshot freeze.
type journal struct {
	s   *Server
	log *wal.Log
	// freeze orders writes against snapshot capture: a write holds it
	// shared from before it takes its store lock until its records are
	// staged and applied, and capture holds it exclusively, so a snapshot
	// sees all or none of each write; capture then waits for the log, so
	// it covers only durable LSNs.
	freeze   sync.RWMutex
	restored sync.Once // runs the one restore (restore)
}

// mutate runs one live mutation: stage, apply, flush, ack. body runs
// under the snapshot freeze and mu; it validates, and stages and applies
// each record through tx.run. Once both are released, mutate commits the
// staged records. A commit failure wins over body's own error: whatever
// body staged was applied and must be settled first.
func (j *journal) mutate(ctx context.Context, mu sync.Locker, body func(tx *txn) error) error {
	tx := &txn{j: j, ctx: ctx}
	if j != nil {
		j.freeze.RLock()
	}
	mu.Lock()
	err := body(tx)
	mu.Unlock()
	if j != nil {
		j.freeze.RUnlock()
	}
	if cerr := tx.commit(); cerr != nil {
		return cerr
	}
	return err
}

// txn is one journaled write in flight, or one record boot replay
// applies (j nil).
type txn struct {
	j   *journal
	ctx context.Context
	// shipped is the payload of the record a follower applies, journaled
	// as the primary wrote it; nil means run encodes its record.
	shipped []byte
	// last is the LSN of the newest record staged so far (0: none); the
	// log is ordered, so its flush covers every earlier one.
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
		payload := tx.shipped
		if payload == nil {
			if payload, err = tx.j.encode(tx.ctx, rec); err != nil {
				return err
			}
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

// runLocked is run under mu, for a record the log dictates: one a
// follower applies, a promotion's epoch record, or one boot replay
// applies. The caller holds the freeze when tx journals.
func (tx *txn) runLocked(mu sync.Locker, rec *Record, prepare func(*Record) (func(), error)) error {
	mu.Lock()
	defer mu.Unlock()
	return tx.run(rec, prepare)
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

// settle is the durability step every journaled write takes once it
// has released the freeze: wait until the records tx staged are
// durable. A duplicate vouches for an original that may still await its
// flush, so it waits for the whole log. A WAL failure, a refused stage
// or a failed flush, is settled through restore.
func (tx *txn) settle() error {
	j, err := tx.j, tx.refused
	if err == nil && tx.dup {
		if err = j.log.WaitDurable(); err != nil {
			j.s.metrics.WALError()
		}
	} else if err == nil && tx.last != 0 {
		err = j.wait(tx.ctx, tx.last)
	}
	if err != nil {
		return j.restore(err)
	}
	return nil
}

// commit is a client mutation's ack gate: the durability step, then the
// follower quorum. Only client mutations take the quorum gate: a
// follower has no followers of its own, and a promotion's epoch record
// precedes any.
func (tx *txn) commit() error {
	if tx.j == nil {
		return nil
	}
	if err := tx.settle(); err != nil {
		return err
	}
	lsn := tx.last
	if tx.dup {
		lsn = tx.j.log.NextLSN() - 1
	}
	return tx.j.s.quorumWait(tx.ctx, lsn)
}

// restore refuses a write after a WAL failure. The first refusal takes
// the freeze exclusively (every in-flight write has applied), restores
// the durable prefix, then degrades; later ones wait for it. Callers
// hold no store lock and no freeze.
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
