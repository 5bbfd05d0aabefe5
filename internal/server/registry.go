package server

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"

	"repro/internal/worker"
)

// DefaultPriorStrength is the pseudo-count weight given to a worker's
// registered quality: registering quality q is treated as q·s past correct
// votes out of s, so early vote events move the posterior quickly without
// discarding the prior outright.
const DefaultPriorStrength = 8.0

// Errors returned by the registry.
var (
	ErrWorkerExists   = errors.New("server: worker already registered")
	ErrWorkerUnknown  = errors.New("server: unknown worker")
	ErrEmptyID        = errors.New("server: empty worker id")
	ErrEmptyRegistry  = errors.New("server: no workers registered")
	ErrBadPrior       = errors.New("server: negative prior strength")
	ErrDuplicateBatch = errors.New("server: duplicate worker id in batch")
)

// workerState is the registry's record of one worker: the public Worker
// parameters plus the Beta posterior over its correctness probability.
// Quality is kept equal to the posterior mean A/(A+B). It is also the
// worker's snapshot row: Go's JSON encoder emits float64s with
// round-trip precision, so every field survives a snapshot
// bit-identically.
type workerState struct {
	ID      string  `json:"id"`
	Quality float64 `json:"quality"`
	Cost    float64 `json:"cost"`
	// A and B are the Beta pseudo-counts: evidence for voting correctly
	// and incorrectly, seeded from the registered quality.
	A float64 `json:"a"`
	B float64 `json:"b"`
	// Votes and Correct tally ingested events.
	Votes   int `json:"votes"`
	Correct int `json:"correct"`
	// Version increments on every state change.
	Version int64 `json:"version"`
}

func (w *workerState) info() WorkerInfo {
	return WorkerInfo{
		ID:      w.ID,
		Quality: w.Quality,
		Cost:    w.Cost,
		Votes:   w.Votes,
		Correct: w.Correct,
		Version: w.Version,
	}
}

// Registry is the concurrency-safe resident worker pool: registration,
// updates, and Bayesian posterior re-estimation from ingested vote events.
// Every observable state is named by a signature — the rendering of the
// mutation counter gen — which selection caching uses as its consistency
// token: every mutation, so every quality drift, changes the signature.
type Registry struct {
	mu      sync.RWMutex
	workers map[string]*workerState
	order   []string // registration order, the pool order of snapshots
	// gen bumps once in every applied mutation's apply step. It is
	// persisted in the state row and rebuilt by replay, so it is equal
	// across replicas and restarts at equal LSN. Only load sets it; in the
	// restore after a failed flush it moves back to the durable prefix's
	// value, safe since degraded mode is terminal and the cache flushed.
	gen uint64
	// j journals every mutation (nil: in memory only).
	j *journal
	// idem remembers applied ingest idempotency keys. Guarded by mu, so
	// its insertion order is the WAL order and replay rebuilds it
	// bit-exactly; dedup runs BEFORE journaling, so the log itself never
	// carries a duplicate key.
	idem *idemTable
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{workers: make(map[string]*workerState), idem: newIdemTable()}
}

// validateSpec checks one registration spec.
func validateSpec(spec WorkerSpec) error {
	if spec.ID == "" {
		return ErrEmptyID
	}
	if spec.PriorStrength < 0 || spec.PriorStrength != spec.PriorStrength {
		return fmt.Errorf("%w: %v (worker %q)", ErrBadPrior, spec.PriorStrength, spec.ID)
	}
	w := worker.Worker{ID: spec.ID, Quality: spec.Quality, Cost: spec.Cost}
	return w.Validate()
}

// newState builds the posterior-seeded state for a spec.
func newState(spec WorkerSpec, defaultStrength float64) *workerState {
	s := spec.PriorStrength
	if s == 0 {
		s = defaultStrength
	}
	return &workerState{
		ID:      spec.ID,
		Quality: spec.Quality,
		Cost:    spec.Cost,
		A:       spec.Quality * s,
		B:       (1 - spec.Quality) * s,
		Version: 1,
	}
}

// resolvedStrength is the default prior strength a record carries: the
// configured one, or DefaultPriorStrength when that is unset.
func resolvedStrength(s float64) float64 {
	if s <= 0 {
		return DefaultPriorStrength
	}
	return s
}

// Register adds a batch of new workers atomically: either every spec is
// registered or none is. defaultStrength seeds the posterior of specs
// without an explicit PriorStrength. The returned signature identifies
// the pool state after registration, computed under the same lock.
func (r *Registry) Register(ctx context.Context, specs []WorkerSpec, defaultStrength float64) (string, error) {
	rec := &Record{T: RecRegister, Specs: specs, Strength: resolvedStrength(defaultStrength)}
	var sig string
	if err := r.j.mutate(ctx, &r.mu, func(tx *txn) error {
		err := tx.run(rec, r.prepareLocked)
		sig = r.sigLocked()
		return err
	}); err != nil {
		return "", err
	}
	return sig, nil
}

// Update replaces a worker's quality and cost, re-seeding its posterior
// from the new quality (an operator override discards accumulated vote
// evidence by design).
func (r *Registry) Update(ctx context.Context, spec WorkerSpec, defaultStrength float64) (WorkerInfo, error) {
	rec := &Record{T: RecUpdate, Specs: []WorkerSpec{spec}, Strength: resolvedStrength(defaultStrength)}
	var info WorkerInfo
	if err := r.j.mutate(ctx, &r.mu, func(tx *txn) error {
		if err := tx.run(rec, r.prepareLocked); err != nil {
			return err
		}
		info = r.workers[spec.ID].info()
		return nil
	}); err != nil {
		return WorkerInfo{}, err
	}
	return info, nil
}

// Remove deletes a worker.
func (r *Registry) Remove(ctx context.Context, id string) error {
	rec := &Record{T: RecRemove, WorkerID: id}
	return r.j.mutate(ctx, &r.mu, func(tx *txn) error { return tx.run(rec, r.prepareLocked) })
}

// Get returns one worker's state.
func (r *Registry) Get(id string) (WorkerInfo, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	w, ok := r.workers[id]
	if !ok {
		return WorkerInfo{}, fmt.Errorf("%w: %q", ErrWorkerUnknown, id)
	}
	return w.info(), nil
}

// List returns every worker in registration order together with the pool
// signature of exactly that state (both read under one lock, so they are
// mutually consistent). The signature is "" for an empty registry.
func (r *Registry) List() ([]WorkerInfo, string) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]WorkerInfo, len(r.order))
	for i, id := range r.order {
		out[i] = r.workers[id].info()
	}
	return out, r.sigLocked()
}

// Len returns the number of registered workers.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.order)
}

// Generation returns the mutation counter.
func (r *Registry) Generation() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.gen
}

// Ingest applies a batch of vote events atomically: every referenced
// worker must exist or nothing is applied. Each event is one Bayesian
// posterior step — a correct vote adds one pseudo-count of correctness
// evidence, an incorrect one the opposite — and the worker's quality
// becomes the new posterior mean. It returns the updated states of the
// touched workers, in first-touch order, and the post-ingest pool
// signature (computed under the same lock, so it matches the returned
// states exactly).
func (r *Registry) Ingest(ctx context.Context, events []VoteEvent) ([]WorkerInfo, string, error) {
	out, sig, _, err := r.IngestKeyed(ctx, events, "")
	return out, sig, err
}

// IngestKeyed is Ingest with a client-generated idempotency key: when
// key is non-empty and an earlier ingest already carried it, nothing is
// applied (or journaled) and duplicate is true. The key travels in the
// WAL record and the dedup table in snapshots, so exactly-once holds
// through crash recovery: a retry that lands after a replayed restart
// still deduplicates.
func (r *Registry) IngestKeyed(ctx context.Context, events []VoteEvent, key string) (updated []WorkerInfo, sig string, duplicate bool, err error) {
	rec := &Record{T: RecIngest, Events: events, Key: key}
	if err := r.j.mutate(ctx, &r.mu, func(tx *txn) error {
		if duplicate = tx.duplicate(r.idem, key); !duplicate {
			if err := tx.run(rec, r.prepareLocked); err != nil {
				return err
			}
			updated = make([]WorkerInfo, 0, len(events))
			for _, id := range firstTouch(events, func(ev VoteEvent) string { return ev.WorkerID }) {
				updated = append(updated, r.workers[id].info())
			}
		}
		sig = r.sigLocked()
		return nil
	}); err != nil {
		return nil, "", false, err
	}
	return updated, sig, duplicate, nil
}

// prepareLocked validates one registry record against the current state
// and returns the step that applies it — the one validation the live
// mutators and the log's records share. Callers hold r.mu.
func (r *Registry) prepareLocked(rec *Record) (func(), error) {
	switch rec.T {
	case RecRegister:
		seen := make(map[string]bool, len(rec.Specs))
		for _, spec := range rec.Specs {
			if err := validateSpec(spec); err != nil {
				return nil, err
			}
			if seen[spec.ID] {
				return nil, fmt.Errorf("%w: %q", ErrDuplicateBatch, spec.ID)
			}
			seen[spec.ID] = true
		}
		for _, spec := range rec.Specs {
			if _, ok := r.workers[spec.ID]; ok {
				return nil, fmt.Errorf("%w: %q", ErrWorkerExists, spec.ID)
			}
		}
		return func() {
			for _, spec := range rec.Specs {
				r.workers[spec.ID] = newState(spec, resolvedStrength(rec.Strength))
				r.order = append(r.order, spec.ID)
			}
			r.gen++
		}, nil
	case RecUpdate:
		if len(rec.Specs) != 1 {
			return nil, fmt.Errorf("server: update record carries %d specs", len(rec.Specs))
		}
		spec := rec.Specs[0]
		if err := validateSpec(spec); err != nil {
			return nil, err
		}
		w, ok := r.workers[spec.ID]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrWorkerUnknown, spec.ID)
		}
		return func() {
			fresh := newState(spec, resolvedStrength(rec.Strength))
			fresh.Version = w.Version + 1
			*w = *fresh
			r.gen++
		}, nil
	case RecRemove:
		if _, ok := r.workers[rec.WorkerID]; !ok {
			return nil, fmt.Errorf("%w: %q", ErrWorkerUnknown, rec.WorkerID)
		}
		return func() {
			delete(r.workers, rec.WorkerID)
			r.order = slices.DeleteFunc(r.order, func(id string) bool { return id == rec.WorkerID })
			r.gen++
		}, nil
	case RecIngest:
		for _, ev := range rec.Events {
			if _, ok := r.workers[ev.WorkerID]; !ok {
				return nil, fmt.Errorf("%w: %q", ErrWorkerUnknown, ev.WorkerID)
			}
		}
		if len(rec.Events) == 0 {
			return nil, nil
		}
		return func() {
			r.idem.add(rec.Key)
			for _, ev := range rec.Events {
				w := r.workers[ev.WorkerID]
				if ev.Correct {
					w.A++
					w.Correct++
				} else {
					w.B++
				}
				w.Votes++
				w.Quality = w.A / (w.A + w.B)
				w.Version++
			}
			r.gen++
		}, nil
	}
	return nil, fmt.Errorf("server: record type %q is not a registry record", rec.T)
}

// sigLocked is the whole pool's signature, "" for an empty registry.
// Callers hold r.mu (either mode).
func (r *Registry) sigLocked() string {
	if len(r.order) == 0 {
		return ""
	}
	return signature(r.gen, nil)
}

// persistState serializes the full registry (posteriors included) for a
// snapshot, in registration order. Rows are copied by value, so the
// captured state shares nothing with the live registry.
func (r *Registry) persistState() registryState {
	r.mu.RLock()
	defer r.mu.RUnlock()
	st := registryState{Gen: r.gen, Workers: make([]workerState, len(r.order))}
	for i, id := range r.order {
		st.Workers[i] = *r.workers[id]
	}
	st.Idem = r.idem.snapshot()
	return st
}

// load replaces the registry contents with a snapshot's state — the
// recovery path, at boot and in the restore after a failed flush. Snapshots
// carry no checksum and followers fetch them over HTTP, so every row is
// validated: a corrupt posterior would turn the next vote's quality
// into NaN, and NaN would reach selection.
func (r *Registry) load(st registryState) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	workers := make(map[string]*workerState, len(st.Workers))
	order := make([]string, 0, len(st.Workers))
	for _, w := range st.Workers {
		if w.ID == "" {
			return ErrEmptyID
		}
		if _, ok := workers[w.ID]; ok {
			return fmt.Errorf("%w: %q", ErrDuplicateBatch, w.ID)
		}
		if err := (worker.Worker{ID: w.ID, Quality: w.Quality, Cost: w.Cost}).Validate(); err != nil {
			return err
		}
		if !(w.A >= 0 && w.B >= 0 && w.A+w.B > 0) || math.IsInf(w.A+w.B, 0) {
			return fmt.Errorf("server: worker %q has posterior a=%v, b=%v", w.ID, w.A, w.B)
		}
		workers[w.ID] = &w
		order = append(order, w.ID)
	}
	r.workers = workers
	r.order = order
	r.gen = st.Gen
	r.idem.load(st.Idem)
	return nil
}

// AnyAffordable reports whether some registered worker costs at most
// budget — the "can collection possibly continue" check behind the
// online sessions' budget stop.
func (r *Registry) AnyAffordable(budget float64) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, w := range r.workers {
		if w.Cost <= budget {
			return true
		}
	}
	return false
}

// Snapshot materializes an immutable candidate pool for selection: the
// workers (all of them, or the given subset) as a worker.Pool in stable
// order, their ids, and the state signature. The returned pool shares
// nothing with the registry, so selection can run without holding locks.
// The pool and the signature are read under one lock, so the signature
// names exactly the state the pool was copied from.
func (r *Registry) Snapshot(ids []string) (worker.Pool, []string, string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var subset []string
	if len(ids) == 0 {
		if len(r.order) == 0 {
			return nil, nil, "", ErrEmptyRegistry
		}
		ids = r.order
	} else {
		for _, id := range ids {
			if _, ok := r.workers[id]; !ok {
				return nil, nil, "", fmt.Errorf("%w: %q", ErrWorkerUnknown, id)
			}
		}
		ids = canonicalIDs(ids)
		subset = ids
	}
	pool := make(worker.Pool, len(ids))
	outIDs := make([]string, len(ids))
	for i, id := range ids {
		w := r.workers[id]
		pool[i] = worker.Worker{ID: w.ID, Quality: w.Quality, Cost: w.Cost}
		outIDs[i] = id
	}
	return pool, outIDs, signature(r.gen, subset), nil
}

// canonicalIDs orders a subset request by id and drops repeats:
// selection treats the pool as a set, so equivalent requests share one
// signature (and one cache entry).
func canonicalIDs(ids []string) []string {
	out := slices.Clone(ids)
	slices.Sort(out)
	return slices.Compact(out)
}

// firstTouch lists the distinct worker ids of an ingest batch in
// first-touch order — the order ingest responses report updates in.
func firstTouch[E any](events []E, id func(E) string) []string {
	seen := make(map[string]bool, len(events))
	var out []string
	for _, ev := range events {
		if w := id(ev); !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// signature names a pool state for the selection cache: the registry
// generation gen for the whole pool, and for a canonical subset the
// generation plus a digest of the member ids. Each id is length-prefixed,
// so the byte stream parses unambiguously whatever bytes ids contain;
// with SHA-256 truncated to 128 bits, no crafted id makes one subset
// alias another. The ids alone suffice: at one generation they fix every
// member's state. Both registries use it; only subset selects hash.
func signature(gen uint64, subset []string) string {
	sig := strconv.FormatUint(gen, 10)
	if subset == nil {
		return sig
	}
	h := sha256.New()
	var buf [8]byte
	for _, id := range subset {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(id)))
		h.Write(buf[:])
		h.Write([]byte(id))
	}
	return sig + "-" + hex.EncodeToString(h.Sum(nil)[:16])
}
