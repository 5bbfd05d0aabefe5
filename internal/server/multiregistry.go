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
	"sync"

	"repro/internal/multichoice"
)

// MaxLabels bounds a pool's label count. Confusion matrices are dense
// ℓ×ℓ (two per worker, counts plus posterior means) and the bucketed JQ
// DP is exponential in ℓ, so an unbounded ℓ would let one unauthenticated
// create request allocate arbitrary memory; real multi-choice tasks have
// a handful of labels.
const MaxLabels = 64

// Errors returned by the multi-choice registry.
var (
	ErrPoolUnknown   = errors.New("server: unknown multi-choice pool")
	ErrPoolExists    = errors.New("server: multi-choice pool already exists")
	ErrEmptyPoolName = errors.New("server: empty pool name")
	ErrBadSpec       = errors.New("server: bad multi-choice worker spec")
	ErrBadEvent      = errors.New("server: bad multi-choice vote event")
)

// multiWorkerState is the registry's record of one multi-choice worker:
// the public parameters plus a Dirichlet posterior per confusion row.
// confusion is kept equal to the per-row posterior means.
type multiWorkerState struct {
	id   string
	cost float64
	// counts[j][k] is the Dirichlet pseudo-count of voting k when the
	// truth is j, seeded from the registered matrix scaled by the prior
	// strength; each ingested event adds one count.
	counts    [][]float64
	confusion multichoice.ConfusionMatrix
	votes     int
	version   int64
}

func (w *multiWorkerState) info() MultiWorkerInfo {
	return MultiWorkerInfo{
		ID:              w.id,
		Confusion:       copyMatrix(w.confusion),
		Cost:            w.cost,
		Informativeness: multichoice.InformativenessScore(w.confusion),
		Votes:           w.votes,
		Version:         w.version,
	}
}

func copyMatrix(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	for i, row := range m {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// multiPool is one named pool: a label count and its workers in
// registration order.
type multiPool struct {
	name    string
	labels  int
	workers map[string]*multiWorkerState
	order   []string
	// sig is the memoized full-pool signature, refreshed by every
	// mutation under the registry's write lock.
	sig string
}

// MultiRegistry is the concurrency-safe resident store of multi-choice
// pools: pool creation, worker registration, and Dirichlet posterior
// re-estimation from graded multi-label vote events. Like the binary
// Registry, every observable pool state is identified by a signature —
// here a hash over the label count and each worker's (id, cost, full
// confusion matrix) — so the selection cache's consistency token covers
// the complete matrix state and any posterior drift invalidates
// structurally.
type MultiRegistry struct {
	mu    sync.RWMutex
	pools map[string]*multiPool
	order []string // creation order, for deterministic listings/snapshots
	gen   uint64
	// j journals every mutation (nil: in memory only).
	j *journal
	// idem remembers applied ingest idempotency keys registry-wide (one
	// table across pools; keys are client-unique regardless of target).
	// Guarded by mu, like the binary Registry's — see that field's note
	// on replay bit-exactness.
	idem *idemTable
}

// NewMultiRegistry returns an empty multi-choice registry.
func NewMultiRegistry() *MultiRegistry {
	return &MultiRegistry{pools: make(map[string]*multiPool), idem: newIdemTable()}
}

// resolveLabels determines the pool's label count from the request:
// explicit labels win; otherwise ℓ is inferred from the first explicit
// confusion matrix.
func resolveLabels(labels int, specs []MultiWorkerSpec) (int, error) {
	if labels == 0 {
		for _, spec := range specs {
			if spec.Confusion != nil {
				labels = len(spec.Confusion)
				break
			}
		}
		if labels == 0 {
			return 0, fmt.Errorf("%w: label count neither given nor inferable from a confusion matrix", ErrBadSpec)
		}
	}
	return labels, checkLabels(labels)
}

// checkLabels enforces the 2..MaxLabels range.
func checkLabels(labels int) error {
	if labels < 2 {
		return fmt.Errorf("%w: need at least 2 labels, got %d", multichoice.ErrBadMatrix, labels)
	}
	if labels > MaxLabels {
		return fmt.Errorf("%w: %d labels exceeds the maximum %d", multichoice.ErrBadMatrix, labels, MaxLabels)
	}
	return nil
}

// specMatrix materializes and validates the spec's confusion matrix for
// a pool with ℓ labels.
func specMatrix(spec MultiWorkerSpec, labels int) (multichoice.ConfusionMatrix, error) {
	if (spec.Confusion == nil) == (spec.Quality == nil) {
		return nil, fmt.Errorf("%w: worker %q must set exactly one of confusion and quality", ErrBadSpec, spec.ID)
	}
	if spec.Quality != nil {
		m, err := multichoice.NewSymmetricConfusion(labels, *spec.Quality)
		if err != nil {
			return nil, fmt.Errorf("worker %q: %w", spec.ID, err)
		}
		return m, nil
	}
	m := multichoice.ConfusionMatrix(copyMatrix(spec.Confusion))
	w := multichoice.Worker{ID: spec.ID, Confusion: m, Cost: spec.Cost}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if m.Labels() != labels {
		return nil, fmt.Errorf("%w: worker %q has %d labels, pool has %d",
			multichoice.ErrArity, spec.ID, m.Labels(), labels)
	}
	return m, nil
}

// validateMultiSpecs checks a registration batch against a pool of ℓ
// labels — ids non-empty and batch-unique, matrices valid, costs and
// prior strengths sane — and returns the materialized confusion matrix
// per spec, so the apply paths need not rebuild them.
func validateMultiSpecs(specs []MultiWorkerSpec, labels int) ([]multichoice.ConfusionMatrix, error) {
	seen := make(map[string]bool, len(specs))
	matrices := make([]multichoice.ConfusionMatrix, len(specs))
	for i, spec := range specs {
		if spec.ID == "" {
			return nil, ErrEmptyID
		}
		if seen[spec.ID] {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateBatch, spec.ID)
		}
		seen[spec.ID] = true
		if spec.PriorStrength < 0 || spec.PriorStrength != spec.PriorStrength {
			return nil, fmt.Errorf("%w: %v (worker %q)", ErrBadPrior, spec.PriorStrength, spec.ID)
		}
		if spec.Cost < 0 || spec.Cost != spec.Cost {
			return nil, fmt.Errorf("%w: worker %q has negative cost %v", ErrBadSpec, spec.ID, spec.Cost)
		}
		m, err := specMatrix(spec, labels)
		if err != nil {
			return nil, err
		}
		matrices[i] = m
	}
	return matrices, nil
}

// newMultiState builds the Dirichlet-seeded state for a spec whose
// matrix m has been materialized by validateMultiSpecs: registering
// matrix C with strength s is treated as s past votes per row distributed
// as C's row, so early events move each row's posterior quickly without
// discarding the registered matrix outright.
func newMultiState(spec MultiWorkerSpec, m multichoice.ConfusionMatrix, defaultStrength float64) *multiWorkerState {
	s := spec.PriorStrength
	if s == 0 {
		s = defaultStrength
	}
	labels := m.Labels()
	counts := make([][]float64, labels)
	for j := range counts {
		counts[j] = make([]float64, labels)
		for k := range counts[j] {
			counts[j][k] = m[j][k] * s
		}
	}
	return &multiWorkerState{
		id:        spec.ID,
		cost:      spec.Cost,
		counts:    counts,
		confusion: m,
		version:   1,
	}
}

// CreatePool creates a new pool atomically with its initial workers (the
// worker list may be empty when labels is explicit). It returns the new
// pool's signature.
func (r *MultiRegistry) CreatePool(ctx context.Context, name string, labels int, specs []MultiWorkerSpec, defaultStrength float64) (string, error) {
	if name == "" {
		return "", ErrEmptyPoolName
	}
	l, err := resolveLabels(labels, specs)
	if err != nil {
		return "", err
	}
	rec := &Record{T: RecMultiCreate, Multi: &MultiRecord{
		Pool: name, Labels: l, Specs: specs, Strength: resolvedStrength(defaultStrength),
	}}
	var sig string
	if err := r.j.mutate(ctx, &r.mu, func(tx *txn) error {
		if err := tx.run(rec, r.prepareLocked); err != nil {
			return err
		}
		sig = r.pools[name].sig
		return nil
	}); err != nil {
		return "", err
	}
	return sig, nil
}

// Register adds new workers to an existing pool atomically.
func (r *MultiRegistry) Register(ctx context.Context, pool string, specs []MultiWorkerSpec, defaultStrength float64) (string, int, error) {
	if len(specs) == 0 {
		return "", 0, fmt.Errorf("%w: no workers in request", ErrBadSpec)
	}
	rec := &Record{T: RecMultiRegister, Multi: &MultiRecord{
		Pool: pool, Specs: specs, Strength: resolvedStrength(defaultStrength),
	}}
	var sig string
	var size int
	if err := r.j.mutate(ctx, &r.mu, func(tx *txn) error {
		if err := tx.run(rec, r.prepareLocked); err != nil {
			return err
		}
		p := r.pools[pool]
		sig, size = p.sig, len(p.order)
		return nil
	}); err != nil {
		return "", 0, err
	}
	return sig, size, nil
}

// DropPool deletes a pool and all its workers.
func (r *MultiRegistry) DropPool(ctx context.Context, name string) error {
	rec := &Record{T: RecMultiDrop, Multi: &MultiRecord{Pool: name}}
	return r.j.mutate(ctx, &r.mu, func(tx *txn) error { return tx.run(rec, r.prepareLocked) })
}

// validateEvents checks an ingest batch against a pool.
func validateEvents(p *multiPool, events []MultiVoteEvent) error {
	for _, ev := range events {
		if _, ok := p.workers[ev.WorkerID]; !ok {
			return fmt.Errorf("%w: %q", ErrWorkerUnknown, ev.WorkerID)
		}
		if ev.Truth < 0 || ev.Truth >= p.labels || ev.Vote < 0 || ev.Vote >= p.labels {
			return fmt.Errorf("%w: truth %d, vote %d outside [0, %d)",
				ErrBadEvent, ev.Truth, ev.Vote, p.labels)
		}
	}
	return nil
}

// Ingest applies a batch of graded multi-label vote events atomically.
// Each event is one Dirichlet posterior step: the (truth, vote) cell of
// the worker's pseudo-count matrix gains one count and row `truth` of
// the confusion matrix becomes that row's new posterior mean. It
// returns the updated states of the touched workers, in first-touch
// order, and the post-ingest pool signature.
func (r *MultiRegistry) Ingest(ctx context.Context, pool string, events []MultiVoteEvent) ([]MultiWorkerInfo, string, error) {
	out, sig, _, err := r.IngestKeyed(ctx, pool, events, "")
	return out, sig, err
}

// IngestKeyed is Ingest with a client-generated idempotency key,
// following Registry.IngestKeyed's contract: a repeated key applies
// nothing, journals nothing, and reports duplicate (with the pool's
// current signature when the pool still exists).
func (r *MultiRegistry) IngestKeyed(ctx context.Context, pool string, events []MultiVoteEvent, key string) (updated []MultiWorkerInfo, sig string, duplicate bool, err error) {
	if len(events) == 0 {
		return nil, "", false, fmt.Errorf("%w: no events in request", ErrBadEvent)
	}
	rec := &Record{T: RecMultiIngest, Key: key, Multi: &MultiRecord{Pool: pool, Events: events}}
	if err := r.j.mutate(ctx, &r.mu, func(tx *txn) error {
		if duplicate = tx.duplicate(r.idem, key); !duplicate {
			if err := tx.run(rec, r.prepareLocked); err != nil {
				return err
			}
			p := r.pools[pool]
			for _, id := range firstTouch(events, func(ev MultiVoteEvent) string { return ev.WorkerID }) {
				updated = append(updated, p.workers[id].info())
			}
		}
		if p, ok := r.pools[pool]; ok {
			sig = p.sig
		}
		return nil
	}); err != nil {
		return nil, "", false, err
	}
	return updated, sig, duplicate, nil
}

// Apply replays one journaled multi-registry record without
// re-journaling it — the recovery path.
func (r *MultiRegistry) Apply(rec *Record) error {
	return replay(&r.mu, rec, r.prepareLocked)
}

// prepareLocked validates one multi-registry record against the current
// state and returns the step that applies it — the one validation the
// live mutators and replay share. Callers hold r.mu.
func (r *MultiRegistry) prepareLocked(rec *Record) (func(), error) {
	mr := rec.Multi
	if mr == nil {
		return nil, fmt.Errorf("server: %s record without multi payload", rec.T)
	}
	switch rec.T {
	case RecMultiCreate:
		if mr.Pool == "" {
			return nil, ErrEmptyPoolName
		}
		if err := checkLabels(mr.Labels); err != nil {
			return nil, err
		}
		matrices, err := validateMultiSpecs(mr.Specs, mr.Labels)
		if err != nil {
			return nil, err
		}
		if _, ok := r.pools[mr.Pool]; ok {
			return nil, fmt.Errorf("%w: %q", ErrPoolExists, mr.Pool)
		}
		return func() {
			p := &multiPool{name: mr.Pool, labels: mr.Labels, workers: make(map[string]*multiWorkerState, len(mr.Specs))}
			r.pools[mr.Pool] = p
			r.order = append(r.order, mr.Pool)
			r.addWorkersLocked(p, mr, matrices)
		}, nil
	case RecMultiRegister:
		p, ok := r.pools[mr.Pool]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrPoolUnknown, mr.Pool)
		}
		matrices, err := validateMultiSpecs(mr.Specs, p.labels)
		if err != nil {
			return nil, err
		}
		for _, spec := range mr.Specs {
			if _, ok := p.workers[spec.ID]; ok {
				return nil, fmt.Errorf("%w: %q", ErrWorkerExists, spec.ID)
			}
		}
		return func() { r.addWorkersLocked(p, mr, matrices) }, nil
	case RecMultiIngest:
		p, ok := r.pools[mr.Pool]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrPoolUnknown, mr.Pool)
		}
		if err := validateEvents(p, mr.Events); err != nil {
			return nil, err
		}
		return func() {
			r.idem.add(rec.Key)
			for _, ev := range mr.Events {
				w := p.workers[ev.WorkerID]
				w.counts[ev.Truth][ev.Vote]++
				var rowSum float64
				for _, c := range w.counts[ev.Truth] {
					rowSum += c
				}
				for k, c := range w.counts[ev.Truth] {
					w.confusion[ev.Truth][k] = c / rowSum
				}
				w.votes++
				w.version++
			}
			r.gen++
			p.sig = p.signature()
		}, nil
	case RecMultiDrop:
		if _, ok := r.pools[mr.Pool]; !ok {
			return nil, fmt.Errorf("%w: %q", ErrPoolUnknown, mr.Pool)
		}
		return func() {
			delete(r.pools, mr.Pool)
			r.order = slices.DeleteFunc(r.order, func(n string) bool { return n == mr.Pool })
			r.gen++
		}, nil
	}
	return nil, fmt.Errorf("server: record type %q is not a multi-registry record", rec.T)
}

// addWorkersLocked seeds the validated specs of a create or register
// record into p, with the matrices validateMultiSpecs materialized.
func (r *MultiRegistry) addWorkersLocked(p *multiPool, mr *MultiRecord, matrices []multichoice.ConfusionMatrix) {
	for i, spec := range mr.Specs {
		p.workers[spec.ID] = newMultiState(spec, matrices[i], resolvedStrength(mr.Strength))
		p.order = append(p.order, spec.ID)
	}
	r.gen++
	p.sig = p.signature()
}

// List returns every pool's summary in creation order.
func (r *MultiRegistry) List() []MultiPoolSummary {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]MultiPoolSummary, len(r.order))
	for i, name := range r.order {
		p := r.pools[name]
		out[i] = MultiPoolSummary{Name: name, Labels: p.labels, Workers: len(p.order), Signature: p.sig}
	}
	return out
}

// Get returns one pool's full state.
func (r *MultiRegistry) Get(name string) (MultiPoolInfo, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.pools[name]
	if !ok {
		return MultiPoolInfo{}, fmt.Errorf("%w: %q", ErrPoolUnknown, name)
	}
	info := MultiPoolInfo{Name: name, Labels: p.labels, Signature: p.sig,
		Workers: make([]MultiWorkerInfo, len(p.order))}
	for i, id := range p.order {
		info.Workers[i] = p.workers[id].info()
	}
	return info, nil
}

// Len returns the number of pools.
func (r *MultiRegistry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.order)
}

// Snapshot materializes an immutable candidate pool for multi-choice
// selection: the named pool's workers (all, or the given subset) as a
// multichoice.Pool whose matrices share nothing with the registry, their
// ids, the state signature, and the label count. Subset requests are
// canonicalized (sorted, deduplicated) like the binary registry's.
func (r *MultiRegistry) Snapshot(pool string, ids []string) (multichoice.Pool, []string, string, int, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.pools[pool]
	if !ok {
		return nil, nil, "", 0, fmt.Errorf("%w: %q", ErrPoolUnknown, pool)
	}
	sig := ""
	if len(ids) == 0 {
		if len(p.order) == 0 {
			return nil, nil, "", 0, ErrEmptyRegistry
		}
		ids = p.order
		sig = p.sig
	} else {
		for _, id := range ids {
			if _, ok := p.workers[id]; !ok {
				return nil, nil, "", 0, fmt.Errorf("%w: %q", ErrWorkerUnknown, id)
			}
		}
		ids = canonicalIDs(ids)
	}
	out := make(multichoice.Pool, len(ids))
	outIDs := make([]string, len(ids))
	for i, id := range ids {
		w := p.workers[id]
		out[i] = multichoice.Worker{ID: w.id, Confusion: copyMatrix(w.confusion), Cost: w.cost}
		outIDs[i] = id
	}
	if sig == "" {
		sig = p.signatureOf(ids)
	}
	return out, outIDs, sig, p.labels, nil
}

// persistState serializes the full multi registry (Dirichlet posteriors
// included) for a snapshot, pools in creation order.
func (r *MultiRegistry) persistState() multiRegistryState {
	r.mu.RLock()
	defer r.mu.RUnlock()
	st := multiRegistryState{Gen: r.gen}
	for _, name := range r.order {
		p := r.pools[name]
		pp := multiPoolPersist{Name: name, Labels: p.labels,
			Workers: make([]multiWorkerPersist, len(p.order))}
		for i, id := range p.order {
			w := p.workers[id]
			pp.Workers[i] = multiWorkerPersist{
				ID:        w.id,
				Cost:      w.cost,
				Counts:    copyMatrix(w.counts),
				Confusion: copyMatrix(w.confusion),
				Votes:     w.votes,
				Version:   w.version,
			}
		}
		st.Pools = append(st.Pools, pp)
	}
	st.Idem = r.idem.snapshot()
	return st
}

// load replaces the registry contents with a snapshot's state — the
// recovery path, called before the server starts serving. The confusion
// matrices travel in the snapshot (rather than being re-derived from the
// counts) so recovered state is bit-identical to the pre-crash state.
func (r *MultiRegistry) load(st multiRegistryState) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	pools := make(map[string]*multiPool, len(st.Pools))
	order := make([]string, 0, len(st.Pools))
	for _, pp := range st.Pools {
		if pp.Name == "" {
			return ErrEmptyPoolName
		}
		if _, ok := pools[pp.Name]; ok {
			return fmt.Errorf("%w: %q", ErrPoolExists, pp.Name)
		}
		if err := checkLabels(pp.Labels); err != nil {
			return fmt.Errorf("pool %q: %w", pp.Name, err)
		}
		p := &multiPool{name: pp.Name, labels: pp.Labels,
			workers: make(map[string]*multiWorkerState, len(pp.Workers))}
		for _, wp := range pp.Workers {
			if wp.ID == "" {
				return ErrEmptyID
			}
			if _, ok := p.workers[wp.ID]; ok {
				return fmt.Errorf("%w: %q", ErrDuplicateBatch, wp.ID)
			}
			m := multichoice.ConfusionMatrix(copyMatrix(wp.Confusion))
			if err := m.Validate(); err != nil {
				return fmt.Errorf("pool %q worker %q: %w", pp.Name, wp.ID, err)
			}
			if m.Labels() != pp.Labels || len(wp.Counts) != pp.Labels {
				return fmt.Errorf("%w: pool %q worker %q matrix shape", multichoice.ErrArity, pp.Name, wp.ID)
			}
			// The counts matrix feeds future ingests (row renormalization
			// indexes and divides by row sums), so a corrupt snapshot must
			// fail recovery here rather than panic or emit NaN rows later.
			for j, row := range wp.Counts {
				if len(row) != pp.Labels {
					return fmt.Errorf("%w: pool %q worker %q counts row %d", multichoice.ErrArity, pp.Name, wp.ID, j)
				}
				var rowSum float64
				for k, c := range row {
					if c < 0 || c != c || math.IsInf(c, 0) {
						return fmt.Errorf("%w: pool %q worker %q counts[%d][%d] = %v",
							multichoice.ErrBadMatrix, pp.Name, wp.ID, j, k, c)
					}
					rowSum += c
				}
				if rowSum <= 0 {
					return fmt.Errorf("%w: pool %q worker %q counts row %d sums to %v",
						multichoice.ErrBadMatrix, pp.Name, wp.ID, j, rowSum)
				}
			}
			p.workers[wp.ID] = &multiWorkerState{
				id:        wp.ID,
				cost:      wp.Cost,
				counts:    copyMatrix(wp.Counts),
				confusion: m,
				votes:     wp.Votes,
				version:   wp.Version,
			}
			p.order = append(p.order, wp.ID)
		}
		p.sig = p.signature()
		pools[pp.Name] = p
		order = append(order, pp.Name)
	}
	r.pools = pools
	r.order = order
	r.gen = st.Gen
	r.idem.load(st.Idem)
	return nil
}

// signature hashes the whole pool in registration order.
func (p *multiPool) signature() string {
	if len(p.order) == 0 {
		return p.signatureOf(nil)
	}
	return p.signatureOf(p.order)
}

// signatureOf hashes the label count and the (id, cost, confusion
// matrix) state of the given workers, in order. The full ℓ² matrix goes
// into the hash, so any Dirichlet posterior drift — in any row —
// changes the signature and structurally invalidates cached selections.
// Callers must hold the registry lock (either mode).
func (p *multiPool) signatureOf(ids []string) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(p.labels))
	h.Write(buf[:])
	for _, id := range ids {
		w := p.workers[id]
		binary.LittleEndian.PutUint64(buf[:], uint64(len(id)))
		h.Write(buf[:])
		h.Write([]byte(id))
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(w.cost))
		h.Write(buf[:])
		for _, row := range w.confusion {
			for _, v := range row {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}
