package server

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

func specs3() []WorkerSpec {
	return []WorkerSpec{
		{ID: "a", Quality: 0.8, Cost: 3},
		{ID: "b", Quality: 0.7, Cost: 2},
		{ID: "c", Quality: 0.6, Cost: 1},
	}
}

func TestRegistryRegisterListGet(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Register(context.Background(), specs3(), 0); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	list, sig := r.List()
	if len(list) != 3 || list[0].ID != "a" || list[2].ID != "c" {
		t.Fatalf("List order wrong: %+v", list)
	}
	if sig == "" {
		t.Fatal("List returned empty signature for non-empty registry")
	}
	got, err := r.Get("b")
	if err != nil {
		t.Fatal(err)
	}
	if got.Quality != 0.7 || got.Cost != 2 || got.Version != 1 {
		t.Fatalf("Get(b) = %+v", got)
	}
}

func TestRegistryRegisterErrors(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Register(context.Background(), []WorkerSpec{{ID: "", Quality: 0.5, Cost: 1}}, 0); !errors.Is(err, ErrEmptyID) {
		t.Fatalf("empty id: %v", err)
	}
	if _, err := r.Register(context.Background(), []WorkerSpec{{ID: "x", Quality: 1.5, Cost: 1}}, 0); err == nil {
		t.Fatal("quality out of range accepted")
	}
	dup := []WorkerSpec{{ID: "x", Quality: 0.5, Cost: 1}, {ID: "x", Quality: 0.6, Cost: 1}}
	if _, err := r.Register(context.Background(), dup, 0); !errors.Is(err, ErrDuplicateBatch) {
		t.Fatalf("duplicate batch: %v", err)
	}
	if _, err := r.Register(context.Background(), specs3(), 0); err != nil {
		t.Fatal(err)
	}
	// Atomicity: a batch with one existing id registers nothing.
	batch := []WorkerSpec{{ID: "new", Quality: 0.5, Cost: 1}, {ID: "a", Quality: 0.5, Cost: 1}}
	if _, err := r.Register(context.Background(), batch, 0); !errors.Is(err, ErrWorkerExists) {
		t.Fatalf("existing id: %v", err)
	}
	if _, err := r.Get("new"); !errors.Is(err, ErrWorkerUnknown) {
		t.Fatal("partial batch was applied")
	}
}

func TestRegistryIngestPosterior(t *testing.T) {
	r := NewRegistry()
	// Prior strength 8 at quality 0.8: Beta(6.4, 1.6).
	if _, err := r.Register(context.Background(), []WorkerSpec{{ID: "a", Quality: 0.8, Cost: 1}}, 8); err != nil {
		t.Fatal(err)
	}
	updated, _, err := r.Ingest(context.Background(), []VoteEvent{{WorkerID: "a", Correct: false}})
	if err != nil {
		t.Fatal(err)
	}
	want := 6.4 / (6.4 + 2.6)
	if len(updated) != 1 || math.Abs(updated[0].Quality-want) > 1e-12 {
		t.Fatalf("posterior after one incorrect vote: %+v, want quality %v", updated, want)
	}
	if updated[0].Votes != 1 || updated[0].Correct != 0 || updated[0].Version != 2 {
		t.Fatalf("tallies wrong: %+v", updated[0])
	}
	// Many correct votes pull the posterior mean upward.
	events := make([]VoteEvent, 50)
	for i := range events {
		events[i] = VoteEvent{WorkerID: "a", Correct: true}
	}
	updated, _, err = r.Ingest(context.Background(), events)
	if err != nil {
		t.Fatal(err)
	}
	if q := updated[0].Quality; q <= 0.8 || q >= 1 {
		t.Fatalf("posterior after 50 correct votes = %v, want in (0.8, 1)", q)
	}
}

func TestRegistryIngestAtomicity(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Register(context.Background(), specs3(), 0); err != nil {
		t.Fatal(err)
	}
	events := []VoteEvent{{WorkerID: "a", Correct: true}, {WorkerID: "ghost", Correct: true}}
	if _, _, err := r.Ingest(context.Background(), events); !errors.Is(err, ErrWorkerUnknown) {
		t.Fatalf("unknown worker: %v", err)
	}
	got, _ := r.Get("a")
	if got.Votes != 0 {
		t.Fatal("partial ingest was applied")
	}
}

func TestSnapshotSignatureDriftsWithQuality(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Register(context.Background(), specs3(), 0); err != nil {
		t.Fatal(err)
	}
	_, _, sig1, err := r.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, sig2, _ := r.Snapshot(nil)
	if sig1 != sig2 {
		t.Fatalf("signature not stable: %s vs %s", sig1, sig2)
	}
	if _, _, err := r.Ingest(context.Background(), []VoteEvent{{WorkerID: "b", Correct: true}}); err != nil {
		t.Fatal(err)
	}
	_, _, sig3, _ := r.Snapshot(nil)
	if sig3 == sig1 {
		t.Fatal("signature did not drift with a quality-changing ingest")
	}
}

func TestSnapshotSubsetCanonicalization(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Register(context.Background(), specs3(), 0); err != nil {
		t.Fatal(err)
	}
	pool1, ids1, sig1, err := r.Snapshot([]string{"c", "a", "c"})
	if err != nil {
		t.Fatal(err)
	}
	_, ids2, sig2, err := r.Snapshot([]string{"a", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if sig1 != sig2 {
		t.Fatalf("equivalent subsets got different signatures: %s vs %s", sig1, sig2)
	}
	if len(pool1) != 2 || ids1[0] != "a" || ids1[1] != "c" || ids2[0] != "a" {
		t.Fatalf("subset not canonicalized: %v %v", ids1, ids2)
	}
	if _, _, _, err := r.Snapshot([]string{"ghost"}); !errors.Is(err, ErrWorkerUnknown) {
		t.Fatalf("unknown subset member: %v", err)
	}
	empty := NewRegistry()
	if _, _, _, err := empty.Snapshot(nil); !errors.Is(err, ErrEmptyRegistry) {
		t.Fatalf("empty registry: %v", err)
	}
}

// TestSignatureUnambiguousWithCraftedIDs: without length-prefixed ids, a
// single worker whose id embeds another worker's serialized bytes hashes
// to the same stream as a two-worker pool — which would let a crafted
// registration alias two different pool states in the selection cache.
func TestSignatureUnambiguousWithCraftedIDs(t *testing.T) {
	q1, c1 := 0.8, 3.0
	var buf [8]byte
	crafted := []byte{'x', 0}
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(q1))
	crafted = append(crafted, buf[:]...)
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(c1))
	crafted = append(crafted, buf[:]...)
	crafted = append(crafted, 'y')

	r1 := NewRegistry()
	if _, err := r1.Register(context.Background(), []WorkerSpec{{ID: string(crafted), Quality: 0.7, Cost: 2}}, 0); err != nil {
		t.Fatal(err)
	}
	r2 := NewRegistry()
	if _, err := r2.Register(context.Background(), []WorkerSpec{
		{ID: "x", Quality: q1, Cost: c1},
		{ID: "y", Quality: 0.7, Cost: 2},
	}, 0); err != nil {
		t.Fatal(err)
	}
	sig1, err := r1.Signature()
	if err != nil {
		t.Fatal(err)
	}
	sig2, err := r2.Signature()
	if err != nil {
		t.Fatal(err)
	}
	if sig1 == sig2 {
		t.Fatalf("crafted single-worker pool aliases a two-worker pool: %s", sig1)
	}
}

func TestRegistryUpdateRemove(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Register(context.Background(), specs3(), 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Ingest(context.Background(), []VoteEvent{{WorkerID: "a", Correct: false}}); err != nil {
		t.Fatal(err)
	}
	info, err := r.Update(context.Background(), WorkerSpec{ID: "a", Quality: 0.9, Cost: 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Quality != 0.9 || info.Cost != 5 || info.Votes != 0 {
		t.Fatalf("update did not reset posterior: %+v", info)
	}
	if info.Version < 2 {
		t.Fatalf("version not bumped: %+v", info)
	}
	if err := r.Remove(context.Background(), "b"); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("Len after remove = %d", r.Len())
	}
	if err := r.Remove(context.Background(), "b"); !errors.Is(err, ErrWorkerUnknown) {
		t.Fatalf("double remove: %v", err)
	}
	list, _ := r.List()
	if list[0].ID != "a" || list[1].ID != "c" {
		t.Fatalf("order after remove: %+v", list)
	}
}

// TestRegistryLoadRejectsCorruptRows: snapshots are plain JSON (no CRC)
// and followers fetch them over HTTP, so load must validate each worker
// row — a negative or empty Beta posterior would otherwise recover
// cleanly and turn the next vote's quality into 0/0 = NaN, which
// reaches the pool signature and selection.
func TestRegistryLoadRejectsCorruptRows(t *testing.T) {
	load := func(mutate func(*workerState)) error {
		w := workerState{ID: "w", Quality: 0.8, Cost: 1, A: 6.4, B: 1.6, Version: 1}
		mutate(&w)
		return NewRegistry().load(registryState{Workers: []workerState{w}})
	}
	if err := load(func(*workerState) {}); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	cases := map[string]func(*workerState){
		"empty-id":       func(w *workerState) { w.ID = "" },
		"nan-quality":    func(w *workerState) { w.Quality = math.NaN() },
		"quality-above":  func(w *workerState) { w.Quality = 1.5 },
		"negative-cost":  func(w *workerState) { w.Cost = -1 },
		"nan-cost":       func(w *workerState) { w.Cost = math.NaN() },
		"negative-a":     func(w *workerState) { w.A, w.B = -1, 0 },
		"negative-b":     func(w *workerState) { w.B = -0.5 },
		"zero-posterior": func(w *workerState) { w.A, w.B = 0, 0 },
		"nan-a":          func(w *workerState) { w.A = math.NaN() },
		"inf-b":          func(w *workerState) { w.B = math.Inf(1) },
	}
	for name, mutate := range cases {
		if err := load(mutate); err == nil {
			t.Errorf("%s: corrupt snapshot recovered cleanly", name)
		}
	}
	dup := workerState{ID: "w", Quality: 0.8, Cost: 1, A: 6.4, B: 1.6, Version: 1}
	if err := NewRegistry().load(registryState{Workers: []workerState{dup, dup}}); !errors.Is(err, ErrDuplicateBatch) {
		t.Errorf("duplicate row: %v, want ErrDuplicateBatch", err)
	}
}
