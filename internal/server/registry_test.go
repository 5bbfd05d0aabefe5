package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
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

// TestSnapshotSignatureDriftsWithQuality: every applied mutation kind
// moves the signature to a value never seen before, and a request that
// applies nothing leaves it alone. In the multi-choice registry every
// pool shares one generation, so a mutation of any pool moves the
// untouched pool's signature too.
func TestSnapshotSignatureDriftsWithQuality(t *testing.T) {
	ctx := context.Background()
	t.Run("binary", func(t *testing.T) {
		r := NewRegistry()
		if _, err := r.Register(ctx, specs3(), 0); err != nil {
			t.Fatal(err)
		}
		_, sig := r.List()
		seen := map[string]bool{sig: true}
		steps := []struct {
			name   string
			change bool
			run    func() error
		}{
			{"register", true, func() error {
				_, err := r.Register(ctx, []WorkerSpec{{ID: "d", Quality: 0.9, Cost: 4}}, 0)
				return err
			}},
			{"update", true, func() error {
				_, err := r.Update(ctx, WorkerSpec{ID: "a", Quality: 0.85, Cost: 3}, 0)
				return err
			}},
			{"ingest", true, func() error {
				_, _, err := r.Ingest(ctx, []VoteEvent{{WorkerID: "b", Correct: true}})
				return err
			}},
			{"keyed-ingest", true, func() error {
				_, _, _, err := r.IngestKeyed(ctx, []VoteEvent{{WorkerID: "c", Correct: false}}, "k")
				return err
			}},
			{"duplicate-keyed-ingest", false, func() error {
				_, _, dup, err := r.IngestKeyed(ctx, []VoteEvent{{WorkerID: "c", Correct: false}}, "k")
				if err == nil && !dup {
					err = errors.New("retry not reported as a duplicate")
				}
				return err
			}},
			{"empty-ingest", false, func() error {
				_, _, err := r.Ingest(ctx, nil)
				return err
			}},
			{"remove", true, func() error { return r.Remove(ctx, "b") }},
		}
		for _, step := range steps {
			if err := step.run(); err != nil {
				t.Fatalf("%s: %v", step.name, err)
			}
			_, got := r.List()
			if _, _, snap, err := r.Snapshot(nil); err != nil || snap != got {
				t.Fatalf("%s: Snapshot signature %q (%v), List %q", step.name, snap, err, got)
			}
			if step.change == (got == sig) || step.change == seen[got] {
				t.Fatalf("%s: signature %q -> %q, want changed=%v and never seen before", step.name, sig, got, step.change)
			}
			sig, seen[got] = got, true
		}
	})
	t.Run("multi", func(t *testing.T) {
		r := NewMultiRegistry()
		spec := []MultiWorkerSpec{{ID: "w", Quality: fp(0.8), Cost: 1}}
		if _, err := r.CreatePool(ctx, "keep", 2, spec, 0); err != nil {
			t.Fatal(err)
		}
		keepSig := func() string {
			info, err := r.Get("keep")
			if err != nil {
				t.Fatal(err)
			}
			return info.Signature
		}
		sig := keepSig()
		seen := map[string]bool{sig: true}
		steps := []struct {
			name   string
			change bool
			run    func() error
		}{
			{"create", true, func() error {
				_, err := r.CreatePool(ctx, "q", 2, spec, 0)
				return err
			}},
			{"register", true, func() error {
				_, _, err := r.Register(ctx, "q", []MultiWorkerSpec{{ID: "v", Quality: fp(0.7), Cost: 2}}, 0)
				return err
			}},
			{"ingest", true, func() error {
				_, _, err := r.Ingest(ctx, "q", []MultiVoteEvent{{WorkerID: "v", Truth: 1, Vote: 0}})
				return err
			}},
			{"keyed-ingest", true, func() error {
				_, _, _, err := r.IngestKeyed(ctx, "q", []MultiVoteEvent{{WorkerID: "w", Truth: 0, Vote: 0}}, "k")
				return err
			}},
			{"duplicate-keyed-ingest", false, func() error {
				_, _, dup, err := r.IngestKeyed(ctx, "q", []MultiVoteEvent{{WorkerID: "w", Truth: 0, Vote: 0}}, "k")
				if err == nil && !dup {
					err = errors.New("retry not reported as a duplicate")
				}
				return err
			}},
			{"drop", true, func() error { return r.DropPool(ctx, "q") }},
		}
		for _, step := range steps {
			if err := step.run(); err != nil {
				t.Fatalf("%s: %v", step.name, err)
			}
			got := keepSig()
			if _, _, snap, _, err := r.Snapshot("keep", nil); err != nil || snap != got {
				t.Fatalf("%s: Snapshot signature %q (%v), Get %q", step.name, snap, err, got)
			}
			if step.change == (got == sig) || step.change == seen[got] {
				t.Fatalf("%s: signature %q -> %q, want changed=%v and never seen before", step.name, sig, got, step.change)
			}
			sig, seen[got] = got, true
		}
	})
	t.Run("multi-recreate", func(t *testing.T) {
		// Dropping and re-creating a pool with the same name, labels and
		// workers recreates the same rows, but never a cache hit on the
		// dropped pool's juries.
		s := New(Config{Alpha: 0.5, Seed: 1})
		create := func() {
			t.Helper()
			req := colorPoolRequest()
			if _, err := s.multi.CreatePool(ctx, req.Name, req.Labels, req.Workers, 0); err != nil {
				t.Fatal(err)
			}
		}
		create()
		req := MultiSelectRequest{Budget: 4}
		first, err := s.selectMulti(ctx, "colors", req)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := s.selectMulti(ctx, "colors", req); err != nil || !again.Cached {
			t.Fatalf("repeat select: cached=%v, %v", again.Cached, err)
		}
		if err := s.multi.DropPool(ctx, "colors"); err != nil {
			t.Fatal(err)
		}
		create()
		after, err := s.selectMulti(ctx, "colors", req)
		if err != nil {
			t.Fatal(err)
		}
		if after.Cached || after.Signature == first.Signature {
			t.Fatalf("re-created pool hit the dropped pool's cache: cached=%v, signature %q -> %q",
				after.Cached, first.Signature, after.Signature)
		}
	})
}

// TestSnapshotSubsetCanonicalization: equal canonical subsets share one
// signature (so one cache entry), and different subsets at one
// generation never do, so a subset jury is never served for another.
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
	_, _, full, _ := r.Snapshot(nil)
	seen := map[string]string{full: "full pool", sig1: "{a, c}"}
	for _, sub := range [][]string{{"a", "b"}, {"b", "c"}, {"a"}, {"c"}, {"a", "b", "c"}} {
		_, _, sig, err := r.Snapshot(sub)
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := seen[sig]; ok {
			t.Fatalf("subset %v shares signature %q with %s", sub, sig, prev)
		}
		seen[sig] = fmt.Sprint(sub)
	}
	if _, _, _, err := r.Snapshot([]string{"ghost"}); !errors.Is(err, ErrWorkerUnknown) {
		t.Fatalf("unknown subset member: %v", err)
	}
	empty := NewRegistry()
	if _, _, _, err := empty.Snapshot(nil); !errors.Is(err, ErrEmptyRegistry) {
		t.Fatalf("empty registry: %v", err)
	}
}

// TestSignatureUnambiguousWithCraftedIDs: subset signatures digest the
// member ids length-prefixed. Under a looser encoding a single worker
// whose id embeds two other ids' bytes would hash like the two-worker
// subset, letting a crafted registration alias two different subsets
// of one pool state in the selection cache.
func TestSignatureUnambiguousWithCraftedIDs(t *testing.T) {
	var one [8]byte
	binary.LittleEndian.PutUint64(one[:], 1)
	crafted := []string{
		"xy",                       // aliases plain concatenation
		"x\x00y",                   // aliases NUL-separated ids
		"x" + string(one[:]) + "y", // aliases prefixes on all ids but the first
	}
	specs := []WorkerSpec{{ID: "x", Quality: 0.8, Cost: 3}, {ID: "y", Quality: 0.7, Cost: 2}}
	for _, id := range crafted {
		specs = append(specs, WorkerSpec{ID: id, Quality: 0.7, Cost: 2})
	}
	r := NewRegistry()
	if _, err := r.Register(context.Background(), specs, 0); err != nil {
		t.Fatal(err)
	}
	_, _, pair, err := r.Snapshot([]string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range crafted {
		_, _, single, err := r.Snapshot([]string{id})
		if err != nil {
			t.Fatal(err)
		}
		if single == pair {
			t.Errorf("crafted subset {%q} aliases {x, y}: %s", id, pair)
		}
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
// reaches selection.
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
