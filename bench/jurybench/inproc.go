package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/jq"
	"repro/internal/selection"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/worker"
	"repro/jury/serve"
)

// In-process measurements time the public functions of the layers that
// HTTP cannot isolate, on the same generated inputs the daemon sees: the
// N=128 pool, the select-uncached-N128 request stream and the ingest vote
// stream. They run after the daemons of the traced window have stopped,
// so nothing else competes for the cores.
const (
	inprocSelects     = 64   // first requests of select-uncached-N128
	inprocEvalRepeats = 10   // Estimator.Eval calls per returned jury
	inprocSetups      = 200  // jq.NewEstimator calls
	inprocCacheKeys   = 4    // distinct keys the SelectionCache.Get calls cycle over
	inprocCacheGets   = 1e5  // SelectionCache.Get calls
	inprocSnapshots   = 2000 // Registry.Snapshot calls
	inprocIngests     = 4000 // Registry.IngestKeyed calls (fits the dedup table)
	inprocAppends     = 1000 // wal.Log.Append calls
	inprocReplicated  = 500  // records replayed into a follower
)

func workerPool(specs []serve.WorkerSpec) worker.Pool {
	pool := make(worker.Pool, len(specs))
	for i, s := range specs {
		pool[i] = worker.Worker{ID: s.ID, Quality: s.Quality, Cost: s.Cost}
	}
	return pool
}

// perCall times n calls of fn and returns the mean duration.
func perCall(n int, fn func(i int) error) (time.Duration, error) {
	start := time.Now()
	for i := range n {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(n), nil
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// inproc runs every in-process measurement and records it into out. It
// returns the JQs of measured select requests 0..63, which a traced run
// compares against the daemon's answers.
func inproc(ctx context.Context, g gen, tmp string, out metrics, sp *spanLog, parent int, checks *checkLog) ([]float64, error) {
	specs := g.pool(128)
	pool := workerPool(specs)
	const alpha = 0.5 // juryd's default prior, which the workloads use
	var jqs []float64

	s := sp.begin("jq.NewEstimator", parent)
	setup, err := perCall(inprocSetups, func(int) error {
		_, err := jq.NewEstimator(pool, alpha, jq.Options{})
		return err
	})
	sp.end(s)
	if err != nil {
		return nil, err
	}
	out.set("jq.estimator_setup_us", us(setup), "us")

	s = sp.begin("selection.OPTJS.Select", parent)
	juries := make([][]int, inprocSelects)
	var evals float64
	cpu0, wall0 := processCPU(), time.Now()
	for i := range juries {
		r, err := selection.OPTJS(g.selectSeed(streamMeasured, i)).Select(pool, g.budget(i), alpha)
		if err != nil {
			sp.end(s)
			return nil, err
		}
		juries[i] = r.Indices
		evals += float64(r.Evaluations)
		jqs = append(jqs, r.JQ)
	}
	wall, cpu := time.Since(wall0)/inprocSelects, (processCPU()-cpu0)/inprocSelects
	sp.end(s)
	evals /= inprocSelects
	out.set("selection.select_ms", ms(wall), "ms")
	out.set("selection.select_cpu_ms", ms(cpu), "ms")
	out.set("selection.evals_per_select", evals, "count")
	out.set("selection.jq_mean", mean(jqs), "JQ")

	s = sp.begin("jq.Estimator.Eval", parent)
	est, err := jq.NewEstimator(pool, alpha, jq.Options{DisableMemo: true})
	if err != nil {
		return nil, err
	}
	eval, err := perCall(inprocSelects*inprocEvalRepeats, func(i int) error {
		_, err := est.Eval(juries[i%inprocSelects])
		return err
	})
	sp.end(s)
	if err != nil {
		return nil, err
	}
	out.set("jq.eval_us", us(eval), "us")
	// Memo hits cost less than a fresh Eval, so this share is an upper
	// bound on the annealing CPU the estimator accounts for.
	out.set("selection.jq_share", evals*float64(eval)/float64(cpu), "ratio")

	reg := server.NewRegistry()
	sig, err := reg.Register(ctx, specs, 0)
	if err != nil {
		return nil, err
	}
	s = sp.begin("server.SelectionCache.Get", parent)
	cache := server.NewSelectionCache(0)
	keys := make([]server.SelectionKey, inprocCacheKeys)
	for k := range keys {
		keys[k] = server.SelectionKey{Signature: sig, Strategy: "bv", Budget: g.budget(k), Alpha: alpha,
			Seed: g.selectSeed(streamSetup, k)}
		cache.Put(keys[k], serve.SelectResponse{JQ: jqs[k]})
	}
	get, err := perCall(inprocCacheGets, func(i int) error {
		if _, ok := cache.Get(keys[i%len(keys)]); !ok {
			return errors.New("selection cache lost a key")
		}
		return nil
	})
	sp.end(s)
	if err != nil {
		return nil, err
	}
	out.set("server.cache_get_ns", float64(get), "ns")

	s = sp.begin("server.Registry.Snapshot", parent)
	snap, err := perCall(inprocSnapshots, func(int) error {
		_, _, _, err := reg.Snapshot(nil)
		return err
	})
	sp.end(s)
	if err != nil {
		return nil, err
	}
	out.set("server.snapshot_us", us(snap), "us")

	s = sp.begin("server.Registry.IngestKeyed", parent)
	ingest, err := perCall(inprocIngests, func(i int) error {
		_, _, _, err := reg.IngestKeyed(ctx, []serve.VoteEvent{g.vote(specs, streamInproc, i)}, g.key(streamInproc, i))
		return err
	})
	sp.end(s)
	if err != nil {
		return nil, err
	}
	out.set("server.ingest_us", us(ingest), "us")

	s = sp.begin("wal.Log.Append", parent)
	appendDur, err := walAppend(g, specs, tmp)
	sp.end(s)
	if err != nil {
		return nil, err
	}
	out.set("wal.append_inproc_us", us(appendDur), "us")

	s = sp.begin("server.Server.ApplyReplicated", parent)
	apply, err := replApply(ctx, g, specs, tmp, checks)
	sp.end(s)
	if err != nil {
		return nil, err
	}
	out.set("repl.apply_us", us(apply), "us")
	return jqs, nil
}

// walAppend times wal.Log.Append with the options the daemons of the
// durable workloads run with (no fsync), appending the records ingest-wal
// journals.
func walAppend(g gen, specs []serve.WorkerSpec, tmp string) (time.Duration, error) {
	dir, err := os.MkdirTemp(tmp, "wal-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for i := range inprocAppends {
		payload, err := json.Marshal(&server.Record{T: server.RecIngest,
			Events: []server.VoteEvent{g.vote(specs, streamMeasured, i)}, Key: g.key(streamMeasured, i)})
		if err != nil {
			return 0, errors.Join(err, l.Close())
		}
		t0 := time.Now()
		if _, err := l.Append(payload); err != nil {
			return 0, errors.Join(err, l.Close())
		}
		total += time.Since(t0)
	}
	if err := l.Close(); err != nil {
		return 0, err
	}
	return total / inprocAppends, nil
}

// replApply builds a journaling primary's log of keyed single-vote ingests,
// then times Server.ApplyReplicated replaying it into a fresh follower,
// and checks the follower converged to the primary's state.
func replApply(ctx context.Context, g gen, specs []serve.WorkerSpec, tmp string, checks *checkLog) (time.Duration, error) {
	dir, err := os.MkdirTemp(tmp, "repl-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	pdir, fdir := filepath.Join(dir, "primary"), filepath.Join(dir, "follower")
	cfg := server.Config{TraceBuffer: -1}

	cfg.DataDir = pdir
	primary, err := server.Open(cfg)
	if err != nil {
		return 0, err
	}
	err = primary.Preload(specs)
	for i := 0; err == nil && i < inprocReplicated; i++ {
		_, _, _, err = primary.Registry().IngestKeyed(ctx,
			[]server.VoteEvent{g.vote(specs, streamInproc, i)}, g.key(streamInproc, i))
	}
	want := primary.PersistenceStatus()
	if err := errors.Join(err, primary.ClosePersistence()); err != nil {
		return 0, err
	}

	cfg.DataDir = fdir
	follower, err := server.Open(cfg)
	if err != nil {
		return 0, err
	}
	follower.SetFollower("http://primary.invalid")
	log, _, err := wal.Open(pdir, wal.Options{})
	if err != nil {
		return 0, errors.Join(err, follower.ClosePersistence())
	}
	var total time.Duration
	n := 0
	err = log.Replay(1, func(lsn wal.LSN, payload []byte) error {
		t0 := time.Now()
		err := follower.ApplyReplicated(lsn, payload)
		total += time.Since(t0)
		n++
		return err
	})
	got := follower.PersistenceStatus()
	if err := errors.Join(err, log.Close(), follower.ClosePersistence()); err != nil {
		return 0, err
	}
	if got.NextLSN != want.NextLSN || got.StateSHA256 != want.StateSHA256 {
		checks.failf("in-process follower replay at lsn %d sha %s, primary at lsn %d sha %s",
			got.NextLSN, got.StateSHA256, want.NextLSN, want.StateSHA256)
	}
	return total / time.Duration(n), nil
}
