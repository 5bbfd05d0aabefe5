package wal_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/wal"
	"repro/internal/wal/errfs"
)

// batchRecorder collects OnFlush batch sizes; the callback runs with the
// log's lock held, so it only appends under its own mutex.
type batchRecorder struct {
	mu      sync.Mutex
	batches []int
}

func (b *batchRecorder) record(n int) {
	b.mu.Lock()
	b.batches = append(b.batches, n)
	b.mu.Unlock()
}

func (b *batchRecorder) snapshot() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]int(nil), b.batches...)
}

func replayPayloads(t *testing.T, l *wal.Log) [][]byte {
	t.Helper()
	var out [][]byte
	err := l.Replay(1, func(lsn wal.LSN, payload []byte) error {
		if lsn != wal.LSN(len(out)+1) {
			return fmt.Errorf("lsn %d out of order (want %d)", lsn, len(out)+1)
		}
		out = append(out, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

// waitInjected polls until the injector has fired n faults — the only
// cross-goroutine signal that a gated leader has entered its sync.
func waitInjected(t *testing.T, fs *errfs.FS, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for fs.Injected() < n {
		if time.Now().After(deadline) {
			t.Fatalf("injector never reached %d fired faults (at %d)", n, fs.Injected())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupCommitSharesFsync holds the first flush's fsync at a gate,
// piles more appends into the staging buffer, and proves the whole pile
// retires with one more sync: 1+N records, exactly two flushes.
func TestGroupCommitSharesFsync(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	fs := errfs.New(wal.OSFS(), errfs.Fault{Op: errfs.OpSync, Path: "wal-", Times: 1, Gate: gate})
	rec := &batchRecorder{}
	l, _, err := wal.Open(dir, wal.Options{Fsync: true, FS: fs, OnFlush: rec.record})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var opened sync.Once
	release := func() { opened.Do(func() { close(gate) }) }
	t.Cleanup(release) // runs before Close, which waits on a held flush

	p1, err := l.Begin([]byte("r1"))
	if err != nil {
		t.Fatal(err)
	}
	lead := make(chan error, 1)
	go func() { _, err := l.Wait(p1); lead <- err }()
	waitInjected(t, fs, 1) // the leader is inside its gated fsync

	const followers = 8
	pending := make([]wal.LSN, followers)
	for i := range pending {
		p, err := l.Begin([]byte(fmt.Sprintf("r%d", i+2)))
		if err != nil {
			t.Fatalf("Begin follower %d: %v", i, err)
		}
		pending[i] = p
	}
	release()
	if err := <-lead; err != nil {
		t.Fatalf("leader Wait: %v", err)
	}
	for i, p := range pending {
		if _, err := l.Wait(p); err != nil {
			t.Fatalf("follower %d Wait: %v", i, err)
		}
	}

	batches := rec.snapshot()
	if len(batches) != 2 || batches[0] != 1 || batches[1] != followers {
		t.Fatalf("flush batches = %v, want [1 %d]", batches, followers)
	}
	got := replayPayloads(t, l)
	if len(got) != followers+1 {
		t.Fatalf("replayed %d records, want %d", len(got), followers+1)
	}
	for i, payload := range got {
		if want := fmt.Sprintf("r%d", i+1); string(payload) != want {
			t.Fatalf("record %d = %q, want %q", i+1, payload, want)
		}
	}
}

// TestGroupCommitLeaderFailureDegradesWaiters gates the leader's fsync
// and makes it fail on release: the leader surfaces the *IOError itself,
// every staged waiter fails with the wrapped sticky poison, and the log
// refuses further appends.
func TestGroupCommitLeaderFailureDegradesWaiters(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	fs := errfs.New(wal.OSFS(), errfs.Fault{
		Op: errfs.OpSync, Path: "wal-", Times: 1, Gate: gate, Err: errfs.ErrInjected,
	})
	l, _, err := wal.Open(dir, wal.Options{Fsync: true, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var opened sync.Once
	release := func() { opened.Do(func() { close(gate) }) }
	t.Cleanup(release) // runs before Close, which waits on a held flush

	p1, err := l.Begin([]byte("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	lead := make(chan error, 1)
	go func() { _, err := l.Wait(p1); lead <- err }()
	waitInjected(t, fs, 1)

	const followers = 4
	pending := make([]wal.LSN, followers)
	for i := range pending {
		p, err := l.Begin([]byte("staged"))
		if err != nil {
			t.Fatalf("Begin follower %d: %v", i, err)
		}
		pending[i] = p
	}
	release()

	leadErr := <-lead
	var ioErr *wal.IOError
	if !errors.As(leadErr, &ioErr) || ioErr.Op != "fsync" {
		t.Fatalf("leader error = %v, want fsync *IOError", leadErr)
	}
	if errors.Is(leadErr, wal.ErrFailed) {
		t.Fatalf("leader error %v wraps ErrFailed; the first failure must surface the IOError itself", leadErr)
	}
	for i, p := range pending {
		_, err := l.Wait(p)
		if !errors.Is(err, wal.ErrFailed) {
			t.Fatalf("follower %d error = %v, want ErrFailed wrap", i, err)
		}
		if !errors.As(err, &ioErr) {
			t.Fatalf("follower %d error %v does not expose the IOError cause", i, err)
		}
	}
	if _, err := l.Begin([]byte("after")); !errors.Is(err, wal.ErrFailed) {
		t.Fatalf("Begin on poisoned log = %v, want ErrFailed", err)
	}
	// The failed flush returned every reservation: nothing reached the
	// log, so the next LSN is still the first.
	if got := l.NextLSN(); got != 1 {
		t.Fatalf("NextLSN after the failed batch = %d, want 1", got)
	}
	if err := l.WaitDurable(); !errors.Is(err, wal.ErrFailed) {
		t.Fatalf("WaitDurable on poisoned log = %v, want ErrFailed", err)
	}
}

// TestGroupCommitLayoutMatchesPerRecord writes the same record sequence
// twice, rotating often: once by sequential Append (one record per
// flush) and once by Begin with a concurrent Wait per record, the first
// fsync held at a gate so the next records pile into one batch. The
// segment files must be bit-identical: the layout depends only on the
// record sequence, never on how the records were batched.
func TestGroupCommitLayoutMatchesPerRecord(t *testing.T) {
	payloads := make([][]byte, 60)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte('a' + i%26)}, 5+i%40)
	}
	const held = 5 // records 2..6 fit the first 128-byte segment
	sequential, batched := t.TempDir(), t.TempDir()

	l, _, err := wal.Open(sequential, wal.Options{Fsync: true, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	fs := errfs.New(wal.OSFS(), errfs.Fault{Op: errfs.OpSync, Path: "wal-", Times: 1, Gate: gate})
	rec := &batchRecorder{}
	l, _, err = wal.Open(batched, wal.Options{Fsync: true, SegmentBytes: 128, FS: fs, OnFlush: rec.record})
	if err != nil {
		t.Fatal(err)
	}
	var opened sync.Once
	release := func() { opened.Do(func() { close(gate) }) }
	t.Cleanup(release) // a failed check must not leave a waiter held
	var wg sync.WaitGroup
	errs := make(chan error, len(payloads))
	begin := func(p []byte) {
		t.Helper()
		pend, err := l.Begin(p)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := l.Wait(pend)
			errs <- err
		}()
	}
	begin(payloads[0])
	waitInjected(t, fs, 1) // record 1's waiter leads the gated flush
	for _, p := range payloads[1 : 1+held] {
		begin(p)
	}
	release()
	wg.Wait()
	for _, p := range payloads[1+held:] {
		begin(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if batches := rec.snapshot(); len(batches) < 2 || batches[0] != 1 || batches[1] != held {
		t.Fatalf("flush batches start %v, want [1 %d ...]: the held records must share one flush", batches, held)
	}

	seqSegs, err := filepath.Glob(filepath.Join(sequential, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	batchSegs, err := filepath.Glob(filepath.Join(batched, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(seqSegs) != len(batchSegs) || len(seqSegs) < 2 {
		t.Fatalf("segment counts differ (or no rotation): sequential %d, batched %d", len(seqSegs), len(batchSegs))
	}
	for i := range seqSegs {
		if filepath.Base(seqSegs[i]) != filepath.Base(batchSegs[i]) {
			t.Fatalf("segment %d named %s vs %s", i, filepath.Base(seqSegs[i]), filepath.Base(batchSegs[i]))
		}
		a, err := os.ReadFile(seqSegs[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(batchSegs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("segment %s differs between the sequential and batched layouts", filepath.Base(seqSegs[i]))
		}
	}
}

// TestGroupCommitConcurrentReplayComplete hammers an fsync'd log from
// many goroutines across rotations and checks replay returns every
// acked record exactly once, in LSN order.
func TestGroupCommitConcurrentReplayComplete(t *testing.T) {
	concurrentReplayComplete(t, wal.Options{Fsync: true, SegmentBytes: 512})
}

// concurrentReplayComplete appends from many goroutines to a log opened
// with opts and checks that each writer's LSNs ascend and that replay
// returns every acked record exactly once, in LSN order.
func concurrentReplayComplete(t *testing.T, opts wal.Options) {
	t.Helper()
	dir := t.TempDir()
	l, _, err := wal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var last wal.LSN
			for i := 0; i < perWriter; i++ {
				lsn, err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i)))
				if err == nil && lsn <= last {
					err = fmt.Errorf("writer %d got lsn %d after %d", w, lsn, last)
				}
				if err != nil {
					errs <- err
					return
				}
				last = lsn
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	got := replayPayloads(t, l)
	if len(got) != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", len(got), writers*perWriter)
	}
	seen := make(map[string]bool, len(got))
	for _, p := range got {
		if seen[string(p)] {
			t.Fatalf("record %q replayed twice", p)
		}
		seen[string(p)] = true
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseReportsDirtyShutdown pins the Close half of the contract: a
// final flush that fails is reported (not swallowed), recorded as the
// sticky poison, and re-reported by a second Close.
func TestCloseReportsDirtyShutdown(t *testing.T) {
	dir := t.TempDir()
	fs := errfs.New(wal.OSFS(), errfs.Fault{Op: errfs.OpSync, Path: "wal-"})
	l, _, err := wal.Open(dir, wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	err = l.Close()
	var ioErr *wal.IOError
	if !errors.As(err, &ioErr) || ioErr.Op != "fsync" {
		t.Fatalf("Close with failing final sync = %v, want fsync *IOError", err)
	}
	if again := l.Close(); !errors.Is(again, wal.ErrFailed) {
		t.Fatalf("second Close = %v, want the sticky dirty report (ErrFailed wrap)", again)
	}
}

// TestCloseOnPoisonedLogStaysDirty: closing a log that already failed
// reports the original poison instead of a clean shutdown, and skips the
// final sync (a post-failure fsync reporting success would be a lie).
func TestCloseOnPoisonedLogStaysDirty(t *testing.T) {
	dir := t.TempDir()
	fs := errfs.New(wal.OSFS(), errfs.Fault{Op: errfs.OpWrite, Path: "wal-"})
	l, _, err := wal.Open(dir, wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("boom")); err == nil {
		t.Fatal("Append with write fault succeeded")
	}
	err = l.Close()
	if !errors.Is(err, wal.ErrFailed) {
		t.Fatalf("Close on poisoned log = %v, want ErrFailed wrap", err)
	}
	var ioErr *wal.IOError
	if !errors.As(err, &ioErr) || ioErr.Op != "write" {
		t.Fatalf("Close on poisoned log = %v, want the original write IOError as cause", err)
	}
}

// TestCloseCleanReturnsNil: the healthy path still closes silently.
func TestCloseCleanReturnsNil(t *testing.T) {
	l, _, err := wal.Open(t.TempDir(), wal.Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("fine")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("clean Close = %v, want nil", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double Close of a clean log = %v, want nil", err)
	}
}

// TestCloseFlushesBehindHeldFlush: Close on a log whose flush another
// goroutine holds in a gated fsync, with more records staged behind it,
// waits out that flush, leads the flush of the staged batch itself, syncs
// and returns nil only then; a reopen replays every record.
func TestCloseFlushesBehindHeldFlush(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	passed := make(chan struct{})
	close(passed)
	// The first segment fsync is held at gate; every later one passes
	// through the second rule, so Injected counts the syncs.
	fs := errfs.New(wal.OSFS(),
		errfs.Fault{Op: errfs.OpSync, Path: "wal-", Times: 1, Gate: gate},
		errfs.Fault{Op: errfs.OpSync, Path: "wal-", Gate: passed})
	rec := &batchRecorder{}
	l, _, err := wal.Open(dir, wal.Options{Fsync: true, FS: fs, OnFlush: rec.record})
	if err != nil {
		t.Fatal(err)
	}
	var opened sync.Once
	release := func() { opened.Do(func() { close(gate) }) }
	t.Cleanup(release) // a failed check must not leave the flush held

	first, err := l.Begin([]byte("r1"))
	if err != nil {
		t.Fatal(err)
	}
	lead := make(chan error, 1)
	go func() { _, err := l.Wait(first); lead <- err }()
	waitInjected(t, fs, 1) // the leader is inside its gated fsync

	const staged = 5
	for i := range staged {
		if _, err := l.Begin([]byte(fmt.Sprintf("r%d", i+2))); err != nil {
			t.Fatalf("Begin %d: %v", i+2, err)
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	stillBlocked(t, closed, "Close behind a held flush")
	release()
	if err := <-closed; err != nil {
		t.Fatalf("Close = %v, want nil", err)
	}
	if err := <-lead; err != nil {
		t.Fatalf("leader Wait: %v", err)
	}
	if batches := rec.snapshot(); len(batches) != 2 || batches[0] != 1 || batches[1] != staged {
		t.Fatalf("flush batches = %v, want [1 %d]", batches, staged)
	}
	// The held flush's sync, the staged batch's sync and Close's own.
	if got := fs.Injected(); got != 3 {
		t.Fatalf("segment syncs = %d, want 3", got)
	}

	l2, info, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.TornBytes != 0 {
		t.Fatalf("reopen cut %d torn bytes", info.TornBytes)
	}
	got := replayPayloads(t, l2)
	if len(got) != staged+1 {
		t.Fatalf("reopen replayed %d records, want %d", len(got), staged+1)
	}
	for i, p := range got {
		if want := fmt.Sprintf("r%d", i+1); string(p) != want {
			t.Fatalf("record %d = %q, want %q", i+1, p, want)
		}
	}
}

// TestWaitDurableBarrier: WaitDurable returns only after every record
// accepted before the call is on stable storage, and surfaces the poison
// when the flush that should have covered them failed.
func TestWaitDurableBarrier(t *testing.T) {
	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	p, err := l.Begin([]byte("staged"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(); err != nil {
		t.Fatalf("WaitDurable: %v", err)
	}
	// The barrier itself must have led the flush that covered the record.
	if _, err := l.Wait(p); err != nil {
		t.Fatalf("Wait after barrier: %v", err)
	}
	got := replayPayloads(t, l)
	if len(got) != 1 || string(got[0]) != "staged" {
		t.Fatalf("replay after barrier = %q, want [staged]", got)
	}
}

// TestReplayStopsAtWatermark: after a failed flush the newest segment
// may still hold the refused record — whole after a failed fsync (the
// bytes sit in the page cache), torn after a short write. Replay must
// return exactly the durable prefix and read nothing past it.
func TestReplayStopsAtWatermark(t *testing.T) {
	for _, fault := range []errfs.Fault{
		{Op: errfs.OpSync, Path: "wal-", After: 2},
		{Op: errfs.OpWrite, Path: "wal-", After: 2, Short: 5},
	} {
		l, _, err := wal.Open(t.TempDir(), wal.Options{Fsync: true, FS: errfs.New(wal.OSFS(), fault)})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []string{"r1", "r2"} {
			if _, err := l.Append([]byte(p)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.Append([]byte("refused")); err == nil {
			t.Fatalf("%s fault: the third append succeeded", fault.Op)
		}
		got := replayPayloads(t, l)
		if len(got) != 2 || string(got[0]) != "r1" || string(got[1]) != "r2" {
			t.Fatalf("%s fault: replay = %q, want [r1 r2]", fault.Op, got)
		}
		l.Close()
	}
}

// TestGroupCommitDropUnsyncedRecoversAckedPrefix is the power-loss story
// under batching: a batch whose fsync fails with the unsynced tail
// dropped must leave exactly the previously-acked records on disk.
func TestGroupCommitDropUnsyncedRecoversAckedPrefix(t *testing.T) {
	dir := t.TempDir()
	// Sequential appenders flush once per record, so "fail sync 4
	// with the tail dropped" means records 1..3 were acked durable and
	// record 4 was never acknowledged.
	fs := errfs.New(wal.OSFS(), errfs.Fault{Op: errfs.OpSync, Path: "wal-", After: 3, DropUnsynced: true})
	l, _, err := wal.Open(dir, wal.Options{Fsync: true, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	var acked []string
	for i := 1; i <= 6; i++ {
		payload := fmt.Sprintf("r%d", i)
		if _, err := l.Append([]byte(payload)); err != nil {
			break
		}
		acked = append(acked, payload)
	}
	if len(acked) != 3 {
		t.Fatalf("acked %d records before the injected power loss, want 3", len(acked))
	}
	l.Close() // dirty; the tail is already gone

	reopened, info, err := wal.Open(dir, wal.Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	got := replayPayloads(t, reopened)
	if len(got) != len(acked) {
		t.Fatalf("recovered %d records, want the %d acked ones (torn bytes %d)", len(got), len(acked), info.TornBytes)
	}
	for i, payload := range got {
		if string(payload) != acked[i] {
			t.Fatalf("recovered record %d = %q, want %q", i+1, payload, acked[i])
		}
	}
}
