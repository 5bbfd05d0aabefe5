package wal

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// scanFrames decodes a ReadCommitted byte stream back into payloads,
// failing the test on a torn or unverifiable frame.
func scanFrames(t *testing.T, frames []byte) []string {
	t.Helper()
	var out []string
	valid, torn, err := ScanSegment(bytes.NewReader(frames), func(p []byte) error {
		out = append(out, string(p))
		return nil
	})
	if err != nil {
		t.Fatalf("scan shipped frames: %v", err)
	}
	if torn || valid != int64(len(frames)) {
		t.Fatalf("shipped frames torn: valid %d of %d bytes", valid, len(frames))
	}
	return out
}

func TestReadCommittedRoundTripAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var want []string
	for i := 0; i < 20; i++ {
		want = append(want, fmt.Sprintf("record-%02d-padding-to-force-rotation", i))
	}
	appendAll(t, l, want...)
	if l.Segments() < 3 {
		t.Fatalf("expected multiple segments, got %d", l.Segments())
	}
	frames, count, err := l.ReadCommitted(1, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if count != len(want) {
		t.Fatalf("count = %d, want %d", count, len(want))
	}
	got := scanFrames(t, frames)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("shipped = %q, want %q", got, want)
	}

	// Mid-log start: from 7 ships records 7..20.
	frames, count, err = l.ReadCommitted(7, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if count != len(want)-6 {
		t.Fatalf("count from 7 = %d, want %d", count, len(want)-6)
	}
	if got := scanFrames(t, frames); got[0] != want[6] {
		t.Fatalf("first shipped from 7 = %q, want %q", got[0], want[6])
	}
}

func TestReadCommittedBoundedByMaxBytes(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var want []string
	for i := 0; i < 10; i++ {
		want = append(want, fmt.Sprintf("payload-%d-0123456789", i))
	}
	appendAll(t, l, want...)

	// Tiny budget: always at least one record per call; sequential calls
	// reassemble the exact stream.
	var got []string
	from := LSN(1)
	for from <= l.Synced() {
		frames, count, err := l.ReadCommitted(from, 10, nil)
		if err != nil {
			t.Fatal(err)
		}
		if count != 1 {
			t.Fatalf("count under tiny budget = %d, want 1", count)
		}
		got = append(got, scanFrames(t, frames)...)
		from += LSN(count)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("reassembled = %q, want %q", got, want)
	}

	// A budget for ~3 records returns several but not all.
	rec := headerSize + len(want[0])
	_, count, err := l.ReadCommitted(1, 3*rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if count < 2 || count >= len(want) {
		t.Fatalf("count under 3-record budget = %d, want in [2, %d)", count, len(want))
	}
}

func TestReadCommittedBeyondWatermark(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, "a", "b")
	frames, count, err := l.ReadCommitted(3, 1<<20, nil)
	if err != nil || count != 0 || frames != nil {
		t.Fatalf("read beyond watermark = (%v, %d, %v), want (nil, 0, nil)", frames, count, err)
	}
}

func TestReadCommittedTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, "aaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbb", "cccccccccccccccc", "d")
	if _, err := l.TruncateBefore(3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.ReadCommitted(1, 1<<20, nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("read below horizon: %v, want ErrTruncated", err)
	}
	if oldest := l.OldestLSN(); oldest != 3 {
		t.Fatalf("OldestLSN = %d, want 3", oldest)
	}
	frames, count, err := l.ReadCommitted(3, 1<<20, nil)
	if err != nil || count != 2 {
		t.Fatalf("read from horizon = (%d, %v), want 2 records", count, err)
	}
	if got := scanFrames(t, frames); got[0] != "cccccccccccccccc" || got[1] != "d" {
		t.Fatalf("shipped after truncation = %q", got)
	}
}

func TestReadCommittedGroupCommitServesOnlySynced(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Begin stages without flushing: nothing is shipped until a Wait
	// leads the flush and advances the watermark.
	p, err := l.Begin([]byte("staged"))
	if err != nil {
		t.Fatal(err)
	}
	if _, count, err := l.ReadCommitted(1, 1<<20, nil); err != nil || count != 0 {
		t.Fatalf("staged-but-unflushed shipped: count %d, err %v", count, err)
	}
	if _, err := l.Wait(p); err != nil {
		t.Fatal(err)
	}
	frames, count, err := l.ReadCommitted(1, 1<<20, nil)
	if err != nil || count != 1 {
		t.Fatalf("after flush: count %d, err %v", count, err)
	}
	if got := scanFrames(t, frames); got[0] != "staged" {
		t.Fatalf("shipped = %q", got)
	}
}

func TestWaitSyncedWakesOnAppendAndTimesOut(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, "a")

	// Already past: returns immediately.
	if got, err := l.WaitSynced(context.Background(), 0); err != nil || got != 1 {
		t.Fatalf("WaitSynced(0) = (%d, %v), want (1, nil)", got, err)
	}
	// Deadline: nothing new arrives; must return promptly, not hang.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if got, err := l.WaitSynced(ctx, 1); err != nil || got != 1 {
		t.Fatalf("WaitSynced past its deadline = (%d, %v), want (1, nil)", got, err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("WaitSynced did not respect its deadline")
	}
	// Wakes on a concurrent append.
	go func() {
		time.Sleep(20 * time.Millisecond)
		l.Append([]byte("b"))
	}()
	if got, err := l.WaitSynced(context.Background(), 1); err != nil || got != 2 {
		t.Fatalf("WaitSynced wake = (%d, %v), want (2, nil)", got, err)
	}
}

// TestWaitSyncedReleasedByCancel: cancelling the context releases a
// parked WaitSynced at once with the current watermark, and an already
// cancelled context never parks.
func TestWaitSyncedReleasedByCancel(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, "a")

	ctx, cancel := context.WithCancel(context.Background())
	type result struct {
		synced LSN
		err    error
	}
	done := make(chan result, 1)
	go func() {
		synced, err := l.WaitSynced(ctx, 1)
		done <- result{synced, err}
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter park
	cancel()
	select {
	case r := <-done:
		if r.synced != 1 || r.err != nil {
			t.Fatalf("cancelled WaitSynced = (%d, %v), want (1, nil)", r.synced, r.err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelling the context did not release WaitSynced")
	}
	if got, err := l.WaitSynced(ctx, 1); got != 1 || err != nil {
		t.Fatalf("WaitSynced on a cancelled context = (%d, %v), want (1, nil)", got, err)
	}
}

func TestWaitSyncedClosedLog(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "a")
	go func() {
		time.Sleep(20 * time.Millisecond)
		l.Close()
	}()
	if _, err := l.WaitSynced(context.Background(), 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("WaitSynced on closing log: %v, want ErrClosed", err)
	}
}

func TestInitAtFSPositionsNextLSN(t *testing.T) {
	dir := t.TempDir()
	if err := InitAtFS(nil, dir, 42); err != nil {
		t.Fatal(err)
	}
	// Re-init must refuse: the directory already holds a segment.
	if err := InitAtFS(nil, dir, 42); err == nil {
		t.Fatal("InitAtFS on a non-empty log did not refuse")
	}
	l, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if info.NextLSN != 42 {
		t.Fatalf("NextLSN after InitAt(42) = %d, want 42", info.NextLSN)
	}
	lsn, err := l.Append([]byte("first-after-bootstrap"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 42 {
		t.Fatalf("first append = lsn %d, want 42", lsn)
	}
	// Records below the bootstrap point are truncated by construction.
	if _, _, err := l.ReadCommitted(1, 1<<20, nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("read below bootstrap: %v, want ErrTruncated", err)
	}
}

// countingFS counts the bytes read through every file it opens read-only.
type countingFS struct {
	FS
	read atomic.Int64
}

func (c *countingFS) Open(name string) (File, error) {
	f, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return countingFile{File: f, read: &c.read}, nil
}

type countingFile struct {
	File
	read *atomic.Int64
}

func (f countingFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.read.Add(int64(n))
	return n, err
}

func (f countingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.read.Add(int64(n))
	return n, err
}

// fixedPayload is record i's payload, padded to one length so every
// frame is frameBytes long.
func fixedPayload(i int) string { return fmt.Sprintf("record-%08d-padding", i) }

var frameBytes = headerSize + len(fixedPayload(0))

// readCounted runs ReadCommitted(from, maxBytes) and returns the records
// it shipped and the bytes it read from disk.
func readCounted(t *testing.T, fsys *countingFS, l *Log, from LSN, maxBytes int) (frames []byte, count int, read int64) {
	t.Helper()
	before := fsys.read.Load()
	frames, count, err := l.ReadCommitted(from, maxBytes, nil)
	if err != nil {
		t.Fatalf("ReadCommitted(%d): %v", from, err)
	}
	return frames, count, fsys.read.Load() - before
}

// TestReadCommittedTailReadsOneMarkInterval pins the cost of a stream
// poll: on the live log a caught-up read is answered from the
// newest-segment tail and reads nothing from disk; a read that starts
// before the tail — in the newest segment, after a reopen (which starts
// the tail empty), or in a sealed segment found at Open, which indexes
// it — touches the returned bytes plus at most one mark interval, not
// the records before it.
func TestReadCommittedTailReadsOneMarkInterval(t *testing.T) {
	const records = 10000
	dir := t.TempDir()
	fsys := &countingFS{FS: OSFS()}
	// The first segment holds exactly `records` frames; the next append
	// rotates.
	opts := Options{FS: fsys, SegmentBytes: int64(records * frameBytes)}
	l, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < records; i++ {
		if _, err := l.Append([]byte(fixedPayload(i))); err != nil {
			t.Fatal(err)
		}
	}
	bound := func(returned int) int64 { return int64(returned + markEvery*frameBytes) }
	tail := func(l *Log, what string, limit func(returned int) int64) {
		t.Helper()
		next := l.NextLSN()
		frames, count, read := readCounted(t, fsys, l, next-1, 0)
		if count != 1 || scanFrames(t, frames)[0] != fixedPayload(int(next-2)) {
			t.Fatalf("%s: tail read shipped %d records %q", what, count, frames)
		}
		if read > limit(len(frames)) {
			t.Fatalf("%s: tail read of %d bytes read %d bytes, bound %d", what, len(frames), read, limit(len(frames)))
		}
	}
	tail(l, "live log", func(int) int64 { return 0 })
	// Before the tail, the newest segment is read from its marks.
	if l.tailFirst <= records-3000 {
		t.Fatalf("tail starts at lsn %d, want it to hold fewer than 3000 records", l.tailFirst)
	}
	frames, count, read := readCounted(t, fsys, l, records-3000, 0)
	if count != 3001 || scanFrames(t, frames)[0] != fixedPayload(records-3001) {
		t.Fatalf("read before the tail shipped %d records", count)
	}
	if read > bound(len(frames)) {
		t.Fatalf("read before the tail: %d bytes shipped, %d read, bound %d", len(frames), read, bound(len(frames)))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, _, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	tail(l, "reopened log", bound)

	// Rotate, then reopen: the first segment is now sealed.
	for i := records; i < records+10; i++ {
		if _, err := l.Append([]byte(fixedPayload(i))); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() != 2 {
		t.Fatalf("segments = %d, want 2", l.Segments())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, _, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, from := range []LSN{records / 2, records - 3, records - 100} {
		frames, count, read := readCounted(t, fsys, l, from, 0)
		if want := records + 11 - int(from); count != want {
			t.Fatalf("read from %d shipped %d records, want %d", from, count, want)
		}
		if read > bound(len(frames)) {
			t.Fatalf("read from %d into sealed segment: %d bytes shipped, %d read, bound %d",
				from, len(frames), read, bound(len(frames)))
		}
	}
}

// oracleReadCommitted is the full-scan reader ReadCommitted replaced:
// every segment is scanned from its first byte (buffered here only to
// keep the test fast; the bytes scanned are the same). The property test holds
// the indexed reader to its bytes, counts and error classes.
func oracleReadCommitted(l *Log, from LSN, maxBytes int) ([]byte, int, error) {
	if from == 0 {
		from = 1
	}
	if maxBytes <= 0 {
		maxBytes = MaxBatchBytes
	}
	l.mu.Lock()
	synced := l.synced
	segs := append([]segment(nil), l.segs...)
	l.mu.Unlock()
	if from > synced {
		return nil, 0, nil
	}
	if len(segs) == 0 || from < segs[0].first {
		return nil, 0, ErrTruncated
	}
	var out []byte
	count := 0
	for i, seg := range segs {
		if i+1 < len(segs) && segs[i+1].first <= from {
			continue
		}
		if seg.first > synced {
			break
		}
		f, err := l.fs.Open(seg.path)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil, 0, ErrTruncated
			}
			return nil, 0, err
		}
		lsn := seg.first
		stopped := false
		_, _, scanErr := ScanSegment(bufio.NewReader(f), func(payload []byte) error {
			this := lsn
			lsn++
			if this > synced {
				stopped = true
				return errStopScan
			}
			if this < from {
				return nil
			}
			if count > 0 && len(out)+headerSize+len(payload) > maxBytes {
				stopped = true
				return errStopScan
			}
			out = append(out, encodeRecord(payload)...)
			count++
			return nil
		})
		f.Close()
		if scanErr != nil && !errors.Is(scanErr, errStopScan) {
			return nil, 0, scanErr
		}
		if stopped || (count > 0 && len(out) >= maxBytes) {
			break
		}
		if i+1 < len(segs) && lsn <= synced && segs[i+1].first != lsn {
			return nil, 0, ErrCorrupt
		}
	}
	if count == 0 {
		return nil, 0, ErrTruncated
	}
	return out, count, nil
}

// errClass reduces a ReadCommitted error to what a stream handler
// branches on.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, ErrTruncated):
		return "truncated"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	}
	return "other: " + err.Error()
}

// checkAgainstOracle compares ReadCommitted with the full-scan oracle for
// one (from, maxBytes) and returns the error class both produced.
func checkAgainstOracle(t *testing.T, l *Log, from LSN, maxBytes int, step string) string {
	t.Helper()
	got, gotN, gotErr := l.ReadCommitted(from, maxBytes, nil)
	want, wantN, wantErr := oracleReadCommitted(l, from, maxBytes)
	if errClass(gotErr) != errClass(wantErr) || gotN != wantN || !bytes.Equal(got, want) {
		t.Fatalf("%s: ReadCommitted(%d, %d) = (%d records, %d bytes, %v), oracle (%d records, %d bytes, %v)",
			step, from, maxBytes, gotN, len(got), gotErr, wantN, len(want), wantErr)
	}
	return errClass(gotErr)
}

// TestReadCommittedMatchesFullScanOracle drives logs through random
// appends, group-commit Begin/Wait, rotation, truncation, reopen and
// external damage to sealed segments, and after every step holds
// ReadCommitted to the full-scan oracle for random (from, maxBytes).
func TestReadCommittedMatchesFullScanOracle(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	classes := map[string]int{}
	defer func() {
		for _, c := range []string{"nil", "truncated", "corrupt"} {
			if classes[c] == 0 && !t.Failed() {
				t.Errorf("no read ended in error class %q: %v", c, classes)
			}
		}
	}()
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(seed), 17))
			dir := t.TempDir()
			opts := func() Options {
				return Options{FS: noSyncFS{OSFS()}, SegmentBytes: 256 << rng.IntN(10), Fsync: rng.IntN(2) == 0}
			}
			l, _, err := Open(dir, opts())
			if err != nil {
				t.Fatal(err)
			}
			defer func() { l.Close() }()
			var staged []LSN
			payload := func() []byte {
				p := make([]byte, rng.IntN(120))
				for i := range p {
					p[i] = byte(rng.Uint32())
				}
				return p
			}
			for op := 0; op < 100; op++ {
				var step string
				switch r := rng.IntN(100); {
				case r < 40:
					step = "append"
					for n := 1 + rng.IntN(200); n > 0; n-- {
						if _, err := l.Append(payload()); err != nil {
							t.Fatal(err)
						}
					}
				case r < 60:
					step = "begin"
					for n := 1 + rng.IntN(100); n > 0; n-- {
						p, err := l.Begin(payload())
						if err != nil {
							t.Fatal(err)
						}
						staged = append(staged, p)
					}
				case r < 70:
					step = "wait"
					if len(staged) > 0 {
						i := rng.IntN(len(staged))
						if _, err := l.Wait(staged[i]); err != nil {
							t.Fatal(err)
						}
						staged = append(staged[:i], staged[i+1:]...)
					}
				case r < 80:
					step = "truncate"
					// Fails on a file damage already removed; the log
					// keeps the segments it could not drop, and reads
					// must still match the oracle.
					_, _ = l.TruncateBefore(LSN(rng.Uint64N(uint64(l.NextLSN()) + 1)))
				case r < 88:
					step = "reopen"
					if err := l.Close(); err != nil {
						t.Fatal(err)
					}
					staged = nil
					if l, _, err = Open(dir, opts()); err != nil {
						t.Fatal(err)
					}
				default:
					step = damageSealedSegment(t, rng, l)
				}
				for range 4 {
					from := LSN(rng.Uint64N(uint64(l.NextLSN()) + 2))
					maxBytes := []int{0, 1, 100, 1000, rng.IntN(20000)}[rng.IntN(5)]
					classes[checkAgainstOracle(t, l, from, maxBytes, fmt.Sprintf("op %d (%s)", op, step))]++
				}
			}
		})
	}
}

// noSyncFS makes every fsync a no-op, so Fsync logs in the
// property test cost no disk flushes.
type noSyncFS struct{ FS }

func (n noSyncFS) Open(name string) (File, error) {
	f, err := n.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

func (n noSyncFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := n.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

type noSyncFile struct{ File }

func (noSyncFile) Sync() error { return nil }

// damageSealedSegment removes a sealed segment file behind the log's
// back, or cuts its tail, so the oracle comparison covers the
// ErrTruncated and ErrCorrupt paths too. The newest segment is left
// alone: the log is still appending to it.
func damageSealedSegment(t *testing.T, rng *rand.Rand, l *Log) string {
	t.Helper()
	l.mu.Lock()
	segs := append([]segment(nil), l.segs...)
	l.mu.Unlock()
	if len(segs) < 2 || rng.IntN(3) != 0 {
		return "no damage"
	}
	seg := segs[rng.IntN(len(segs)-1)]
	if rng.IntN(2) == 0 {
		if err := os.Remove(seg.path); err != nil && !errors.Is(err, os.ErrNotExist) {
			t.Fatal(err)
		}
		return "remove " + filepath.Base(seg.path)
	}
	st, err := os.Stat(seg.path)
	if err != nil {
		return "no damage"
	}
	size := rng.Int64N(st.Size() + 1)
	if err := os.Truncate(seg.path, size); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("cut %s to %d bytes", filepath.Base(seg.path), size)
}

// TestReadCommittedConcurrentReaders mirrors a -quorum 3 primary: two
// appenders journal while two followers long-poll from different
// positions and a snapshotter truncates. Every shipped record must be
// the one appended at its LSN; a reader behind the horizon restarts
// there.
func TestReadCommittedConcurrentReaders(t *testing.T) {
	concurrentReaders(t, Options{SegmentBytes: 8 << 10}, 2000)
}

// TestReadCommittedConcurrentReadersGroupCommit is the same race under
// Fsync, whose slower flushes let more records stage during each one:
// they must still get their true byte offsets as segment marks, or a
// reader starting at a mark ships each record under the wrong LSN.
func TestReadCommittedConcurrentReadersGroupCommit(t *testing.T) {
	concurrentReaders(t, Options{SegmentBytes: 8 << 10, Fsync: true}, 400)
}

func concurrentReaders(t *testing.T, opts Options, perWriter int) {
	l, _, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var mu sync.Mutex
	appended := map[LSN]string{}
	var writers sync.WaitGroup
	for w := range 2 {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := range perWriter {
				p := fmt.Sprintf("writer-%d-record-%d", w, i)
				lsn, err := l.Append([]byte(p))
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				appended[lsn] = p
				mu.Unlock()
			}
		}()
	}
	done := make(chan struct{})
	var others sync.WaitGroup
	others.Add(1)
	go func() { // the snapshotter
		defer others.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
				if _, err := l.TruncateBefore(l.Synced() / 2); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	shipped := make([]map[LSN]string, 2)
	for r, start := range []LSN{1, LSN(perWriter / 2)} {
		shipped[r] = map[LSN]string{}
		others.Add(1)
		go func() {
			defer others.Done()
			from := start
			for {
				frames, count, err := l.ReadCommitted(from, 64+r*512, nil)
				if errors.Is(err, ErrTruncated) {
					from = max(from, l.OldestLSN())
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				if count == 0 {
					select {
					case <-done:
						return
					default:
						ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
						_, err := l.WaitSynced(ctx, from-1)
						cancel()
						if err != nil {
							t.Error(err)
							return
						}
					}
					continue
				}
				lsn := from
				_, torn, _ := ScanSegment(bytes.NewReader(frames), func(p []byte) error {
					shipped[r][lsn] = string(p)
					lsn++
					return nil
				})
				if torn || lsn != from+LSN(count) {
					t.Errorf("reader %d: %d frames decoded from a count of %d", r, lsn-from, count)
					return
				}
				from = lsn
			}
		}()
	}
	writers.Wait()
	close(done)
	others.Wait()
	for r, got := range shipped {
		if len(got) == 0 {
			t.Errorf("reader %d shipped nothing", r)
		}
		for lsn, p := range got {
			if appended[lsn] != p {
				t.Fatalf("reader %d: lsn %d shipped %q, appended %q", r, lsn, p, appended[lsn])
			}
		}
	}
}

// TestReadCommittedReusesBuffer: a file read appends into the slice its
// caller hands back, so a stream that passes each batch's buffer to the
// next read allocates only the reader's own small buffers, not a copy of
// the bytes it returns.
func TestReadCommittedReusesBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	reads := 0
	onRead := func(fromTail bool) {
		if fromTail {
			t.Error("ReadCommitted(1) was answered from the tail, want the segment files")
		}
		reads++
	}
	l, _, err := Open(t.TempDir(), Options{OnRead: onRead})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte{'r'}, 180)
	for range 12_000 {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	buf, count, err := l.ReadCommitted(1, 0, nil)
	if err != nil || count == 0 {
		t.Fatalf("first ReadCommitted: %d records, %v", count, err)
	}
	first := append([]byte(nil), buf...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	again, count2, err := l.ReadCommitted(1, 0, buf)
	runtime.ReadMemStats(&after)
	if err != nil || count2 != count || !bytes.Equal(again, first) {
		t.Fatalf("second ReadCommitted = (%d records, %d bytes, %v), want the first read's %d records, %d bytes",
			count2, len(again), err, count, len(first))
	}
	if reads != 2 {
		t.Fatalf("OnRead saw %d reads, want 2", reads)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("a %d-byte file read into a reused buffer allocated %d bytes", len(again), got)
	if got >= 64<<10 {
		t.Fatalf("a %d-byte file read into a reused buffer allocated %d bytes, want under %d", len(again), got, 64<<10)
	}
}
