package wal

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
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
	frames, count, err := l.ReadCommitted(1, 1<<20)
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
	frames, count, err = l.ReadCommitted(7, 1<<20)
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
		frames, count, err := l.ReadCommitted(from, 10)
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
	_, count, err := l.ReadCommitted(1, 3*rec)
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
	frames, count, err := l.ReadCommitted(3, 1<<20)
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
	if _, _, err := l.ReadCommitted(1, 1<<20); !errors.Is(err, ErrTruncated) {
		t.Fatalf("read below horizon: %v, want ErrTruncated", err)
	}
	if oldest := l.OldestLSN(); oldest != 3 {
		t.Fatalf("OldestLSN = %d, want 3", oldest)
	}
	frames, count, err := l.ReadCommitted(3, 1<<20)
	if err != nil || count != 2 {
		t.Fatalf("read from horizon = (%d, %v), want 2 records", count, err)
	}
	if got := scanFrames(t, frames); got[0] != "cccccccccccccccc" || got[1] != "d" {
		t.Fatalf("shipped after truncation = %q", got)
	}
}

func TestReadCommittedGroupCommitServesOnlySynced(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Fsync: true, GroupCommit: true})
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
	if _, count, err := l.ReadCommitted(1, 1<<20); err != nil || count != 0 {
		t.Fatalf("staged-but-unflushed shipped: count %d, err %v", count, err)
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	frames, count, err := l.ReadCommitted(1, 1<<20)
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
	if got, err := l.WaitSynced(0, time.Minute); err != nil || got != 1 {
		t.Fatalf("WaitSynced(0) = (%d, %v), want (1, nil)", got, err)
	}
	// Timeout: nothing new arrives; must return promptly, not hang.
	start := time.Now()
	if got, err := l.WaitSynced(1, 30*time.Millisecond); err != nil || got != 1 {
		t.Fatalf("WaitSynced timeout = (%d, %v), want (1, nil)", got, err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("WaitSynced did not respect its timeout")
	}
	// Wakes on a concurrent append.
	go func() {
		time.Sleep(20 * time.Millisecond)
		l.Append([]byte("b"))
	}()
	if got, err := l.WaitSynced(1, 10*time.Second); err != nil || got != 2 {
		t.Fatalf("WaitSynced wake = (%d, %v), want (2, nil)", got, err)
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
	if _, err := l.WaitSynced(1, 10*time.Second); !errors.Is(err, ErrClosed) {
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
	if _, _, err := l.ReadCommitted(1, 1<<20); !errors.Is(err, ErrTruncated) {
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
	frames, count, err := l.ReadCommitted(from, maxBytes)
	if err != nil {
		t.Fatalf("ReadCommitted(%d): %v", from, err)
	}
	return frames, count, fsys.read.Load() - before
}

// TestReadCommittedTailReadsOneMarkInterval pins the cost of a stream
// poll: a tail read touches the returned bytes plus at most one mark
// interval, not the records before it — on the live log, after a
// reopen, and for a sealed segment found at Open once it is indexed.
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
	tail := func(l *Log, what string) {
		t.Helper()
		next := l.NextLSN()
		frames, count, read := readCounted(t, fsys, l, next-1, 0)
		if count != 1 || scanFrames(t, frames)[0] != fixedPayload(int(next-2)) {
			t.Fatalf("%s: tail read shipped %d records %q", what, count, frames)
		}
		if read > bound(len(frames)) {
			t.Fatalf("%s: tail read of %d bytes read %d bytes, bound %d", what, len(frames), read, bound(len(frames)))
		}
	}
	tail(l, "live log")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, _, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	tail(l, "reopened log")

	// Rotate, then reopen: the first segment is now sealed and unindexed.
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
	// The first read into the sealed segment indexes it with one scan.
	if _, count, _ := readCounted(t, fsys, l, records/2, 0); count != records/2+11 {
		t.Fatalf("first read into sealed segment shipped %d records", count)
	}
	for _, from := range []LSN{records - 3, records - 100} {
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
		maxBytes = DefaultMaxBatchBytes
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
			out = appendFrame(out, payload)
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
	got, gotN, gotErr := l.ReadCommitted(from, maxBytes)
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
				group := rng.IntN(2) == 0
				return Options{FS: noSyncFS{OSFS()}, SegmentBytes: 256 << rng.IntN(10), Fsync: group, GroupCommit: group}
			}
			l, _, err := Open(dir, opts())
			if err != nil {
				t.Fatal(err)
			}
			defer func() { l.Close() }()
			var staged []*Pending
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
						if err := staged[i].Wait(); err != nil {
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

// noSyncFS makes every fsync a no-op, so group-commit logs in the
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
	const perWriter = 2000
	l, _, err := Open(t.TempDir(), Options{SegmentBytes: 8 << 10})
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
	for r, start := range []LSN{1, perWriter / 2} {
		shipped[r] = map[LSN]string{}
		others.Add(1)
		go func() {
			defer others.Done()
			from := start
			for {
				frames, count, err := l.ReadCommitted(from, 64+r*512)
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
						if _, err := l.WaitSynced(from-1, 10*time.Millisecond); err != nil {
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
