package wal_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/wal"
	"repro/internal/wal/errfs"
)

// readSources counts where ReadCommitted answered from (Options.OnRead).
type readSources struct{ tail, disk atomic.Int64 }

func (r *readSources) observe(fromTail bool) {
	if fromTail {
		r.tail.Add(1)
	} else {
		r.disk.Add(1)
	}
}

// readErrClass reduces a ReadCommitted error to what a stream handler
// branches on.
func readErrClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, wal.ErrTruncated):
		return "truncated"
	case errors.Is(err, wal.ErrCorrupt):
		return "corrupt"
	}
	return "other: " + err.Error()
}

// checkTail holds the newest-segment tail to the file it mirrors — it
// ends at the watermark, stays within its bound and equals the segment's
// bytes at its offset — and every read answered from it to the file read
// of the same range: same bytes, same count, same error class. It
// returns the tail's first LSN and its segment.
func checkTail(t *testing.T, l *wal.Log, src *readSources, rng *rand.Rand, step string) (wal.LSN, string) {
	t.Helper()
	end, first, frames, path, off := l.TailState()
	if synced := l.Synced(); end != synced+1 {
		t.Fatalf("%s: tail holds lsns %d..%d, watermark %d", step, first, end-1, synced)
	}
	if len(frames) > wal.TailBytes {
		t.Fatalf("%s: tail holds %d bytes, bound %d", step, len(frames), wal.TailBytes)
	}
	records := 0
	valid, torn, err := wal.ScanSegment(bytes.NewReader(frames), func([]byte) error { records++; return nil })
	if err != nil || torn || valid != int64(len(frames)) || records != int(end-first) {
		t.Fatalf("%s: tail of %d bytes scans to %d records (torn %v, %v), want %d", step, len(frames), records, torn, err, end-first)
	}
	disk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(disk)) < off+int64(len(frames)) || !bytes.Equal(disk[off:off+int64(len(frames))], frames) {
		t.Fatalf("%s: tail bytes at offset %d differ from %s", step, off, path)
	}
	if first == end {
		return first, path
	}
	for range 6 {
		from := first + wal.LSN(rng.Uint64N(uint64(end-first)))
		maxBytes := []int{0, 1, 40, 500, rng.IntN(3 * wal.TailBytes)}[rng.IntN(5)]
		before := src.tail.Load()
		got, gotN, gotErr := l.ReadCommitted(from, maxBytes, nil)
		if src.tail.Load() != before+1 {
			t.Fatalf("%s: ReadCommitted(%d) inside the tail %d..%d was not answered from it", step, from, first, end-1)
		}
		want, wantN, wantErr := l.FileRead(from, maxBytes)
		if readErrClass(gotErr) != readErrClass(wantErr) || gotN != wantN || !bytes.Equal(got, want) {
			t.Fatalf("%s: tail ReadCommitted(%d, %d) = (%d records, %d bytes, %v), file read (%d records, %d bytes, %v)",
				step, from, maxBytes, gotN, len(got), gotErr, wantN, len(want), wantErr)
		}
	}
	return first, path
}

// TestReadCommittedTailMatchesFileRead drives logs through random
// appends, group commits, concurrent flushes, records too large for the
// tail, rotations and reopens, and after every step holds the tail and
// each read it answers to the segment file.
func TestReadCommittedTailMatchesFileRead(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 3
	}
	var compactions atomic.Int64
	for seed := range seeds {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(seed), 27))
			dir := t.TempDir()
			src := &readSources{}
			opts := func() wal.Options {
				return wal.Options{FS: wal.NoSyncFS{FS: wal.OSFS()}, SegmentBytes: 256 << rng.IntN(11), Fsync: rng.IntN(2) == 0, OnRead: src.observe}
			}
			l, _, err := wal.Open(dir, opts())
			if err != nil {
				t.Fatal(err)
			}
			defer func() { l.Close() }()
			payload := func() []byte {
				if rng.IntN(200) == 0 { // a record too large to share the tail
					return bytes.Repeat([]byte{byte(rng.Uint32())}, wal.TailBytes/4+rng.IntN(wal.TailBytes/2))
				}
				p := make([]byte, rng.IntN(200))
				for i := range p {
					p[i] = byte(rng.Uint32())
				}
				return p
			}
			var lastFirst wal.LSN
			var lastPath string
			for op := 0; op < 80; op++ {
				var step string
				switch r := rng.IntN(100); {
				case r < 45:
					step = "append"
					for n := 1 + rng.IntN(40); n > 0; n-- {
						if _, err := l.Append(payload()); err != nil {
							t.Fatal(err)
						}
					}
				case r < 75:
					step = "group commit"
					var last wal.LSN
					for n := 1 + rng.IntN(200); n > 0; n-- {
						if last, err = l.Begin(payload()); err != nil {
							t.Fatal(err)
						}
					}
					if _, err := l.Wait(last); err != nil {
						t.Fatal(err)
					}
				case r < 92:
					step = "concurrent appends"
					batches := make([][][]byte, 4)
					for w := range batches {
						for range 15 {
							batches[w] = append(batches[w], payload())
						}
					}
					var wg sync.WaitGroup
					for _, batch := range batches {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for _, p := range batch {
								if _, err := l.Append(p); err != nil {
									t.Error(err)
									return
								}
							}
						}()
					}
					wg.Wait()
				default:
					step = "reopen"
					if err := l.Close(); err != nil {
						t.Fatal(err)
					}
					if l, _, err = wal.Open(dir, opts()); err != nil {
						t.Fatal(err)
					}
				}
				first, path := checkTail(t, l, src, rng, fmt.Sprintf("op %d (%s)", op, step))
				if step != "reopen" && path == lastPath && first > lastFirst {
					compactions.Add(1) // dropped records without a rotation
				}
				lastFirst, lastPath = first, path
			}
			if src.tail.Load() == 0 {
				t.Fatal("no read was answered from the tail")
			}
		})
	}
	if compactions.Load() == 0 && !t.Failed() {
		t.Error("no step saw a compacted tail")
	}
}

// TestReadCommittedTailAfterFailedFlush fails a flush with an errfs
// write fault (a torn record left on disk), and with a sync fault under
// Fsync, with and without the unsynced bytes dropped. The tail must
// still end at Synced(), serve exactly the file's durable bytes, and
// ship nothing past the watermark.
func TestReadCommittedTailAfterFailedFlush(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fsync bool
		fault errfs.Fault
	}{
		{"write", false, errfs.Fault{Op: errfs.OpWrite, Path: "wal-", Short: 11}},
		{"fsync", true, errfs.Fault{Op: errfs.OpSync, Path: "wal-"}},
		{"fsync-drop-unsynced", true, errfs.Fault{Op: errfs.OpSync, Path: "wal-", DropUnsynced: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(1, 2))
			fs := errfs.New(wal.OSFS())
			src := &readSources{}
			l, _, err := wal.Open(t.TempDir(), wal.Options{Fsync: tc.fsync, FS: fs, OnRead: src.observe})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			for i := range 40 {
				if _, err := l.Append([]byte(fmt.Sprintf("durable-%03d", i))); err != nil {
					t.Fatal(err)
				}
			}
			checkTail(t, l, src, rng, "before the fault")
			fs.Add(tc.fault)
			var staged []wal.LSN
			for i := range 8 {
				p, err := l.Begin([]byte(fmt.Sprintf("refused-%d", i)))
				if err != nil {
					t.Fatal(err)
				}
				staged = append(staged, p)
			}
			if _, err := l.Wait(staged[0]); err == nil {
				t.Fatal("the faulted flush succeeded")
			}
			if got := l.Synced(); got != 40 {
				t.Fatalf("watermark after the failed flush = %d, want 40", got)
			}
			checkTail(t, l, src, rng, "after the failed flush")
			if frames, n, err := l.ReadCommitted(41, 0, nil); frames != nil || n != 0 || err != nil {
				t.Fatalf("read past the watermark after the failed flush = (%d bytes, %d, %v)", len(frames), n, err)
			}
		})
	}
}
