package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
)

// replayed is one record a replay delivered.
type replayed struct {
	lsn     LSN
	payload string
}

// oracleReplay is Replay rebuilt on the full-scan oracle: the durable
// records from `from` on, read MaxBatchBytes at a time, and the error
// that ended the read.
func oracleReplay(l *Log, from LSN) ([]replayed, error) {
	var out []replayed
	for from = max(from, 1); ; {
		frames, count, err := oracleReadCommitted(l, from, 0)
		if err != nil || count == 0 {
			return out, err
		}
		if _, _, err := ScanSegment(bytes.NewReader(frames), func(p []byte) error {
			out = append(out, replayed{from, string(p)})
			from++
			return nil
		}); err != nil {
			return out, err
		}
	}
}

// checkReplayAgainstOracle compares Replay(from) with the oracle replay
// and returns the error class both ended in.
func checkReplayAgainstOracle(t *testing.T, l *Log, from LSN, step string) string {
	t.Helper()
	var got []replayed
	gotErr := l.Replay(from, func(lsn LSN, p []byte) error {
		got = append(got, replayed{lsn, string(p)})
		return nil
	})
	want, wantErr := oracleReplay(l, from)
	if errClass(gotErr) != errClass(wantErr) || !slices.Equal(got, want) {
		t.Fatalf("%s: Replay(%d) = (%d records, %v), oracle (%d records, %v)",
			step, from, len(got), gotErr, len(want), wantErr)
	}
	return errClass(gotErr)
}

// TestReplayMatchesFullScanOracle drives logs through the random steps
// TestReadCommittedMatchesFullScanOracle takes — appends, group-commit
// Begin/Wait, rotation, truncation, reopen and external damage to sealed
// segments — and after every step holds Replay from a random LSN to the
// full-scan oracle: the same records at the same LSNs, ended by the same
// error class.
func TestReplayMatchesFullScanOracle(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	classes := map[string]int{}
	defer func() {
		for _, c := range []string{"nil", "truncated", "corrupt"} {
			if classes[c] == 0 && !t.Failed() {
				t.Errorf("no replay ended in error class %q: %v", c, classes)
			}
		}
	}()
	for seed := range seeds {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(seed), 31))
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
			for op := range 60 {
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
				from := LSN(rng.Uint64N(uint64(l.NextLSN()) + 2))
				classes[checkReplayAgainstOracle(t, l, from, fmt.Sprintf("op %d (%s)", op, step))]++
			}
		})
	}
}

// TestReplayAllocatesOneBatch: a Replay of a multi-segment log reuses one
// batch buffer, so it allocates about MaxBatchBytes plus a small reader
// overhead per segment opened, not a copy of the frames it replays.
func TestReplayAllocatesOneBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	const records, size = 50_000, 180
	l, _, err := Open(t.TempDir(), Options{FS: noSyncFS{OSFS()}, SegmentBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, size)
	for i := range records {
		binary.LittleEndian.PutUint64(payload, uint64(i))
		p, err := l.Begin(payload)
		if err == nil && (i%1000 == 999 || i == records-1) {
			_, err = l.Wait(p)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	frames := records * (headerSize + size)
	batches := frames/MaxBatchBytes + 1
	opens := batches + l.Segments() // each batch opens a segment, plus one per boundary crossed
	var before, after runtime.MemStats
	n := 0
	runtime.ReadMemStats(&before)
	err = l.Replay(1, func(LSN, []byte) error { n++; return nil })
	runtime.ReadMemStats(&after)
	if err != nil || n != records {
		t.Fatalf("replayed %d of %d records: %v", n, records, err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	limit := uint64(MaxBatchBytes + opens*16<<10)
	t.Logf("Replay of %d frame bytes in %d segments allocated %d bytes (limit %d)", frames, l.Segments(), got, limit)
	if got > limit {
		t.Fatalf("Replay of %d frame bytes allocated %d bytes, want at most %d", frames, got, limit)
	}
}

// BenchmarkOpenReplay is a restart's cost in the log: Open, which
// indexes every segment, then a Replay of every record. The log holds
// 200,000 records of 180 bytes in 9 segments of the default size.
func BenchmarkOpenReplay(b *testing.B) {
	const records, size = 200_000, 180
	dir := b.TempDir()
	opts := Options{FS: noSyncFS{OSFS()}}
	l, _, err := Open(dir, opts)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, size)
	for i := range records {
		binary.LittleEndian.PutUint64(payload, uint64(i))
		p, err := l.Begin(payload)
		if err == nil && (i%1000 == 999 || i == records-1) {
			_, err = l.Wait(p) // one flush per thousand records
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(records * (headerSize + size))
	for b.Loop() {
		l, _, err := Open(dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		err = l.Replay(1, func(LSN, []byte) error { n++; return nil })
		if err := errors.Join(err, l.Close()); err != nil || n != records {
			b.Fatalf("replayed %d of %d records: %v", n, records, err)
		}
	}
}
