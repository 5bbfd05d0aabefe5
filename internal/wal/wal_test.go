package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// appendAll appends every payload, returning the assigned LSNs.
func appendAll(t *testing.T, l *Log, payloads ...string) []LSN {
	t.Helper()
	lsns := make([]LSN, len(payloads))
	for i, p := range payloads {
		lsn, err := l.Append([]byte(p))
		if err != nil {
			t.Fatalf("Append(%q): %v", p, err)
		}
		lsns[i] = lsn
	}
	return lsns
}

// replayAll replays from the given LSN into a slice of payload strings.
func replayAll(t *testing.T, l *Log, from LSN) []string {
	t.Helper()
	var out []string
	if err := l.Replay(from, func(lsn LSN, payload []byte) error {
		if want := from + LSN(len(out)); lsn != want {
			t.Fatalf("replay lsn = %d, want %d", lsn, want)
		}
		out = append(out, string(payload))
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.NextLSN != 1 || info.Segments != 1 {
		t.Fatalf("fresh OpenInfo = %+v, want NextLSN 1, Segments 1", info)
	}
	want := []string{"alpha", "", "gamma with a longer payload"}
	lsns := appendAll(t, l, want...)
	for i, lsn := range lsns {
		if lsn != LSN(i+1) {
			t.Fatalf("lsn[%d] = %d, want %d", i, lsn, i+1)
		}
	}
	got := replayAll(t, l, 1)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replay = %q, want %q", got, want)
	}
	if got := replayAll(t, l, 3); len(got) != 1 || got[0] != want[2] {
		t.Fatalf("replay from 3 = %q, want [%q]", got, want[2])
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
}

func TestReopenContinuesLSN(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "one", "two")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.NextLSN != 3 || info.TornBytes != 0 {
		t.Fatalf("reopen OpenInfo = %+v, want NextLSN 3, TornBytes 0", info)
	}
	appendAll(t, l2, "three")
	if got := replayAll(t, l2, 1); fmt.Sprint(got) != fmt.Sprint([]string{"one", "two", "three"}) {
		t.Fatalf("replay after reopen = %q", got)
	}
}

func TestRotationAndTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	// Tiny threshold: every record after the first in a segment rotates.
	l, _, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, "r1", "r2", "r3", "r4")
	if got := l.Segments(); got != 4 {
		t.Fatalf("segments = %d, want 4", got)
	}
	if got := replayAll(t, l, 1); len(got) != 4 {
		t.Fatalf("replay across segments = %q", got)
	}
	// A snapshot covering LSN 3 makes segments 1..3 garbage.
	removed, err := l.TruncateBefore(4)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 {
		t.Fatalf("TruncateBefore removed %d segments, want 3", removed)
	}
	if got := replayAll(t, l, 4); len(got) != 1 || got[0] != "r4" {
		t.Fatalf("replay after truncate = %q, want [r4]", got)
	}
	// The newest segment survives even when fully covered.
	if _, err := l.TruncateBefore(100); err != nil {
		t.Fatal(err)
	}
	if got := l.Segments(); got != 1 {
		t.Fatalf("segments after full truncate = %d, want 1", got)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	for _, tear := range []int64{1, 4, 8, 9} {
		t.Run(fmt.Sprintf("tear%d", tear), func(t *testing.T) {
			dir := t.TempDir()
			l, _, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, l, "keep-me", "torn-record")
			l.Close()
			path := filepath.Join(dir, segmentFile.name(1))
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, st.Size()-tear); err != nil {
				t.Fatal(err)
			}
			l2, info, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if info.NextLSN != 2 {
				t.Fatalf("NextLSN after torn tail = %d, want 2", info.NextLSN)
			}
			if info.TornBytes == 0 {
				t.Fatal("TornBytes = 0, want the torn record's remnant counted")
			}
			if got := replayAll(t, l2, 1); len(got) != 1 || got[0] != "keep-me" {
				t.Fatalf("replay = %q, want [keep-me]", got)
			}
			// The freed LSN is reused by the next append.
			if lsn, err := l2.Append([]byte("replacement")); err != nil || lsn != 2 {
				t.Fatalf("append after recovery = (%d, %v), want (2, nil)", lsn, err)
			}
		})
	}
}

func TestCorruptedTailCRCTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "good", "flipped")
	l.Close()
	path := filepath.Join(dir, segmentFile.name(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // corrupt the last record's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.NextLSN != 2 || info.TornBytes == 0 {
		t.Fatalf("OpenInfo = %+v, want NextLSN 2 with torn bytes", info)
	}
	if got := replayAll(t, l2, 1); len(got) != 1 || got[0] != "good" {
		t.Fatalf("replay = %q, want [good]", got)
	}
}

func TestEmptyTrailingSegment(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "a", "b")
	l.Close()
	// Simulate a crash right after rotation created the next segment but
	// before any record landed in it.
	empty := filepath.Join(dir, segmentFile.name(3))
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.NextLSN != 3 || info.Segments != 2 {
		t.Fatalf("OpenInfo = %+v, want NextLSN 3, Segments 2", info)
	}
	if got := replayAll(t, l2, 1); fmt.Sprint(got) != fmt.Sprint([]string{"a", "b"}) {
		t.Fatalf("replay = %q", got)
	}
	appendAll(t, l2, "c")
	if got := replayAll(t, l2, 3); len(got) != 1 || got[0] != "c" {
		t.Fatalf("replay from 3 = %q, want [c]", got)
	}
}

func TestReplayDetectsMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "seg1", "seg2", "seg3")
	l.Close()
	// Corrupt the middle segment: replay must fail loudly, not skip.
	path := filepath.Join(dir, segmentFile.name(2))
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, _, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	err = l2.Replay(1, func(LSN, []byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Replay over corrupt middle segment: %v, want ErrCorrupt", err)
	}
}

func TestScanSegmentRejectsOversizedLength(t *testing.T) {
	var header [headerSize]byte
	binary.LittleEndian.PutUint32(header[0:4], MaxRecordBytes+1)
	valid, torn, err := ScanSegment(bytes.NewReader(header[:]), func([]byte) error {
		t.Fatal("fn called for an invalid record")
		return nil
	})
	if err != nil || !torn || valid != 0 {
		t.Fatalf("ScanSegment = (%d, %v, %v), want (0, true, nil)", valid, torn, err)
	}
}

func TestOversizedAppendRejected(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(make([]byte, MaxRecordBytes+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized append: %v, want ErrTooLarge", err)
	}
}

func TestSnapshotWriteAndLatest(t *testing.T) {
	dir := t.TempDir()
	if _, _, found, err := LatestSnapshotFS(OSFS(), dir); err != nil || found {
		t.Fatalf("LatestSnapshot(empty) = found %v, err %v", found, err)
	}
	if err := WriteSnapshotFS(OSFS(), dir, 5, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshotFS(OSFS(), dir, 9, []byte(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	lsn, payload, found, err := LatestSnapshotFS(OSFS(), dir)
	if err != nil || !found {
		t.Fatalf("LatestSnapshot: found %v, err %v", found, err)
	}
	if lsn != 9 || string(payload) != `{"v":2}` {
		t.Fatalf("LatestSnapshot = (%d, %s), want (9, {\"v\":2})", lsn, payload)
	}
	// The older snapshot file is gone.
	if _, err := os.Stat(filepath.Join(dir, snapshotFile.name(5))); !os.IsNotExist(err) {
		t.Fatalf("old snapshot still present: %v", err)
	}
}

func TestFsyncOptionSmoke(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, "durable")
	if got := replayAll(t, l, 1); len(got) != 1 || got[0] != "durable" {
		t.Fatalf("replay = %q", got)
	}
}

// syncCountFS counts Sync calls on the segment files it opens for
// writing.
type syncCountFS struct {
	FS
	syncs atomic.Int64
}

func (c *syncCountFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasPrefix(filepath.Base(name), "wal-") {
		return f, err
	}
	return syncCountFile{File: f, syncs: &c.syncs}, nil
}

type syncCountFile struct {
	File
	syncs *atomic.Int64
}

func (f syncCountFile) Sync() error {
	f.syncs.Add(1)
	return f.File.Sync()
}

// TestRotationWithoutFsyncSyncsNoSegment: without Options.Fsync no
// sync is promised, so a rotation only closes the sealed segment, and
// the one segment Sync is Close's.
func TestRotationWithoutFsyncSyncsNoSegment(t *testing.T) {
	fsys := &syncCountFS{FS: OSFS()}
	l, _, err := Open(t.TempDir(), Options{FS: fsys, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		appendAll(t, l, fmt.Sprintf("record-%02d-padding-past-half-a-segment", i))
	}
	if n := l.Segments(); n < 4 {
		t.Fatalf("%d segments, want a rotation per record", n)
	}
	if n := fsys.syncs.Load(); n != 0 {
		t.Fatalf("%d segment syncs before Close, want 0", n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n := fsys.syncs.Load(); n != 1 {
		t.Fatalf("%d segment syncs after Close, want Close's 1", n)
	}
}

// TestOpenSyncsTornTailCutUnderFsync: a rotation does not sync the
// segment it seals, so under Fsync Open syncs the segment whose torn
// tail it cut; without Fsync it syncs nothing.
func TestOpenSyncsTornTailCutUnderFsync(t *testing.T) {
	for _, fsync := range []bool{true, false} {
		dir := t.TempDir()
		l, _, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, l, "kept")
		l.Close()
		f, err := os.OpenFile(filepath.Join(dir, segmentFile.name(1)), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte{9, 0, 0}) // a torn header
		f.Close()

		fsys := &syncCountFS{FS: OSFS()}
		l, info, err := Open(dir, Options{FS: fsys, Fsync: fsync})
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if fsync {
			want = 1
		}
		if n := fsys.syncs.Load(); info.TornBytes != 3 || n != want {
			t.Errorf("Fsync %v: Open cut %d torn bytes with %d segment syncs, want 3 with %d", fsync, info.TornBytes, n, want)
		}
		l.Close()
	}
}

// TestScanSegmentValidPrefixProperty pins the invariant the fuzz target
// relies on: rescanning the reported valid prefix yields the same records
// with no torn tail.
func TestScanSegmentValidPrefixProperty(t *testing.T) {
	var stream bytes.Buffer
	for _, p := range []string{"aa", "bbbb", "c"} {
		var header [headerSize]byte
		binary.LittleEndian.PutUint32(header[0:4], uint32(len(p)))
		binary.LittleEndian.PutUint32(header[4:8], crc32.Checksum([]byte(p), castagnoli))
		stream.Write(header[:])
		stream.WriteString(p)
	}
	stream.WriteString("\x03\x00") // torn header
	data := stream.Bytes()
	var first []string
	valid, torn, err := ScanSegment(bytes.NewReader(data), func(p []byte) error {
		first = append(first, string(p))
		return nil
	})
	if err != nil || !torn {
		t.Fatalf("scan = (torn %v, err %v), want torn", torn, err)
	}
	var second []string
	valid2, torn2, err := ScanSegment(bytes.NewReader(data[:valid]), func(p []byte) error {
		second = append(second, string(p))
		return nil
	})
	if err != nil || torn2 || valid2 != valid {
		t.Fatalf("rescan = (%d, %v, %v), want (%d, false, nil)", valid2, torn2, err, valid)
	}
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("rescan records %q != first scan %q", second, first)
	}
}

// TestHasState: only segments and snapshots, under the names Open and
// recovery read, are log state; a missing dir, node metadata and
// look-alike names are not.
func TestHasState(t *testing.T) {
	cases := []struct {
		name  string
		files []string
		want  bool
	}{
		{"missing dir", nil, false},
		{"empty dir", []string{}, false},
		{"unrelated files", []string{"notes.txt", "wal.log.bak"}, false},
		{"identity and fence", []string{"follower-id", "fence.json"}, false},
		{"malformed names", []string{"wal-00000001.log", "snapshot-42.json", "snapshot-0000000000000042.json.tmp"}, false},
		{"wal segment", []string{segmentFile.name(1)}, true},
		{"snapshot", []string{snapshotFile.name(0x42)}, true},
		{"both", []string{segmentFile.name(7), snapshotFile.name(6)}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "data")
			if tc.files != nil {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				for _, name := range tc.files {
					if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			got, err := HasState(OSFS(), dir)
			if err != nil {
				t.Fatalf("HasState: %v", err)
			}
			if got != tc.want {
				t.Fatalf("HasState(%v) = %v, want %v", tc.files, got, tc.want)
			}
		})
	}
}

// TestLSNFileNames: both kinds of log-state file round-trip their LSN
// through name and parse, and parse refuses every near miss — a missing
// prefix or suffix, the wrong digit count, non-hex digits and the .tmp
// leftover of an interrupted Install.
func TestLSNFileNames(t *testing.T) {
	for _, kind := range []lsnFile{segmentFile, snapshotFile} {
		t.Run(kind.prefix, func(t *testing.T) {
			for _, lsn := range []LSN{0, 1, 0x42, 1<<64 - 1} {
				if got, ok := kind.parse(kind.name(lsn)); !ok || got != lsn {
					t.Errorf("parse(%q) = (%d, %v), want (%d, true)", kind.name(lsn), got, ok, lsn)
				}
			}
			digits := "0000000000000001"
			for _, name := range []string{
				digits + kind.suffix,                                // no prefix
				kind.prefix + digits,                                // no suffix
				kind.prefix + digits[1:] + kind.suffix,              // 15 digits
				kind.prefix + digits + "0" + kind.suffix,            // 17 digits
				kind.prefix + "000000000000000g" + kind.suffix,      // non-hex digit
				kind.prefix + "+000000000000001" + kind.suffix,      // sign
				kind.prefix + digits + kind.suffix + ".tmp",         // Install leftover
				kind.prefix + kind.prefix + digits + kind.suffix,    // doubled prefix
				strings.ToUpper(kind.prefix) + digits + kind.suffix, // wrong case
			} {
				if lsn, ok := kind.parse(name); ok {
					t.Errorf("parse(%q) accepted it as lsn %d", name, lsn)
				}
			}
		})
	}
}

// TestAppendAllocatesNothing: once the staging buffers have grown, an
// Append frames its record straight into the staging buffer and waits on
// the log itself, so a record costs no allocation.
func TestAppendAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	l, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte{'v'}, 200)
	for range 1000 {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Append of a %d-byte record made %v allocations, want 0", len(payload), allocs)
	}
}
