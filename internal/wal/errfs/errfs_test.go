package errfs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/wal"
)

// appendN appends records "rec-0".."rec-(n-1)" and returns the first
// append error (with how many made it in before it).
func appendN(l *wal.Log, n int) (acked int, err error) {
	for i := 0; i < n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			return i, err
		}
	}
	return n, nil
}

// replayAll reopens dir on fsys and returns the replayed payloads.
func replayAll(t *testing.T, fsys wal.FS, dir string) []string {
	t.Helper()
	l, _, err := wal.Open(dir, wal.Options{FS: fsys})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	var got []string
	if err := l.Replay(1, func(_ wal.LSN, p []byte) error {
		got = append(got, string(p))
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

func TestWriteFaultPoisonsLog(t *testing.T) {
	dir := t.TempDir()
	fsys := New(wal.OSFS(), Fault{Op: OpWrite, Path: "wal-", After: 3})
	l, _, err := wal.Open(dir, wal.Options{FS: fsys})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()

	acked, err := appendN(l, 10)
	if acked != 3 {
		t.Fatalf("acked = %d, want 3", acked)
	}
	var ioErr *wal.IOError
	if !errors.As(err, &ioErr) || ioErr.Op != "write" {
		t.Fatalf("first failure = %v, want *IOError with Op=write", err)
	}
	if errors.Is(err, wal.ErrFailed) {
		t.Fatalf("first failure should carry the IOError itself, not ErrFailed: %v", err)
	}

	// Every later append fails with the sticky ErrFailed wrapping the cause.
	_, err = l.Append([]byte("late"))
	if !errors.Is(err, wal.ErrFailed) {
		t.Fatalf("later append = %v, want ErrFailed", err)
	}
	if !errors.As(err, &ioErr) {
		t.Fatalf("later append should still expose the root IOError: %v", err)
	}
	if err := l.WaitDurable(); !errors.Is(err, wal.ErrFailed) {
		t.Fatalf("WaitDurable on poisoned log = %v, want ErrFailed", err)
	}
	if fsys.Injected() != 1 {
		t.Fatalf("Injected() = %d, want 1 (write fault fires once, poison stops retries)", fsys.Injected())
	}
}

func TestFsyncFaultDropUnsynced(t *testing.T) {
	dir := t.TempDir()
	fsys := New(wal.OSFS(), Fault{Op: OpSync, Path: "wal-", After: 5, DropUnsynced: true})
	l, _, err := wal.Open(dir, wal.Options{FS: fsys, Fsync: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	acked, err := appendN(l, 10)
	if acked != 5 {
		t.Fatalf("acked = %d, want 5", acked)
	}
	var ioErr *wal.IOError
	if !errors.As(err, &ioErr) || ioErr.Op != "fsync" {
		t.Fatalf("failure = %v, want *IOError with Op=fsync", err)
	}
	l.Close()

	// The unsynced record was dropped: recovery sees exactly the acked
	// prefix, as after power loss.
	got := replayAll(t, wal.OSFS(), dir)
	if len(got) != 5 || got[4] != "rec-4" {
		t.Fatalf("recovered %v, want rec-0..rec-4", got)
	}
}

func TestENOSPCOnRotation(t *testing.T) {
	dir := t.TempDir()
	// Fail the second segment creation (the first happens at Open).
	fsys := New(wal.OSFS(), Fault{Op: OpCreate, Path: "wal-", After: 1, Err: syscall.ENOSPC})
	l, _, err := wal.Open(dir, wal.Options{FS: fsys, SegmentBytes: 64})
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	acked, err := appendN(l, 50)
	if err == nil {
		t.Fatal("expected rotation to hit ENOSPC")
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("failure = %v, want to unwrap to ENOSPC", err)
	}
	var ioErr *wal.IOError
	if !errors.As(err, &ioErr) || ioErr.Op != "create" {
		t.Fatalf("failure = %v, want *IOError with Op=create", err)
	}
	l.Close()

	got := replayAll(t, wal.OSFS(), dir)
	if len(got) != acked {
		t.Fatalf("recovered %d records, want the %d acked before ENOSPC", len(got), acked)
	}
}

func TestShortWriteLeavesTornTail(t *testing.T) {
	dir := t.TempDir()
	fsys := New(wal.OSFS(), Fault{Op: OpWrite, Path: "wal-", After: 4, Short: 6})
	l, _, err := wal.Open(dir, wal.Options{FS: fsys})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	acked, err := appendN(l, 10)
	if acked != 4 || err == nil {
		t.Fatalf("acked = %d (err %v), want 4 with an error", acked, err)
	}
	l.Close()

	// Reopen on the real filesystem: the torn 6-byte fragment must be
	// truncated away, leaving the 4 acked records.
	l2, info, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if info.TornBytes == 0 {
		t.Fatal("expected a torn tail to be truncated on reopen")
	}
	n := 0
	if err := l2.Replay(1, func(wal.LSN, []byte) error { n++; return nil }); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if n != 4 {
		t.Fatalf("recovered %d records, want 4", n)
	}
}

func TestSnapshotRenameFault(t *testing.T) {
	dir := t.TempDir()
	fsys := New(wal.OSFS(), Fault{Op: OpRename, Path: "snapshot-", Times: 1, Err: syscall.EIO})
	err := wal.WriteSnapshotFS(fsys, dir, 7, []byte(`{"x":1}`))
	var ioErr *wal.IOError
	if !errors.As(err, &ioErr) || ioErr.Op != "rename" {
		t.Fatalf("err = %v, want *IOError with Op=rename", err)
	}
	if _, _, found, err := wal.LatestSnapshotFS(wal.OSFS(), dir); err != nil || found {
		t.Fatalf("found=%v err=%v, want no snapshot installed after failed rename", found, err)
	}
	// Second attempt (fault exhausted by Times: 1) succeeds.
	if err := wal.WriteSnapshotFS(fsys, dir, 7, []byte(`{"x":1}`)); err != nil {
		t.Fatalf("retry: %v", err)
	}
	lsn, payload, found, err := wal.LatestSnapshotFS(wal.OSFS(), dir)
	if err != nil || !found || lsn != 7 || string(payload) != `{"x":1}` {
		t.Fatalf("snapshot after retry: lsn=%d found=%v err=%v", lsn, found, err)
	}
}

// TestInstallNamesFailedStep fails each step of wal.Install in turn: the
// error names the step, and a failure before the rename leaves the old
// file and no temp file behind. The last row is the directory fsync
// after the rename: Install's second sync on a path under dir.
func TestInstallNamesFailedStep(t *testing.T) {
	for _, tc := range []struct {
		op     string
		fault  Fault
		landed bool
	}{
		{"create", Fault{Op: OpCreate, Path: "meta.tmp"}, false},
		{"write", Fault{Op: OpWrite, Path: "meta.tmp"}, false},
		{"fsync", Fault{Op: OpSync, Path: "meta.tmp"}, false},
		{"rename", Fault{Op: OpRename, Path: "meta"}, false},
		{"dirsync", Fault{Op: OpSync, After: 1}, true},
	} {
		t.Run(tc.op, func(t *testing.T) {
			dir := t.TempDir()
			if err := wal.Install(wal.OSFS(), dir, "meta", []byte("old")); err != nil {
				t.Fatal(err)
			}
			fsys := New(wal.OSFS(), tc.fault)
			err := wal.Install(fsys, dir, "meta", []byte("new"))
			var ioErr *wal.IOError
			if !errors.As(err, &ioErr) || ioErr.Op != tc.op {
				t.Fatalf("err = %v, want *IOError with Op=%s", err, tc.op)
			}
			want := "old"
			if tc.landed {
				want = "new"
			}
			if got, err := os.ReadFile(filepath.Join(dir, "meta")); err != nil || string(got) != want {
				t.Fatalf("meta = %q (%v), want %q", got, err, want)
			}
			if _, err := os.Stat(filepath.Join(dir, "meta.tmp")); !os.IsNotExist(err) {
				t.Fatalf("temp file left behind: %v", err)
			}
		})
	}
}

func TestFaultTimesAndAfter(t *testing.T) {
	fsys := New(wal.OSFS(), Fault{Op: OpRemove, After: 2, Times: 2})
	dir := t.TempDir()
	for i, wantErr := range []bool{false, false, true, true, false} {
		err := fsys.Remove(dir + "/nope") // ignore real-ENOENT when passthrough
		injected := errors.Is(err, ErrInjected)
		if injected != wantErr {
			t.Fatalf("call %d: injected=%v, want %v (err %v)", i, injected, wantErr, err)
		}
	}
	if fsys.Injected() != 2 {
		t.Fatalf("Injected() = %d, want 2", fsys.Injected())
	}
}

// TestReadFaultSurfacesFromReadCommitted: a failing segment read on the
// replication path is an error, never a short batch, and a segment
// removed behind the log is ErrTruncated (the follower re-bootstraps).
func TestReadFaultSurfacesFromReadCommitted(t *testing.T) {
	dir := t.TempDir()
	fsys := New(wal.OSFS())
	l, _, err := wal.Open(dir, wal.Options{FS: fsys, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := appendN(l, 200); err != nil {
		t.Fatal(err)
	}
	fsys.Add(Fault{Op: OpRead, Path: "wal-", Times: 1})
	if frames, count, err := l.ReadCommitted(150, 0, nil); !errors.Is(err, ErrInjected) || count != 0 || frames != nil {
		t.Fatalf("faulted read = (%d bytes, %d records, %v), want ErrInjected and nothing shipped", len(frames), count, err)
	}
	if _, count, err := l.ReadCommitted(150, 0, nil); err != nil || count != 51 {
		t.Fatalf("read after the fault = (%d records, %v), want 51", count, err)
	}

	// Remove the first segment file behind the log: its records are gone.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, entries[0].Name())); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.ReadCommitted(1, 0, nil); !errors.Is(err, wal.ErrTruncated) {
		t.Fatalf("read of a removed segment: %v, want ErrTruncated", err)
	}
}
