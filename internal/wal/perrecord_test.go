package wal_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/wal"
	"repro/internal/wal/errfs"
)

// stillBlocked fails the test if done yields within a short window: the
// call it stands for must still be parked.
func stillBlocked(t *testing.T, done <-chan error, what string) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("%s returned (%v) before the gated sync completed", what, err)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestPerRecordBeginWaitsForSync: without group commit Begin leads the
// flush itself, so it does not return — and the watermark does not
// move — until the record's fsync has completed.
func TestPerRecordBeginWaitsForSync(t *testing.T) {
	gate := make(chan struct{})
	fs := errfs.New(wal.OSFS(), errfs.Fault{Op: errfs.OpSync, Path: "wal-", Times: 1, Gate: gate})
	l, _, err := wal.Open(t.TempDir(), wal.Options{Fsync: true, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	pend := make(chan *wal.Pending, 1)
	done := make(chan error, 1)
	go func() {
		p, err := l.Begin([]byte("r1"))
		pend <- p
		done <- err
	}()
	waitInjected(t, fs, 1) // Begin is inside the gated fsync
	stillBlocked(t, done, "per-record Begin")
	if got := l.Synced(); got != 0 {
		t.Fatalf("watermark = %d while the record's fsync is held, want 0", got)
	}
	close(gate)
	p := <-pend
	if err := <-done; err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if !p.Done() || p.LSN() != 1 {
		t.Fatalf("Pending done=%v lsn=%d, want a settled record at lsn 1", p.Done(), p.LSN())
	}
	if got := l.Synced(); got != 1 {
		t.Fatalf("watermark after Begin = %d, want 1", got)
	}
}

// TestPerRecordBeginSyncFailure: a per-record Begin whose fsync fails
// returns the bare *IOError and reserves nothing, so NextLSN still names
// the refused record's LSN; the log is poisoned from then on.
func TestPerRecordBeginSyncFailure(t *testing.T) {
	fs := errfs.New(wal.OSFS(), errfs.Fault{Op: errfs.OpSync, Path: "wal-", After: 1})
	l, _, err := wal.Open(t.TempDir(), wal.Options{Fsync: true, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]byte("r1")); err != nil {
		t.Fatal(err)
	}
	p, err := l.Begin([]byte("r2"))
	var ioErr *wal.IOError
	if p != nil || !errors.As(err, &ioErr) || ioErr.Op != "fsync" {
		t.Fatalf("Begin with failing fsync = (%v, %v), want (nil, fsync *IOError)", p, err)
	}
	if errors.Is(err, wal.ErrFailed) {
		t.Fatalf("first failure %v wraps ErrFailed; it must surface the IOError itself", err)
	}
	if got := l.NextLSN(); got != 2 {
		t.Fatalf("NextLSN after the refused append = %d, want 2", got)
	}
	if got := l.Synced(); got != 1 {
		t.Fatalf("watermark after the refused append = %d, want 1", got)
	}
	if _, err := l.Begin([]byte("r3")); !errors.Is(err, wal.ErrFailed) {
		t.Fatalf("Begin on poisoned log = %v, want ErrFailed", err)
	}
	if err := l.WaitDurable(); !errors.Is(err, wal.ErrFailed) {
		t.Fatalf("WaitDurable on poisoned log = %v, want ErrFailed", err)
	}
}

// TestPerRecordConcurrentReplayComplete: per-record appenders release
// the log's lock during the write and the fsync, so concurrent ones
// share flushes; every record must still land exactly once, in order.
func TestPerRecordConcurrentReplayComplete(t *testing.T) {
	for _, fsync := range []bool{false, true} {
		concurrentReplayComplete(t, wal.Options{Fsync: fsync, SegmentBytes: 512})
	}
}

// TestBeginBackpressureAtStagingCap holds a leader's fsync at a gate,
// stages MaxBatchBytes behind it, and checks that the next Begin parks
// until the gate opens, after which every record replays in LSN order.
func TestBeginBackpressureAtStagingCap(t *testing.T) {
	gate := make(chan struct{})
	fs := errfs.New(wal.OSFS(), errfs.Fault{Op: errfs.OpSync, Path: "wal-", Times: 1, Gate: gate})
	l, _, err := wal.Open(t.TempDir(), wal.Options{Fsync: true, GroupCommit: true, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	payload := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, 64<<10) }
	first, err := l.Begin(payload(0))
	if err != nil {
		t.Fatal(err)
	}
	lead := make(chan error, 1)
	go func() { lead <- first.Wait() }()
	waitInjected(t, fs, 1) // the leader is inside its gated fsync

	// Each framed record is its payload plus an 8-byte header, so this
	// many records fill the staging buffer to at least MaxBatchBytes.
	staged := wal.MaxBatchBytes/(64<<10+8) + 1
	pending := []*wal.Pending{first}
	for i := 1; i <= staged; i++ {
		p, err := l.Begin(payload(i))
		if err != nil {
			t.Fatalf("Begin %d: %v", i, err)
		}
		pending = append(pending, p)
	}
	last := make(chan *wal.Pending, 1)
	done := make(chan error, 1)
	go func() {
		p, err := l.Begin(payload(staged + 1))
		last <- p
		done <- err
	}()
	stillBlocked(t, done, "Begin past the staging cap")
	close(gate)
	if err := <-lead; err != nil {
		t.Fatalf("leader Wait: %v", err)
	}
	// The staged records' waiters lead the next flush, which drains the
	// buffer and lets the parked Begin through.
	for i, p := range pending {
		if err := p.Wait(); err != nil {
			t.Fatalf("record %d Wait: %v", i+1, err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("Begin after the buffer drained: %v", err)
	}
	p := <-last
	if err := p.Wait(); err != nil {
		t.Fatalf("record %d Wait: %v", p.LSN(), err)
	}
	pending = append(pending, p)
	got := replayPayloads(t, l) // fails on any LSN out of order
	if len(got) != len(pending) {
		t.Fatalf("replayed %d records, want %d", len(got), len(pending))
	}
	for i, p := range got {
		if !bytes.Equal(p, payload(i)) {
			t.Fatalf("record %d replayed the wrong payload", i+1)
		}
	}
}
