package wal_test

import (
	"bytes"
	"sync"
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

// TestPerRecordConcurrentReplayComplete: without Fsync each flush is a
// single write, so concurrent appenders mostly flush one record each,
// yet they still release the log's lock during the write and share
// flushes whenever they overlap; every record must land exactly once,
// in order. TestGroupCommitConcurrentReplayComplete runs the same
// race under Fsync.
func TestPerRecordConcurrentReplayComplete(t *testing.T) {
	concurrentReplayComplete(t, wal.Options{SegmentBytes: 512})
}

// TestBeginBackpressureAtStagingCap holds a leader's fsync at a gate,
// stages MaxBatchBytes behind it, and checks that the next Begin parks
// until the gate opens, after which every record replays in LSN order.
func TestBeginBackpressureAtStagingCap(t *testing.T) {
	gate := make(chan struct{})
	fs := errfs.New(wal.OSFS(), errfs.Fault{Op: errfs.OpSync, Path: "wal-", Times: 1, Gate: gate})
	l, _, err := wal.Open(t.TempDir(), wal.Options{Fsync: true, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var opened sync.Once
	release := func() { opened.Do(func() { close(gate) }) }
	t.Cleanup(release) // runs before Close, which waits on a held flush

	payload := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, 64<<10) }
	first, err := l.Begin(payload(0))
	if err != nil {
		t.Fatal(err)
	}
	lead := make(chan error, 1)
	go func() { _, err := l.Wait(first); lead <- err }()
	waitInjected(t, fs, 1) // the leader is inside its gated fsync

	// Each framed record is its payload plus an 8-byte header, so this
	// many records fill the staging buffer to at least MaxBatchBytes.
	staged := wal.MaxBatchBytes/(64<<10+8) + 1
	pending := []wal.LSN{first}
	for i := 1; i <= staged; i++ {
		p, err := l.Begin(payload(i))
		if err != nil {
			t.Fatalf("Begin %d: %v", i, err)
		}
		pending = append(pending, p)
	}
	last := make(chan wal.LSN, 1)
	done := make(chan error, 1)
	go func() {
		p, err := l.Begin(payload(staged + 1))
		last <- p
		done <- err
	}()
	stillBlocked(t, done, "Begin past the staging cap")
	release()
	if err := <-lead; err != nil {
		t.Fatalf("leader Wait: %v", err)
	}
	// The staged records' waiters lead the next flush, which drains the
	// buffer and lets the parked Begin through.
	for i, p := range pending {
		if _, err := l.Wait(p); err != nil {
			t.Fatalf("record %d Wait: %v", i+1, err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("Begin after the buffer drained: %v", err)
	}
	p := <-last
	if _, err := l.Wait(p); err != nil {
		t.Fatalf("record %d Wait: %v", p, err)
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

// TestBeginBackpressureLeadsFlush: a Begin that finds the staging buffer
// full leads the flush that drains it, so a lone goroutine that stages
// past MaxBatchBytes without ever calling Wait still gets through.
func TestBeginBackpressureLeadsFlush(t *testing.T) {
	l, _, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() }) // releases a Begin still parked after a failure
	const records = 40
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, 64<<10) }
	done := make(chan error, 1)
	go func() {
		for i := range records {
			if _, err := l.Begin(payload(i)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Begin: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%d Begins of %d KiB with no Wait did not finish in 5 s (parked at the staging cap)", records, 64)
	}
	if err := l.WaitDurable(); err != nil {
		t.Fatal(err)
	}
	got := replayPayloads(t, l)
	if len(got) != records {
		t.Fatalf("replayed %d records, want %d", len(got), records)
	}
	for i, p := range got {
		if !bytes.Equal(p, payload(i)) {
			t.Fatalf("record %d replayed the wrong payload", i+1)
		}
	}
}
