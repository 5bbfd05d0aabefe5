package wal_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/wal"
	"repro/internal/wal/errfs"
)

// TestWaitSyncedParksOnPoisonedLog: a failed log never advances its
// watermark again, so a reader that holds the whole durable prefix parks
// until its context ends, as on an idle log, instead of being answered
// at once and asking again in a spin; closing the log still releases it.
func TestWaitSyncedParksOnPoisonedLog(t *testing.T) {
	fs := errfs.New(wal.OSFS())
	l, _, err := wal.Open(t.TempDir(), wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	if _, err := l.Append([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	fs.Add(errfs.Fault{Op: errfs.OpWrite, Path: "wal-"})
	if _, err := l.Append([]byte("lost")); !errors.Is(err, errfs.ErrInjected) {
		t.Fatalf("faulted append: %v, want the injected write error", err)
	}

	const wait = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), wait)
	defer cancel()
	start := time.Now()
	synced, err := l.WaitSynced(ctx, 1)
	if took := time.Since(start); synced != 1 || err != nil || took < wait {
		t.Fatalf("WaitSynced on a poisoned log = (%d, %v) after %v, want (1, nil) after its %v context", synced, err, took, wait)
	}

	go func() {
		time.Sleep(20 * time.Millisecond)
		l.Close()
	}()
	if _, err := l.WaitSynced(context.Background(), 1); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("WaitSynced on a poisoned log being closed: %v, want ErrClosed", err)
	}
}
