package repl

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wal"
)

// The end-to-end behavior of Follower.Run — streaming, faults, kill/restart,
// truncation stranding — lives in internal/walltest/repl.go and the server
// and cmd/juryd suites. This file covers the package's pure pieces.

func TestBackoffBounds(t *testing.T) {
	f := NewFollower(nil, "http://primary", Options{
		MinBackoff: 10 * time.Millisecond,
		MaxBackoff: 500 * time.Millisecond,
	})
	for n := 1; n <= 40; n++ {
		for i := 0; i < 50; i++ {
			d := f.backoff(n)
			if d <= 0 || d > 500*time.Millisecond {
				t.Fatalf("backoff(%d) = %v, want (0, 500ms]", n, d)
			}
		}
	}
	// Deep failure counts must not overflow into negative shifts.
	if d := f.backoff(1 << 20); d <= 0 || d > 500*time.Millisecond {
		t.Fatalf("backoff(huge) = %v, want (0, 500ms]", d)
	}
}

func TestDirHasState(t *testing.T) {
	cases := []struct {
		name  string
		files []string
		want  bool
	}{
		{"missing dir", nil, false},
		{"empty dir", []string{}, false},
		{"unrelated files", []string{"notes.txt", "wal.log.bak"}, false},
		{"identity and fence", []string{"follower-id", "fence.json"}, false},
		{"wal segment", []string{"wal-00000001.log"}, true},
		{"snapshot", []string{"snapshot-00000042.json"}, true},
		{"both", []string{"wal-00000007.log", "snapshot-00000006.json"}, true},
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
			got, err := DirHasState(dir)
			if err != nil {
				t.Fatalf("DirHasState: %v", err)
			}
			if got != tc.want {
				t.Fatalf("DirHasState(%v) = %v, want %v", tc.files, got, tc.want)
			}
		})
	}
}

func TestHeaderLSN(t *testing.T) {
	h := http.Header{}
	if got := headerLSN(h, "X-Missing"); got != 0 {
		t.Fatalf("absent header = %d, want 0", got)
	}
	h.Set("X-Bad", "not-a-number")
	if got := headerLSN(h, "X-Bad"); got != 0 {
		t.Fatalf("malformed header = %d, want 0", got)
	}
	h.Set("X-Lsn", "12345")
	if got := headerLSN(h, "X-Lsn"); got != 12345 {
		t.Fatalf("header = %d, want 12345", got)
	}
}

func TestBootstrapInstallsSnapshot(t *testing.T) {
	const snapLSN = 7
	payload := []byte(`{"workers":{}}`)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/repl/snapshot" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set(server.ReplSnapshotLSNHeader, strconv.Itoa(snapLSN))
		w.Write(payload)
	}))
	defer ts.Close()

	dir := filepath.Join(t.TempDir(), "fresh")
	lsn, err := Bootstrap(context.Background(), nil, ts.URL+"/", dir)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if lsn != snapLSN {
		t.Fatalf("Bootstrap lsn = %d, want %d", lsn, snapLSN)
	}
	// The installed state must be exactly what server.Open recovers from:
	// the snapshot at snapLSN and a log primed to append at snapLSN+1.
	gotLSN, got, found, err := wal.LatestSnapshotFS(wal.OSFS(), dir)
	if err != nil || !found {
		t.Fatalf("LatestSnapshotFS: found=%v err=%v", found, err)
	}
	if gotLSN != snapLSN || string(got) != string(payload) {
		t.Fatalf("installed snapshot = (%d, %q), want (%d, %q)", gotLSN, got, snapLSN, payload)
	}
	has, err := DirHasState(dir)
	if err != nil || !has {
		t.Fatalf("DirHasState after bootstrap = (%v, %v), want (true, nil)", has, err)
	}
}

func TestBootstrapEmptyPrimary(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(server.ReplSnapshotLSNHeader, "0")
		w.WriteHeader(http.StatusNoContent)
	}))
	defer ts.Close()

	dir := filepath.Join(t.TempDir(), "fresh")
	lsn, err := Bootstrap(context.Background(), nil, ts.URL, dir)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if lsn != 0 {
		t.Fatalf("Bootstrap lsn = %d, want 0 for a never-journaled primary", lsn)
	}
	// Nothing installed: the follower starts empty and streams from 0.
	if has, _ := DirHasState(dir); has {
		t.Fatal("bootstrap from an empty primary must not install state")
	}
}

func TestBootstrapErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "degraded", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	if _, err := Bootstrap(context.Background(), nil, ts.URL, t.TempDir()); err == nil {
		t.Fatal("Bootstrap against a 503 primary must fail")
	} else if !strings.Contains(err.Error(), "degraded") {
		t.Fatalf("error %q does not carry the primary's diagnostic", err)
	}

	missing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}")) // 200 but no snapshot-LSN header
	}))
	defer missing.Close()
	if _, err := Bootstrap(context.Background(), nil, missing.URL, t.TempDir()); err == nil {
		t.Fatal("Bootstrap must reject a snapshot without its LSN header")
	}
}

func TestTerminalErrorsAreDistinguishable(t *testing.T) {
	wrapped := errors.Join(ErrSnapshotNeeded)
	if !errors.Is(wrapped, ErrSnapshotNeeded) || errors.Is(wrapped, ErrDiverged) {
		t.Fatal("terminal errors must survive wrapping and stay distinct")
	}
}
