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
	"repro/internal/wal/errfs"
)

// The end-to-end behavior of Follower.Run — streaming, faults, kill/restart,
// truncation stranding — lives in internal/walltest/repl.go and the server
// and cmd/juryd suites. This file covers the package's pure pieces.

func TestBackoffBounds(t *testing.T) {
	srv, err := server.Open(server.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.ClosePersistence()
	f, err := NewFollower(srv, Options{
		MinBackoff: 10 * time.Millisecond,
		MaxBackoff: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
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

// TestNewFollowerKeepsDataDirIdentity: the follower sends the identity
// its data dir keeps — one in the format juryd has always written is
// read back unchanged, a fresh dir draws and keeps one, and a server
// without a data dir has none to keep.
func TestNewFollowerKeepsDataDirIdentity(t *testing.T) {
	dir := t.TempDir()
	const kept = "follower-0123456789abcdef"
	if err := os.WriteFile(filepath.Join(dir, "follower-id"), []byte(kept+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	open := func(dir string) *server.Server {
		srv, err := server.Open(server.Config{DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.ClosePersistence() })
		return srv
	}
	idOf := func(srv *server.Server) string {
		f, err := NewFollower(srv, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return f.id
	}
	if got := idOf(open(dir)); got != kept {
		t.Fatalf("follower id = %q, want the kept %q", got, kept)
	}

	fresh := t.TempDir()
	first := idOf(open(fresh))
	if !strings.HasPrefix(first, "follower-") {
		t.Fatalf("drawn follower id = %q, want follower-<hex>", first)
	}
	if again := idOf(open(fresh)); again != first {
		t.Fatalf("follower id changed across opens: %q -> %q", first, again)
	}

	if _, err := NewFollower(server.New(server.Config{}), Options{}); err == nil {
		t.Fatal("NewFollower on an in-memory server kept no identity but did not fail")
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
	has, err := wal.HasState(wal.OSFS(), dir)
	if err != nil || !has {
		t.Fatalf("HasState after bootstrap = (%v, %v), want (true, nil)", has, err)
	}
}

// TestBootstrapUsesCallerFS: Bootstrap writes through the filesystem it
// is given, so a fault scripted there fails the install and leaves no
// log state behind.
func TestBootstrapUsesCallerFS(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(server.ReplSnapshotLSNHeader, "7")
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()
	dir := t.TempDir()
	fsys := errfs.New(wal.OSFS(), errfs.Fault{Op: errfs.OpRename, Path: "snapshot-"})
	_, err := Bootstrap(context.Background(), fsys, ts.URL, dir)
	var ioErr *wal.IOError
	if !errors.As(err, &ioErr) || ioErr.Op != "rename" {
		t.Fatalf("Bootstrap = %v, want the injected rename *IOError", err)
	}
	if has, err := wal.HasState(fsys, dir); has || err != nil {
		t.Fatalf("HasState after a failed bootstrap = (%v, %v), want (false, nil)", has, err)
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
	if has, _ := wal.HasState(wal.OSFS(), dir); has {
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

// TestPollTargetsCurrentPrimary pins the stream request a poll builds
// from its once-parsed primary URL: the exact query, a trailing slash
// on the primary tolerated, and a Repoint followed by the next poll.
func TestPollTargetsCurrentPrimary(t *testing.T) {
	primaries := make([]chan string, 2)
	urls := make([]string, 2)
	for i := range primaries {
		got := make(chan string, 4)
		primaries[i] = got
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			got <- r.URL.Path + "?" + r.URL.RawQuery
			w.Header().Set(server.ReplDurableLSNHeader, "0")
			w.WriteHeader(http.StatusNoContent)
		}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	srv, err := server.Open(server.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.ClosePersistence() })
	srv.SetFollower(urls[0] + "/")
	f, err := NewFollower(srv, Options{Wait: 1500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.client.CloseIdleConnections)
	want := "/v1/repl/stream?from=0&wait_ms=1500&epoch=" + strconv.FormatUint(srv.EpochAt(0), 10) + "&follower_id=" + f.id
	for i, target := range []int{0, 0, 1} {
		if i == 2 {
			if err := srv.Repoint(urls[1]); err != nil {
				t.Fatal(err)
			}
		}
		if advanced, err := f.poll(context.Background()); err != nil || advanced {
			t.Fatalf("poll %d: advanced %v, err %v", i, advanced, err)
		}
		if got := <-primaries[target]; got != want {
			t.Fatalf("poll %d asked primary %d for %q, want %q", i, target, got, want)
		}
	}
}

// TestPollOnPromotedNodeSendsNothing: once the node is promoted it has
// no primary to follow, so a poll answers server.ErrNotFollower without
// another stream request to the old primary.
func TestPollOnPromotedNodeSendsNothing(t *testing.T) {
	streams := make(chan string, 4)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/repl/stream" {
			streams <- r.URL.RawQuery
		}
		w.Header().Set(server.ReplDurableLSNHeader, "0")
		w.WriteHeader(http.StatusNoContent)
	}))
	t.Cleanup(ts.Close)
	srv, err := server.Open(server.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.ClosePersistence() })
	srv.SetFollower(ts.URL)
	f, err := NewFollower(srv, Options{Wait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.client.CloseIdleConnections)
	if _, err := f.poll(context.Background()); err != nil {
		t.Fatalf("follower poll: %v", err)
	}
	<-streams
	if _, err := srv.Promote(context.Background(), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := f.poll(context.Background()); !errors.Is(err, server.ErrNotFollower) {
		t.Fatalf("poll after promotion = %v, want server.ErrNotFollower", err)
	}
	select {
	case q := <-streams:
		t.Fatalf("promoted node still polled the old primary (%s)", q)
	default:
	}
}
