package server

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/wal"
	"repro/internal/wal/errfs"
)

// TestEpochTableLookup: the zero table is the implicit epoch 1
// everywhere; each recorded promotion governs from its StartLSN until the
// next one.
func TestEpochTableLookup(t *testing.T) {
	var tab epochTable
	if tab.current() != 1 || tab.at(0) != 1 || tab.at(1<<40) != 1 {
		t.Fatalf("zero table = current %d, at(0) %d, at(big) %d, want 1 everywhere",
			tab.current(), tab.at(0), tab.at(1<<40))
	}
	if err := tab.add(2, 5); err != nil {
		t.Fatal(err)
	}
	if err := tab.add(4, 9); err != nil { // epochs may skip, LSNs may not repeat
		t.Fatal(err)
	}
	for lsn, want := range map[wal.LSN]uint64{1: 1, 4: 1, 5: 2, 8: 2, 9: 4, 1000: 4} {
		if got := tab.at(lsn); got != want {
			t.Fatalf("at(%d) = %d, want %d", lsn, got, want)
		}
	}
	if tab.current() != 4 {
		t.Fatalf("current = %d, want 4", tab.current())
	}
}

// TestEpochTableRejectsNonAdvancingRecords: a replay that does not
// strictly advance both epoch and StartLSN is a forked log, not a state.
func TestEpochTableRejectsNonAdvancingRecords(t *testing.T) {
	var tab epochTable
	if err := tab.add(1, 3); err == nil {
		t.Fatal("epoch 1 record accepted; epoch 1 is implicit")
	}
	if err := tab.add(2, 5); err != nil {
		t.Fatal(err)
	}
	if err := tab.add(2, 9); err == nil {
		t.Fatal("repeated epoch accepted")
	}
	if err := tab.add(3, 5); err == nil {
		t.Fatal("repeated start LSN accepted")
	}
	if err := tab.add(3, 4); err == nil {
		t.Fatal("backward start LSN accepted")
	}
	if got := tab.current(); got != 2 {
		t.Fatalf("rejected records mutated the table: current = %d, want 2", got)
	}
}

// TestEpochTableSnapshotLoadRoundTrip: the table round-trips through the
// snapshot document, and load applies the same fork checks as add.
func TestEpochTableSnapshotLoadRoundTrip(t *testing.T) {
	var tab epochTable
	tab.add(2, 5)
	tab.add(3, 11)
	var loaded epochTable
	if err := loaded.load(tab.snapshot()); err != nil {
		t.Fatal(err)
	}
	if loaded.current() != 3 || loaded.at(5) != 2 || loaded.at(10) != 2 || loaded.at(11) != 3 {
		t.Fatalf("loaded table disagrees: current %d, at(5) %d, at(11) %d",
			loaded.current(), loaded.at(5), loaded.at(11))
	}
	var bad epochTable
	if err := bad.load([]EpochEntry{{Epoch: 1, StartLSN: 4}}); err == nil {
		t.Fatal("load accepted an epoch-1 entry")
	}
	if err := bad.load([]EpochEntry{{Epoch: 3, StartLSN: 9}, {Epoch: 3, StartLSN: 12}}); err == nil {
		t.Fatal("load accepted a non-increasing table")
	}
}

// TestFenceRequiresNewerEpoch: fencing with the node's own (or an older)
// epoch is ErrFenceStale; a genuine fence takes effect, is idempotent,
// and a higher re-fence wins.
func TestFenceRequiresNewerEpoch(t *testing.T) {
	s := New(Config{Alpha: 0.5, Seed: 1})
	if err := s.Fence(1, "http://new"); err == nil {
		t.Fatal("fence at the current epoch accepted")
	}
	if err := s.Fence(2, "http://new"); err != nil {
		t.Fatal(err)
	}
	fenced, epoch, primary := s.FencedState()
	if !fenced || epoch != 2 || primary != "http://new" {
		t.Fatalf("fenced state = %v/%d/%q", fenced, epoch, primary)
	}
	// Re-fencing lower keeps the higher fence; higher replaces it.
	if err := s.Fence(1, "http://older"); err == nil {
		t.Fatal("stale re-fence accepted")
	}
	if err := s.Fence(3, "http://newer"); err != nil {
		t.Fatal(err)
	}
	if _, epoch, primary := s.FencedState(); epoch != 3 || primary != "http://newer" {
		t.Fatalf("re-fence = %d/%q, want 3/http://newer", epoch, primary)
	}
}

// TestFencedMutationIs421WithPrimary: a fenced node answers mutations
// exactly like a read-only replica — 421 plus the new primary's address.
func TestFencedMutationIs421WithPrimary(t *testing.T) {
	s, ts := newTestServer(t)
	if err := s.Fence(2, "http://promoted.example"); err != nil {
		t.Fatal(err)
	}
	resp, raw := postJSON(t, ts.URL+"/v1/workers", RegisterRequest{Workers: []WorkerSpec{{ID: "x", Quality: 0.7, Cost: 1}}})
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("fenced mutation: %d %s, want 421", resp.StatusCode, raw)
	}
	if got := resp.Header.Get(PrimaryHeader); got != "http://promoted.example" {
		t.Fatalf("%s = %q, want the fencing primary", PrimaryHeader, got)
	}
	// Reads keep working: fenced means write-elsewhere, not down.
	r2, err := http.Get(ts.URL + "/v1/workers")
	if err != nil || r2.StatusCode != http.StatusOK {
		t.Fatalf("fenced read: %v %v", r2, err)
	}
	r2.Body.Close()
}

// TestEpochHeaderStampedEverywhere: every response — success, error, and
// system routes — names the serving node's epoch.
func TestEpochHeaderStampedEverywhere(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/healthz", "/v1/workers", "/v1/workers/ghost", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get(EpochHeader); got != "1" {
			t.Fatalf("GET %s: %s = %q, want 1", path, EpochHeader, got)
		}
	}
}

// TestFenceHandlerValidation: epoch 0 is a 400 (malformed), the node's
// own epoch is a 409 (stale — fencing the legitimate holder).
func TestFenceHandlerValidation(t *testing.T) {
	_, ts := newTestServer(t)
	resp, raw := postJSON(t, ts.URL+"/v1/repl/fence", FenceRequest{Primary: "http://x"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("fence without epoch: %d %s, want 400", resp.StatusCode, raw)
	}
	resp, raw = postJSON(t, ts.URL+"/v1/repl/fence", FenceRequest{Epoch: 1})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("fence at current epoch: %d %s, want 409", resp.StatusCode, raw)
	}
}

// TestRepointHandlerValidation: an empty primary is a 400; repointing a
// node that is not a follower is a 409.
func TestRepointHandlerValidation(t *testing.T) {
	_, ts := newTestServer(t)
	resp, raw := postJSON(t, ts.URL+"/v1/repl/repoint", RepointRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("repoint without primary: %d %s, want 400", resp.StatusCode, raw)
	}
	resp, raw = postJSON(t, ts.URL+"/v1/repl/repoint", RepointRequest{Primary: "http://p"})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("repoint on a primary: %d %s, want 409", resp.StatusCode, raw)
	}
}

// TestPromoteOnPrimaryIsIdempotentNoOp: promoting a node that is already
// primary reports AlreadyPrimary with its standing epoch — safe to call
// from a confused operator or a retried script.
func TestPromoteOnPrimaryIsIdempotentNoOp(t *testing.T) {
	_, ts := newTestServer(t)
	resp, raw := postJSON(t, ts.URL+"/v1/repl/promote", PromoteRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote on primary: %d %s", resp.StatusCode, raw)
	}
	var out PromoteResponse
	mustDecode(t, raw, &out)
	if !out.AlreadyPrimary || out.Promoted || out.Epoch != 1 {
		t.Fatalf("promote on primary = %+v, want AlreadyPrimary at epoch 1", out)
	}
}

// TestPromoteFencedFollowerSupersedesFence: a fenced follower promoted
// after cascaded failovers must come up as a real primary — the new
// epoch opens past the fence epoch (fence+1, not current+1), so the
// node is never left answering 421 against its own fence marker, and
// the response reports the fence it outranked.
func TestPromoteFencedFollowerSupersedesFence(t *testing.T) {
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	t.Cleanup(primary.Close)
	s, err := Open(Config{Alpha: 0.5, Seed: 1, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s.SetFollower(primary.URL)
	if err := s.Fence(7, primary.URL); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	resp, raw := postJSON(t, ts.URL+"/v1/repl/promote", PromoteRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote fenced follower: %d %s", resp.StatusCode, raw)
	}
	var out PromoteResponse
	mustDecode(t, raw, &out)
	if !out.Promoted || out.Epoch != 8 || out.SupersededFenceEpoch != 7 {
		t.Fatalf("promote = %+v, want epoch 8 superseding fence 7", out)
	}
	if fenced, epoch, _ := s.FencedState(); fenced {
		t.Fatalf("promoted node still fenced at epoch %d", epoch)
	}
	// And it acknowledges writes again.
	resp, raw = postJSON(t, ts.URL+"/v1/workers", RegisterRequest{Workers: []WorkerSpec{{ID: "x", Quality: 0.7, Cost: 1}}})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("mutation on promoted node: %d %s, want 201", resp.StatusCode, raw)
	}
}

// TestPromoteRequiresPersistence: a memory-only follower cannot journal
// the epoch record, so promotion must refuse rather than silently open an
// epoch that would not survive a restart.
func TestPromoteRequiresPersistence(t *testing.T) {
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	t.Cleanup(primary.Close)
	s := New(Config{Alpha: 0.5, Seed: 1})
	s.SetFollower(primary.URL)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	resp, raw := postJSON(t, ts.URL+"/v1/repl/promote", PromoteRequest{})
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("memory-only follower promoted: %s", raw)
	}
}

// openOnInjector opens a durable server whose data dir lives behind a
// fault injector with no rules yet: a test adds the one it needs once
// boot is done.
func openOnInjector(t *testing.T) (*Server, *errfs.FS, string) {
	t.Helper()
	dir := t.TempDir()
	fsys := errfs.New(wal.OSFS())
	s, err := Open(Config{Alpha: 0.5, Seed: 1, DataDir: dir, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.ClosePersistence() })
	return s, fsys, dir
}

// TestMetadataInstallSyncsDataDir: fence.json and follower-id are
// installed with a directory fsync after the rename, so neither can
// vanish on power loss once the call returns. A sync rule on the data
// dir's path lets the first sync under it (the temp file) pass and
// fires on the second, which must be the directory itself.
func TestMetadataInstallSyncsDataDir(t *testing.T) {
	for _, tc := range []struct {
		file    string
		install func(*Server) error
	}{
		{fenceFile, func(s *Server) error { return s.Fence(2, "") }},
		{followerIDFile, func(s *Server) error { _, err := s.FollowerID(); return err }},
	} {
		t.Run(tc.file, func(t *testing.T) {
			s, fsys, dir := openOnInjector(t)
			fsys.Add(errfs.Fault{Op: errfs.OpSync, Path: dir, After: 1, Times: 1})
			err := tc.install(s)
			var ioErr *wal.IOError
			if !errors.As(err, &ioErr) || ioErr.Op != "dirsync" || ioErr.Path != dir {
				t.Fatalf("installing %s = %v, want the injected dirsync *IOError on %s", tc.file, err, dir)
			}
		})
	}
}

// TestFenceInstallFailureKeepsMemoryFence: Fence's failure contract.
// When fence.json cannot be installed, Fence returns the error but the
// in-memory fence holds, and a fence delivered by a higher-epoch stream
// poll counts the failure in juryd_fence_errors_total.
func TestFenceInstallFailureKeepsMemoryFence(t *testing.T) {
	s, fsys, dir := openOnInjector(t)
	fsys.Add(errfs.Fault{Op: errfs.OpRename, Path: fenceFile})
	if err := s.Fence(2, "http://new"); err == nil {
		t.Fatal("Fence reported success with fence.json uninstallable")
	}
	if fenced, epoch, primary := s.FencedState(); !fenced || epoch != 2 || primary != "http://new" {
		t.Fatalf("fenced state after a failed install = %v/%d/%q, want fenced at 2 by http://new", fenced, epoch, primary)
	}

	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/v1/repl/stream?from=0&epoch=3&follower_id=f")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("higher-epoch poll: %d, want 409", resp.StatusCode)
	}
	if fenced, epoch, _ := s.FencedState(); !fenced || epoch != 3 {
		t.Fatalf("fenced state after the poll = %v/%d, want fenced at 3", fenced, epoch)
	}
	mResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mResp.Body)
	mResp.Body.Close()
	if !strings.Contains(string(body), "juryd_fence_errors_total 1\n") {
		t.Fatalf("metrics lack juryd_fence_errors_total 1:\n%s", body)
	}
	if _, err := os.Stat(filepath.Join(dir, fenceFile)); !os.IsNotExist(err) {
		t.Fatalf("fence.json exists after every install failed: %v", err)
	}
}

// TestFenceInstallFailureAnswers5xx: when fence.json cannot be installed,
// the fence route answers a server error, not 400 — the request was
// sound, the data directory failed — and counts the failure in
// juryd_fence_errors_total. The fence reaches the faulted node either
// directly or from a follower's promotion, which fences its old primary;
// that promotion still succeeds and reports the fence as not landed.
func TestFenceInstallFailureAnswers5xx(t *testing.T) {
	for _, op := range []errfs.Op{errfs.OpRename, errfs.OpSync} {
		for _, route := range []string{"/v1/repl/fence", "/v1/repl/promote"} {
			t.Run(string(op)+route, func(t *testing.T) {
				s, fsys, _ := openOnInjector(t)
				fsys.Add(errfs.Fault{Op: op, Path: fenceFile})
				var fenceStatus atomic.Int32
				h := s.Handler()
				ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					sw := &statusWriter{ResponseWriter: w}
					h.ServeHTTP(sw, r)
					if r.URL.Path == "/v1/repl/fence" {
						fenceStatus.Store(int32(sw.status))
					}
				}))
				t.Cleanup(ts.Close)

				if route == "/v1/repl/fence" {
					postJSON(t, ts.URL+route, FenceRequest{Epoch: 2, Primary: "http://new"})
				} else {
					f, err := Open(Config{Alpha: 0.5, Seed: 1, DataDir: t.TempDir()})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { f.ClosePersistence() })
					f.SetFollower(ts.URL)
					fts := httptest.NewServer(f.Handler())
					t.Cleanup(fts.Close)
					resp, raw := postJSON(t, fts.URL+route, PromoteRequest{Advertise: fts.URL})
					var out PromoteResponse
					mustDecode(t, raw, &out)
					if resp.StatusCode != http.StatusOK || !out.Promoted || out.OldPrimaryFenced {
						t.Fatalf("promote: %d %s, want promoted with the old primary's fence not landed", resp.StatusCode, raw)
					}
				}
				if code := fenceStatus.Load(); code < 500 {
					t.Fatalf("fence with fence.json uninstallable answered %d, want a 5xx", code)
				}
				if fenced, epoch, _ := s.FencedState(); !fenced || epoch != 2 {
					t.Fatalf("fenced state = %v/%d, want the memory fence at 2", fenced, epoch)
				}
				mResp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(mResp.Body)
				mResp.Body.Close()
				if !strings.Contains(string(body), "juryd_fence_errors_total 1\n") {
					t.Fatalf("metrics lack juryd_fence_errors_total 1:\n%s", body)
				}
			})
		}
	}
}
