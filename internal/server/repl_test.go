package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/wal"
	"repro/internal/wal/errfs"
)

// journalSome drives n single-vote ingests (plus one registration)
// through the HTTP API, journaling n+1 records.
func journalSome(t *testing.T, url string, n int) {
	t.Helper()
	resp, raw := postJSON(t, url+"/v1/workers", RegisterRequest{Workers: []WorkerSpec{
		{ID: "ann", Quality: 0.8, Cost: 3}, {ID: "bob", Quality: 0.7, Cost: 2},
	}})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d %s", resp.StatusCode, raw)
	}
	for i := 0; i < n; i++ {
		resp, raw := postJSON(t, url+"/v1/votes/batch", IngestRequest{Events: []VoteEvent{
			{WorkerID: "ann", Correct: i%2 == 0},
		}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: %d %s", i, resp.StatusCode, raw)
		}
	}
}

// streamBatch is one decoded stream batch: the durability watermark its
// header names and the payloads of its records.
type streamBatch struct {
	durable  wal.LSN
	payloads [][]byte
}

// readBatch reads one batch off a stream body; io.EOF means the stream
// ended cleanly before another batch.
func readBatch(body io.Reader) (streamBatch, error) {
	var header [ReplBatchHeaderBytes]byte
	if _, err := io.ReadFull(body, header[:]); err != nil {
		return streamBatch{}, err
	}
	b := streamBatch{durable: wal.LSN(binary.LittleEndian.Uint64(header[0:8]))}
	frames := make([]byte, binary.LittleEndian.Uint32(header[8:12]))
	if _, err := io.ReadFull(body, frames); err != nil {
		return b, err
	}
	_, torn, err := wal.ScanSegment(bytes.NewReader(frames), func(p []byte) error {
		b.payloads = append(b.payloads, append([]byte(nil), p...))
		return nil
	})
	if err == nil && torn {
		err = fmt.Errorf("batch of %d bytes holds a torn frame", len(frames))
	}
	return b, err
}

// decodeStream splits a whole stream body into its batches.
func decodeStream(t *testing.T, body []byte) []streamBatch {
	t.Helper()
	var batches []streamBatch
	for r := bytes.NewReader(body); r.Len() > 0; {
		b, err := readBatch(r)
		if err != nil {
			t.Fatalf("stream body batch %d: %v", len(batches), err)
		}
		batches = append(batches, b)
	}
	return batches
}

// scanStream decodes a whole stream body into the payloads of all its
// batches.
func scanStream(t *testing.T, body []byte) [][]byte {
	t.Helper()
	var payloads [][]byte
	for _, b := range decodeStream(t, body) {
		payloads = append(payloads, b.payloads...)
	}
	return payloads
}

func TestReplStreamProtocol(t *testing.T) {
	// Small segments: every record rotates, so the snapshot-truncation at
	// the end physically removes history (whole segments only).
	s, err := Open(Config{Alpha: 0.5, Seed: 1, DataDir: t.TempDir(), SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	journalSome(t, ts.URL, 4) // 5 records

	// Full read from LSN 0.
	resp, err := http.Get(ts.URL + "/v1/repl/stream?from=0&epoch=1&follower_id=f&wait_ms=10")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(ReplFirstLSNHeader); got != "1" {
		t.Fatalf("%s = %q, want 1", ReplFirstLSNHeader, got)
	}
	if batches := decodeStream(t, body); len(batches[0].payloads) != 5 || batches[0].durable != 5 {
		t.Fatalf("first batch holds %d records at watermark %d, want 5 at 5",
			len(batches[0].payloads), batches[0].durable)
	}
	if got := resp.Header.Get(ReplDurableLSNHeader); got != "5" {
		t.Fatalf("%s = %q, want 5", ReplDurableLSNHeader, got)
	}
	if n := len(scanStream(t, body)); n != 5 {
		t.Fatalf("stream body holds %d records, want 5", n)
	}

	// Mid-log read delivers only the tail.
	resp, err = http.Get(ts.URL + "/v1/repl/stream?from=3&epoch=1&follower_id=f&wait_ms=10")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(scanStream(t, body)) != 2 {
		t.Fatalf("tail stream: %d, %d records, want 200 with 2", resp.StatusCode, len(scanStream(t, body)))
	}
	if got := resp.Header.Get(ReplFirstLSNHeader); got != "4" {
		t.Fatalf("%s = %q, want 4", ReplFirstLSNHeader, got)
	}

	// Caught up: 204 with the watermark, after the (short) long poll.
	resp, err = http.Get(ts.URL + "/v1/repl/stream?from=5&epoch=1&follower_id=f&wait_ms=10")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("caught-up stream: %d, want 204", resp.StatusCode)
	}
	if got := resp.Header.Get(ReplDurableLSNHeader); got != "5" {
		t.Fatalf("204 %s = %q, want 5", ReplDurableLSNHeader, got)
	}

	// A follower claiming records the log never committed: divergence.
	resp, err = http.Get(ts.URL + "/v1/repl/stream?from=9&epoch=1&follower_id=f")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("diverged stream: %d, want 409", resp.StatusCode)
	}

	// Bad or missing parameters: every poll names its epoch and its
	// follower.
	for _, q := range []string{
		"from=x&epoch=1&follower_id=f",
		"from=0&wait_ms=x&epoch=1&follower_id=f",
		"from=0&follower_id=f",
		"from=0&epoch=0&follower_id=f",
		"from=0&epoch=x&follower_id=f",
		"from=0&epoch=1",
	} {
		resp, err := http.Get(ts.URL + "/v1/repl/stream?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("stream?%s: %d, want 400", q, resp.StatusCode)
		}
	}

	// Snapshot + truncation strands pre-horizon readers: 410 with the
	// oldest retained LSN advertised.
	if err := s.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/v1/repl/stream?from=0&epoch=1&follower_id=f")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("truncated stream: %d %s, want 410", resp.StatusCode, body)
	}
	if oldest, _ := strconv.Atoi(resp.Header.Get(ReplOldestLSNHeader)); oldest <= 1 {
		t.Fatalf("410 %s = %d, want > 1", ReplOldestLSNHeader, oldest)
	}
}

// TestQuorumRequiresDataDir: an in-memory server journals nothing, so
// it would ack every write at once; Open must refuse Quorum > 1 there
// instead of breaking the promise of a second copy.
func TestQuorumRequiresDataDir(t *testing.T) {
	for _, tc := range []struct {
		quorum  int
		durable bool
		wantErr bool
	}{
		{quorum: 2, wantErr: true},
		{quorum: 3, wantErr: true},
		{quorum: 1},
		{quorum: 2, durable: true},
	} {
		cfg := NewConfig()
		cfg.Quorum = tc.quorum
		if tc.durable {
			cfg.DataDir = t.TempDir()
		}
		s, err := Open(cfg)
		if tc.wantErr {
			if err == nil || !strings.Contains(err.Error(), "data dir") {
				t.Errorf("Open(quorum %d, in memory) = %v, want a data dir error", tc.quorum, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("Open(quorum %d, durable %v): %v", tc.quorum, tc.durable, err)
			continue
		}
		s.ClosePersistence()
	}
}

// TestQuorumAckRequiresLogMatch: a stream poll contributes to the
// quorum ack table only after every divergence check passes — a
// diverged or stale caller (e.g. a resurrected ex-primary whose `from`
// counts journaled-but-never-shipped records under a forked history)
// must not vouch for LSNs this log never shipped, or quorum could ack
// writes no genuine follower holds. A poll without `epoch` cannot run
// the log-matching check, so it is refused and never vouches either.
func TestQuorumAckRequiresLogMatch(t *testing.T) {
	s, _ := durable(t)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	journalSome(t, ts.URL, 2) // 3 records

	get := func(q string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/repl/stream?" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// A log-matched poll registers the follower's applied LSN.
	if code := get("from=2&epoch=1&follower_id=good&wait_ms=1"); code != http.StatusOK {
		t.Fatalf("matching poll: %d, want 200", code)
	}
	if acks := s.quorum.snapshot(); acks["good"] != 2 {
		t.Fatalf("acks = %v, want good=2", acks)
	}

	// Claiming records beyond the log end is divergence: 409, no ack.
	if code := get("from=9&epoch=1&follower_id=beyond"); code != http.StatusConflict {
		t.Fatalf("beyond-log poll: %d, want 409", code)
	}
	// No epoch means no log-matching check: refused, no ack.
	if code := get("from=2&follower_id=unverified&wait_ms=1"); code != http.StatusBadRequest {
		t.Fatalf("epochless poll: %d, want 400", code)
	}
	// A poll from a higher epoch self-fences this node: 409, no ack.
	if code := get("from=2&epoch=5&follower_id=future"); code != http.StatusConflict {
		t.Fatalf("future-epoch poll: %d, want 409", code)
	}
	if fenced, epoch, _ := s.FencedState(); !fenced || epoch != 5 {
		t.Fatalf("fenced state after future-epoch poll = %v/%d, want fenced at 5", fenced, epoch)
	}
	acks := s.quorum.snapshot()
	for _, id := range []string{"beyond", "unverified", "future"} {
		if _, ok := acks[id]; ok {
			t.Errorf("unverified caller %q registered a quorum ack (%v)", id, acks)
		}
	}
}

func TestReplStreamLongPollWakesOnCommit(t *testing.T) {
	s, _ := durable(t)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	journalSome(t, ts.URL, 0) // 1 record

	type result struct {
		status  int
		records int
		err     error
	}
	ch := make(chan result, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/repl/stream?from=1&epoch=1&follower_id=f&wait_ms=30000")
		if err != nil {
			ch <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := readBatch(resp.Body)
		ch <- result{status: resp.StatusCode, records: len(b.payloads), err: err}
	}()

	time.Sleep(30 * time.Millisecond) // let the poller park on the watermark
	resp, raw := postJSON(t, ts.URL+"/v1/votes/batch", IngestRequest{Events: []VoteEvent{
		{WorkerID: "ann", Correct: true},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %s", resp.StatusCode, raw)
	}
	select {
	case r := <-ch:
		if r.err != nil || r.status != http.StatusOK || r.records != 1 {
			t.Fatalf("long poll woke with %+v, want 200 carrying 1 record", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long poll did not wake on commit")
	}
}

// TestReplStreamPollEndsAtDrain: BeginDrain releases a parked stream
// poll at once, with a 204 naming the durable watermark, so a follower
// cannot hold a draining primary's shutdown for its whole wait.
func TestReplStreamPollEndsAtDrain(t *testing.T) {
	s, _ := durable(t)
	t.Cleanup(func() { s.ClosePersistence() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	journalSome(t, ts.URL, 0) // 1 record

	done := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/repl/stream?from=1&epoch=1&follower_id=f&wait_ms=30000")
		if err != nil {
			t.Error(err)
		} else {
			resp.Body.Close()
		}
		done <- resp
	}()
	time.Sleep(30 * time.Millisecond) // let the poller park on the watermark
	s.BeginDrain()
	select {
	case resp := <-done:
		if resp == nil {
			return
		}
		if resp.StatusCode != http.StatusNoContent || resp.Header.Get(ReplDurableLSNHeader) != "1" {
			t.Fatalf("poll at drain: %d with %s %q, want 204 with 1",
				resp.StatusCode, ReplDurableLSNHeader, resp.Header.Get(ReplDurableLSNHeader))
		}
	case <-time.After(time.Second):
		t.Fatal("a parked poll outlived BeginDrain by 1 s")
	}
}

func TestReplEndpointsRequirePersistence(t *testing.T) {
	s := New(Config{Alpha: 0.5, Seed: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	for _, path := range []string{"/v1/repl/stream", "/v1/repl/snapshot"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusPreconditionFailed {
			t.Fatalf("%s on an in-memory server: %d, want 412", path, resp.StatusCode)
		}
	}
}

func TestReplSnapshotEndpoint(t *testing.T) {
	// Nothing journaled: 204 with LSN 0.
	empty, _ := durable(t)
	tsEmpty := httptest.NewServer(empty.Handler())
	t.Cleanup(tsEmpty.Close)
	resp, err := http.Get(tsEmpty.URL + "/v1/repl/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent || resp.Header.Get(ReplSnapshotLSNHeader) != "0" {
		t.Fatalf("empty snapshot: %d lsn %q, want 204 lsn 0", resp.StatusCode, resp.Header.Get(ReplSnapshotLSNHeader))
	}

	// With history: the document covers exactly the journaled prefix and
	// equals the state dump.
	s, _ := durable(t)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	journalSome(t, ts.URL, 2) // 3 records
	resp, err = http.Get(ts.URL + "/v1/repl/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d %s", resp.StatusCode, payload)
	}
	if got := resp.Header.Get(ReplSnapshotLSNHeader); got != "3" {
		t.Fatalf("%s = %q, want 3", ReplSnapshotLSNHeader, got)
	}
	want, err := s.DebugState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, want) {
		t.Fatalf("snapshot payload differs from the state dump:\n%s\nvs\n%s", payload, want)
	}
}

func TestApplyReplicatedContiguity(t *testing.T) {
	// A primary's real stream, decoded into (lsn, payload) pairs.
	p, _ := durable(t)
	tsP := httptest.NewServer(p.Handler())
	t.Cleanup(tsP.Close)
	journalSome(t, tsP.URL, 3) // 4 records
	frames, count, err := p.persist.log.ReadCommitted(1, 0)
	if err != nil || count != 4 {
		t.Fatalf("ReadCommitted: %d records, %v", count, err)
	}
	var payloads [][]byte
	if _, torn, err := wal.ScanSegment(bytes.NewReader(frames), func(p []byte) error {
		payloads = append(payloads, append([]byte(nil), p...))
		return nil
	}); err != nil || torn {
		t.Fatalf("committed frames scan: err %v, torn %v", err, torn)
	}

	f, _ := durable(t)
	f.SetFollower(tsP.URL)

	// A gap is refused before anything is journaled.
	if err := f.ApplyReplicated(2, payloads[1]); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("gapped apply: %v, want a replication-gap error", err)
	}
	for i, payload := range payloads {
		if err := f.ApplyReplicated(wal.LSN(i+1), payload); err != nil {
			t.Fatalf("apply lsn %d: %v", i+1, err)
		}
	}
	// Re-applying an old record is also a gap (already journaled).
	if err := f.ApplyReplicated(2, payloads[1]); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("replayed apply: %v, want a replication-gap error", err)
	}
	// The follower is bit-identical to the primary.
	dp, err := p.DebugState()
	if err != nil {
		t.Fatal(err)
	}
	df, err := f.DebugState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dp, df) {
		t.Fatalf("replicated state differs:\n%s\nvs\n%s", dp, df)
	}
	// And without persistence, replication is refused outright.
	m := New(Config{Alpha: 0.5, Seed: 1})
	m.SetFollower(tsP.URL)
	if err := m.ApplyReplicated(1, payloads[0]); err == nil {
		t.Fatal("in-memory ApplyReplicated succeeded, want an error")
	}
}

func TestFollowerMutationRoutesAnswer421(t *testing.T) {
	s, _ := durable(t)
	s.SetFollower("http://primary.example:7171")
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	mutations := []struct{ method, path string }{
		{"POST", "/v1/workers"},
		{"PUT", "/v1/workers/ann"},
		{"DELETE", "/v1/workers/ann"},
		{"POST", "/v1/votes"},
		{"POST", "/v1/votes/batch"},
		{"POST", "/v1/sessions"},
		{"POST", "/v1/sessions/s1/votes"},
		{"DELETE", "/v1/sessions/s1"},
		{"POST", "/v1/multi/pools"},
		{"DELETE", "/v1/multi/pools/p"},
		{"POST", "/v1/multi/pools/p/workers"},
		{"POST", "/v1/multi/pools/p/votes"},
	}
	for _, m := range mutations {
		req, err := http.NewRequest(m.method, ts.URL+m.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMisdirectedRequest {
			t.Errorf("%s %s = %d, want 421", m.method, m.path, resp.StatusCode)
		}
		if got := resp.Header.Get(PrimaryHeader); got != "http://primary.example:7171" {
			t.Errorf("%s %s %s = %q, want the primary's address", m.method, m.path, PrimaryHeader, got)
		}
	}
	// Reads still serve.
	resp, err := http.Get(ts.URL + "/v1/workers")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("follower read: %v %d, want 200", err, resp.StatusCode)
	}
	resp.Body.Close()
}

func TestFollowerReadyzGatesOnMaxLag(t *testing.T) {
	cfg := Config{Alpha: 0.5, Seed: 1, DataDir: t.TempDir(), MaxLag: 50 * time.Millisecond}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.SetFollower("http://primary.example:7171")
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Never caught up and past the bound: stale.
	time.Sleep(60 * time.Millisecond)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), `"stale":true`) {
		t.Fatalf("stale follower readyz: %d %s, want 503 stale", resp.StatusCode, body)
	}

	// One caught-up contact makes it ready.
	s.ReplObserve(0, true)
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"follower":true`) {
		t.Fatalf("caught-up follower readyz: %d %s, want 200 follower", resp.StatusCode, body)
	}
}

func TestFollowerMetricsExposition(t *testing.T) {
	s, _ := durable(t)
	s.SetFollower("http://primary.example:7171")
	s.ReplObserve(7, true)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"juryd_follower 1",
		"juryd_repl_connected 1",
		"juryd_repl_applied_lsn 0",
		"juryd_repl_primary_durable_lsn 7",
		"juryd_repl_lag_records 7",
		"juryd_repl_lag_seconds",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// A primary exposes none of the follower gauges.
	p, _ := durable(t)
	tsP := httptest.NewServer(p.Handler())
	t.Cleanup(tsP.Close)
	resp, err = http.Get(tsP.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(body), "juryd_follower") {
		t.Error("primary metrics expose juryd_follower")
	}
}

// TestReplStatusInPersistenceDebug asserts the follower block and the
// convergence fingerprint surface in GET /debug/persistence.
func TestReplStatusInPersistenceDebug(t *testing.T) {
	s, _ := durable(t)
	s.SetFollower("http://primary.example:7171")
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/debug/persistence")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st PersistenceStatus
	mustDecode(t, raw, &st)
	if st.Repl == nil || st.Repl.Primary != "http://primary.example:7171" {
		t.Fatalf("persistence status repl = %+v, want the follower block", st.Repl)
	}
	if st.StateSHA256 == "" || len(st.StateSHA256) != 64 {
		t.Fatalf("state_sha256 = %q, want a sha-256 hex digest", st.StateSHA256)
	}
	if st.DurableLSN != 0 {
		t.Fatalf("durable_lsn = %d, want 0 on an empty log", st.DurableLSN)
	}
}

// TestReplStreamReadFaults: when the committed-prefix read fails the
// stream answers 500, and when a segment vanished it answers 410 with
// the horizon — in both cases a JSON error, never a partial frame batch.
func TestReplStreamReadFaults(t *testing.T) {
	dir := t.TempDir()
	fsys := errfs.New(wal.OSFS())
	s, err := Open(Config{Alpha: 0.5, Seed: 1, DataDir: dir, SegmentBytes: 64, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.ClosePersistence() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	journalSome(t, ts.URL, 4) // 5 records, one segment each

	stream := func(want int) http.Header {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/repl/stream?from=0&epoch=1&follower_id=f&wait_ms=10")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("stream: %d %s, want %d", resp.StatusCode, body, want)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("stream %d shipped Content-Type %q, want a JSON error", want, ct)
		}
		if resp.Header.Get(ReplFirstLSNHeader) != "" {
			t.Fatalf("stream %d carries frame headers: %v", want, resp.Header)
		}
		var e ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Fatalf("stream %d body %q is not an error document", want, body)
		}
		return resp.Header
	}

	fsys.Add(errfs.Fault{Op: errfs.OpRead, Path: "wal-", Times: 1})
	stream(http.StatusInternalServerError)

	// The first segment disappears behind the log.
	if err := os.Remove(filepath.Join(dir, "wal-0000000000000001.log")); err != nil {
		t.Fatal(err)
	}
	if h := stream(http.StatusGone); h.Get(ReplOldestLSNHeader) == "" {
		t.Fatalf("410 without %s", ReplOldestLSNHeader)
	}
}

// metricsText scrapes a server's /metrics exposition.
func metricsText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestReplStreamReadsBySource pins juryd_repl_stream_reads_total: a
// caught-up poll is answered from the newest segment's in-memory tail
// and counts source="tail"; a poll from LSN 1, which a rotation sealed
// into an older segment, reads the files and counts source="disk".
func TestReplStreamReadsBySource(t *testing.T) {
	s, err := Open(Config{Alpha: 0.5, Seed: 1, DataDir: t.TempDir(), SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.ClosePersistence() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	journalSome(t, ts.URL, 4) // 5 records, one segment each

	poll := func(from int, want int) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/repl/stream?epoch=1&follower_id=f&wait_ms=10&from=" + strconv.Itoa(from))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(scanStream(t, body)) != want {
			t.Fatalf("stream from %d: %d, want 200 with %d records", from, resp.StatusCode, want)
		}
	}
	counts := func(tail, disk int) {
		t.Helper()
		m := metricsText(t, ts.URL)
		for _, line := range []string{
			`juryd_repl_stream_reads_total{source="tail"} ` + strconv.Itoa(tail) + "\n",
			`juryd_repl_stream_reads_total{source="disk"} ` + strconv.Itoa(disk) + "\n",
		} {
			if !strings.Contains(m, line) {
				t.Fatalf("metrics lack %q:\n%s", line, m)
			}
		}
	}
	counts(0, 0)
	poll(4, 1) // caught up: the newest record
	counts(1, 0)
	poll(0, 5) // from LSN 1, behind the rotation
	counts(1, 1)
}
