package server

import (
	"context"
	"encoding/binary"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wal"
	"repro/internal/wal/errfs"
)

// openStream opens a replication stream the way a follower does: a GET
// whose chunked body is a pipe the test writes confirmations into. The
// caller closes the pipe and the response body.
func openStream(t *testing.T, url, query string) (*http.Response, *io.PipeWriter) {
	t.Helper()
	confirms, w := io.Pipe()
	req, err := http.NewRequest(http.MethodGet, url+"/v1/repl/stream?"+query, confirms)
	if err != nil {
		t.Fatal(err)
	}
	req.TransferEncoding = []string{"chunked"}
	client := &http.Client{Transport: &http.Transport{}}
	t.Cleanup(client.CloseIdleConnections)
	resp, err := client.Do(req)
	if err != nil {
		w.Close()
		t.Fatal(err)
	}
	return resp, w
}

// confirm writes one confirmation up a stream's body.
func confirm(t *testing.T, w io.Writer, lsn wal.LSN) {
	t.Helper()
	var buf [ReplConfirmBytes]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(lsn))
	if _, err := w.Write(buf[:]); err != nil {
		t.Fatalf("confirm %d: %v", lsn, err)
	}
}

// ingestVote journals one vote through the API.
func ingestVote(t *testing.T, url string) {
	t.Helper()
	resp, raw := postJSON(t, url+"/v1/votes/batch", IngestRequest{Events: []VoteEvent{{WorkerID: "ann", Correct: true}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %s", resp.StatusCode, raw)
	}
}

// metricValue reads one series off /metrics; -1 when absent.
func metricValue(t *testing.T, url, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(metricsText(t, url), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	return -1
}

// waitMetric polls /metrics until series reads want, failing after 5 s.
func waitMetric(t *testing.T, url, series string, want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := metricValue(t, url, series)
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s = %g, want %g", series, got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplStreamConfirmOutOfRangeEndsStream: a confirmation above the
// last LSN the stream shipped, or not above the previous one, ends the
// stream with nothing recorded; one in range is recorded.
func TestReplStreamConfirmOutOfRangeEndsStream(t *testing.T) {
	s, _ := durable(t)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	journalSome(t, ts.URL, 2) // 3 records

	for _, tc := range []struct {
		name string
		lsn  wal.LSN
	}{
		{"above the last shipped", 4},
		{"not above the previous", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			id := "f-" + strconv.Itoa(int(tc.lsn))
			resp, w := openStream(t, ts.URL, "from=1&epoch=1&follower_id="+id+"&wait_ms=30000")
			defer resp.Body.Close()
			defer w.Close()
			b, err := readBatch(resp.Body)
			if err != nil || len(b.payloads) != 2 {
				t.Fatalf("first batch: %d records, %v; want 2", len(b.payloads), err)
			}
			confirm(t, w, tc.lsn)
			ended := make(chan error, 1)
			go func() {
				_, err := readBatch(resp.Body)
				ended <- err
			}()
			select {
			case err := <-ended:
				if err != io.EOF {
					t.Fatalf("stream after a confirmation of %d: %v, want its end", tc.lsn, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("a confirmation of %d did not end the stream", tc.lsn)
			}
			if got := s.quorum.snapshot()[id]; got != 1 {
				t.Fatalf("quorum table holds %d for %s, want only the from, 1", got, id)
			}
		})
	}

	resp, w := openStream(t, ts.URL, "from=1&epoch=1&follower_id=good&wait_ms=30000")
	defer resp.Body.Close()
	defer w.Close()
	if _, err := readBatch(resp.Body); err != nil {
		t.Fatal(err)
	}
	confirm(t, w, 3)
	deadline := time.Now().Add(5 * time.Second)
	for s.quorum.snapshot()["good"] != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("confirmation of the shipped 3 not recorded: %v", s.quorum.snapshot())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplStreamShipsCommitsOnOneRequest: one stream ships consecutive
// commits as batches, each carrying the watermark, while the stream
// route counts one request, and the repl_read stage counts one read per
// batch.
func TestReplStreamShipsCommitsOnOneRequest(t *testing.T) {
	s, _ := durable(t)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	journalSome(t, ts.URL, 0) // 1 record
	const route = `juryd_requests_total{route="GET /v1/repl/stream"}`
	const reads = `juryd_stage_duration_seconds_count{stage="repl_read"}`
	requests := max(metricValue(t, ts.URL, route), 0)
	if got := metricValue(t, ts.URL, reads); got != -1 {
		t.Fatalf("%s = %g before any stream", reads, got)
	}

	// An open answers once it has a batch: from 0, the one record.
	resp, w := openStream(t, ts.URL, "from=0&epoch=1&follower_id=f&wait_ms=30000")
	defer w.Close()
	if b, err := readBatch(resp.Body); err != nil || len(b.payloads) != 1 {
		t.Fatalf("first batch: %d records, %v; want 1", len(b.payloads), err)
	}
	confirm(t, w, 1)
	for i := 1; i <= 3; i++ {
		ingestVote(t, ts.URL)
		b, err := readBatch(resp.Body)
		if err != nil || len(b.payloads) != 1 || b.durable != wal.LSN(1+i) {
			t.Fatalf("batch %d: %d records at watermark %d, %v; want 1 at %d", i, len(b.payloads), b.durable, err, 1+i)
		}
		confirm(t, w, wal.LSN(1+i))
		if got := metricValue(t, ts.URL, reads); got != float64(1+i) {
			t.Fatalf("after batch %d: %s = %g, want %d", i, reads, got, 1+i)
		}
		if got := max(metricValue(t, ts.URL, route), 0); got != requests {
			t.Fatalf("after batch %d: %s = %g, want %g while the stream is open", i, route, got, requests)
		}
	}
	resp.Body.Close()
	waitMetric(t, ts.URL, route, requests+1)
	if got := s.quorum.snapshot()["f"]; got != 4 {
		t.Fatalf("quorum table holds %d for f, want 4", got)
	}
}

// TestReplStreamIdleEndsWithBodyOpen: a stream with nothing to ship ends
// at wait_ms even while the follower keeps its body open — the handler
// stops its confirmation reader rather than waiting on the body.
func TestReplStreamIdleEndsWithBodyOpen(t *testing.T) {
	s, _ := durable(t)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	journalSome(t, ts.URL, 0) // 1 record

	start := time.Now()
	resp, w := openStream(t, ts.URL, "from=0&epoch=1&follower_id=f&wait_ms=300")
	defer w.Close()
	defer resp.Body.Close()
	if _, err := readBatch(resp.Body); err != nil {
		t.Fatal(err)
	}
	confirm(t, w, 1)
	if _, err := readBatch(resp.Body); err != io.EOF {
		t.Fatalf("idle stream: %v, want its end", err)
	}
	if took := time.Since(start); took < 300*time.Millisecond || took > 5*time.Second {
		t.Fatalf("idle stream ended after %v, want about wait_ms (300 ms)", took)
	}
}

// TestReplStreamOnDegradedPrimaryParks: a caught-up stream on a primary
// whose WAL failed parks until wait_ms like an idle one, instead of
// answering at once — a follower re-asking after every answer would
// otherwise spin against the primary. The drain still releases it.
func TestReplStreamOnDegradedPrimaryParks(t *testing.T) {
	s, ts, fsys := newDurableFaultServer(t) // LSN 1 durable
	fsys.Add(errfs.Fault{Op: errfs.OpWrite, Path: "wal-"})
	if resp := ingestOne(t, ts.URL, "w0", ""); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("faulted ingest: %d, want 503", resp.StatusCode)
	}
	if degraded, _ := s.DegradedState(); !degraded {
		t.Fatal("server did not degrade")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	var answers atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ctx.Err() == nil {
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
				ts.URL+"/v1/repl/stream?from=1&epoch=1&follower_id=f&wait_ms=200", nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent || resp.Header.Get(ReplDurableLSNHeader) != "1" {
				t.Errorf("caught-up stream on a degraded primary: %d with %s %q, want 204 with 1",
					resp.StatusCode, ReplDurableLSNHeader, resp.Header.Get(ReplDurableLSNHeader))
			}
			answers.Add(1)
		}
	}()
	<-done
	if n := answers.Load(); n < 1 || n > 3 {
		t.Fatalf("%d answers in 500 ms at wait_ms=200, want 1 to 3", n)
	}

	released := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/repl/stream?from=1&epoch=1&follower_id=f&wait_ms=30000")
		if err != nil {
			released <- 0
			return
		}
		resp.Body.Close()
		released <- resp.StatusCode
	}()
	time.Sleep(30 * time.Millisecond) // let it park
	s.BeginDrain()
	select {
	case code := <-released:
		if code != http.StatusNoContent {
			t.Fatalf("parked stream at drain: %d, want 204", code)
		}
	case <-time.After(time.Second):
		t.Fatal("a stream parked on a degraded primary outlived BeginDrain by 1 s")
	}
}
