// Package repl drives the follower side of juryd's primary → follower
// WAL log shipping. A Follower opens one long-lived GET /v1/repl/stream
// from its local applied LSN, applies each batch the primary ships
// through Server.ApplyReplicated (journal to the local log, then the same
// Apply paths crash recovery uses — so the replica's state is
// bit-identical to the primary's at every LSN), and writes its applied
// LSN up the request body after each batch: the confirmation the
// primary's quorum-gated acks wait for. It reopens the stream when the
// primary ends it, and reconnects with jittered exponential backoff on
// stream loss. Every stream names the follower by the identity its data
// dir keeps (follower-id, Server.FollowerID), so the primary counts a
// restarted follower's quorum confirmations once. Bootstrap installs a
// primary's snapshot into a data directory without log state
// (wal.HasState) so a brand new (or truncation-stranded) follower can
// join without replaying the primary's full history.
package repl

import (
	"bufio"
	"context"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/server"
	"repro/internal/wal"
)

// Terminal follower errors: Run returns them when continuing is either
// impossible or unsafe, and the operator (or boot path) must intervene.
var (
	// ErrSnapshotNeeded means the follower's applied position is behind
	// the primary's truncation horizon: the records it needs no longer
	// exist as a log. Recover by wiping the local data dir and
	// re-bootstrapping from the primary's snapshot.
	ErrSnapshotNeeded = errors.New("repl: follower is behind the primary's truncation horizon; re-bootstrap from its snapshot")
	// ErrDiverged means the follower's log is ahead of the primary's, or
	// was written under a different epoch at the same LSN — the follower
	// was fed by a different history (e.g. it used to be a primary
	// itself, with acked-but-never-shipped records). Continuing would
	// silently fork state; recover by wiping and re-bootstrapping.
	ErrDiverged = errors.New("repl: follower log diverged from primary")
	// ErrPromoted means this node was promoted to primary while the
	// stream loop ran: replication stopped because the node now writes
	// its own log. Not a failure — the caller should keep serving.
	ErrPromoted = errors.New("repl: this node was promoted to primary; replication stopped")
)

// Options tunes a Follower. The zero value is production-ready.
type Options struct {
	// Wait is how long the primary should keep a stream open with
	// nothing to ship (wait_ms); 0 selects 10s.
	Wait time.Duration
	// MinBackoff and MaxBackoff bound the jittered exponential reconnect
	// backoff after a failed stream request; 0 selects 100ms and 5s.
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// Logf, when set, receives connection-lifecycle lines ("connected",
	// "stream error ..., retrying"). nil discards them.
	Logf func(format string, args ...any)
}

// Follower replicates one primary into one local Server. Create with
// NewFollower, drive with Run.
type Follower struct {
	srv  *server.Server
	opts Options
	// id keys this follower's row in the primary's quorum-ack table (sent
	// as follower_id on every stream request); it is the data dir's
	// durable identity, so a restarted follower confirms under it again.
	id  string
	rng *rand.Rand
}

// NewFollower binds a local server, opened on its own data dir, to the
// primary it follows: the one SetFollower named, or a later Repoint
// chose. It reads the follower identity from the data dir, creating it
// on first use (Server.FollowerID), and fails if that is impossible.
func NewFollower(srv *server.Server, opts Options) (*Follower, error) {
	id, err := srv.FollowerID()
	if err != nil {
		return nil, fmt.Errorf("repl: follower id: %w", err)
	}
	if opts.Wait <= 0 {
		opts.Wait = 10 * time.Second
	}
	if opts.MinBackoff <= 0 {
		opts.MinBackoff = 100 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 5 * time.Second
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	return &Follower{
		srv:  srv,
		opts: opts,
		id:   id,
		// Math/rand with a time seed is fine here: the jitter only spreads
		// reconnects, it carries no replayed state.
		rng: rand.New(rand.NewSource(time.Now().UnixNano())),
	}, nil
}

// Run streams and applies records until ctx is canceled (returns nil), a
// terminal condition is hit (ErrSnapshotNeeded, ErrDiverged), or the
// local server can no longer apply (degraded local WAL — the returned
// error wraps the cause; the server keeps serving reads at its last
// applied state). Transport errors and 5xx answers are retried forever
// with backoff: a primary restart must not kill its followers.
func (f *Follower) Run(ctx context.Context) error {
	failures := 0
	for {
		if ctx.Err() != nil {
			return nil
		}
		advanced, err := f.stream(ctx)
		switch {
		case err == nil:
			failures = 0
			if !advanced {
				continue // the primary ended an idle stream: reopen at once
			}
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			if ctx.Err() != nil {
				return nil
			}
			failures++
		case errors.Is(err, ErrSnapshotNeeded), errors.Is(err, ErrDiverged):
			return err
		case errors.Is(err, server.ErrNotFollower), !f.srv.IsFollower():
			// Promoted out from under the loop: the node now writes its
			// own log. A clean stop, not a failure.
			return ErrPromoted
		case errors.Is(err, server.ErrDegraded):
			return fmt.Errorf("repl: local apply failed, replication stopped: %w", err)
		default:
			failures++
			f.srv.ReplObserve(0, false)
			f.opts.Logf("repl: stream error (attempt %d): %v", failures, err)
			if !f.sleep(ctx, f.backoff(failures)) {
				return nil
			}
		}
	}
}

// backoff is the jittered exponential reconnect delay after n straight
// failures.
func (f *Follower) backoff(n int) time.Duration {
	d := f.opts.MinBackoff << uint(min(n-1, 16))
	if d <= 0 || d > f.opts.MaxBackoff {
		d = f.opts.MaxBackoff
	}
	return time.Duration(f.rng.Int63n(int64(d)) + 1)
}

// sleep waits d or until ctx cancels; false means canceled.
func (f *Follower) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// stream opens one replication stream from the local applied LSN and
// applies what it ships until the primary ends it, a Repoint moves the
// follower elsewhere (checked at every batch, before it is applied), or
// something fails. advanced reports whether any record was applied. A
// node that is no longer a follower gets server.ErrNotFollower and sends
// nothing.
//
// The stream runs on a connection of its own rather than through an
// http.Client: the request body (the confirmations) only ends with the
// stream, and a client transport whose request fails before its answer
// waits for the body to end first, so the connection's close is the one
// way to end every read and write the stream has in flight.
func (f *Follower) stream(ctx context.Context) (advanced bool, err error) {
	// The target is re-read every stream so a Repoint (after a promotion
	// elsewhere) takes effect without restarting the loop.
	primary := f.srv.PrimaryURL()
	if primary == "" {
		return false, server.ErrNotFollower
	}
	u, err := url.Parse(strings.TrimRight(primary, "/") + "/v1/repl/stream")
	if err != nil {
		return false, err
	}
	from := f.srv.AppliedLSN()
	conn, err := dial(ctx, u)
	if err != nil {
		return false, streamErr(ctx, err)
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	// epoch names the epoch the follower applied `from` under, so the
	// primary can run its log-matching check; follower_id keys this
	// node's row in the primary's quorum-ack table. The confirmations are
	// the chunked request body. Its 100-continue expectation tells a
	// server that never reads the body (one that only answers 204, or an
	// older primary) to answer without first draining a body that does
	// not end until the answer arrives.
	var buf [256]byte
	req := append(buf[:0], "GET "...)
	req = append(req, u.EscapedPath()...)
	req = append(req, "?from="...)
	req = strconv.AppendUint(req, uint64(from), 10)
	req = append(req, "&wait_ms="...)
	req = strconv.AppendInt(req, f.opts.Wait.Milliseconds(), 10)
	req = append(req, "&epoch="...)
	req = strconv.AppendUint(req, f.srv.EpochAt(from), 10)
	req = append(req, "&follower_id="...)
	req = append(req, url.QueryEscape(f.id)...)
	req = append(req, " HTTP/1.1\r\nHost: "...)
	req = append(req, u.Host...)
	req = append(req, "\r\nTransfer-Encoding: chunked\r\nExpect: 100-continue\r\n\r\n"...)
	if _, err := conn.Write(req); err != nil {
		return false, streamErr(ctx, err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	for err == nil && resp.StatusCode == http.StatusContinue {
		resp, err = http.ReadResponse(br, nil)
	}
	if err != nil {
		return false, streamErr(ctx, err)
	}

	switch resp.StatusCode {
	case http.StatusOK:
		// fall through to the batches below
	case http.StatusNoContent:
		f.srv.ReplObserve(headerLSN(resp.Header, server.ReplDurableLSNHeader), true)
		return false, nil
	case http.StatusGone:
		// The diagnosis names the primary the stream actually hit — after
		// a repoint, the *new* one — so the operator (or harness) re-
		// bootstraps from a live node, not the dead address it booted with.
		return false, fmt.Errorf("%w (primary %s, its oldest retained lsn: %d, local applied: %d)",
			ErrSnapshotNeeded, strings.TrimRight(primary, "/"), uint64(headerLSN(resp.Header, server.ReplOldestLSNHeader)), uint64(from))
	case http.StatusConflict:
		// Two very different 409s: a genuinely forked log (terminal), or
		// a deposed primary that has not caught up to our epoch yet (its
		// X-Repl-Epoch is behind ours) — retryable, a repoint or the old
		// primary's own recovery resolves it.
		if he, perr := strconv.ParseUint(resp.Header.Get(server.ReplEpochHeader), 10, 64); perr == nil &&
			he < f.srv.EpochAt(from) {
			return false, fmt.Errorf("repl: primary %s is stale (its epoch %d, ours %d); awaiting repoint",
				primary, he, f.srv.EpochAt(from))
		}
		return false, fmt.Errorf("%w: %s", ErrDiverged, readErrorBody(resp.Body))
	default:
		return false, fmt.Errorf("repl: stream %s: %s: %s", u, resp.Status, readErrorBody(resp.Body))
	}
	if first := headerLSN(resp.Header, server.ReplFirstLSNHeader); first != from+1 {
		return false, fmt.Errorf("repl: stream answered lsn %d, asked for %d", uint64(first), uint64(from+1))
	}

	// Each batch is [u64 durable watermark][u32 byte length][raw WAL
	// frames]. ScanSegment verifies each frame's CRC and hands over the
	// payloads in order; a batch cut short (the connection died mid-
	// frame) keeps its applied prefix and fails the stream, and the next
	// one asks for the rest. Each confirmation is one body chunk.
	var header [server.ReplBatchHeaderBytes]byte
	confirm := []byte("8\r\n01234567\r\n")
	frames := io.LimitedReader{R: resp.Body}
	lsn := from + 1
	apply := func(payload []byte) error {
		if err := f.srv.ApplyReplicated(lsn, payload); err != nil {
			return err
		}
		lsn++
		advanced = true
		return nil
	}
	for {
		if _, err := io.ReadFull(resp.Body, header[:]); err != nil {
			if err == io.EOF {
				return advanced, nil // the primary ended the stream between batches
			}
			return advanced, streamErr(ctx, err)
		}
		if f.srv.PrimaryURL() != primary {
			return advanced, nil // repointed (or promoted): reopen against the current target
		}
		// Record the primary's watermark before applying: if the local
		// apply fails mid-batch, lag must still report how far ahead the
		// primary is.
		durable := wal.LSN(binary.LittleEndian.Uint64(header[0:8]))
		f.srv.ReplObserve(durable, true)
		n := int64(binary.LittleEndian.Uint32(header[8:12]))
		frames.N = n
		valid, torn, err := wal.ScanSegment(&frames, apply)
		if err != nil {
			return advanced, streamErr(ctx, err)
		}
		if torn || valid != n {
			return advanced, fmt.Errorf("repl: stream batch cut short at byte %d of %d", valid, n)
		}
		f.srv.ReplObserve(durable, true)
		binary.LittleEndian.PutUint64(confirm[3:11], uint64(lsn-1))
		if _, err := conn.Write(confirm); err != nil {
			return advanced, streamErr(ctx, err)
		}
	}
}

// dial connects to the host of u, over TLS for an https primary.
func dial(ctx context.Context, u *url.URL) (net.Conn, error) {
	port := u.Port()
	if port == "" {
		port = "80"
		if u.Scheme == "https" {
			port = "443"
		}
	}
	conn, err := new(net.Dialer).DialContext(ctx, "tcp", net.JoinHostPort(u.Hostname(), port))
	if err != nil || u.Scheme != "https" {
		return conn, err
	}
	tc := tls.Client(conn, &tls.Config{ServerName: u.Hostname()})
	if err := tc.HandshakeContext(ctx); err != nil {
		conn.Close()
		return nil, err
	}
	return tc, nil
}

// streamErr reports a stream's I/O failure as the end of its context
// when that is what closed the connection.
func streamErr(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

// headerLSN parses an LSN response header; absent or malformed is 0.
func headerLSN(h http.Header, key string) wal.LSN {
	n, err := strconv.ParseUint(h.Get(key), 10, 64)
	if err != nil {
		return 0
	}
	return wal.LSN(n)
}

// readErrorBody extracts a short diagnostic from an error response.
func readErrorBody(r io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(r, 512))
	return strings.TrimSpace(string(b))
}

// ---------------------------------------------------------------------------
// Bootstrap.

// Bootstrap fetches the primary's snapshot and installs it into dir on
// fsys (nil selects the real filesystem) so a subsequent server.Open on
// the same filesystem recovers the snapshot state and appends shipped
// records from exactly the right LSN. dir must not already hold log
// state (wal.HasState; it may be freshly created). Returns the LSN the
// snapshot covers; 0 means the primary had nothing journaled and the
// follower starts empty.
func Bootstrap(ctx context.Context, fsys wal.FS, primary, dir string) (wal.LSN, error) {
	if fsys == nil {
		fsys = wal.OSFS()
	}
	client := &http.Client{Timeout: 5 * time.Minute}
	base := strings.TrimRight(primary, "/")
	u, err := url.Parse(base + "/v1/repl/snapshot")
	if err != nil {
		return 0, fmt.Errorf("repl: bad primary url %q: %w", primary, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("repl: bootstrap: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return 0, nil // primary has no journaled history: start empty
	case http.StatusOK:
		// fall through
	default:
		return 0, fmt.Errorf("repl: bootstrap %s: %s: %s", u, resp.Status, readErrorBody(resp.Body))
	}
	lsn := headerLSN(resp.Header, server.ReplSnapshotLSNHeader)
	if lsn == 0 {
		return 0, fmt.Errorf("repl: bootstrap: primary sent a snapshot without %s", server.ReplSnapshotLSNHeader)
	}
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("repl: bootstrap read: %w", err)
	}
	if err := wal.WriteSnapshotFS(fsys, dir, lsn, payload); err != nil {
		return 0, fmt.Errorf("repl: bootstrap install: %w", err)
	}
	if err := wal.InitAtFS(fsys, dir, lsn+1); err != nil {
		return 0, fmt.Errorf("repl: bootstrap init log: %w", err)
	}
	return lsn, nil
}
