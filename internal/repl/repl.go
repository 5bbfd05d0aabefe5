// Package repl drives the follower side of juryd's primary → follower
// WAL log shipping. A Follower long-polls the primary's
// GET /v1/repl/stream endpoint from its local applied LSN, verifies and
// applies the shipped frames through Server.ApplyReplicated (journal to
// the local log, then the same Apply paths crash recovery uses — so the
// replica's state is bit-identical to the primary's at every LSN), and
// reconnects with jittered exponential backoff on stream loss. Every
// stream request names the follower by the identity its data dir keeps
// (follower-id, Server.FollowerID), so the primary counts a restarted
// follower's quorum confirmations once. Bootstrap installs a primary's
// snapshot into a data directory without log state (wal.HasState) so a
// brand new (or truncation-stranded) follower can join without
// replaying the primary's full history.
package repl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
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
	// Wait is the long-poll duration the primary should hold an empty
	// stream request open; 0 selects 10s.
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
	id string
	// client has a private transport (not http.DefaultTransport): the
	// follower's keep-alive connections to the primary must not mingle
	// with the process-wide pool, so Run can drop them all when it exits.
	// It sets no overall timeout: the stream long-poll outlives any sane
	// default.
	client *http.Client
	rng    *rand.Rand

	// The stream request's target, parsed once per primary: streamFor
	// is the primary URL it was parsed from, stream its
	// /v1/repl/stream URL, and idQuery the escaped follower_id
	// parameter every poll ends its query with.
	streamFor string
	stream    url.URL
	idQuery   string
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
		srv:     srv,
		opts:    opts,
		id:      id,
		idQuery: "&follower_id=" + url.QueryEscape(id),
		client:  &http.Client{Transport: &http.Transport{}},
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
	// Leave no keep-alive connections behind: a dialed-but-never-used conn
	// sits in http.Server's StateNew, which graceful Shutdown on the
	// primary waits out forever.
	defer f.client.CloseIdleConnections()
	failures := 0
	for {
		if ctx.Err() != nil {
			return nil
		}
		advanced, err := f.poll(ctx)
		switch {
		case err == nil:
			failures = 0
			if !advanced {
				continue // empty long poll: re-request immediately
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

// poll performs one stream request from the local applied LSN and
// applies whatever it ships. advanced reports whether any record was
// applied (false on an empty long poll). A node that is no longer a
// follower gets server.ErrNotFollower and sends nothing.
func (f *Follower) poll(ctx context.Context) (advanced bool, err error) {
	// The target is re-read every poll so a Repoint (after a promotion
	// elsewhere) takes effect without restarting the loop.
	primary := f.srv.PrimaryURL()
	if primary == "" {
		return false, server.ErrNotFollower
	}
	if primary != f.streamFor {
		u, err := url.Parse(strings.TrimRight(primary, "/") + "/v1/repl/stream")
		if err != nil {
			return false, err
		}
		f.streamFor, f.stream = primary, *u
	}
	from := f.srv.AppliedLSN()
	// epoch names the epoch the follower applied `from` under, so the
	// primary can run its log-matching check; follower_id keys this
	// node's row in the primary's quorum-ack table.
	var buf [128]byte
	q := append(buf[:0], "from="...)
	q = strconv.AppendUint(q, uint64(from), 10)
	q = append(q, "&wait_ms="...)
	q = strconv.AppendInt(q, f.opts.Wait.Milliseconds(), 10)
	q = append(q, "&epoch="...)
	q = strconv.AppendUint(q, f.srv.EpochAt(from), 10)
	q = append(q, f.idQuery...)
	u := f.stream
	u.RawQuery = string(q)
	req := (&http.Request{
		Method:     http.MethodGet,
		URL:        &u,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     make(http.Header),
	}).WithContext(ctx)
	resp, err := f.client.Do(req)
	if err != nil {
		return false, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()

	durable := headerLSN(resp.Header, server.ReplDurableLSNHeader)
	switch resp.StatusCode {
	case http.StatusOK:
		// fall through to the body below
	case http.StatusNoContent:
		f.srv.ReplObserve(durable, true)
		return false, nil
	case http.StatusGone:
		// The diagnosis names the primary the poll actually hit — after a
		// repoint, the *new* one — so the operator (or harness) re-
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
		return false, fmt.Errorf("repl: stream %s: %s: %s", &u, resp.Status, readErrorBody(resp.Body))
	}

	first := headerLSN(resp.Header, server.ReplFirstLSNHeader)
	if first != from+1 {
		return false, fmt.Errorf("repl: stream answered lsn %d, asked for %d", uint64(first), uint64(from+1))
	}
	// Record the primary's watermark before applying: if the local apply
	// fails mid-batch, lag must still report how far ahead the primary is.
	f.srv.ReplObserve(durable, true)
	// The body is raw WAL framing: ScanSegment verifies each record's
	// CRC and hands over the payloads in order. A torn tail (the
	// connection died mid-frame) is not an error — the delivered prefix
	// is applied and the next poll re-requests the rest.
	body, err := io.ReadAll(resp.Body)
	if err != nil && len(body) == 0 {
		return false, fmt.Errorf("repl: stream read: %w", err)
	}
	lsn := first
	_, _, scanErr := wal.ScanSegment(bytes.NewReader(body), func(payload []byte) error {
		if err := f.srv.ApplyReplicated(lsn, payload); err != nil {
			return err
		}
		lsn++
		return nil
	})
	if scanErr != nil {
		return lsn > first, scanErr
	}
	f.srv.ReplObserve(durable, true)
	return lsn > first, nil
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
