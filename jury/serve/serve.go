// Package serve is the client side of the juryd serving subsystem: a thin
// HTTP client over the daemon's JSON API, sharing one set of wire types
// with the server so the library and the service expose the same surface.
//
// A deployment registers its worker pool once, streams graded vote events
// as tasks resolve (each event refines the worker's quality via a Bayesian
// posterior update on the server), and asks for juries whenever a new task
// needs one — repeated selections on an unchanged pool are answered from
// the daemon's selection cache.
//
//	c := serve.NewClient("http://localhost:8700")
//	c.RegisterWorkers(ctx, []serve.WorkerSpec{{ID: "ann", Quality: 0.8, Cost: 3}, ...})
//	res, err := c.Select(ctx, serve.SelectRequest{Budget: 15})
//	// res.Jury, res.JQ, res.Cached
package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/server"
	"repro/internal/voting"
)

// voteOf converts a 0/1 answer to the wire vote type; out-of-range values
// are passed through and rejected by the daemon.
func voteOf(v int) voting.Vote { return voting.Vote(v) }

// The wire types, shared verbatim with the daemon.
type (
	// WorkerSpec registers or updates one worker.
	WorkerSpec = server.WorkerSpec
	// WorkerInfo is one registered worker's current state.
	WorkerInfo = server.WorkerInfo
	// VoteEvent is one graded vote: the worker answered and was (in)correct.
	VoteEvent = server.VoteEvent
	// SelectRequest asks for the best jury within a budget.
	SelectRequest = server.SelectRequest
	// SelectResponse is the selected jury, with Cached provenance.
	SelectResponse = server.SelectResponse
	// BatchSelectRequest asks for one selection per budget.
	BatchSelectRequest = server.BatchSelectRequest
	// JuryMember is one selected worker.
	JuryMember = server.JuryMember
	// SessionRequest opens an online collection session.
	SessionRequest = server.SessionRequest
	// SessionState reports a session's progress.
	SessionState = server.SessionState
	// IngestResponse reports a vote-ingestion outcome.
	IngestResponse = server.IngestResponse
	// ListResponse lists the registry.
	ListResponse = server.ListResponse
	// PersistenceStatus reports the daemon's durability/recovery state.
	PersistenceStatus = server.PersistenceStatus
	// RecoveryStatus describes what boot-time recovery reconstructed.
	RecoveryStatus = server.RecoveryStatus
	// MultiWorkerSpec registers one confusion-matrix worker.
	MultiWorkerSpec = server.MultiWorkerSpec
	// MultiWorkerInfo is one multi-choice worker's current state.
	MultiWorkerInfo = server.MultiWorkerInfo
	// MultiCreateRequest creates a multi-choice pool.
	MultiCreateRequest = server.MultiCreateRequest
	// MultiPoolInfo is one multi-choice pool's full state.
	MultiPoolInfo = server.MultiPoolInfo
	// MultiPoolSummary is one pool in a listing.
	MultiPoolSummary = server.MultiPoolSummary
	// MultiVoteEvent is one graded multi-label vote (worker, truth, vote).
	MultiVoteEvent = server.MultiVoteEvent
	// MultiIngestResponse reports a multi-label vote-ingestion outcome.
	MultiIngestResponse = server.MultiIngestResponse
	// MultiRegisterResponse confirms a multi-choice registration.
	MultiRegisterResponse = server.MultiRegisterResponse
	// MultiSelectRequest asks for the best multi-choice jury in a budget.
	MultiSelectRequest = server.MultiSelectRequest
	// MultiSelectResponse is the selected multi-choice jury.
	MultiSelectResponse = server.MultiSelectResponse
	// MultiJQRequest asks for the Jury Quality of an explicit jury.
	MultiJQRequest = server.MultiJQRequest
	// MultiJQResponse reports the computed Jury Quality.
	MultiJQResponse = server.MultiJQResponse
	// ReplStatus reports a node's replication position and epoch.
	ReplStatus = server.ReplStatus
	// PromoteRequest asks a follower to become the writable primary.
	PromoteRequest = server.PromoteRequest
	// PromoteResponse reports a promotion outcome.
	PromoteResponse = server.PromoteResponse
	// FenceRequest forbids a stale ex-primary from accepting writes.
	FenceRequest = server.FenceRequest
	// FenceResponse reports a fencing outcome.
	FenceResponse = server.FenceResponse
	// RepointRequest re-targets a follower at a new primary.
	RepointRequest = server.RepointRequest
	// RepointResponse confirms a follower's new upstream.
	RepointResponse = server.RepointResponse
)

// Client talks to one juryd daemon. The zero value is not usable; create
// with NewClient.
//
// The client is retry-safe by construction: transient failures (429
// shed, 503 degraded/draining, lost replies on idempotent requests)
// retry automatically under the client's RetryPolicy, and every vote
// ingest carries a generated Idempotency-Key so a replay the server
// already applied is deduplicated rather than double-counted. See
// RetryPolicy for the exact classification.
type Client struct {
	base     string
	replicas []string
	http     *http.Client
	retry    RetryPolicy
}

// NewClient returns a client for the daemon at baseURL (e.g.
// "http://localhost:8700"). The default http.Client and retry policy
// are used; use WithHTTPClient for custom transports or timeouts and
// WithRetry to tune or disable retries.
func NewClient(baseURL string) *Client {
	return &Client{
		base:  strings.TrimRight(baseURL, "/"),
		http:  http.DefaultClient,
		retry: DefaultRetryPolicy(),
	}
}

// WithHTTPClient substitutes the underlying HTTP client and returns c.
func (c *Client) WithHTTPClient(hc *http.Client) *Client {
	c.http = hc
	return c
}

// WithReplicas registers the addresses of the other cluster nodes
// (juryd followers) and returns c. Read requests — GETs and the
// read-only POST routes (selections, JQ evaluations) — are served from
// the replicas, failing over across the list and finally the primary as
// retry attempts progress. Mutations start at the primary but rotate
// across the replicas on retryable failures, so the client survives a
// failover: a follower answers a misdirected write with 421 and the
// live primary's address, which the client follows at most once per
// attempt (so a stale replica list still lands writes correctly, while
// a misconfigured loop cannot bounce forever).
func (c *Client) WithReplicas(urls ...string) *Client {
	c.replicas = c.replicas[:0]
	for _, u := range urls {
		c.replicas = append(c.replicas, strings.TrimRight(u, "/"))
	}
	return c
}

// APIError is a non-2xx reply from the daemon.
type APIError struct {
	Status  int
	Message string
	// RetryAfter is the server's Retry-After hint, when it gave one
	// (overload sheds and degraded/draining 503s do).
	RetryAfter time.Duration
	// Primary is the primary's address from X-Juryd-Primary, set on a
	// 421 — the daemon is a read-only replica and mutations belong there.
	Primary string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("juryd: %d: %s", e.Status, e.Message)
}

// do runs one JSON request through the retry loop. in may be nil (no
// body); out may be nil (discard body). GET, PUT and DELETE are
// idempotent by HTTP semantics; a POST must opt in via doIdem (read-only
// selections) or a keyed call (deduplicated ingests).
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	return c.call(ctx, method, path, in, out, callOpts{
		idempotent: method != http.MethodPost,
		read:       method == http.MethodGet,
	})
}

// doIdem runs one JSON request that is idempotent regardless of method —
// POST routes that only read (selections, JQ evaluations), which the
// daemon answers from pure registry state and its selection cache.
func (c *Client) doIdem(ctx context.Context, method, path string, in, out any) error {
	return c.call(ctx, method, path, in, out, callOpts{idempotent: true, read: true})
}

// RegisterWorkers registers a batch of new workers.
func (c *Client) RegisterWorkers(ctx context.Context, specs []WorkerSpec) error {
	return c.do(ctx, http.MethodPost, "/v1/workers", server.RegisterRequest{Workers: specs}, nil)
}

// Workers lists the registry in registration order.
func (c *Client) Workers(ctx context.Context) (ListResponse, error) {
	var out ListResponse
	err := c.do(ctx, http.MethodGet, "/v1/workers", nil, &out)
	return out, err
}

// Worker fetches one worker's state.
func (c *Client) Worker(ctx context.Context, id string) (WorkerInfo, error) {
	var out WorkerInfo
	err := c.do(ctx, http.MethodGet, "/v1/workers/"+url.PathEscape(id), nil, &out)
	return out, err
}

// UpdateWorker replaces a worker's quality and cost (resets its posterior).
func (c *Client) UpdateWorker(ctx context.Context, spec WorkerSpec) (WorkerInfo, error) {
	var out WorkerInfo
	err := c.do(ctx, http.MethodPut, "/v1/workers/"+url.PathEscape(spec.ID), spec, &out)
	return out, err
}

// RemoveWorker deregisters a worker.
func (c *Client) RemoveWorker(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/workers/"+url.PathEscape(id), nil, nil)
}

// IngestVote feeds one graded vote event into the daemon, under a fresh
// Idempotency-Key so retries (the client's own or the caller's) apply it
// exactly once.
func (c *Client) IngestVote(ctx context.Context, ev VoteEvent) (IngestResponse, error) {
	return c.IngestVoteKeyed(ctx, ev, NewIdempotencyKey())
}

// IngestVoteKeyed feeds one graded vote event under a caller-chosen
// Idempotency-Key (see NewIdempotencyKey). Response.Duplicate reports a
// replay the server had already applied.
func (c *Client) IngestVoteKeyed(ctx context.Context, ev VoteEvent, key string) (IngestResponse, error) {
	var out IngestResponse
	err := c.call(ctx, http.MethodPost, "/v1/votes", ev, &out, callOpts{key: key})
	return out, err
}

// IngestVotes feeds a batch of graded vote events atomically, under a
// fresh Idempotency-Key so retries apply the batch exactly once.
func (c *Client) IngestVotes(ctx context.Context, events []VoteEvent) (IngestResponse, error) {
	return c.IngestVotesKeyed(ctx, events, NewIdempotencyKey())
}

// IngestVotesKeyed feeds a batch atomically under a caller-chosen
// Idempotency-Key.
func (c *Client) IngestVotesKeyed(ctx context.Context, events []VoteEvent, key string) (IngestResponse, error) {
	var out IngestResponse
	err := c.call(ctx, http.MethodPost, "/v1/votes/batch",
		server.IngestRequest{Events: events}, &out, callOpts{key: key})
	return out, err
}

// Select solves the Jury Selection Problem on the daemon's current pool.
// Selections are read-only, so lost replies retry transparently.
func (c *Client) Select(ctx context.Context, req SelectRequest) (SelectResponse, error) {
	var out SelectResponse
	err := c.doIdem(ctx, http.MethodPost, "/v1/select", req, &out)
	return out, err
}

// SelectBatch solves one selection per budget; result i answers
// req.Budgets[i].
func (c *Client) SelectBatch(ctx context.Context, req BatchSelectRequest) ([]SelectResponse, error) {
	var out server.BatchSelectResponse
	err := c.doIdem(ctx, http.MethodPost, "/v1/select/batch", req, &out)
	return out.Selections, err
}

// OpenSession starts an online collection session.
func (c *Client) OpenSession(ctx context.Context, req SessionRequest) (SessionState, error) {
	var out SessionState
	err := c.do(ctx, http.MethodPost, "/v1/sessions", req, &out)
	return out, err
}

// SessionVote feeds one vote into a session; the evidence weight is the
// worker's current registry quality.
func (c *Client) SessionVote(ctx context.Context, sessionID, workerID string, vote int) (SessionState, error) {
	var out SessionState
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+url.PathEscape(sessionID)+"/votes",
		server.SessionVoteRequest{WorkerID: workerID, Vote: voteOf(vote)}, &out)
	return out, err
}

// Session fetches a session's state.
func (c *Client) Session(ctx context.Context, id string) (SessionState, error) {
	var out SessionState
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+url.PathEscape(id), nil, &out)
	return out, err
}

// CloseSession removes a session.
func (c *Client) CloseSession(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/sessions/"+url.PathEscape(id), nil, nil)
}

// CreateMultiPool creates a named multi-choice pool of confusion-matrix
// workers.
func (c *Client) CreateMultiPool(ctx context.Context, req MultiCreateRequest) (MultiRegisterResponse, error) {
	var out MultiRegisterResponse
	err := c.do(ctx, http.MethodPost, "/v1/multi/pools", req, &out)
	return out, err
}

// MultiPools lists the multi-choice pools in creation order.
func (c *Client) MultiPools(ctx context.Context) ([]MultiPoolSummary, error) {
	var out server.MultiPoolsResponse
	err := c.do(ctx, http.MethodGet, "/v1/multi/pools", nil, &out)
	return out.Pools, err
}

// MultiPool fetches one pool's full state.
func (c *Client) MultiPool(ctx context.Context, name string) (MultiPoolInfo, error) {
	var out MultiPoolInfo
	err := c.do(ctx, http.MethodGet, "/v1/multi/pools/"+url.PathEscape(name), nil, &out)
	return out, err
}

// DropMultiPool deletes a pool and all its workers.
func (c *Client) DropMultiPool(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/v1/multi/pools/"+url.PathEscape(name), nil, nil)
}

// RegisterMultiWorkers adds workers to an existing multi-choice pool.
func (c *Client) RegisterMultiWorkers(ctx context.Context, pool string, specs []MultiWorkerSpec) (MultiRegisterResponse, error) {
	var out MultiRegisterResponse
	err := c.do(ctx, http.MethodPost, "/v1/multi/pools/"+url.PathEscape(pool)+"/workers",
		server.MultiRegisterRequest{Workers: specs}, &out)
	return out, err
}

// IngestMultiVotes feeds a batch of graded multi-label vote events
// atomically; each is one Dirichlet posterior step on the voting
// worker's confusion matrix. The batch carries a fresh Idempotency-Key
// so retries apply it exactly once.
func (c *Client) IngestMultiVotes(ctx context.Context, pool string, events []MultiVoteEvent) (MultiIngestResponse, error) {
	return c.IngestMultiVotesKeyed(ctx, pool, events, NewIdempotencyKey())
}

// IngestMultiVotesKeyed feeds a multi-label batch under a caller-chosen
// Idempotency-Key.
func (c *Client) IngestMultiVotesKeyed(ctx context.Context, pool string, events []MultiVoteEvent, key string) (MultiIngestResponse, error) {
	var out MultiIngestResponse
	err := c.call(ctx, http.MethodPost, "/v1/multi/pools/"+url.PathEscape(pool)+"/votes",
		server.MultiIngestRequest{Events: events}, &out, callOpts{key: key})
	return out, err
}

// MultiSelect solves the multi-choice Jury Selection Problem on one
// pool's current state.
func (c *Client) MultiSelect(ctx context.Context, pool string, req MultiSelectRequest) (MultiSelectResponse, error) {
	var out MultiSelectResponse
	err := c.doIdem(ctx, http.MethodPost, "/v1/multi/pools/"+url.PathEscape(pool)+"/select", req, &out)
	return out, err
}

// MultiJQ computes the Jury Quality of an explicit jury drawn from a
// pool, under the optimal (Bayesian) strategy.
func (c *Client) MultiJQ(ctx context.Context, pool string, req MultiJQRequest) (MultiJQResponse, error) {
	var out MultiJQResponse
	err := c.doIdem(ctx, http.MethodPost, "/v1/multi/pools/"+url.PathEscape(pool)+"/jq", req, &out)
	return out, err
}

// Promote asks the daemon at the client's base URL — normally a
// follower — to become the writable primary under a new epoch. The call
// is addressed to that one node: it neither rotates across replicas nor
// follows 421 redirects, and it is safe to replay (promotion is
// idempotent per epoch; an already-primary node answers AlreadyPrimary).
// If the response reports OldPrimaryFenced false, the old primary was
// unreachable and MUST be fenced (Fence, against it) or wiped before it
// is allowed to serve again.
func (c *Client) Promote(ctx context.Context, req PromoteRequest) (PromoteResponse, error) {
	var out PromoteResponse
	err := c.call(ctx, http.MethodPost, "/v1/repl/promote", req, &out, callOpts{idempotent: true, sticky: true})
	return out, err
}

// Fence forbids the daemon at the client's base URL from accepting
// writes under any epoch below req.Epoch, directing clients to
// req.Primary instead. Addressed to that one node; safe to replay.
func (c *Client) Fence(ctx context.Context, req FenceRequest) (FenceResponse, error) {
	var out FenceResponse
	err := c.call(ctx, http.MethodPost, "/v1/repl/fence", req, &out, callOpts{idempotent: true, sticky: true})
	return out, err
}

// Repoint re-targets the follower at the client's base URL at a new
// primary URL, effective from its next replication batch or stream.
// Addressed to that one node; safe to replay.
func (c *Client) Repoint(ctx context.Context, req RepointRequest) (RepointResponse, error) {
	var out RepointResponse
	err := c.call(ctx, http.MethodPost, "/v1/repl/repoint", req, &out, callOpts{idempotent: true, sticky: true})
	return out, err
}

// Health checks daemon liveness.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Persistence reports the daemon's durability state: whether it runs
// with a WAL, the recovery summary of its last boot (snapshot LSN,
// records replayed, torn bytes truncated), and the current log position.
func (c *Client) Persistence(ctx context.Context) (PersistenceStatus, error) {
	var out PersistenceStatus
	err := c.do(ctx, http.MethodGet, "/debug/persistence", nil, &out)
	return out, err
}

// Metrics returns the raw Prometheus-style metrics text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode >= 400 {
		return "", &APIError{Status: resp.StatusCode, Message: string(data)}
	}
	return string(data), nil
}
