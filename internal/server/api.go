package server

import (
	"repro/internal/obs"
	"repro/internal/voting"
)

// The JSON wire types of the juryd HTTP API, shared with the public client
// in repro/jury/serve. All endpoints speak JSON; errors are returned as
// ErrorResponse with a non-2xx status.

// WorkerSpec registers or updates one worker. Quality is the initial
// estimate of the worker's correctness probability; PriorStrength is the
// pseudo-count weight behind it (how many past votes the initial quality
// is worth when posterior updates fold in new evidence; 0 selects the
// server default).
type WorkerSpec struct {
	ID            string  `json:"id"`
	Quality       float64 `json:"quality"`
	Cost          float64 `json:"cost"`
	PriorStrength float64 `json:"prior_strength,omitempty"`
}

// WorkerInfo reports one registered worker's current state.
type WorkerInfo struct {
	ID string `json:"id"`
	// Quality is the posterior-mean correctness probability.
	Quality float64 `json:"quality"`
	Cost    float64 `json:"cost"`
	// Votes is the number of ingested vote events; Correct how many of
	// them agreed with the ground truth.
	Votes   int `json:"votes"`
	Correct int `json:"correct"`
	// Version increments on every state change of this worker.
	Version int64 `json:"version"`
}

// RegisterRequest registers a batch of new workers. Registration is
// create-only and atomic: a batch containing any already-registered id is
// rejected whole with a 409. Use PUT /v1/workers/{id} to change an
// existing worker.
type RegisterRequest struct {
	Workers []WorkerSpec `json:"workers"`
}

// RegisterResponse confirms a registration.
type RegisterResponse struct {
	Registered int    `json:"registered"`
	PoolSize   int    `json:"pool_size"`
	Signature  string `json:"signature"`
}

// ListResponse lists the registry in registration order.
type ListResponse struct {
	Workers   []WorkerInfo `json:"workers"`
	Signature string       `json:"signature"`
}

// VoteEvent is one graded vote: worker w answered a task and the answer
// was or was not correct. Ingesting it updates the worker's Bayesian
// posterior (Beta pseudo-counts), which is what drifts qualities and
// invalidates cached selections.
type VoteEvent struct {
	WorkerID string `json:"worker_id"`
	Correct  bool   `json:"correct"`
}

// IngestRequest carries a batch of vote events.
type IngestRequest struct {
	Events []VoteEvent `json:"events"`
}

// IngestResponse reports the ingestion outcome.
type IngestResponse struct {
	Ingested int `json:"ingested"`
	// Updated lists the new state of every touched worker.
	Updated []WorkerInfo `json:"updated"`
	// Signature is the pool signature after ingestion.
	Signature string `json:"signature"`
	// Duplicate reports that the request's Idempotency-Key was already
	// applied: nothing changed (Ingested is 0) and the original
	// application stands — the retry succeeded by finding its work done.
	Duplicate bool `json:"duplicate,omitempty"`
}

// SelectRequest asks for the best jury within a budget.
type SelectRequest struct {
	Budget float64 `json:"budget"`
	// Alpha is the prior P(t=0); nil selects the server default.
	Alpha *float64 `json:"alpha,omitempty"`
	// Strategy picks the objective/search pair: "bv" (default; OPTJS),
	// "mv" (MVJS baseline), "bv-exact" (exact small-pool reference),
	// "greedy" (quality-descending greedy).
	Strategy string `json:"strategy,omitempty"`
	// WorkerIDs restricts the candidate pool to these workers; empty
	// selects over the whole registry.
	WorkerIDs []string `json:"worker_ids,omitempty"`
	// Seed overrides the server's annealing seed (it is part of the
	// cache key: different seeds may anneal to different juries).
	Seed *int64 `json:"seed,omitempty"`
}

// JuryMember is one selected worker as of the selection's pool snapshot.
type JuryMember struct {
	ID      string  `json:"id"`
	Quality float64 `json:"quality"`
	Cost    float64 `json:"cost"`
}

// SelectResponse is the selected jury.
type SelectResponse struct {
	Jury        []JuryMember `json:"jury"`
	JQ          float64      `json:"jq"`
	Cost        float64      `json:"cost"`
	Budget      float64      `json:"budget"`
	Alpha       float64      `json:"alpha"`
	Strategy    string       `json:"strategy"`
	Evaluations int          `json:"evaluations"`
	// Cached reports whether the selection was served from the cache.
	Cached bool `json:"cached"`
	// Signature identifies the exact candidate-pool state the jury was
	// computed against.
	Signature string `json:"signature"`
	// members is the jury as indices into the pool snapshot Signature
	// names, in Jury's order: the form the server caches a selection in.
	// A response the server sends has Jury instead and members nil.
	members []int32
}

// BatchSelectRequest solves one selection per budget (a budget–quality
// table); the server fans the budgets out over its worker pool. The
// response's Selections[i] answers Budgets[i].
type BatchSelectRequest struct {
	Budgets   []float64 `json:"budgets"`
	Alpha     *float64  `json:"alpha,omitempty"`
	Strategy  string    `json:"strategy,omitempty"`
	WorkerIDs []string  `json:"worker_ids,omitempty"`
	Seed      *int64    `json:"seed,omitempty"`
}

// BatchSelectResponse carries one SelectResponse per requested budget, in
// request order.
type BatchSelectResponse struct {
	Selections []SelectResponse `json:"selections"`
}

// SessionRequest opens an online collection session (sequential vote
// collection with a Bayesian stopping rule).
type SessionRequest struct {
	// Alpha is the prior; nil selects the server default.
	Alpha *float64 `json:"alpha,omitempty"`
	// Confidence is the posterior threshold that stops collection.
	Confidence float64 `json:"confidence"`
	// Budget bounds the total vote cost; 0 means unlimited.
	Budget float64 `json:"budget,omitempty"`
	// MaxVotes bounds the number of votes; 0 means unlimited.
	MaxVotes int `json:"max_votes,omitempty"`
}

// SessionVoteRequest feeds one observed vote into a session. The vote's
// evidence weight is the worker's current registry quality. A vote whose
// cost exceeds the session's remaining budget is rejected with a 409 —
// unless no registered worker is affordable anymore, in which case the
// session finalizes with Stopped = "budget" (the rejected vote is not
// folded in) and the final state is returned. The affordability check is
// time-of-rejection: a worker registered concurrently with the rejected
// vote may or may not avert finalization, exactly as a worker hired a
// moment after a collection run ends would not reopen it.
type SessionVoteRequest struct {
	WorkerID string      `json:"worker_id"`
	Vote     voting.Vote `json:"vote"`
}

// SessionState reports a session's progress.
type SessionState struct {
	ID         string  `json:"id"`
	Decision   int     `json:"decision"`
	Confidence float64 `json:"confidence"`
	Votes      int     `json:"votes"`
	Cost       float64 `json:"cost"`
	Done       bool    `json:"done"`
	// Stopped is "confident", "budget" or "exhausted" when Done.
	Stopped string `json:"stopped,omitempty"`
}

// PersistenceStatus is the GET /debug/persistence body: the durability
// state of the daemon. Enabled is false (and every other field zero) for
// an in-memory server.
type PersistenceStatus struct {
	Enabled bool   `json:"enabled"`
	DataDir string `json:"data_dir,omitempty"`
	// Fsync reports whether every WAL flush is synced to stable storage.
	Fsync bool `json:"fsync,omitempty"`
	// NextLSN is the log sequence number the next mutation will get;
	// NextLSN-1 identifies the last journaled mutation (on a follower:
	// the last replicated record applied).
	NextLSN uint64 `json:"next_lsn,omitempty"`
	// DurableLSN is the durability watermark: every record at or below
	// it is on stable storage. Only records at or below it are shipped
	// to followers.
	DurableLSN uint64 `json:"durable_lsn,omitempty"`
	// Segments is the number of live WAL segment files.
	Segments int `json:"segments,omitempty"`
	// LastSnapshotLSN is the WAL position the newest snapshot covers.
	LastSnapshotLSN uint64 `json:"last_snapshot_lsn,omitempty"`
	// SnapshotsWritten counts snapshots taken by this process.
	SnapshotsWritten uint64 `json:"snapshots_written,omitempty"`
	// RecoveredAt is when this process finished recovery (RFC 3339).
	RecoveredAt string `json:"recovered_at,omitempty"`
	// Recovery describes what boot-time recovery found.
	Recovery *RecoveryStatus `json:"recovery,omitempty"`
	// StateSHA256 is the hex SHA-256 of the canonical state document —
	// the cross-node convergence check: two nodes with equal NextLSN and
	// equal StateSHA256 hold bit-identical state.
	StateSHA256 string `json:"state_sha256,omitempty"`
	// Repl reports the replication position of a follower; nil on a
	// primary.
	Repl *ReplStatus `json:"repl,omitempty"`
	// Epoch is the node's current promotion epoch (1 on a never-promoted
	// cluster; every promotion increments it).
	Epoch uint64 `json:"epoch,omitempty"`
	// Quorum is the configured total-copies requirement behind each
	// mutation ack (0 or 1: local durability only).
	Quorum int `json:"quorum,omitempty"`
	// QuorumAcks is the highest LSN each follower id has confirmed on
	// its streams from this node: the table quorum-gated acks count.
	QuorumAcks map[string]uint64 `json:"quorum_acks,omitempty"`
	// Fenced reports that a newer primary holds FenceEpoch and this node
	// refuses all writes (421) until it rejoins as a follower.
	Fenced bool `json:"fenced,omitempty"`
	// FenceEpoch is the epoch that fenced this node; FencePrimary the new
	// primary's base URL when the fence carried one.
	FenceEpoch   uint64 `json:"fence_epoch,omitempty"`
	FencePrimary string `json:"fence_primary,omitempty"`
}

// ReplStatus reports a follower's replication position and lag (part of
// GET /debug/persistence on a follower; nil on a primary).
type ReplStatus struct {
	// Primary is the primary's base URL (the -follow flag).
	Primary string `json:"primary"`
	// Connected reports whether the replication stream is currently
	// healthy (the last contact succeeded).
	Connected bool `json:"connected"`
	// AppliedLSN is the last replicated record applied locally.
	AppliedLSN uint64 `json:"applied_lsn"`
	// PrimaryDurableLSN is the primary's durability watermark as of the
	// last stream contact.
	PrimaryDurableLSN uint64 `json:"primary_durable_lsn"`
	// LagRecords is PrimaryDurableLSN - AppliedLSN (0 when caught up).
	LagRecords uint64 `json:"lag_records"`
	// LagSeconds is how long the follower has gone without being provably
	// caught up to the primary's durable watermark; 0 when caught up now.
	LagSeconds float64 `json:"lag_seconds"`
	// LastContact is when the primary last answered a stream request
	// (RFC 3339); empty before the first contact.
	LastContact string `json:"last_contact,omitempty"`
	// Epoch is the epoch of the last applied promotion record (1 before
	// any promotion reached this follower).
	Epoch uint64 `json:"epoch,omitempty"`
}

// PromoteRequest is the body of POST /v1/repl/promote (may be empty).
type PromoteRequest struct {
	// Advertise is the base URL the promoted node should be reached at;
	// it rides along on the fence call to the old primary so clients
	// bounced there with 421 land on the new primary.
	Advertise string `json:"advertise,omitempty"`
}

// PromoteResponse reports a promotion's outcome.
type PromoteResponse struct {
	// Promoted is true when this call performed the follower→primary
	// switch; AlreadyPrimary when the node needed no promotion.
	Promoted       bool `json:"promoted"`
	AlreadyPrimary bool `json:"already_primary,omitempty"`
	// Epoch is the epoch the node now writes under; AppliedLSN the LSN
	// of the promotion record that opened it.
	Epoch      uint64 `json:"epoch"`
	AppliedLSN uint64 `json:"applied_lsn"`
	// OldPrimary is the primary this node was following; OldPrimaryFenced
	// whether the best-effort fence call landed there. When false the old
	// primary was unreachable (usually: dead) — deliver the fence before
	// letting it serve again, or wipe and re-bootstrap it.
	OldPrimary       string `json:"old_primary,omitempty"`
	OldPrimaryFenced bool   `json:"old_primary_fenced,omitempty"`
	// SupersededFenceEpoch is set when the node was fenced at promotion
	// time: the new epoch was opened past the fence epoch (fence+1 rather
	// than current+1) so the promoted primary is not outranked by its own
	// fence marker. Zero when the node was unfenced.
	SupersededFenceEpoch uint64 `json:"superseded_fence_epoch,omitempty"`
}

// FenceRequest is the body of POST /v1/repl/fence: a newer primary
// (epoch Epoch, reachable at Primary) exists; the receiving node must
// stop acknowledging writes.
type FenceRequest struct {
	Epoch   uint64 `json:"epoch"`
	Primary string `json:"primary,omitempty"`
}

// FenceResponse confirms a fence call.
type FenceResponse struct {
	// Fenced reports whether the node is now refusing writes (false only
	// if it has itself already advanced past the fencing epoch).
	Fenced bool `json:"fenced"`
	// Epoch and Primary echo the effective fence.
	Epoch   uint64 `json:"epoch"`
	Primary string `json:"primary,omitempty"`
	// CurrentEpoch is the node's own epoch.
	CurrentEpoch uint64 `json:"current_epoch"`
}

// RepointRequest is the body of POST /v1/repl/repoint: retarget this
// follower's replication stream at a new primary after a promotion.
type RepointRequest struct {
	Primary string `json:"primary"`
}

// RepointResponse confirms a repoint.
type RepointResponse struct {
	Primary string `json:"primary"`
}

// RecoveryStatus reports what boot-time recovery reconstructed.
type RecoveryStatus struct {
	// SnapshotLSN is the WAL position of the snapshot recovery loaded;
	// 0 means no snapshot existed and the whole log was replayed.
	SnapshotLSN uint64 `json:"snapshot_lsn"`
	// RecordsReplayed is how many WAL records were applied on top.
	RecordsReplayed int `json:"records_replayed"`
	// TornBytesTruncated is how many trailing bytes of the newest WAL
	// segment were dropped as a torn (crash-interrupted) record.
	TornBytesTruncated int64 `json:"torn_bytes_truncated"`
	// WorkersRestored, SessionsRestored and MultiPoolsRestored count the
	// recovered state.
	WorkersRestored    int `json:"workers_restored"`
	SessionsRestored   int `json:"sessions_restored"`
	MultiPoolsRestored int `json:"multi_pools_restored"`
}

// ErrorResponse is the JSON body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// DebugTracesResponse is the body of GET /debug/traces: the most recent
// finished request traces and the slowest seen since boot, each with its
// stage-level spans.
type DebugTracesResponse struct {
	// Enabled reports whether tracing is on (Config.TraceBuffer >= 0).
	Enabled bool `json:"enabled"`
	// Count is how many traces have been recorded since boot (the ring
	// only retains the newest Config.TraceBuffer of them).
	Count uint64 `json:"count"`
	// Recent holds the newest finished traces, newest first.
	Recent []obs.TraceSnapshot `json:"recent"`
	// Slowest holds the slowest finished traces, slowest first.
	Slowest []obs.TraceSnapshot `json:"slowest"`
}
