package server

// The JSON wire types of the multi-choice (confusion-matrix) arm of the
// juryd HTTP API, shared with the public client in repro/jury/serve.
// Multi-choice workers live in named pools; every pool fixes one label
// count ℓ and every route operates on one pool.

// MultiWorkerSpec registers one multi-choice worker. Exactly one of
// Confusion and Quality must be set: Confusion is the full ℓ×ℓ
// row-stochastic matrix (entry [j][k] = P(vote k | truth j)), Quality
// builds the symmetric single-parameter matrix with diagonal *Quality —
// the natural generalization of the binary quality model.
// PriorStrength is the pseudo-count weight behind each confusion row
// when graded multi-label vote events fold into the worker's Dirichlet
// posterior; 0 selects the server default.
type MultiWorkerSpec struct {
	ID            string      `json:"id"`
	Confusion     [][]float64 `json:"confusion,omitempty"`
	Quality       *float64    `json:"quality,omitempty"`
	Cost          float64     `json:"cost"`
	PriorStrength float64     `json:"prior_strength,omitempty"`
}

// MultiWorkerInfo reports one registered multi-choice worker's state.
type MultiWorkerInfo struct {
	ID string `json:"id"`
	// Confusion is the current posterior-mean confusion matrix: row j is
	// the mean of the worker's Dirichlet posterior over votes given
	// truth j.
	Confusion [][]float64 `json:"confusion"`
	Cost      float64     `json:"cost"`
	// Informativeness scores how much the worker's votes reveal about
	// the truth, in [0, 1] (mean total-variation distance between
	// confusion rows; |2q−1| in the binary symmetric model).
	Informativeness float64 `json:"informativeness"`
	// Votes is the number of ingested graded vote events.
	Votes int `json:"votes"`
	// Version increments on every state change of this worker.
	Version int64 `json:"version"`
}

// MultiCreateRequest creates a multi-choice pool. Labels may be 0 when
// every worker carries an explicit Confusion matrix (ℓ is then inferred
// from the first); it is required when any worker is specified by
// Quality alone. Creation is atomic: an invalid worker rejects the
// whole pool.
type MultiCreateRequest struct {
	Name    string            `json:"name"`
	Labels  int               `json:"labels,omitempty"`
	Workers []MultiWorkerSpec `json:"workers,omitempty"`
}

// MultiPoolSummary is one pool in a listing.
type MultiPoolSummary struct {
	Name      string `json:"name"`
	Labels    int    `json:"labels"`
	Workers   int    `json:"workers"`
	Signature string `json:"signature"`
}

// MultiPoolsResponse lists the multi-choice pools in creation order.
type MultiPoolsResponse struct {
	Pools []MultiPoolSummary `json:"pools"`
}

// MultiPoolInfo is one pool's full state.
type MultiPoolInfo struct {
	Name    string            `json:"name"`
	Labels  int               `json:"labels"`
	Workers []MultiWorkerInfo `json:"workers"`
	// Signature identifies the exact pool state: it names the multi
	// registry's mutation count, so any posterior drift produces a new
	// signature.
	Signature string `json:"signature"`
}

// MultiRegisterRequest adds workers to an existing pool. Registration
// is create-only and atomic, like the binary registry's.
type MultiRegisterRequest struct {
	Workers []MultiWorkerSpec `json:"workers"`
}

// MultiRegisterResponse confirms a registration (or pool creation).
type MultiRegisterResponse struct {
	Registered int    `json:"registered"`
	PoolSize   int    `json:"pool_size"`
	Signature  string `json:"signature"`
}

// MultiVoteEvent is one graded multi-label vote: worker w voted Vote on
// a task whose true label was Truth (both in {0, …, ℓ−1}). Ingesting it
// is one Dirichlet posterior step on row Truth of the worker's
// confusion matrix.
type MultiVoteEvent struct {
	WorkerID string `json:"worker_id"`
	Truth    int    `json:"truth"`
	Vote     int    `json:"vote"`
}

// MultiIngestRequest carries a batch of graded multi-label vote events.
type MultiIngestRequest struct {
	Events []MultiVoteEvent `json:"events"`
}

// MultiIngestResponse reports the ingestion outcome.
type MultiIngestResponse struct {
	Ingested int `json:"ingested"`
	// Updated lists the new state of every touched worker.
	Updated []MultiWorkerInfo `json:"updated"`
	// Signature is the pool signature after ingestion.
	Signature string `json:"signature"`
	// Duplicate reports that the request's Idempotency-Key was already
	// applied; see IngestResponse.Duplicate.
	Duplicate bool `json:"duplicate,omitempty"`
}

// MultiSelectRequest asks for the best multi-choice jury within a
// budget.
type MultiSelectRequest struct {
	Budget float64 `json:"budget"`
	// Prior is the task provider's distribution over the ℓ labels; nil
	// selects the uniform prior.
	Prior []float64 `json:"prior,omitempty"`
	// Strategy picks the search: "anneal" (default; simulated annealing
	// over the bucketed JQ estimate), "greedy" (informativeness-ranked
	// greedy), "exhaustive" (exact enumeration, small pools only).
	Strategy string `json:"strategy,omitempty"`
	// Buckets is the margin resolution of the bucketed JQ estimate;
	// 0 selects the default (50).
	Buckets int `json:"buckets,omitempty"`
	// WorkerIDs restricts the candidate pool to these workers; empty
	// selects over the whole pool.
	WorkerIDs []string `json:"worker_ids,omitempty"`
	// Seed overrides the server's annealing seed (part of the cache key
	// for the seeded "anneal" strategy).
	Seed *int64 `json:"seed,omitempty"`
}

// MultiJuryMember is one selected multi-choice worker as of the
// selection's pool snapshot.
type MultiJuryMember struct {
	ID              string  `json:"id"`
	Cost            float64 `json:"cost"`
	Informativeness float64 `json:"informativeness"`
}

// MultiSelectResponse is the selected multi-choice jury.
type MultiSelectResponse struct {
	Pool        string            `json:"pool"`
	Labels      int               `json:"labels"`
	Jury        []MultiJuryMember `json:"jury"`
	JQ          float64           `json:"jq"`
	Cost        float64           `json:"cost"`
	Budget      float64           `json:"budget"`
	Prior       []float64         `json:"prior"`
	Strategy    string            `json:"strategy"`
	Evaluations int               `json:"evaluations"`
	// Cached reports whether the selection was served from the cache.
	Cached bool `json:"cached"`
	// Signature identifies the exact pool state the jury was computed
	// against.
	Signature string `json:"signature"`
	// members is the jury as indices into the pool snapshot Signature
	// names, in Jury's order: the form the server caches a selection in.
	// A response the server sends has Jury instead and members nil.
	members []int32
}

// MultiJQRequest asks for the Jury Quality of an explicit jury drawn
// from a pool, under the optimal (Bayesian) strategy.
type MultiJQRequest struct {
	WorkerIDs []string  `json:"worker_ids"`
	Prior     []float64 `json:"prior,omitempty"`
	// Buckets is the estimate resolution; ignored when Exact is set.
	Buckets int `json:"buckets,omitempty"`
	// Exact switches to the exponential exact computation (small juries
	// only; ℓ^n states are enumerated).
	Exact bool `json:"exact,omitempty"`
}

// MultiJQResponse reports the computed Jury Quality.
type MultiJQResponse struct {
	Pool      string    `json:"pool"`
	Labels    int       `json:"labels"`
	WorkerIDs []string  `json:"worker_ids"`
	JQ        float64   `json:"jq"`
	Prior     []float64 `json:"prior"`
	// Method is "estimate" (bucketed DP) or "exact" (enumeration).
	Method string `json:"method"`
	// Signature identifies the jury's pool-state snapshot.
	Signature string `json:"signature"`
}
