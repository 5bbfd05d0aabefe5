package server

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/conc"
	"repro/internal/worker"
)

func key(sig string, budget float64) SelectionKey {
	return SelectionKey{Signature: sig, Strategy: "bv", Budget: budget, Alpha: 0.5, Seed: 1}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewSelectionCache(8)
	k := key("sig1", 10)
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, SelectResponse{JQ: 0.9})
	res, ok := c.Get(k)
	if !ok || res.JQ != 0.9 {
		t.Fatalf("Get after Put = %+v, %v", res, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", got)
	}
}

func TestCacheKeyDiscriminates(t *testing.T) {
	c := NewSelectionCache(8)
	base := SelectionKey{Signature: "sig", Strategy: "bv", Budget: 10, Alpha: 0.5, Seed: 1}
	c.Put(base, SelectResponse{JQ: 1})
	variants := []SelectionKey{
		{Signature: "sig2", Strategy: "bv", Budget: 10, Alpha: 0.5, Seed: 1},
		{Signature: "sig", Strategy: "mv", Budget: 10, Alpha: 0.5, Seed: 1},
		{Signature: "sig", Strategy: "bv", Budget: 11, Alpha: 0.5, Seed: 1},
		{Signature: "sig", Strategy: "bv", Budget: 10, Alpha: 0.6, Seed: 1},
		{Signature: "sig", Strategy: "bv", Budget: 10, Alpha: 0.5, Seed: 2},
	}
	for _, k := range variants {
		if _, ok := c.Get(k); ok {
			t.Fatalf("key %v aliased with %v", k, base)
		}
	}
	if _, ok := c.Get(base); !ok {
		t.Fatal("base key lost")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewSelectionCache(2)
	c.Put(key("s", 1), SelectResponse{JQ: 1})
	c.Put(key("s", 2), SelectResponse{JQ: 2})
	if _, ok := c.Get(key("s", 1)); !ok { // promote budget 1
		t.Fatal("entry 1 missing")
	}
	c.Put(key("s", 3), SelectResponse{JQ: 3}) // evicts budget 2 (LRU)
	if _, ok := c.Get(key("s", 2)); ok {
		t.Fatal("LRU entry not evicted")
	}
	if _, ok := c.Get(key("s", 1)); !ok {
		t.Fatal("promoted entry evicted")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewSelectionCache(-1)
	c.Put(key("s", 1), SelectResponse{JQ: 1})
	if _, ok := c.Get(key("s", 1)); ok {
		t.Fatal("disabled cache served an entry")
	}
}

// TestServerCacheInvalidationOnDrift is the acceptance-criteria test at the
// server level: a repeated selection on an unchanged pool hits the cache,
// and a quality-changing vote ingest invalidates it (the recompute sees
// the drifted pool).
func TestServerCacheInvalidationOnDrift(t *testing.T) {
	s := New(Config{Alpha: 0.5, Seed: 1})
	if _, err := s.registry.Register(context.Background(), specs3(), 0); err != nil {
		t.Fatal(err)
	}
	req := SelectRequest{Budget: 6}

	first, err := s.selectOne(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first selection claims to be cached")
	}
	second, err := s.selectOne(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeated selection on unchanged pool was not served from cache")
	}
	if st := s.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache counters = %+v, want 1 hit / 1 miss", st)
	}
	if second.JQ != first.JQ || second.Signature != first.Signature {
		t.Fatalf("cached result differs: %+v vs %+v", second, first)
	}

	// Quality-changing ingest: the pool signature drifts, so the cached
	// jury is unreachable and the next selection recomputes.
	if _, _, err := s.registry.Ingest(context.Background(), []VoteEvent{{WorkerID: "a", Correct: false}}); err != nil {
		t.Fatal(err)
	}
	third, err := s.selectOne(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Fatal("selection after quality drift was served from a stale cache entry")
	}
	if third.Signature == first.Signature {
		t.Fatal("signature did not change after ingest")
	}
	if st := s.CacheStats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("cache counters after drift = %+v, want 1 hit / 2 misses", st)
	}
}

// TestConcurrentIngestAndSelect exercises the registry/cache pair under
// concurrent quality drift and selection; run with -race it is the
// subsystem's data-race gate.
func TestConcurrentIngestAndSelect(t *testing.T) {
	s := New(Config{Alpha: 0.5, Seed: 1, CacheSize: 64})
	specs := make([]WorkerSpec, 12)
	for i := range specs {
		specs[i] = WorkerSpec{
			ID:      fmt.Sprintf("w%d", i),
			Quality: 0.55 + 0.03*float64(i%10),
			Cost:    1 + float64(i%4),
		}
	}
	if _, err := s.registry.Register(context.Background(), specs, 0); err != nil {
		t.Fatal(err)
	}
	const perWorker = 30
	var wg sync.WaitGroup
	errs := make(chan error, 4*perWorker)
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ev := VoteEvent{WorkerID: fmt.Sprintf("w%d", (g*7+i)%len(specs)), Correct: i%3 != 0}
				if _, _, err := s.registry.Ingest(context.Background(), []VoteEvent{ev}); err != nil {
					errs <- err
				}
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := s.selectOne(context.Background(), SelectRequest{Budget: float64(3 + (g+i)%5)}); err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.CacheStats()
	if st.Hits+st.Misses != 2*perWorker {
		t.Fatalf("lookup count = %d, want %d", st.Hits+st.Misses, 2*perWorker)
	}
}

// TestSignatureNamesJuryState: a select's signature names exactly the
// pool state its jury was computed on, under concurrent single-vote
// ingests and selects, cache hits included. Each ingest response carries
// its signature and the one worker it updated, so replaying them in
// generation order rebuilds every generation's pool. Each select must
// then report its jury members' qualities and costs at the generation
// its signature names, and recomputing the selection on that pool must
// give the same jury and JQ bit for bit. A Snapshot that reads gen and
// the pool under different locks, or a gen bumped outside the apply
// step, lets some select name a generation its jury was not computed on.
func TestSignatureNamesJuryState(t *testing.T) {
	ctx := context.Background()
	s := New(Config{Alpha: 0.5, Seed: 1, CacheSize: 64})
	specs := make([]WorkerSpec, 10)
	for i := range specs {
		specs[i] = WorkerSpec{
			ID:      fmt.Sprintf("w%d", i),
			Quality: 0.55 + 0.04*float64(i),
			Cost:    1 + float64(i%4),
		}
	}
	if _, err := s.registry.Register(ctx, specs, 0); err != nil {
		t.Fatal(err)
	}
	initial, regSig := s.registry.List()
	gen := func(sig string) uint64 {
		g, err := strconv.ParseUint(sig, 10, 64)
		if err != nil {
			t.Fatalf("signature %q is not a generation: %v", sig, err)
		}
		return g
	}
	type ingested struct {
		gen uint64
		w   WorkerInfo
	}
	const votes, selects = 150, 150
	ingests := make([][]ingested, 2)
	results := make([][]SelectResponse, 2)
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := range votes {
				ev := VoteEvent{WorkerID: specs[(g*3+i)%len(specs)].ID, Correct: i%3 != 0}
				updated, sig, err := s.registry.Ingest(ctx, []VoteEvent{ev})
				if err != nil {
					t.Error(err)
					return
				}
				ingests[g] = append(ingests[g], ingested{gen(sig), updated[0]})
			}
		}()
		go func() {
			defer wg.Done()
			for i := range selects {
				// Pairs of equal requests, so the second often hits the
				// cache; mostly the cheap greedy search, so many snapshots
				// land while votes are still arriving.
				req := SelectRequest{Budget: float64(3 + (i/2)%4), Strategy: "greedy"}
				if i%8 >= 6 {
					req.Strategy = "bv"
				}
				res, err := s.selectOne(ctx, req)
				if err != nil {
					t.Error(err)
					return
				}
				results[g] = append(results[g], res)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Every vote took the next generation: replaying them in that order
	// rebuilds the pool each generation names.
	all := slices.Concat(ingests...)
	slices.SortFunc(all, func(a, b ingested) int { return cmp.Compare(a.gen, b.gen) })
	first := gen(regSig)
	states := map[uint64][]WorkerInfo{first: initial}
	for i, in := range all {
		if in.gen != first+uint64(i)+1 {
			t.Fatalf("vote %d of %d took generation %d, want %d", i, len(all), in.gen, first+uint64(i)+1)
		}
		next := slices.Clone(states[in.gen-1])
		next[slices.IndexFunc(next, func(w WorkerInfo) bool { return w.ID == in.w.ID })] = in.w
		states[in.gen] = next
	}

	hits := 0
	for _, res := range slices.Concat(results...) {
		state, ok := states[gen(res.Signature)]
		if !ok {
			t.Fatalf("select names generation %s, which no vote produced", res.Signature)
		}
		if res.Cached {
			hits++
		}
		byID := make(map[string]WorkerInfo, len(state))
		pool := make(worker.Pool, len(state))
		for i, w := range state {
			byID[w.ID] = w
			pool[i] = worker.Worker{ID: w.ID, Quality: w.Quality, Cost: w.Cost}
		}
		for _, m := range res.Jury {
			w := byID[m.ID]
			if math.Float64bits(m.Quality) != math.Float64bits(w.Quality) || m.Cost != w.Cost {
				t.Fatalf("select at %s reports %s as (%v, %v); that generation holds (%v, %v)",
					res.Signature, m.ID, m.Quality, m.Cost, w.Quality, w.Cost)
			}
		}
		sel, _, _, err := strategySelector(res.Strategy, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sel.Select(pool, res.Budget, res.Alpha)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(want.JQ) != math.Float64bits(res.JQ) || len(want.Indices) != len(res.Jury) {
			t.Fatalf("select at %s: JQ %v over %d members, recomputed %v over %d",
				res.Signature, res.JQ, len(res.Jury), want.JQ, len(want.Indices))
		}
		for i, idx := range want.Indices {
			if pool[idx].ID != res.Jury[i].ID {
				t.Fatalf("select at %s: jury %v, recomputed member %d is %s", res.Signature, res.Jury, i, pool[idx].ID)
			}
		}
	}
	if hits == 0 {
		t.Fatal("no select was served from the cache")
	}
}

// TestConcurrentSelectsShareNoScratch: the estimator memory a select
// recycles is never shared between selects in flight. Uncached selects
// over three pools of one server (40 workers: the removal search, whose
// two restarts run in parallel; 20; and 12: exhaustive search) run
// concurrently as single and batch requests, and each must return the
// jury and JQ, to the bit, that the same select returned run alone. Run
// it under -race: a scratch handed to two selects at once races, and a
// memo carried from one select into the next returns a stale JQ.
func TestConcurrentSelectsShareNoScratch(t *testing.T) {
	s := New(Config{Alpha: 0.5, Seed: 1, CacheSize: -1, Workers: 4})
	specs := make([]WorkerSpec, 40)
	ids := make([]string, len(specs))
	for i := range specs {
		ids[i] = fmt.Sprintf("w%02d", i)
		specs[i] = WorkerSpec{ID: ids[i], Quality: 0.55 + 0.4*float64((i*17)%40)/40, Cost: float64(1 + 2*i%5)}
	}
	if _, err := s.registry.Register(context.Background(), specs, 0); err != nil {
		t.Fatal(err)
	}
	pools := [][]string{ids, ids[:20], ids[28:]}
	budgets := []float64{5, 10, 15, 20}
	seeds := []int64{1, 2}
	type query struct {
		pool   int
		seed   int64
		budget float64
	}
	request := func(q query) SelectRequest {
		return SelectRequest{Budget: q.budget, Seed: &q.seed, WorkerIDs: pools[q.pool]}
	}
	want := map[query]SelectResponse{}
	var queries []query
	for p := range pools {
		for _, seed := range seeds {
			for _, b := range budgets {
				q := query{p, seed, b}
				res, err := s.selectOne(context.Background(), request(q))
				if err != nil {
					t.Fatal(err)
				}
				want[q], queries = res, append(queries, q)
			}
		}
	}
	same := func(got, want SelectResponse) bool {
		return math.Float64bits(got.JQ) == math.Float64bits(want.JQ) && slices.Equal(got.Jury, want.Jury)
	}

	h := s.Handler()
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(queries); i += 4 {
				q := queries[i]
				code, raw := serveJSON(h, "/v1/select", request(q))
				var got SelectResponse
				if code != 200 || json.Unmarshal(raw, &got) != nil || !same(got, want[q]) {
					t.Errorf("select %+v: %d %s, want %+v", q, code, raw, want[q])
				}
				if q.budget != budgets[0] {
					continue
				}
				// One batch per (pool, seed): every budget at once.
				code, raw = serveJSON(h, "/v1/select/batch", BatchSelectRequest{Budgets: budgets, Seed: &q.seed, WorkerIDs: pools[q.pool]})
				var batch BatchSelectResponse
				if code != 200 || json.Unmarshal(raw, &batch) != nil || len(batch.Selections) != len(budgets) {
					t.Errorf("batch %+v: %d %s", q, code, raw)
					continue
				}
				for j, b := range budgets {
					if w := want[query{q.pool, q.seed, b}]; !same(batch.Selections[j], w) {
						t.Errorf("batch %+v budget %v: %+v, want %+v", q, b, batch.Selections[j], w)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// serveJSON posts body as JSON to path on h and returns the status and body.
func serveJSON(h http.Handler, path string, body any) (int, []byte) {
	data, _ := json.Marshal(body)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data)))
	return w.Code, w.Body.Bytes()
}

// TestSelectionCacheRetainedBytes bounds what one cached selection keeps
// on the heap. It fills the cache through the select path with
// jurybench's select-uncached-N128 stream: a 128-worker pool whose
// worker of quality rank i draws its quality inside the i-th of 128
// equal strata of [0.55, 0.95) and costs 1 + 2i mod 5, budgets 5, 10,
// 15 and 20 in turn, and a fresh 63-bit seed per request, so every
// select misses and fills one entry that no request hits again.
func TestSelectionCacheRetainedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation allocates")
	}
	const warm, entries, maxPerEntry = 128, 1024, 450
	ctx := context.Background()
	s := New(Config{Alpha: 0.5, Seed: 1, Workers: 2, TraceBuffer: -1})
	rng := rand.New(rand.NewSource(42))
	specs := make([]WorkerSpec, 128)
	for i, slot := range rng.Perm(len(specs)) {
		specs[slot] = WorkerSpec{
			ID:      "n128-w" + strconv.Itoa(slot),
			Quality: 0.55 + 0.4*(float64(i)+rng.Float64())/float64(len(specs)),
			Cost:    float64(1 + 2*i%5),
		}
	}
	if _, err := s.registry.Register(ctx, specs, 0); err != nil {
		t.Fatal(err)
	}
	budgets := []float64{5, 10, 15, 20}
	seeds := make([]int64, warm+entries)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	fill := func(from, to int) {
		conc.ForEach(2, to-from, func(i int) {
			i += from
			if _, err := s.selectOne(ctx, SelectRequest{Budget: budgets[i%len(budgets)], Seed: &seeds[i]}); err != nil {
				t.Error(err)
			}
		})
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the second cycle empties the estimator scratch pools
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// Warm the select path (scratch pools, metrics) before the baseline.
	fill(0, warm)
	before := heap()
	fill(warm, warm+entries)
	after := heap()
	if t.Failed() {
		return
	}
	if st := s.CacheStats(); st.Entries != warm+entries {
		t.Fatalf("cache holds %d entries, want %d", st.Entries, warm+entries)
	}
	perEntry := float64(int64(after)-int64(before)) / entries
	t.Logf("retained %.0f B per cached selection", perEntry)
	if perEntry > maxPerEntry {
		t.Fatalf("each cached selection retains %.0f B, want at most %d", perEntry, maxPerEntry)
	}
}

// TestCachedSelectionMatchesComputed: a cached selection keeps its jury
// as pool indices and lists it again from each hit's snapshot, so a hit
// must answer, byte for byte apart from "cached", what the miss that
// filled the entry answered. Three requests are checked: a binary
// full-pool select, a binary subset select whose ids arrive shuffled
// and with a repeat (in two orders that share one entry), and a
// multi-choice anneal select. After an ingest each must miss and list
// its jury from the new snapshot. Then the requests repeat while votes
// arrive, and every answer must equal every other answer that names
// the same signature: a hit that listed its members from a snapshot
// other than the one its signature names reports other rows.
func TestCachedSelectionMatchesComputed(t *testing.T) {
	s := New(Config{Alpha: 0.5, Seed: 1})
	h := s.Handler()
	post := func(path string, body any) ([]byte, error) {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data)))
		if w.Code != http.StatusOK && w.Code != http.StatusCreated {
			return nil, fmt.Errorf("%s: %d %s", path, w.Code, w.Body)
		}
		return w.Body.Bytes(), nil
	}
	specs := make([]WorkerSpec, 12)
	multiSpecs := make([]MultiWorkerSpec, 6)
	for i := range specs {
		specs[i] = WorkerSpec{ID: fmt.Sprintf("w%d", i), Quality: 0.55 + 0.035*float64(i), Cost: 1 + float64(i%4)}
	}
	for i := range multiSpecs {
		multiSpecs[i] = MultiWorkerSpec{ID: fmt.Sprintf("m%d", i), Quality: fp(0.5 + 0.07*float64(i)), Cost: 1 + float64(i%3)}
	}
	if _, err := post("/v1/workers", RegisterRequest{Workers: specs}); err != nil {
		t.Fatal(err)
	}
	if _, err := post("/v1/multi/pools", MultiCreateRequest{Name: "p", Labels: 3, Workers: multiSpecs}); err != nil {
		t.Fatal(err)
	}
	type selectCase struct {
		name, path, list string
		bodies           []any // equivalent requests: all share one cache entry
		ingest           func(i int) error
	}
	binaryVote := func(i int) error {
		_, err := post("/v1/votes/batch", IngestRequest{Events: []VoteEvent{{WorkerID: specs[i%len(specs)].ID, Correct: i%3 != 0}}})
		return err
	}
	cases := []selectCase{
		{"binary", "/v1/select", "/v1/workers", []any{SelectRequest{Budget: 9}}, binaryVote},
		{"binary-subset", "/v1/select", "/v1/workers", []any{
			SelectRequest{Budget: 7, WorkerIDs: []string{"w9", "w2", "w11", "w4", "w2", "w7", "w0"}},
			SelectRequest{Budget: 7, WorkerIDs: []string{"w0", "w11", "w7", "w7", "w4", "w9", "w2"}},
		}, binaryVote},
		{"multi-anneal", "/v1/multi/pools/p/select", "/v1/multi/pools/p", []any{MultiSelectRequest{Budget: 5, Strategy: "anneal"}},
			func(i int) error {
				_, err := post("/v1/multi/pools/p/votes", MultiIngestRequest{Events: []MultiVoteEvent{
					{WorkerID: multiSpecs[i%len(multiSpecs)].ID, Truth: i % 3, Vote: (i + i/3) % 3}}})
				return err
			}},
	}
	type answer struct {
		Cached    bool             `json:"cached"`
		Signature string           `json:"signature"`
		Jury      []map[string]any `json:"jury"`
		raw       []byte           // the body with "cached" set false
	}
	// listsPoolRows checks that every member of a reply carries its
	// worker's fields as the pool listing at path reports them now.
	listsPoolRows := func(path string, a answer) error {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		var list struct {
			Signature string           `json:"signature"`
			Workers   []map[string]any `json:"workers"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
			return err
		}
		if a.Signature != list.Signature && !strings.HasPrefix(a.Signature, list.Signature+"-") {
			return fmt.Errorf("reply names signature %s, the pool is at %s", a.Signature, list.Signature)
		}
		for _, m := range a.Jury {
			i := slices.IndexFunc(list.Workers, func(row map[string]any) bool { return row["id"] == m["id"] })
			if i < 0 {
				return fmt.Errorf("member %v is not in the pool", m["id"])
			}
			for field, v := range m {
				if list.Workers[i][field] != v {
					return fmt.Errorf("member %v has %s %v, the pool %v", m["id"], field, v, list.Workers[i][field])
				}
			}
		}
		return nil
	}
	parse := func(raw []byte) (answer, error) {
		var a answer
		if err := json.Unmarshal(raw, &a); err != nil {
			return a, err
		}
		if len(a.Jury) == 0 {
			return a, fmt.Errorf("empty jury: %s", raw)
		}
		a.raw = bytes.Replace(raw, []byte(`"cached":true`), []byte(`"cached":false`), 1)
		return a, nil
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// answers[sig] is the body every answer naming sig must equal.
			answers := map[string][]byte{}
			check := func(a answer, wantCached bool) {
				t.Helper()
				if a.Cached != wantCached {
					t.Fatalf("cached = %v, want %v: %s", a.Cached, wantCached, a.raw)
				}
				if want, ok := answers[a.Signature]; ok && !bytes.Equal(a.raw, want) {
					t.Fatalf("answers at signature %s differ:\n%s\n%s", a.Signature, a.raw, want)
				}
				answers[a.Signature] = a.raw
			}
			for round := range 2 {
				for i, body := range c.bodies {
					for _, cached := range []bool{i > 0, true} {
						raw, err := post(c.path, body)
						if err != nil {
							t.Fatal(err)
						}
						a, err := parse(raw)
						if err == nil {
							err = listsPoolRows(c.list, a)
						}
						if err != nil {
							t.Fatal(err)
						}
						check(a, cached)
					}
				}
				if round == 0 {
					if err := c.ingest(0); err != nil {
						t.Fatal(err)
					}
				}
			}
			if len(answers) != 2 {
				t.Fatalf("%d signatures across one ingest, want 2", len(answers))
			}

			// The same requests, hits among them, while votes arrive. After
			// each vote the voter waits for 3 selects per selector to end:
			// at most one per selector began before the vote, so some
			// selector runs two after it, and the second of those hits.
			const votes, selectors = 30, 2
			var (
				mu      sync.Mutex
				ended   = sync.NewCond(&mu)
				selects int  // selects ended, under mu
				stopped bool // under mu
				wg      sync.WaitGroup
			)
			stop := func() {
				mu.Lock()
				stopped = true
				mu.Unlock()
				ended.Broadcast()
			}
			results := make([][]answer, selectors)
			for g := range selectors {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := g; ; i++ {
						raw, err := post(c.path, c.bodies[i%len(c.bodies)])
						var a answer
						if err == nil {
							a, err = parse(raw)
						}
						if err != nil {
							t.Error(err)
							stop()
							return
						}
						results[g] = append(results[g], a)
						mu.Lock()
						selects++
						done := stopped
						mu.Unlock()
						ended.Broadcast()
						if done {
							return
						}
					}
				}()
			}
			for i := 1; i <= votes; i++ {
				if err := c.ingest(i); err != nil {
					t.Error(err)
					break
				}
				mu.Lock()
				for target := selects + 3*selectors; selects < target && !stopped; {
					ended.Wait()
				}
				mu.Unlock()
			}
			stop()
			wg.Wait()
			if t.Failed() {
				return
			}
			// Misses first: each signature's miss filled the entry its
			// hits read.
			all := slices.Concat(results...)
			hits := 0
			for _, cached := range []bool{false, true} {
				for _, a := range all {
					if a.Cached != cached {
						continue
					}
					if cached {
						hits++
						if _, ok := answers[a.Signature]; !ok {
							t.Fatalf("hit at signature %s, which no miss answered", a.Signature)
						}
					}
					check(a, cached)
				}
			}
			if hits == 0 {
				t.Fatalf("none of %d selects under ingest was a hit", len(all))
			}
		})
	}
}
