package server

import (
	"container/list"
	"math"
	"strconv"
	"sync"

	"repro/internal/multichoice"
	"repro/internal/worker"
)

// DefaultCacheSize is the selection cache's default entry capacity.
const DefaultCacheSize = 4096

// SelectionKey identifies one cacheable selection: the exact candidate
// pool state (its signature) plus every parameter the search depends on.
// Because every registry mutation changes the signature, a
// quality-drifting vote ingest changes the key — stale juries can never
// be returned, only recomputed.
type SelectionKey struct {
	Signature string
	Strategy  string
	Budget    float64
	Alpha     float64
	Seed      int64
}

// String renders the canonical cache key.
func (k SelectionKey) String() string {
	return k.Signature + "|" + k.Strategy +
		"|b=" + strconv.FormatUint(math.Float64bits(k.Budget), 16) +
		"|a=" + strconv.FormatUint(math.Float64bits(k.Alpha), 16) +
		"|s=" + strconv.FormatInt(k.Seed, 10)
}

// CacheStats is a point-in-time view of cache effectiveness.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	Entries, Capacity       int
}

// HitRate is Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// SelectionCache is a bounded LRU cache of completed selections — both
// binary (SelectResponse) and multi-choice (MultiSelectResponse), whose
// key spaces are disjoint by construction. Keys embed the pool
// signature, so entries computed against superseded worker states become
// unreachable the moment a vote ingest (or any registry mutation) is
// applied; LRU eviction reclaims them. The cache is safe for concurrent use.
//
// The server caches a selection with its jury as pool indices (members),
// 4 bytes a member rather than a 32-byte row, and lists the members
// again from the snapshot of each request it answers (served). The key's
// signature pins that snapshot, so a hit lists the very rows the miss
// that filled the entry listed.
type SelectionCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	entries map[string]*list.Element
	stats   CacheStats
}

type cacheEntry struct {
	key string
	res any // SelectResponse or MultiSelectResponse
}

// NewSelectionCache builds a cache holding up to capacity entries;
// capacity 0 selects DefaultCacheSize, negative capacity disables caching
// (every lookup misses).
func NewSelectionCache(capacity int) *SelectionCache {
	if capacity == 0 {
		capacity = DefaultCacheSize
	}
	return &SelectionCache{
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[string]*list.Element),
	}
}

// Get looks up a binary selection, promoting the entry on hit.
func (c *SelectionCache) Get(key SelectionKey) (SelectResponse, bool) {
	return lookup[SelectResponse](c, key.String())
}

// Put stores a completed binary selection.
func (c *SelectionCache) Put(key SelectionKey, res SelectResponse) {
	c.store(key.String(), res)
}

// lookup finds an entry by canonical key string, promoting it on hit.
func lookup[T SelectResponse | MultiSelectResponse](c *SelectionCache, k string) (T, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.stats.Misses++
		var zero T
		return zero, false
	}
	c.stats.Hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res.(T), true
}

// store inserts a completed selection, evicting the least recently used
// entry when full. Storing under an existing key overwrites it (the
// result is deterministic given the key, so both writers agree).
func (c *SelectionCache) store(k string, res any) {
	if c.cap < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*cacheEntry).res = res
		c.ll.MoveToFront(el)
		return
	}
	c.entries[k] = c.ll.PushFront(&cacheEntry{key: k, res: res})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.stats.Evictions++
	}
}

// Flush drops every entry (stats are kept).
func (c *SelectionCache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.entries = make(map[string]*list.Element)
}

// Stats returns a snapshot of the counters.
func (c *SelectionCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	s.Capacity = c.cap
	return s
}

// poolIndices converts a selection's pool indices to the cached form.
func poolIndices(indices []int) []int32 {
	members := make([]int32, len(indices))
	for i, idx := range indices {
		members[i] = int32(idx)
	}
	return members
}

// served returns res as the server sends it: its jury listed from the
// snapshot (pool, ids) its signature names, and members cleared.
func (res SelectResponse) served(pool worker.Pool, ids []string) SelectResponse {
	res.Jury = make([]JuryMember, len(res.members))
	for i, idx := range res.members {
		res.Jury[i] = JuryMember{ID: ids[idx], Quality: pool[idx].Quality, Cost: pool[idx].Cost}
	}
	res.members = nil
	return res
}

// served returns res as the server sends it: its jury listed from the
// snapshot (pool, ids) its signature names, and members cleared.
func (res MultiSelectResponse) served(pool multichoice.Pool, ids []string) MultiSelectResponse {
	res.Jury = make([]MultiJuryMember, len(res.members))
	for i, idx := range res.members {
		res.Jury[i] = MultiJuryMember{
			ID:              ids[idx],
			Cost:            pool[idx].Cost,
			Informativeness: multichoice.InformativenessScore(pool[idx].Confusion),
		}
	}
	res.members = nil
	return res
}
