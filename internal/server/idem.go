package server

// idemCapacity bounds one registry's idempotency-key table. Keys are
// evicted FIFO: a client retrying within any realistic backoff horizon
// is thousands of mutations away from eviction, while an unbounded
// table would let every keyed ingest leak memory forever.
const idemCapacity = 4096

// idemTable remembers the idempotency keys of applied ingests so a
// retried request (client timeout, 503 during drain, crash between ack
// and receipt) is applied exactly once. It is NOT internally locked:
// each table is owned by one registry and accessed under that
// registry's mutex, which also makes the insertion order identical to
// the WAL order — so a table rebuilt by replay matches the pre-crash
// table bit-exactly, eviction decisions included.
type idemTable struct {
	keys map[string]bool
	fifo []string // insertion order, oldest first
}

func newIdemTable() *idemTable {
	return &idemTable{keys: make(map[string]bool)}
}

// has reports whether key was seen (and not yet evicted).
func (t *idemTable) has(key string) bool { return t.keys[key] }

// add records key, evicting the oldest entry beyond capacity. The empty
// key of an unkeyed ingest is not recorded.
func (t *idemTable) add(key string) {
	if key == "" || t.keys[key] {
		return
	}
	t.keys[key] = true
	t.fifo = append(t.fifo, key)
	if len(t.fifo) > idemCapacity {
		evict := t.fifo[0]
		t.fifo = t.fifo[1:]
		delete(t.keys, evict)
	}
}

// snapshot returns the live keys in insertion order, for persistence.
func (t *idemTable) snapshot() []string {
	if len(t.fifo) == 0 {
		return nil
	}
	return append([]string(nil), t.fifo...)
}

// load replaces the table contents with a snapshot's keys.
func (t *idemTable) load(keys []string) {
	t.keys = make(map[string]bool, len(keys))
	t.fifo = t.fifo[:0]
	for _, k := range keys {
		t.add(k)
	}
}
