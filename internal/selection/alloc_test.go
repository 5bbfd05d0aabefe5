package selection

import (
	"runtime"
	"testing"
)

// selectBytesBound caps the bytes one steady-state OPTJS select over a
// jurybench-shaped N = 128 pool allocates, at about twice what it reads.
// With the estimator's tables, DP lists and memo map and the restarts'
// generators recycled, a select allocates about 10 KB, mostly memo key
// strings and the per-pass search state; built fresh per select, they
// came to about 200 KB.
const selectBytesBound = 24 << 10

// TestOPTJSSelectAllocatedBytes measures the heap bytes a select
// allocates once the recycled memory is warm, the way juryd serves an
// uncached request: N = 128, budgets 5/10/15/20 in turn and a fresh seed
// per request.
func TestOPTJSSelectAllocatedBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops recycled memory at random")
	}
	pool := goldenPool(128, 1)
	budgets := []float64{5, 10, 15, 20}
	selectN := func(from, n int) {
		for i := from; i < from+n; i++ {
			if _, err := OPTJS(int64(i)).Select(pool, budgets[i%len(budgets)], 0.5); err != nil {
				t.Fatal(err)
			}
		}
	}
	selectN(0, 8) // warm the pools
	const selects = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	selectN(8, selects)
	runtime.ReadMemStats(&after)
	perSelect := (after.TotalAlloc - before.TotalAlloc) / selects
	t.Logf("%d bytes per select", perSelect)
	if perSelect > selectBytesBound {
		t.Fatalf("a steady-state N=128 select allocates %d bytes, want ≤ %d", perSelect, selectBytesBound)
	}
}
