// Shared batch executor: many independent requests distributed across a
// worker pool by a lock-free atomic cursor — the architecture every batch
// routing path (concentrator batches, permuter batches, word-sort
// batches) rides — and DriveBatch, the one planned-vs-packed policy on
// top of it, consolidated here so the group widths and the fail-fast
// semantics stay identical everywhere.
package planner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// RunBatch executes fn(0..n-1) across workers goroutines (≤ 0 means
// GOMAXPROCS) with an atomic work cursor claiming grain items at a time:
// coarse enough to amortize the atomic, fine enough to balance skewed
// request costs. fn returning false aborts the batch: every worker stops
// claiming new items as soon as the shared stop flag is raised (items
// already claimed in the same grain are also skipped), so a poisoned
// batch fails fast.
func RunBatch(n, workers, grain int, fn func(i int) bool) {
	if grain < 1 {
		grain = 1
	}
	// Copy into a never-reassigned local: the worker closures then capture
	// it by value, so the sequential fast path stays allocation-free (a
	// mutated parameter captured by a closure is moved to the heap at
	// function entry, on every call).
	g := grain
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > (n+g-1)/g {
		workers = (n + g - 1) / g
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if !fn(i) {
				return
			}
		}
		return
	}
	var stop atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stop.Load() {
					return
				}
				lo := int(next.Add(int64(g))) - g
				if lo >= n {
					return
				}
				hi := min(lo+g, n)
				for i := lo; i < hi; i++ {
					if stop.Load() {
						return
					}
					if !fn(i) {
						stop.Store(true)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// AutoWideLanes picks the lane-group width (a multiple of PackedLanes)
// for an auto-switched packed batch: groups widen toward WideWords×64
// lanes only while the batch still splits into at least two groups per
// worker, so wide multi-word replay never starves the worker pool that
// parallel batch execution depends on. workers ≤ 0 means GOMAXPROCS.
func AutoWideLanes(batch, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	words := (batch + PackedLanes - 1) / PackedLanes
	w := words / (2 * workers)
	if w < 1 {
		w = 1
	}
	if w > WideWords {
		w = WideWords
	}
	return w * PackedLanes
}

// PackedGroup returns how many requests DriveBatch routes per packed
// lane group for a batch of n requests that fill lanes packed lanes each
// (1 for a flat plan, w for a w-way sharded one), workers goroutines
// wide — or 0 when the batch routes per request: the executor cannot
// pack, or the whole batch is narrower than one lane word. Groups span
// AutoWideLanes(n·lanes, workers) lanes, and always at least one
// request.
func PackedGroup(n, lanes, workers int, packable bool) int {
	if !packable || n*lanes < PackedLanes {
		return 0
	}
	return max(1, AutoWideLanes(n*lanes, workers)/lanes)
}

// DriveBatch is the batch executor policy every batch entry point
// routes through: it routes requests 0..n-1 across workers goroutines
// (≤ 0 means GOMAXPROCS) and decides, once per batch, between the
// planned and the packed path.
//
//   - Planned: route(i) per request, the work cursor claiming grain
//     requests at a time — taken when PackedGroup reports 0.
//   - Packed: group(lo, hi) per lane group of PackedGroup requests, one
//     group per cursor bump; a final group narrower than MinPackedLanes
//     lanes routes per request through route instead.
//
// groupLanes > 0 pins the lane-group width instead (the *Wide reference
// paths the wide-packing floors measure); 0 leaves it to the policy.
// group returns the global index of the request it failed on. The batch
// fails fast — workers stop claiming work once any request fails — and
// the returned error, "prefix i: err", names the earliest failing
// request among those attempted, whichever path routed it.
func DriveBatch(n, workers, grain, lanes, groupLanes int, packable bool, prefix string,
	route func(i int) error, group func(lo, hi int) (int, error)) error {
	var firstErr atomic.Pointer[batchErr]
	gb := PackedGroup(n, lanes, workers, packable)
	if packable && groupLanes > 0 {
		gb = max(1, groupLanes/lanes)
	}
	if gb == 0 {
		RunBatch(n, workers, grain, func(i int) bool {
			// A poisoned batch aborts instead of burning workers.
			return firstErr.Load() == nil && routeEach(&firstErr, route, i, i+1)
		})
	} else {
		RunBatch((n+gb-1)/gb, workers, 1, func(g int) bool {
			if firstErr.Load() != nil {
				return false
			}
			lo := g * gb
			hi := min(lo+gb, n)
			if (hi-lo)*lanes < MinPackedLanes {
				return routeEach(&firstErr, route, lo, hi)
			}
			if idx, err := group(lo, hi); err != nil {
				recordBatchErr(&firstErr, idx, err)
				return false
			}
			return true
		})
	}
	if e := firstErr.Load(); e != nil {
		return fmt.Errorf("%s %d: %w", prefix, e.i, e.err)
	}
	return nil
}

// routeEach routes requests [lo, hi) one by one, recording the first
// failure; it reports whether all of them routed.
func routeEach(firstErr *atomic.Pointer[batchErr], route func(i int) error, lo, hi int) bool {
	for i := lo; i < hi; i++ {
		if err := route(i); err != nil {
			recordBatchErr(firstErr, i, err)
			return false
		}
	}
	return true
}

// batchErr records the earliest failing request of a batch.
type batchErr struct {
	i   int
	err error
}

// recordBatchErr CAS-publishes err for request i unless an earlier
// request already failed.
func recordBatchErr(firstErr *atomic.Pointer[batchErr], i int, err error) {
	e := &batchErr{i: i, err: err}
	for {
		cur := firstErr.Load()
		if cur != nil && cur.i <= i {
			return
		}
		if firstErr.CompareAndSwap(cur, e) {
			return
		}
	}
}
