// Batch routing pipeline: many independent requests streamed through one
// compiled routing plan, distributed across a worker pool by a lock-free
// atomic cursor — the same architecture as netlist's EvalBatch. Every
// request executes on pooled per-plan scratch (at most one scratch state
// live per worker at a time), so a batch performs no per-request
// allocation beyond the returned permutations, which are carved out of one
// flat backing array. planner.DriveBatch decides per batch between the
// per-request and the packed path.
package concentrator

import (
	"fmt"

	"absort/internal/bitvec"
	"absort/internal/planner"
)

// batchGrain is the number of requests a worker claims per cursor bump:
// coarse enough to amortize the atomic, fine enough to balance skewed
// request costs.
const batchGrain = 8

// RouteBatch routes every tag vector through the plan concurrently using
// workers goroutines (≤ 0 means GOMAXPROCS). Results preserve input
// order; result i is the permutation the network realizes on tags[i].
// A malformed tag vector fails the whole batch with an error before any
// routing starts — it never panics, so one bad request cannot take down
// a serving process.
func (p *Plan) RouteBatch(tagsBatch []bitvec.Vector, workers int) ([][]int, error) {
	if len(tagsBatch) == 0 {
		return nil, nil
	}
	for i, tags := range tagsBatch {
		if len(tags) != p.n {
			return nil, fmt.Errorf("concentrator: Plan(%d).RouteBatch: vector %d has %d tags",
				p.n, i, len(tags))
		}
	}
	out, _ := makeBatchResults(len(tagsBatch), p.n)
	err := planner.DriveBatch(len(tagsBatch), workers, batchGrain, 1, 0, false, "concentrator: batch vector",
		func(i int) error { return p.RouteInto(out[i], tagsBatch[i]) }, nil)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ConcentrateBatch routes every request pattern through the
// concentrator's compiled plan concurrently using workers goroutines
// (≤ 0 means GOMAXPROCS). It returns, in input order, the permutations
// and the per-pattern request counts. A poisoned batch fails fast: as
// soon as any worker observes a malformed or over-capacity pattern the
// remaining work is abandoned, and err reports the earliest offending
// pattern among those attempted.
//
// planner.DriveBatch picks the path: batches at least one lane word
// wide (≥ 64 patterns) route through the SWAR engine, one plan replay per
// lane group of planner.PackedGroup patterns, with a remainder narrower
// than MinPackedLanes on the planned path. Engines the registry marks
// packed-unprofitable (the Ranking baseline: its single stable partition
// gains nothing from lane packing) always take the planned path, and so
// does a plan whose step stream has no packed form
// (planner.ErrNotPackable). Results are bit-for-bit identical either way.
func (c *Concentrator) ConcentrateBatch(markedBatch [][]bool, workers int) ([][]int, []int, error) {
	return c.concentrateBatch(markedBatch, workers, 0, planner.PackedProfitable(c.engine) && c.packable())
}

// ConcentrateBatchWide is ConcentrateBatch with an explicit lane-group
// width: groupLanes must be a positive multiple of 64 up to
// MaxPackedLanes. Full groups route through one packed replay each; a
// remainder narrower than MinPackedLanes routes planned. Plans without a
// packed form fall back to the planned pipeline for the whole batch.
func (c *Concentrator) ConcentrateBatchWide(markedBatch [][]bool, workers, groupLanes int) ([][]int, []int, error) {
	if groupLanes < PackedLanes || groupLanes > MaxPackedLanes || groupLanes%PackedLanes != 0 {
		return nil, nil, fmt.Errorf("concentrator: ConcentrateBatchWide: group width %d, want a multiple of %d up to %d",
			groupLanes, PackedLanes, MaxPackedLanes)
	}
	return c.concentrateBatch(markedBatch, workers, groupLanes, c.packable())
}

// ConcentrateBatchPlanned is the per-request planned batch pipeline:
// every pattern replays the compiled plan on pooled scalar scratch, one
// packet word per input. It is the path ConcentrateBatch takes below the
// packed threshold, and the baseline the packed engine's throughput
// floor is measured against.
func (c *Concentrator) ConcentrateBatchPlanned(markedBatch [][]bool, workers int) ([][]int, []int, error) {
	return c.concentrateBatch(markedBatch, workers, 0, false)
}

// packable reports whether the compiled plan has a packed form.
func (c *Concentrator) packable() bool {
	plan, err := c.compileChecked()
	// A plan that fails to compile routes per pattern, which reports the
	// compile error.
	return err == nil && plan.prog.Packable()
}

// concentrateBatch is the batch body of every ConcentrateBatch entry
// point: one planner.DriveBatch call over ConcentrateInto per pattern and
// one packed replay per lane group.
func (c *Concentrator) concentrateBatch(markedBatch [][]bool, workers, groupLanes int, packable bool) ([][]int, []int, error) {
	if len(markedBatch) == 0 {
		return nil, nil, nil
	}
	out, rs := makeBatchResults(len(markedBatch), c.n)
	err := planner.DriveBatch(len(markedBatch), workers, batchGrain, 1, groupLanes, packable, "concentrator: batch pattern",
		func(i int) (err error) {
			rs[i], err = c.ConcentrateInto(out[i], markedBatch[i])
			return err
		},
		func(lo, hi int) (int, error) {
			l, err := c.concentrateLanes(out[lo:hi], rs[lo:hi], markedBatch[lo:hi])
			return lo + max(l, 0), err
		})
	if err != nil {
		return nil, nil, err
	}
	return out, rs, nil
}

// makeBatchResults carves the per-pattern permutations out of one flat
// backing array, plus the request-count slice.
func makeBatchResults(batch, n int) ([][]int, []int) {
	out := make([][]int, batch)
	flat := make([]int, batch*n)
	for i := range out {
		out[i] = flat[i*n : (i+1)*n]
	}
	return out, make([]int, batch)
}
