// SWAR lane-packed permutation routing and the batch pipeline riding it:
// up to MaxPackedLanes independent destination assignments evaluate
// through one fused route plan in a single pass. The bit-plane engine —
// lg n destination front planes whose per-level tag plane OpSetTag
// selects, masked-XOR swaps under per-lane select masks, live-plane
// analysis, cache-blocked multi-word lane groups, and the two-stage
// transpose load/extract — is the shared packed runner of
// internal/planner; this file contributes only the permuter-specific
// surface: per-lane permutation validation and the error messages of the
// batch contract; planner.DriveBatch decides when a batch packs.
//
// Throughput: one packed pass costs roughly live-plane word operations
// per lane word (2 lg n − d planes at level d) where the planned path
// pays 64 packet moves, so wide batches route ≥ 2× faster than the
// planned-parallel pipeline (see BENCH_route.json and
// TestPermPackedSpeedupFloor); groups wider than one word additionally
// amortize the step-decode overhead (TestWidePackedThroughputFloor).
package permnet

import (
	"fmt"

	"absort/internal/planner"
)

// PackedLanes is the number of destination assignments one plane word
// carries.
const PackedLanes = planner.PackedLanes

// MaxPackedLanes is the widest assignment group one packed pass
// evaluates: MaxPackedWidth lane words of 64 assignments each.
const MaxPackedLanes = planner.MaxPackedWidth * planner.PackedLanes

// MinPackedLanes is the batch-width threshold at which the packed engine
// overtakes per-request planned routing; narrower batch remainders fall
// back to the planned path.
const MinPackedLanes = planner.MinPackedLanes

// routeGrain is the number of permutations a batch worker claims per
// cursor bump.
const routeGrain = 4

// RouteBatch routes every destination assignment through the compiled
// plan concurrently, using workers goroutines (≤ 0 means GOMAXPROCS)
// coordinated by an atomic work cursor. Results preserve input order and
// are identical to per-request Route. A malformed assignment fails the
// whole batch fast — workers stop claiming new requests as soon as an
// error is reported — and err names the earliest offending request among
// those attempted.
//
// planner.DriveBatch picks the path: batches at least one lane word wide
// (≥ 64 assignments) route through the SWAR engine, one fused-plan
// replay per lane group of planner.PackedGroup assignments, with a
// remainder narrower than MinPackedLanes on the planned path. Plans
// whose step stream has no packed form (planner.ErrNotPackable) take the
// planned path for the whole batch. Results are bit-for-bit identical
// either way.
func (p *RoutePlan) RouteBatch(dests [][]int, workers int) ([][]int, error) {
	return driveRoutes(p, p.n, dests, workers, 1, 0, p.prog.Packable())
}

// RouteBatchWide is RouteBatch with an explicit lane-group width:
// groupLanes must be a positive multiple of 64 up to MaxPackedLanes.
// Full groups route through one packed replay each; a remainder narrower
// than MinPackedLanes routes planned. Plans without a packed form fall
// back to the planned pipeline for the whole batch.
func (p *RoutePlan) RouteBatchWide(dests [][]int, workers, groupLanes int) ([][]int, error) {
	if err := checkGroupLanes(groupLanes); err != nil {
		return nil, err
	}
	return driveRoutes(p, p.n, dests, workers, 1, groupLanes, p.prog.Packable())
}

// RouteBatchPlanned is the per-request planned batch pipeline: every
// assignment replays the fused program on pooled scalar scratch, one
// packet word per input. It is the path RouteBatch takes below the
// packed threshold, and the baseline the packed engine's throughput
// floor is measured against.
func (p *RoutePlan) RouteBatchPlanned(dests [][]int, workers int) ([][]int, error) {
	return driveRoutes(p, p.n, dests, workers, 1, 0, false)
}

// checkGroupLanes validates the explicit lane-group width of a
// RouteBatchWide call.
func checkGroupLanes(groupLanes int) error {
	if groupLanes < PackedLanes || groupLanes > MaxPackedLanes || groupLanes%PackedLanes != 0 {
		return fmt.Errorf("permnet: RouteBatchWide: group width %d, want a multiple of %d up to %d",
			groupLanes, PackedLanes, MaxPackedLanes)
	}
	return nil
}

// batchRouter is what driveRoutes routes a batch through: the
// per-request route and the packed group route, which routes a slice of
// assignments given its global batch offset and returns the global index
// of the offending request alongside an error. The flat fused plan, the
// compiled Beneš replay and the sharded plan implement it.
type batchRouter interface {
	RouteInto(out, dest []int) error
	routePackedAt(out, dests [][]int, base int) (int, error)
}

// driveRoutes is the batch body the flat fused plan, the compiled Beneš
// replay and the sharded plan share: one planner.DriveBatch call over
// r's two routes. lanes is the packed lanes one assignment fills;
// groupLanes > 0 pins the group width (the RouteBatchWide reference
// paths).
func driveRoutes(r batchRouter, n int, dests [][]int, workers, lanes, groupLanes int, packable bool) ([][]int, error) {
	if len(dests) == 0 {
		return nil, nil
	}
	out := makeRouteResults(len(dests), n)
	err := planner.DriveBatch(len(dests), workers, routeGrain, lanes, groupLanes, packable, "permnet: batch request",
		func(i int) error { return r.RouteInto(out[i], dests[i]) },
		func(lo, hi int) (int, error) { return r.routePackedAt(out[lo:hi], dests[lo:hi], lo) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RoutePacked routes up to MaxPackedLanes destination assignments
// through the fused plan in one SWAR pass: assignment l's destination
// bits ride bit lane l of plane word l/64. It writes, assignment by
// assignment, the realized permutations into out — exactly the results
// len(dests) RouteInto calls would produce, at a fraction of the data
// movement. A malformed assignment returns a validated error naming the
// earliest offending request before any routing starts; it never panics.
func (p *RoutePlan) RoutePacked(out [][]int, dests [][]int) error {
	_, err := p.routePackedAt(out, dests, 0)
	return err
}

// routePackedAt is RoutePacked with the assignments' global batch offset
// (for error messages of grouped batch execution); it returns the global
// index of the offending request alongside the error.
func (p *RoutePlan) routePackedAt(out [][]int, dests [][]int, base int) (int, error) {
	lanes := len(dests)
	if lanes == 0 || lanes > MaxPackedLanes {
		return base, fmt.Errorf("permnet: RoutePacked: %d assignments, want 1..%d",
			lanes, MaxPackedLanes)
	}
	if len(out) != lanes {
		return base, fmt.Errorf("permnet: RoutePacked: %d outputs for %d assignments",
			len(out), lanes)
	}
	for l, dest := range dests {
		if len(dest) != p.n {
			return base + l, fmt.Errorf("permnet: RouteInto with %d destinations, want %d",
				len(dest), p.n)
		}
		if len(out[l]) != p.n {
			return base + l, fmt.Errorf("permnet: RouteInto into %d outputs, want %d",
				len(out[l]), p.n)
		}
		if err := p.validate(dest); err != nil {
			return base + l, err
		}
	}
	words := (lanes + PackedLanes - 1) / PackedLanes
	pp, err := p.prog.Packed(words)
	if err != nil {
		return base, err
	}
	sc := pp.Get()
	pp.LoadDestLanes(sc.Val, dests)
	pp.Run(sc)
	pp.Extract(out, sc.Val)
	pp.Put(sc)
	return 0, nil
}

// makeRouteResults carves the per-request permutations out of one flat
// backing array.
func makeRouteResults(batch, n int) [][]int {
	out := make([][]int, batch)
	flat := make([]int, batch*n)
	for i := range out {
		out[i] = flat[i*n : (i+1)*n]
	}
	return out
}
