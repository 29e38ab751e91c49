package absort

import (
	"fmt"

	"absort/internal/concentrator"
	"absort/internal/core"
	"absort/internal/permnet"
	"absort/internal/planner"
)

// BatchPermuter routes many permutation requests through one compiled
// route plan of the Fig. 10 radix permuter — the routing counterpart of
// BatchSorter. All lg n radix levels are lowered once into a single
// fused stage-ordered step program (see internal/planner); Route then
// replays it allocation-free on pooled scratch, and RouteBatch streams
// requests across cores on an atomic work cursor, switching wide batches
// onto the 64-lane SWAR packed engine automatically.
type BatchPermuter struct {
	rp   *permnet.RadixPermuter
	plan *permnet.RoutePlan
	// sharded is engaged at n ≥ ShardedAutoThreshold: requests route
	// through the w-way sharded decomposition and the flat fused plan is
	// never compiled.
	sharded *permnet.ShardedRoutePlan
}

// NewBatchPermuter returns a batch permuter for n-input assignments (n a
// power of two) whose distribution stages use the given engine
// (EngineFish gives the O(n lg n) bit-level cost configuration). At
// n ≥ ShardedAutoThreshold, routing auto-engages the sharded plan — w
// independent n/w sub-programs behind a cross-shard exchange — instead
// of compiling the flat fused program.
func NewBatchPermuter(n int, engine Engine) (*BatchPermuter, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("absort: NewBatchPermuter(%d): n must be a power of two ≥ 2", n)
	}
	if _, ok := planner.Lookup(engine); !ok {
		return nil, fmt.Errorf("absort: NewBatchPermuter(%d): unknown engine %v", n, engine)
	}
	if !planner.CanRoute(engine, n) || !planner.CanRoute(engine, 2) {
		// The radix levels halve the window from n down to 2, so a
		// width-locked kernel engine cannot back the permuter.
		return nil, fmt.Errorf("absort: NewBatchPermuter(%d): engine %v cannot route the permuter's level widths 2..%d",
			n, engine, n)
	}
	rp := permnet.NewRadixPermuter(n, engine, 0)
	b := &BatchPermuter{rp: rp}
	if n >= ShardedAutoThreshold {
		sharded, err := rp.Sharded(0)
		if err != nil {
			return nil, fmt.Errorf("absort: NewBatchPermuter(%d): %w", n, err)
		}
		b.sharded = sharded
	} else {
		b.plan = rp.Compile()
	}
	return b, nil
}

// N returns the network width.
func (b *BatchPermuter) N() int { return b.rp.N() }

// Engine returns the distribution engine.
func (b *BatchPermuter) Engine() Engine { return b.rp.Engine() }

// Permuter exposes the underlying radix permuter (for the scalar Route
// and the cost/time models).
func (b *BatchPermuter) Permuter() *RadixPermuter { return b.rp }

// Route computes, through the compiled plan (sharded above the
// auto-engage threshold), the permutation p realizing "input i goes to
// output dest[i]" (receives-from form: out[j] = in[p[j]]).
func (b *BatchPermuter) Route(dest []int) ([]int, error) {
	if b.sharded != nil {
		return b.sharded.Route(dest)
	}
	return b.plan.Route(dest)
}

// RouteInto is Route writing into a caller-provided slice — zero
// steady-state heap allocations.
func (b *BatchPermuter) RouteInto(out []int, dest []int) error {
	if b.sharded != nil {
		return b.sharded.RouteInto(out, dest)
	}
	return b.plan.RouteInto(out, dest)
}

// Sharded reports whether requests auto-route through the sharded plan
// (n ≥ ShardedAutoThreshold); Shards returns its shard count, 0 when
// flat.
func (b *BatchPermuter) Sharded() bool {
	return b.sharded != nil
}

// Shards returns the engaged shard count, 0 when routing flat.
func (b *BatchPermuter) Shards() int {
	if b.sharded == nil {
		return 0
	}
	return b.sharded.Shards()
}

// RouteBatch routes every assignment concurrently using workers
// goroutines (≤ 0 means GOMAXPROCS). Results preserve input order.
// Batches at least PackedLanes wide automatically route whole lane
// groups per plan replay through the SWAR lane-packed engine — widened
// to several lane words per replay when the batch keeps every worker
// busy anyway; results are bit-for-bit identical to the per-assignment
// path.
func (b *BatchPermuter) RouteBatch(dests [][]int, workers int) ([][]int, error) {
	if b.sharded != nil {
		return b.sharded.RouteBatch(dests, workers)
	}
	return b.plan.RouteBatch(dests, workers)
}

// BatchConcentrator routes many concentration requests through one
// compiled routing plan of an (n,m)-concentrator (Section IV). Like
// BatchPermuter, single requests run allocation-free on pooled scratch
// and batches stream across cores on an atomic work cursor.
type BatchConcentrator struct {
	c *concentrator.Concentrator
}

// NewBatchConcentrator returns a batch (n,m)-concentrator over the given
// engine; k is the fish group count (≤ 0 selects the paper's k = lg n
// choice; other engines ignore it). The accepted domain matches
// concentrator.New exactly: n any positive power of two — n = 1 (the
// trivial single-wire concentrator) included — and 0 < m ≤ n.
func NewBatchConcentrator(n, m int, engine Engine, k int) (*BatchConcentrator, error) {
	if !core.IsPow2(n) {
		return nil, fmt.Errorf("absort: NewBatchConcentrator(%d, %d): n must be a positive power of two", n, m)
	}
	if m <= 0 || m > n {
		return nil, fmt.Errorf("absort: NewBatchConcentrator(%d, %d): need 0 < m ≤ n", n, m)
	}
	if engine == EngineFish && k > 0 && (!core.IsPow2(k) || k > n || (n > 1 && k < 2)) {
		return nil, fmt.Errorf("absort: NewBatchConcentrator(%d, %d): fish group count k=%d must be a power of two with 2 ≤ k ≤ n", n, m, k)
	}
	if _, ok := planner.Lookup(engine); !ok {
		return nil, fmt.Errorf("absort: NewBatchConcentrator(%d, %d): unknown engine %v", n, m, engine)
	}
	if !planner.CanRoute(engine, n) {
		return nil, fmt.Errorf("absort: NewBatchConcentrator(%d, %d): engine %v cannot route width %d", n, m, engine, n)
	}
	c := concentrator.New(n, m, engine, k)
	c.Compile()
	return &BatchConcentrator{c: c}, nil
}

// N returns the input count; M the output capacity.
func (b *BatchConcentrator) N() int { return b.c.N() }

// M returns the output capacity.
func (b *BatchConcentrator) M() int { return b.c.M() }

// Engine returns the routing engine.
func (b *BatchConcentrator) Engine() Engine { return b.c.Engine() }

// Concentrator exposes the underlying concentrator (for the scalar Plan
// method).
func (b *BatchConcentrator) Concentrator() *Concentrator { return b.c }

// Concentrate computes the routing for one request pattern through the
// compiled plan: it returns the permutation p (out[j] = in[p[j]]) under
// which the r marked inputs occupy outputs 0..r-1, and r.
func (b *BatchConcentrator) Concentrate(marked []bool) ([]int, int, error) {
	return b.c.Concentrate(marked)
}

// ConcentrateInto is Concentrate writing into a caller-provided slice —
// zero steady-state heap allocations.
func (b *BatchConcentrator) ConcentrateInto(p []int, marked []bool) (int, error) {
	return b.c.ConcentrateInto(p, marked)
}

// ConcentrateBatch routes every request pattern concurrently using
// workers goroutines (≤ 0 means GOMAXPROCS), returning the permutations
// and request counts in input order. Batches at least PackedLanes wide
// automatically route whole lane groups per plan replay through the SWAR
// lane-packed engine — widened to several lane words per replay when
// the batch keeps every worker busy anyway (except on EngineRanking,
// whose stable partition gains nothing from packing); results are
// bit-for-bit identical to the per-pattern path.
func (b *BatchConcentrator) ConcentrateBatch(marked [][]bool, workers int) ([][]int, []int, error) {
	return b.c.ConcentrateBatch(marked, workers)
}

// Packed lane-group widths of the SWAR batch engine (see
// internal/concentrator): one plane word carries PackedLanes patterns,
// one replay carries up to MaxPackedLanes of them (multi-word planes),
// and groups narrower than MinPackedLanes route per-pattern.
const (
	PackedLanes    = concentrator.PackedLanes
	MaxPackedLanes = concentrator.MaxPackedLanes
	MinPackedLanes = concentrator.MinPackedLanes
)

// ShardedAutoThreshold is the network width at or above which the
// permuting front doors (BatchPermuter, RoutingService, WordSorter)
// route through the sharded decomposition by default instead of
// compiling a flat fused plan; see permnet.ShardedAutoThreshold.
const ShardedAutoThreshold = permnet.ShardedAutoThreshold

// DefaultShards returns the shard count the auto-engaged sharded plan
// uses for an n-input network.
func DefaultShards(n int) int { return permnet.DefaultShards(n) }

// PlanCacheStats is a snapshot of the process-wide compiled-plan cache's
// traffic counters (hits, misses, evictions) — the signal a serving
// layer watches to size SharedCacheCap against its plan working set.
type PlanCacheStats = planner.CacheStats

// SharedPlanCacheStats snapshots the process-wide plan cache counters.
func SharedPlanCacheStats() PlanCacheStats { return planner.Shared.Stats() }
