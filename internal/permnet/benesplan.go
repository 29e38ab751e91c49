// Compiled Beneš replay: the rearrangeable baseline's switch WIRING is
// data-independent — only the 2×2 switch settings depend on the routed
// permutation — so the whole network lowers once per width into a
// planner-IR program of preset-select swaps (OpSelSwap) separated by the
// perfect shuffle/unshuffle stages of the recursive construction. Per
// route, the classical looping algorithm computes the switch settings,
// they are flattened into the program's select buffer in compile
// pre-order, and one linear replay moves the packets — the batched
// baseline the radix permuter's fused plans are benchmarked against
// (benes-planned in BenchmarkRouteEngines and cmd/permroute -batch).
//
// Wide batches go further: RoutePacked computes every lane's switch
// settings with an allocation-free looping pass directly into per-lane
// setting bitmaps, flattens them into per-switch lane masks
// (planner.LoadSelBits), and replays the whole network once for up to
// MaxPackedLanes assignments — the benes-packed engine of the route
// benchmarks, ≥ 3× the planned replay's batch throughput (see
// TestBenesPackedSpeedupFloor).
package permnet

import (
	"fmt"
	"sync"

	"absort/internal/core"
	"absort/internal/planner"
)

// BenesPlan is the compiled replay program of an n-input Beneš network:
// the fixed switch wiring as planner IR, with per-route switch settings
// supplied through the select buffer. It is immutable and safe for
// concurrent use; every route draws its working state from the program's
// scratch pool.
type BenesPlan struct {
	n        int
	selWords int // per-lane setting-bitmap words: ⌈NumSwitches/64⌉
	prog     *planner.Program
	spool    sync.Pool // *benesScratch
}

// CompileBenes returns the shared Beneš replay program for width n
// (a power of two ≥ 2), lowering it on first use into the process-wide
// bounded plan cache of internal/planner.
func CompileBenes(n int) (*BenesPlan, error) {
	if !core.IsPow2(n) || n < 2 {
		return nil, fmt.Errorf("permnet: Beneš width %d not a power of two ≥ 2", n)
	}
	key := planner.PlanKey{Kind: planner.KindBenes, N: n}
	if p, ok := planner.Shared.Get(key); ok {
		return p.(*BenesPlan), nil
	}
	var b planner.Builder
	lowerBenes(&b, 0, int32(n))
	prog := b.Compile(planner.Layout{N: n, FrontPlanes: 1, TagShift: 63, TagPlane: 0})
	bp := &BenesPlan{n: n, selWords: (prog.NumSel() + 63) / 64, prog: prog}
	rows := core.Lg(n)
	bp.spool.New = func() any {
		return &benesScratch{
			inv:   make([]int32, n),
			color: make([]int8, n),
			dst:   make([]int32, rows*n),
			seen:  make([]uint64, n),
		}
	}
	return planner.Shared.Add(key, bp).(*BenesPlan), nil
}

// lowerBenes emits the switch wiring of a Beneš network over [lo,hi) in
// compile pre-order: input column, unshuffle into the two half-size
// subnetworks, upper recursion, lower recursion, shuffle back, output
// column. The select-slot allocation order is the flattening order
// loadBenesSel walks, so slot i is always switch i of the pre-order.
func lowerBenes(b *planner.Builder, lo, hi int32) {
	s := hi - lo
	if s == 2 {
		b.SelSwap(lo, b.NewSel())
		return
	}
	for i := int32(0); i < s/2; i++ {
		b.SelSwap(lo+2*i, b.NewSel())
	}
	b.Unshuffle(lo, hi)
	h := s / 2
	lowerBenes(b, lo, lo+h)
	lowerBenes(b, lo+h, hi)
	b.Shuffle(lo, hi)
	for j := int32(0); j < s/2; j++ {
		b.SelSwap(lo+2*j, b.NewSel())
	}
}

// N returns the network width of the plan.
func (bp *BenesPlan) N() int { return bp.n }

// NumSwitches returns the number of preset 2×2 switches in the program:
// (n/2)(2 lg n − 1), exactly BenesCost(n).
func (bp *BenesPlan) NumSwitches() int { return bp.prog.NumSel() }

// Program returns the underlying planner-IR program (shared, immutable).
func (bp *BenesPlan) Program() *planner.Program { return bp.prog }

// loadBenesSel flattens a routed configuration's switch settings into
// sel in compile pre-order (input column, upper, lower, output column)
// and returns the next free slot.
func loadBenesSel(cfg *BenesConfig, sel []uint8, pos int) int {
	if cfg.n == 2 {
		sel[pos] = b2u(cfg.cross)
		return pos + 1
	}
	for _, c := range cfg.inSet {
		sel[pos] = b2u(c)
		pos++
	}
	pos = loadBenesSel(cfg.upper, sel, pos)
	pos = loadBenesSel(cfg.lower, sel, pos)
	for _, c := range cfg.outSet {
		sel[pos] = b2u(c)
		pos++
	}
	return pos
}

func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// RouteInto computes the permutation the Beneš network realizes for the
// assignment "input i goes to output dest[i]" — the looping algorithm
// sets the switches, the compiled program replays them — writing it into
// out (out[j] = in[p[j]], exactly as RoutePlan.RouteInto). Identical
// results to ApplyBenes over the same configuration.
func (bp *BenesPlan) RouteInto(out []int, dest []int) error {
	if len(dest) != bp.n {
		return fmt.Errorf("permnet: RouteInto with %d destinations, want %d",
			len(dest), bp.n)
	}
	if len(out) != bp.n {
		return fmt.Errorf("permnet: RouteInto into %d outputs, want %d",
			len(out), bp.n)
	}
	cfg, _, err := RouteBenes(dest)
	if err != nil {
		return err
	}
	sc := bp.prog.Get()
	loadBenesSel(cfg, sc.Sel(), 0)
	for i := range sc.Val {
		sc.Val[i] = uint64(i)
	}
	bp.prog.RunScratch(sc)
	for j, v := range sc.Val {
		out[j] = int(v)
	}
	bp.prog.Put(sc)
	return nil
}

// Route is RouteInto with a freshly allocated result.
func (bp *BenesPlan) Route(dest []int) ([]int, error) {
	out := make([]int, bp.n)
	if err := bp.RouteInto(out, dest); err != nil {
		return nil, err
	}
	return out, nil
}

// RouteBatch routes every destination assignment through the compiled
// Beneš replay concurrently, using workers goroutines (≤ 0 means
// GOMAXPROCS) — the same planner.DriveBatch contract as
// RoutePlan.RouteBatch, including fail-fast on the earliest malformed
// request and the packed switch for batches at least one lane word
// wide. Results are bit-for-bit identical either way.
func (bp *BenesPlan) RouteBatch(dests [][]int, workers int) ([][]int, error) {
	return driveRoutes(bp, bp.n, dests, workers, 1, 0, bp.prog.Packable())
}

// RouteBatchWide is RouteBatch with an explicit lane-group width:
// groupLanes must be a positive multiple of 64 up to MaxPackedLanes.
// Full groups route through one packed replay each; a remainder narrower
// than MinPackedLanes routes planned. A replay program without a packed
// form falls back to the planned pipeline for the whole batch.
func (bp *BenesPlan) RouteBatchWide(dests [][]int, workers, groupLanes int) ([][]int, error) {
	if err := checkGroupLanes(groupLanes); err != nil {
		return nil, err
	}
	return driveRoutes(bp, bp.n, dests, workers, 1, groupLanes, bp.prog.Packable())
}

// RouteBatchPlanned is the per-request planned batch pipeline: every
// assignment runs the looping algorithm and one scalar replay on pooled
// scratch. It is the path RouteBatch takes below the packed threshold,
// and the baseline TestBenesPackedSpeedupFloor measures the packed
// engine against.
func (bp *BenesPlan) RouteBatchPlanned(dests [][]int, workers int) ([][]int, error) {
	return driveRoutes(bp, bp.n, dests, workers, 1, 0, false)
}

// RoutePacked routes up to MaxPackedLanes destination assignments
// through the Beneš network in one SWAR replay: per lane, the looping
// algorithm writes the switch settings straight into a pooled setting
// bitmap (no per-subnetwork allocation), the bitmaps flatten into
// per-switch lane masks, and one packed pass moves all lanes' packets at
// once. out[l] receives exactly what RouteInto(out[l], dests[l]) would
// produce. A malformed assignment returns a validated error naming the
// earliest offending request; it never panics.
func (bp *BenesPlan) RoutePacked(out [][]int, dests [][]int) error {
	_, err := bp.routePackedAt(out, dests, 0)
	return err
}

// routePackedAt is RoutePacked with the assignments' global batch offset
// (for error messages of grouped batch execution); it returns the global
// index of the offending request alongside the error.
func (bp *BenesPlan) routePackedAt(out [][]int, dests [][]int, base int) (int, error) {
	lanes := len(dests)
	if lanes == 0 || lanes > MaxPackedLanes {
		return base, fmt.Errorf("permnet: RoutePacked: %d assignments, want 1..%d",
			lanes, MaxPackedLanes)
	}
	if len(out) != lanes {
		return base, fmt.Errorf("permnet: RoutePacked: %d outputs for %d assignments",
			len(out), lanes)
	}
	words := (lanes + PackedLanes - 1) / PackedLanes
	pp, err := bp.prog.Packed(words)
	if err != nil {
		return base, err
	}
	bs := bp.getScratch(lanes)
	defer bp.spool.Put(bs)
	for l, dest := range dests {
		if len(dest) != bp.n {
			return base + l, fmt.Errorf("permnet: RouteInto with %d destinations, want %d",
				len(dest), bp.n)
		}
		if len(out[l]) != bp.n {
			return base + l, fmt.Errorf("permnet: RouteInto into %d outputs, want %d",
				len(out[l]), bp.n)
		}
		if err := bs.checkPerm(dest); err != nil {
			return base + l, err
		}
		for i, d := range dest {
			bs.dst[i] = int32(d)
		}
		lb := bs.sel[l]
		for i := range lb {
			lb[i] = 0
		}
		bp.routeBenesBits(bs, lb, 0, 0, bp.n, 0)
	}
	sc := pp.Get()
	pp.LoadIndexPlanes(sc.Val)
	pp.LoadSelBits(sc, bs.sel[:lanes])
	pp.Run(sc)
	pp.Extract(out, sc.Val)
	pp.Put(sc)
	return 0, nil
}

// benesScratch is the pooled working state of packed Beneš routing: the
// looping algorithm's coloring arrays (reused depth-first across the
// recursion), the per-depth destination rows, the per-lane
// switch-setting bitmaps, and the epoch-stamped permutation validator —
// sized once, so steady-state packed routing performs no heap
// allocation.
type benesScratch struct {
	inv   []int32  // inverse-assignment scratch, one shared n-row
	color []int8   // looping 2-coloring scratch, one shared n-row
	dst   []int32  // lg n rows of n: row d holds the depth-d subproblems
	seen  []uint64 // permutation validator, epoch-stamped
	epoch uint64
	bits  []uint64   // flat per-lane setting bitmaps, selWords each
	sel   [][]uint64 // lane views into bits
}

// getScratch borrows a pooled scratch with setting bitmaps for at least
// lanes lanes.
func (bp *BenesPlan) getScratch(lanes int) *benesScratch {
	bs := bp.spool.Get().(*benesScratch)
	if len(bs.sel) < lanes {
		sw := bp.selWords
		bs.bits = make([]uint64, lanes*sw)
		bs.sel = make([][]uint64, lanes)
		for l := range bs.sel {
			bs.sel[l] = bs.bits[l*sw : (l+1)*sw]
		}
	}
	return bs
}

// checkPerm is the allocation-free batch form of the package-level
// permutation validator, stamping visited destinations with a per-call
// epoch instead of clearing a seen array.
func (bs *benesScratch) checkPerm(dest []int) error {
	bs.epoch++
	for _, d := range dest {
		if d < 0 || d >= len(dest) || bs.seen[d] == bs.epoch {
			return fmt.Errorf("permnet: %v is not a permutation", dest)
		}
		bs.seen[d] = bs.epoch
	}
	return nil
}

// routeBenesBits runs the looping algorithm over the depth-d subproblem
// [lo,lo+size) of bs.dst and records the cross settings as set bits of
// bits, in compile pre-order starting at select slot pos — routeBenes
// and loadBenesSel fused into one allocation-free pass. The slot layout
// mirrors lowerBenes exactly: size/2 input-column slots, the upper
// subnetwork's BenesCost(size/2) slots, the lower's, then the size/2
// output-column slots. Coloring scratch is shared across the recursion:
// a parent is fully consumed (its children's subproblems written to the
// next dst row) before either child runs, and children occupy disjoint
// halves of the parent's window.
func (bp *BenesPlan) routeBenesBits(bs *benesScratch, bits []uint64, d, lo, size, pos int) {
	n := bp.n
	dest := bs.dst[d*n+lo : d*n+lo+size]
	if size == 2 {
		if dest[0] == 1 {
			bits[pos>>6] |= 1 << uint(pos&63)
		}
		return
	}
	inv := bs.inv[lo : lo+size]
	color := bs.color[lo : lo+size]
	for i, dd := range dest {
		inv[dd] = int32(i)
		color[i] = -1
	}
	// Looping 2-coloring exactly as routeBenes: color 0 routes through
	// the upper subnetwork; input-switch partners get opposite colors, as
	// do inputs destined to the same output switch.
	for s := 0; s < size; s++ {
		if color[s] != -1 {
			continue
		}
		i, c := int32(s), int8(0)
		for {
			color[i] = c
			p := inv[dest[i]^1] // input sharing my output switch
			if color[p] != -1 {
				break
			}
			color[p] = 1 - c
			q := p ^ 1 // p's input-switch partner
			if color[q] != -1 {
				break
			}
			i = q // gets color 1 − color[p] = c
		}
	}
	half := size / 2
	next := bs.dst[(d+1)*n+lo : (d+1)*n+lo+size]
	sub := BenesCost(half)
	outPos := pos + half + 2*sub
	for i := 0; i < half; i++ {
		// Branchless switch emission: c is input switch i's crossing (the
		// looping pass colored every input, so c ∈ {0, 1}), and the
		// crossing bits OR in a 0 rather than branching — the settings
		// are data-random, so a conditional store would mispredict half
		// the time.
		c := int(color[2*i])
		j := pos + i
		bits[j>>6] |= uint64(c) << uint(j&63)
		du := dest[2*i+c]
		next[i] = du / 2
		next[half+i] = dest[2*i+1-c] / 2
		// Output switch du/2 receives the upper subnetwork's packet on its
		// even leg: cross exactly when that packet wants the odd output.
		jo := outPos + int(du)/2
		bits[jo>>6] |= uint64(du&1) << uint(jo&63)
	}
	if half == 2 {
		// Inline the size-2 leaves: each is a single switch crossing
		// exactly when its first packet wants output 1 (upper child at
		// slot pos+2, lower at pos+3), and the recursion overhead of the
		// 2n/4 leaf calls outweighs the work.
		ju := pos + 2
		bits[ju>>6] |= uint64(next[0]) << uint(ju&63)
		jl := pos + 3
		bits[jl>>6] |= uint64(next[2]) << uint(jl&63)
		return
	}
	bp.routeBenesBits(bs, bits, d+1, lo, half, pos+half)
	bp.routeBenesBits(bs, bits, d+1, lo+half, half, pos+half+sub)
}
