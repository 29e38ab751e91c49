// SWAR lane-packed routing: evaluate up to MaxPackedLanes independent
// tag patterns through one compiled routing plan in a single pass. The
// bit-plane engine itself — position-major packed planes, masked-XOR
// swaps under per-lane select masks, carry-save counters, plane-bound
// analysis, cache-blocked multi-word lane groups, and the two-stage
// transpose extraction — is the shared packed runner of internal/planner;
// this file contributes only the concentrator-specific surface: tag-lane
// packing, the request-count/capacity validation, and the error messages
// of the batch contract.
//
// Throughput: one packed pass costs roughly live-plane word operations
// where the scalar plan costs 64 packet-word moves per lane word, so wide
// batches route ≥ 3× faster than the planned-parallel pipeline (see
// BENCH_route.json and TestPackedSpeedupFloor).
package concentrator

import (
	"fmt"

	"absort/internal/bitvec"
	"absort/internal/planner"
)

// PackedLanes is the number of request patterns one plane word carries:
// one bit lane of every plane word per pattern.
const PackedLanes = planner.PackedLanes

// MaxPackedLanes is the widest pattern group one packed pass evaluates:
// MaxPackedWidth lane words of 64 patterns each.
const MaxPackedLanes = planner.MaxPackedWidth * planner.PackedLanes

// MinPackedLanes is the batch-width threshold at which the packed engine
// overtakes per-request planned routing: a packed pass costs about
// lg n + 1 plane-word operations per data movement regardless of how
// many lanes are occupied, while the scalar plan pays one packet-word
// move per request, so the crossover sits near (lg n + 1) lanes with the
// masked-swap constant folded in. Measured on the fish engine the packed
// pass beats k scalar passes from roughly k = 24 upward across
// n ∈ {64 .. 4096}; ConcentrateBatch falls back to the planned path for
// narrower remainders.
const MinPackedLanes = planner.MinPackedLanes

// PackedPlan is the SWAR evaluation surface of a compiled routing Plan:
// a thin concentrator-facing wrapper over the planner's shared packed
// runner, selecting the lane-word width per call. It is immutable after
// construction and safe for concurrent use: every execution draws its
// working state from the runner's per-width pools.
type PackedPlan struct {
	plan *Plan
}

// Packed returns the plan's SWAR engine wrapper, building it on first
// use and caching it behind an atomic pointer (Plans are immutable, so
// the packed engine is shared safely). It returns the planner's typed
// *planner.ErrNotPackable — never a panic — when the lowered step
// stream has no packed form; callers fall back to planned replay.
func (p *Plan) Packed() (*PackedPlan, error) {
	if pp := p.packed.Load(); pp != nil {
		return pp, nil
	}
	if _, err := p.prog.Packed(1); err != nil {
		return nil, err
	}
	pp := &PackedPlan{plan: p}
	if !p.packed.CompareAndSwap(nil, pp) {
		return p.packed.Load(), nil
	}
	return pp, nil
}

// N returns the input width of the packed plan.
func (pp *PackedPlan) N() int { return pp.plan.n }

// Lanes returns the widest pattern group one pass evaluates.
func (pp *PackedPlan) Lanes() int { return MaxPackedLanes }

// Plan returns the scalar plan the packed engine replays.
func (pp *PackedPlan) Plan() *Plan { return pp.plan }

// PackTagLanes packs up to MaxPackedLanes tag vectors one bit lane each
// into dst, word-major: dst[w*n+i] bit l carries tagsBatch[64w+l][i].
// dst must have room for ⌈lanes/64⌉ words per tag position; unused lanes
// of the last word are zeroed.
func PackTagLanes(dst []uint64, tagsBatch []bitvec.Vector) error {
	if len(tagsBatch) == 0 || len(tagsBatch) > MaxPackedLanes {
		return fmt.Errorf("concentrator: PackTagLanes: %d lanes, want 1..%d",
			len(tagsBatch), MaxPackedLanes)
	}
	n := len(tagsBatch[0])
	words := (len(tagsBatch) + PackedLanes - 1) / PackedLanes
	if len(dst) < words*n {
		return fmt.Errorf("concentrator: PackTagLanes: %d words for %d lanes of %d tags",
			len(dst), len(tagsBatch), n)
	}
	for i := range dst[:words*n] {
		dst[i] = 0
	}
	for l, tags := range tagsBatch {
		if len(tags) != n {
			return fmt.Errorf("concentrator: PackTagLanes: vector %d has %d tags, want %d",
				l, len(tags), n)
		}
		w := l / PackedLanes
		bit := uint(l % PackedLanes)
		for i, t := range tags {
			dst[w*n+i] |= uint64(t&1) << bit
		}
	}
	return nil
}

// RoutePacked evaluates len(out) tag patterns (1..MaxPackedLanes)
// through the plan in one pass. tags is lane-packed word-major: tags
// word w*n+i bit l is pattern 64w+l's tag at input i (bits at lanes
// ≥ len(out) are ignored), ⌈len(out)/64⌉ words per input. out[l]
// receives the permutation the network realizes on pattern l, in
// receives-from form exactly as Plan.Route. It performs no steady-state
// heap allocations and returns a validated error — never a panic — on
// malformed input.
func (pp *PackedPlan) RoutePacked(out [][]int, tags []uint64) error {
	n := pp.plan.n
	lanes := len(out)
	if lanes == 0 || lanes > MaxPackedLanes {
		return fmt.Errorf("concentrator: Plan(%d).RoutePacked: %d lanes, want 1..%d",
			n, lanes, MaxPackedLanes)
	}
	words := (lanes + PackedLanes - 1) / PackedLanes
	if len(tags) != words*n {
		return fmt.Errorf("concentrator: Plan(%d).RoutePacked: %d tag words, want %d",
			n, len(tags), words*n)
	}
	for l, o := range out {
		if len(o) != n {
			return fmt.Errorf("concentrator: Plan(%d).RoutePacked: output %d has %d slots",
				n, l, len(o))
		}
	}
	eng, err := pp.plan.prog.Packed(words)
	if err != nil {
		return err // unreachable after Packed(); kept for defense
	}
	sc := eng.Get()
	eng.LoadTagWords(sc.Val, tags)
	eng.Run(sc)
	eng.Extract(out, sc.Val)
	eng.Put(sc)
	return nil
}

// RouteLanes is RoutePacked over unpacked tag vectors: it packs
// tagsBatch one bit lane each and routes all of them in one pass.
// len(out) must equal len(tagsBatch).
func (pp *PackedPlan) RouteLanes(out [][]int, tagsBatch []bitvec.Vector) error {
	n := pp.plan.n
	if len(out) != len(tagsBatch) {
		return fmt.Errorf("concentrator: Plan(%d).RouteLanes: %d outputs for %d patterns",
			n, len(out), len(tagsBatch))
	}
	for l, tags := range tagsBatch {
		if len(tags) != n {
			return fmt.Errorf("concentrator: Plan(%d).RouteLanes: vector %d has %d tags",
				n, l, len(tags))
		}
	}
	words := (len(tagsBatch) + PackedLanes - 1) / PackedLanes
	if words < 1 {
		words = 1
	}
	eng, err := pp.plan.prog.Packed(words)
	if err != nil {
		return err // unreachable after Packed(); kept for defense
	}
	sc := eng.Get()
	tw := sc.Tmp[:words*n] // borrow copy scratch for the packed tag words
	if err := PackTagLanes(tw, tagsBatch); err != nil {
		eng.Put(sc)
		return err
	}
	err = pp.RoutePacked(out, tw)
	eng.Put(sc)
	return err
}

// ConcentratePacked routes up to MaxPackedLanes request patterns through
// the concentrator's compiled plan in one SWAR pass: pattern l's tags
// occupy bit lane l of plane word l/64. It writes, pattern by pattern,
// the realized permutations into perms and the request counts into
// counts — exactly the results len(markedBatch) ConcentrateInto calls
// would produce, at a fraction of the data movement. A malformed or
// over-capacity pattern returns a validated error naming the earliest
// offending pattern (the same message ConcentrateBatch reports) before
// any routing starts; it never panics.
func (c *Concentrator) ConcentratePacked(perms [][]int, counts []int, markedBatch [][]bool) error {
	l, err := c.concentrateLanes(perms, counts, markedBatch)
	if err != nil && l >= 0 {
		return fmt.Errorf("concentrator: batch pattern %d: %w", l, err)
	}
	return err
}

// concentrateLanes is ConcentratePacked without the pattern prefix: a
// failing pattern returns its lane index and ConcentrateInto's error
// text, so the batch driver can name it by its global index; an error
// about the call as a whole returns lane −1.
func (c *Concentrator) concentrateLanes(perms [][]int, counts []int, markedBatch [][]bool) (int, error) {
	lanes := len(markedBatch)
	if lanes == 0 || lanes > MaxPackedLanes {
		return -1, fmt.Errorf("concentrator: ConcentratePacked: %d patterns, want 1..%d",
			lanes, MaxPackedLanes)
	}
	if len(perms) != lanes || len(counts) != lanes {
		return -1, fmt.Errorf("concentrator: ConcentratePacked: %d permutations and %d counts for %d patterns",
			len(perms), len(counts), lanes)
	}
	plan, err := c.compileChecked()
	if err != nil {
		return -1, err
	}
	for l, marked := range markedBatch {
		if len(marked) != c.n {
			return l, fmt.Errorf("concentrator: %d requests for %d inputs", len(marked), c.n)
		}
		if len(perms[l]) != c.n {
			return l, fmt.Errorf("concentrator: permutation buffer of %d for %d inputs", len(perms[l]), c.n)
		}
	}
	words := (lanes + PackedLanes - 1) / PackedLanes
	eng, err := plan.prog.Packed(words)
	if err != nil {
		return -1, err
	}
	sc := eng.Get()
	tw := sc.Tmp[:words*c.n] // borrow copy scratch for the packed tag words
	for i := range tw {
		tw[i] = 0
	}
	// Unmarked inputs are tagged 1 (exactly as ConcentrateInto); the
	// request counts double as the capacity check, validated before any
	// routing is spent on a poisoned batch. The bool→lane-bit conversion
	// is branchless: request patterns are adversarial, and a predicted
	// branch per input would cost more than the whole routing pass.
	for l, marked := range markedBatch {
		w := l / PackedLanes
		bit := uint(l % PackedLanes)
		row := tw[w*c.n : (w+1)*c.n]
		r := 0
		for i, mk := range marked {
			u := uint64(0)
			if mk {
				u = 1
			}
			r += int(u)
			row[i] |= (u ^ 1) << bit
		}
		if r > c.m {
			eng.Put(sc)
			return l, fmt.Errorf("concentrator: %d requests exceed capacity %d", r, c.m)
		}
		counts[l] = r
	}
	eng.LoadTagWords(sc.Val, tw)
	eng.Run(sc)
	eng.Extract(perms, sc.Val)
	eng.Put(sc)
	return 0, nil
}
