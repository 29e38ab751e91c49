// SWAR lane-packed execution of routing-plan programs: W×64 independent
// request patterns replay one compiled program in a single pass, one
// uint64 bit lane per pattern and W contiguous words per bit plane — the
// shared engine behind the concentrator's ConcentratePacked, the radix
// permuter's packed RouteBatch path, the compiled Beneš replay's packed
// settings playback, and the word sorter's end-to-end packed wide path.
//
//   - The working state is position-major bit-plane packed: each of the
//     n network positions owns P = F + I consecutive plane rows of bw
//     words each (bw ≤ W is the cache-block width, see below). The F
//     front planes carry tag data (one plane of request tags for
//     concentrator programs; the lg n destination-address bits for the
//     fused radix permuter, whose per-level tag is just one of those
//     planes, selected by OpSetTag). The I = lg n index planes carry the
//     bits of the packet's origin index riding through the switches. Bit
//     l of plane word w belongs to request lane 64w + l.
//   - Every select decision becomes a per-lane mask word array: a
//     compare-swap moves exactly the lanes whose tags order as (1, 0),
//     four-way swappers decompose into masked quarter swaps under the
//     three non-identity select masks, the prefix patch-up's running
//     ones count lives in bit-sliced counter planes updated with
//     carry-save adds, and preset-select programs (Beneš) read per-step
//     lane masks flattened from the per-lane switch settings at load
//     time (LoadSelBits) — no branches depend on tag data.
//   - Data movements touch only the live planes of each step: front
//     planes above the current tag plane are consumed (window-constant)
//     and the index planes above the window's origin-interval width are
//     broadcast constants, so swaps and copies skip the dead middle —
//     the compile-time analysis in planeBounds, applied per word.
//   - Widths above one word are cache-blocked: the W lane words split
//     into ⌈W/bw⌉ blocks of bw words each (the last padded with unused
//     lanes), sized so one block's plane array stays near L2, and the
//     step stream replays once per block — the step-decode and
//     plane-bound overhead amortizes over bw words while the working
//     set stays cache-resident.
//
// A Packed engine performs zero steady-state heap allocations: plane
// array, copy scratch, select-mask replay buffer, preset select masks,
// and counter planes all live in a sync.Pool of per-execution scratch.
package planner

import (
	"fmt"
	"math/bits"
	"sync"

	"absort/internal/core"
)

// PackedLanes is the number of request patterns one plane word carries:
// one bit lane of every plane word per pattern.
const PackedLanes = 64

// MaxPackedWidth is the largest lane-word count a packed engine
// evaluates per pass: Packed(words) accepts 1..MaxPackedWidth, i.e. up
// to MaxPackedWidth×64 lanes.
const MaxPackedWidth = 16

// WideWords is the auto-switch policy cap on lane words per group:
// batch paths widen groups up to WideWords×64 lanes when the batch has
// enough groups left to keep every worker busy (see AutoWideLanes).
const WideWords = 4

// MinPackedLanes is the batch-width threshold at which packed replay
// overtakes per-request scalar replay: a packed pass costs about
// live-planes word operations per data movement regardless of how many
// lanes are occupied, while the scalar program pays one packet-word move
// per request, so the crossover sits near the live-plane count with the
// masked-swap constant folded in. Batch paths fall back to per-request
// replay for narrower remainders.
const MinPackedLanes = 24

// blockTargetWords bounds one cache block's plane-array footprint
// (n × P × bw words): 4096 words = 32 KiB, sized to keep a block's
// working set L1-resident across the whole step sweep — each block
// replays every step before the next block starts, so a block that
// spills L1 pays its misses once per step instead of once per pass.
// The block width is all-or-nothing: when the full W-word group fits
// the budget the pass runs flat (bw = W, one decode per step), and
// otherwise it runs single-word blocks (bw = 1, the fast paths every
// per-step kernel keeps for one-word strides) — intermediate widths
// pay the generic multi-word loops without fitting L1 any better.
const blockTargetWords = 4096

// ErrNotPackable reports a program whose step stream contains an
// operation the packed engine cannot replay. Program.Packed returns it
// from the compile-time packability scan — callers fall back to planned
// per-request replay instead of ever reaching a mid-replay panic.
type ErrNotPackable struct {
	Op Op // the first offending operation
}

func (e *ErrNotPackable) Error() string {
	return fmt.Sprintf("planner: program not packable: op %d has no packed form", e.Op)
}

// Packed is the W×64-lane SWAR evaluation engine of a compiled Program.
// It is immutable after construction and safe for concurrent use: every
// execution draws its working state from an internal pool.
type Packed struct {
	prog   *Program
	P      int     // planes per position: F front planes + I index planes
	F      int     // front (tag-data) plane count
	I      int     // index plane count (lg n)
	W      int     // lane words per plane (64 lanes each)
	bw     int     // words per cache block (uniform; last block padded)
	nb     int     // cache blocks: ceil(W / bw)
	wpad   int     // padded width nb*bw (≥ W; padding lanes are unused)
	wFront []int16 // per-step live front planes (current tag plane + 1)
	wIdx   []int16 // per-step live index planes (origin-interval width)
	hasRec bool    // program records/replays tag-driven selects
	hasPre bool    // program reads preset selects (OpSelSwap)
	pool   sync.Pool
}

// PackedScratch is the per-execution state of a Packed engine. Val holds
// the nb × n × P × bw block-major plane words; Tmp is copy scratch
// clients may borrow between Get and Put (e.g. to stage packed tag
// words).
type PackedScratch struct {
	Val  []uint64
	Tmp  []uint64
	sel  []uint64 // select-mask record/replay buffer, 2×bw words per slot
	psel []uint64 // preset select lane masks, wpad words per slot
	cnt  []uint64 // bit-sliced per-lane ones counters, bw words per bit
	msk  []uint64 // per-step mask staging, 4×bw words
}

// Packable reports whether the program has a packed form: the "can pack"
// flag batch executors hand to DriveBatch.
func (p *Program) Packable() bool {
	_, err := p.Packed(1)
	return err == nil
}

// Packed returns the program's words×64-lane SWAR engine, building it on
// first use and caching it per width (Programs are immutable, so engines
// are shared safely). It returns a typed *ErrNotPackable — never a
// panic — when the step stream contains an operation without a packed
// form, and a validation error for widths outside 1..MaxPackedWidth;
// callers fall back to planned per-request replay on error.
func (p *Program) Packed(words int) (*Packed, error) {
	if words < 1 || words > MaxPackedWidth {
		return nil, fmt.Errorf("planner: Packed: width %d words, want 1..%d",
			words, MaxPackedWidth)
	}
	if pp, ok := p.packed.Load(words); ok {
		return pp.(*Packed), nil
	}
	if err := p.checkPackable(); err != nil {
		return nil, err
	}
	pp, _ := p.packed.LoadOrStore(words, newPacked(p, words))
	return pp.(*Packed), nil
}

// checkPackable is the compile-time packability scan: every operation of the
// step stream must have a packed form. All current ops do, so this only
// rejects step streams carrying opcodes this engine predates — the
// typed-error contract that keeps the replay loop panic-free.
func (p *Program) checkPackable() error {
	for _, st := range p.steps {
		switch st.Op {
		case OpCmpSwap, OpFourIn, OpFourOut, OpShuffleCount, OpEndsSwap,
			OpCondIn, OpCondOut, OpFishSplit, OpFishClean, OpRank,
			OpSetTag, OpShuffle, OpUnshuffle, OpSelSwap, OpCmpPair,
			OpPermute:
		default:
			return &ErrNotPackable{Op: st.Op}
		}
	}
	return nil
}

// newPacked builds the packed engine of a compiled program at the given
// lane-word width.
func newPacked(p *Program, words int) *Packed {
	n := p.layout.N
	F := p.layout.FrontPlanes
	I := core.Lg(n)
	pp := &Packed{prog: p, P: F + I, F: F, I: I, W: words}
	pp.bw = 1
	if n*pp.P*words <= blockTargetWords {
		pp.bw = words
	}
	pp.nb = (words + pp.bw - 1) / pp.bw
	pp.wpad = pp.nb * pp.bw
	for _, st := range p.steps {
		switch st.Op {
		case OpFourIn, OpFourOut, OpCondIn, OpCondOut:
			pp.hasRec = true
		case OpSelSwap:
			pp.hasPre = true
		}
	}
	pp.planeBounds()
	P, bw, wpad := pp.P, pp.bw, pp.wpad
	nsel := max(p.nsel, 1)
	hasRec, hasPre := pp.hasRec, pp.hasPre
	pp.pool.New = func() any {
		sc := &PackedScratch{
			Val: make([]uint64, n*P*wpad),
			Tmp: make([]uint64, n*P*wpad),
			cnt: make([]uint64, (I+2)*bw),
			msk: make([]uint64, 4*bw),
		}
		if hasRec {
			sc.sel = make([]uint64, 2*nsel*bw)
		}
		if hasPre {
			sc.psel = make([]uint64, nsel*wpad)
		}
		return sc
	}
	return pp
}

// planeBounds computes, per step, which planes the step's data movement
// must touch. Two independent analyses:
//
// Front planes: the tag plane of a radix-permuter level d is destination
// bit lg(n)−1−d, and once a level has routed, that bit is constant across
// every deeper window (all packets of a window share their destination
// prefix), so only planes [0, tagPlane] are live. The bound follows the
// OpSetTag stream: wFront = current tag plane + 1. Single-tag programs
// (F = 1) always carry exactly their one tag plane.
//
// Index planes: every step moves packets only within its window, so a
// packet's origin index is confined to the union of the windows it has
// passed through. Index bits above that union's common prefix are
// broadcast constants — identical words at every position of the window —
// and a masked swap or copy of equal words is a no-op, so those planes
// can be skipped. The analysis tracks one origin interval per position
// (movement preserves intervalness: each step replaces its window's
// intervals with their union) and bounds each step at the number of index
// bits varying over the union. The early small windows of a sorter — most
// of its data movement — touch only a few planes, which is where the
// packed engine's throughput margin over scalar replay comes from.
//
// The interval analysis assumes the index planes start as the identity
// (position i carries index i). Composition-mode clients that preload a
// composed permutation instead must run with RunFull, which keeps the
// front-plane bounds (those are data-independent) but treats every index
// plane as live.
func (pp *Packed) planeBounds() {
	p := pp.prog
	n := p.layout.N
	olo := make([]int32, n)
	ohi := make([]int32, n)
	for i := range olo {
		olo[i] = int32(i)
		ohi[i] = int32(i + 1)
	}
	// One bounds entry per executed step: Repeat replays widen the arrays
	// so each pass gets its own bounds — the origin intervals keep growing
	// across passes while the front-plane tracker re-arms per pass,
	// matching the scalar runner's per-pass tag-register reset.
	reps := p.Repeats()
	pp.wFront = make([]int16, len(p.steps)*reps)
	pp.wIdx = make([]int16, len(p.steps)*reps)
	for r := 0; r < reps; r++ {
		base := r * len(p.steps)
		fl := int16(p.layout.TagPlane + 1)
		for si, st := range p.steps {
			if st.Op == OpSetTag {
				fl = int16(st.Aux + 1)
				continue // moves no data; bounds stay zero
			}
			var uLo, uHi int32
			if st.Op == OpCmpPair {
				// The pair's two positions are arbitrary, not a window:
				// union exactly those two origin intervals.
				a, b := st.Lo, st.Hi
				uLo = min(olo[a], olo[b])
				uHi = max(ohi[a], ohi[b])
				olo[a], ohi[a] = uLo, uHi
				olo[b], ohi[b] = uLo, uHi
			} else {
				uLo, uHi = olo[st.Lo], ohi[st.Lo]
				for i := st.Lo + 1; i < st.Hi; i++ {
					uLo = min(uLo, olo[i])
					uHi = max(uHi, ohi[i])
				}
				for i := st.Lo; i < st.Hi; i++ {
					olo[i], ohi[i] = uLo, uHi
				}
			}
			pp.wFront[base+si] = fl
			pp.wIdx[base+si] = int16(min(int32(bits.Len32(uint32(uLo^(uHi-1)))), int32(pp.I)))
		}
	}
}

// N returns the input width of the packed engine.
func (pp *Packed) N() int { return pp.prog.layout.N }

// Words returns the lane-word width W of the engine.
func (pp *Packed) Words() int { return pp.W }

// Lanes returns the number of patterns evaluated per pass (64 W).
func (pp *Packed) Lanes() int { return pp.W * PackedLanes }

// Program returns the scalar program the packed engine replays.
func (pp *Packed) Program() *Program { return pp.prog }

// Get borrows a pooled PackedScratch; Put returns it.
func (pp *Packed) Get() *PackedScratch   { return pp.pool.Get().(*PackedScratch) }
func (pp *Packed) Put(sc *PackedScratch) { pp.pool.Put(sc) }

// word maps the global lane-word index w to its (block, in-block word)
// coordinates.
func (pp *Packed) word(w int) (blk, ws int) { return w / pp.bw, w % pp.bw }

// LoadTagWords initializes the plane array for a single-tag program
// (F = 1): position i starts with the packed tag lanes of word w —
// tags[w*n+i], word-major — in plane 0 and the lane-broadcast bits of
// index i in the index planes. Lane words beyond len(tags)/n are zeroed.
func (pp *Packed) LoadTagWords(val, tags []uint64) {
	P, bw := pp.P, pp.bw
	n := pp.prog.layout.N
	tw := len(tags) / n
	for w := 0; w < pp.wpad; w++ {
		blk, ws := pp.word(w)
		base := blk*n*P*bw + ws
		if w < tw {
			for i, t := range tags[w*n : (w+1)*n] {
				val[base+i*P*bw] = t
			}
		} else {
			for i := 0; i < n; i++ {
				val[base+i*P*bw] = 0
			}
		}
	}
	pp.loadIndexBroadcast(val)
}

// LoadIndexPlanes initializes the plane array to the identity carrier:
// every front plane zero, the index planes broadcasting position i at
// position i. Preset-select replay (Beneš) and composition-mode clients
// (the word sorter's wide path) start from this state and supply routing
// decisions through LoadSelBits or per-pass front-plane writes.
func (pp *Packed) LoadIndexPlanes(val []uint64) {
	P, F, bw := pp.P, pp.F, pp.bw
	n := pp.prog.layout.N
	for blk := 0; blk < pp.nb; blk++ {
		base := blk * n * P * bw
		for i := 0; i < n; i++ {
			row := base + i*P*bw
			for o := 0; o < F*bw; o++ {
				val[row+o] = 0
			}
		}
	}
	pp.loadIndexBroadcast(val)
}

// loadIndexBroadcast fills the index planes of every block: plane F+b of
// position i broadcasts bit b of i to all lanes.
func (pp *Packed) loadIndexBroadcast(val []uint64) {
	P, F, bw := pp.P, pp.F, pp.bw
	n := pp.prog.layout.N
	for blk := 0; blk < pp.nb; blk++ {
		base := blk * n * P * bw
		for i := 0; i < n; i++ {
			row := base + i*P*bw
			for b := F; b < P; b++ {
				v := -uint64(i >> uint(b-F) & 1) // 0 or all-ones broadcast
				for w := 0; w < bw; w++ {
					val[row+b*bw+w] = v
				}
			}
		}
	}
}

// LoadDestLanes initializes the plane array for a destination-riding
// program (F = lg n front planes): front plane b of position i carries,
// in lane l, bit b of dests[l][i]; the index planes broadcast i. Lanes
// beyond len(dests) are zeroed. Positions are packed in 64-wide chunks
// through the same two transpose stages Extract uses in reverse — about
// five word operations per packed destination.
func (pp *Packed) LoadDestLanes(val []uint64, dests [][]int) {
	P, F, bw := pp.P, pp.F, pp.bw
	n := pp.prog.layout.N
	if n < 64 || F > 16 {
		pp.loadDestSlow(val, dests)
		return
	}
	for w := 0; w < pp.wpad; w++ {
		blk, ws := pp.word(w)
		bbase := blk * n * P * bw
		sub := dests[min(w*64, len(dests)):min((w+1)*64, len(dests))]
		if len(sub) == 0 {
			for i := 0; i < n; i++ {
				row := bbase + i*P*bw + ws
				for b := 0; b < F; b++ {
					val[row+b*bw] = 0
				}
			}
			continue
		}
		for base := 0; base < n; base += 64 {
			// Stage 1 (inverse of Extract's stage 2): per lane, pack 64
			// destination values into 16 words four-per-quarter and flip them
			// into front-plane rows with the 16×16×4 block transpose.
			var lanePl [16][64]uint64 // lanePl[b][l]: lane l's plane-b bits
			for l, d := range sub {
				var a [16]uint64
				dd := d[base : base+64]
				for i := 0; i < 16; i++ {
					a[i] = uint64(uint16(dd[i])) |
						uint64(uint16(dd[16+i]))<<16 |
						uint64(uint16(dd[32+i]))<<32 |
						uint64(uint16(dd[48+i]))<<48
				}
				Transpose16x4(&a)
				for b := 0; b < F; b++ {
					lanePl[b][l] = a[b]
				}
			}
			// Stage 2 (inverse of Extract's stage 1): one 64×64 transpose per
			// front plane turns 64 lane-words into 64 position-words.
			for b := 0; b < F; b++ {
				bp := &lanePl[b]
				Transpose64(bp)
				for j := 0; j < 64; j++ {
					val[bbase+(base+j)*P*bw+b*bw+ws] = bp[j]
				}
			}
		}
	}
	pp.loadIndexBroadcast(val)
}

// loadDestSlow is the bit-scatter fallback of LoadDestLanes for programs
// too narrow (or too wide) for the block-transpose fast path.
func (pp *Packed) loadDestSlow(val []uint64, dests [][]int) {
	P, F, bw := pp.P, pp.F, pp.bw
	n := pp.prog.layout.N
	for w := 0; w < pp.wpad; w++ {
		blk, ws := pp.word(w)
		sub := dests[min(w*64, len(dests)):min((w+1)*64, len(dests))]
		for i := 0; i < n; i++ {
			row := blk*n*P*bw + i*P*bw + ws
			for b := 0; b < F; b++ {
				wd := uint64(0)
				for l, d := range sub {
					wd |= uint64(d[i]>>uint(b)&1) << uint(l)
				}
				val[row+b*bw] = wd
			}
		}
	}
	pp.loadIndexBroadcast(val)
}

// LoadSelBits flattens per-lane preset switch settings into per-step
// lane masks: selBits[l] is lane l's switch-setting bitmap in select-slot
// order (bit s of word s/64 is slot s's setting), and after the load the
// preset mask of slot s carries, in lane l of word w, the setting lane
// 64w+l chose. The flattening runs one 64×64 bit-block transpose per
// (lane word × 64 slots) — about one word operation per eight settings —
// which is what turns the Beneš replay's per-request select buffers into
// pure masked-XOR arithmetic.
func (pp *Packed) LoadSelBits(sc *PackedScratch, selBits [][]uint64) {
	nsel := pp.prog.nsel
	if nsel == 0 {
		return
	}
	wpad := pp.wpad
	lw := (len(selBits) + 63) / 64
	for w := 0; w < wpad; w++ {
		blk, ws := pp.word(w)
		gw := blk*pp.bw + ws
		if w >= lw {
			for s := 0; s < nsel; s++ {
				sc.psel[s*wpad+gw] = 0
			}
			continue
		}
		sub := selBits[w*64 : min((w+1)*64, len(selBits))]
		for c := 0; c*64 < nsel; c++ {
			var a [64]uint64
			for r, sb := range sub {
				if c < len(sb) {
					a[r] = sb[c]
				}
			}
			Transpose64(&a)
			hi := min(64, nsel-c*64)
			for s := 0; s < hi; s++ {
				sc.psel[(c*64+s)*wpad+gw] = a[s]
			}
		}
	}
}

// SplitFront bit-slices the word sorter's per-pass ranking across all
// lanes: given the pass's tag lanes (tags[w*n+i] bit l is the tag of
// lane 64w+l at position i), it writes each position's stable-split
// destination — zeros keep order up front, ones behind — into the F
// front planes, per lane, in two carry-save counting sweeps over the
// positions (the ones-counting prefix ladder of the paper's ranking
// step, evaluated 64 lanes per word operation). The index planes are
// untouched, so a composed permutation riding there survives the write.
func (pp *Packed) SplitFront(sc *PackedScratch, tags []uint64) {
	P, F, bw := pp.P, pp.F, pp.bw
	n := pp.prog.layout.N
	val := sc.Val
	// Counters borrow the head of the copy scratch: z counts zeros routed
	// so far, s starts at the total zero count Z and counts Z + ones so
	// far; both need F+1 bits to stay unambiguous through the final
	// increment. Tmp is otherwise dead between passes.
	z := sc.Tmp[:F+1]
	s := sc.Tmp[F+1 : 2*F+2]
	for w := 0; w < pp.W; w++ {
		blk, ws := pp.word(w)
		t := tags[w*n : (w+1)*n]
		for b := range z {
			z[b] = 0
			s[b] = 0
		}
		for _, tw := range t { // sweep 1: s ← Z, the per-lane zero count
			addCounter(s, ^tw)
		}
		base := blk*n*P*bw + ws
		for i, tw := range t { // sweep 2: dest = tag ? s : z, then count
			row := base + i*P*bw
			for b := 0; b < F; b++ {
				val[row+b*bw] = (z[b] &^ tw) | (s[b] & tw)
			}
			addCounter(z, ^tw)
			addCounter(s, tw)
		}
	}
}

// addCounter carry-save increments the bit-sliced counter c on exactly
// the lanes in m.
func addCounter(c []uint64, m uint64) {
	for b := 0; m != 0 && b < len(c); b++ {
		carry := c[b] & m
		c[b] ^= m
		m = carry
	}
}

// Extract reads the per-lane permutations back out of the index planes:
// out[l][j] is the origin index whose bits lane l carries at position j.
// Positions are processed in 64-wide chunks through two transpose stages:
// one 64×64 bit-block transpose per index plane turns 64 position-words
// into 64 lane-words, then per lane a four-wide 16×16 SWAR transpose
// turns up to 16 plane rows into 64 ready permutation values — about
// five word operations per extracted index, instead of one shift-mask-or
// per (lane, position, plane).
func (pp *Packed) Extract(out [][]int, val []uint64) {
	P, F, I, bw := pp.P, pp.F, pp.I, pp.bw
	n := pp.prog.layout.N
	if n < 64 || I == 0 || I > 16 {
		// Ragged width (n < 64), the trivial 1-input program, or more
		// index bits than the 16-row stage-two transpose carries
		// (n > 65536): gather bit-by-bit.
		pp.extractSlow(out, val)
		return
	}
	var lanePl [16][64]uint64
	for w := 0; w*64 < len(out); w++ {
		blk, ws := pp.word(w)
		bbase := blk * n * P * bw
		sub := out[w*64 : min((w+1)*64, len(out))]
		for base := 0; base < n; base += 64 {
			// Stage 1: one transpose per index plane; lanePl[b][l] bit j is
			// lane l's plane-b bit at position base+j.
			for b := 0; b < I; b++ {
				bp := &lanePl[b]
				for j := 0; j < 64; j++ {
					bp[j] = val[bbase+(base+j)*P*bw+(F+b)*bw+ws]
				}
				Transpose64(bp)
			}
			// Stage 2: per lane, rows 0..I-1 hold index bit b across 64
			// positions; the 16×16 block transpose flips them into 16-bit
			// index values, four positions per word quarter.
			for l := range sub {
				var a [16]uint64
				for b := 0; b < I; b++ {
					a[b] = lanePl[b][l]
				}
				Transpose16x4(&a)
				o := sub[l][base : base+64]
				for i := 0; i < 16; i++ {
					ai := a[i]
					o[i] = int(ai & 0xFFFF)
					o[16+i] = int(ai >> 16 & 0xFFFF)
					o[32+i] = int(ai >> 32 & 0xFFFF)
					o[48+i] = int(ai >> 48 & 0xFFFF)
				}
			}
		}
	}
}

// extractSlow is the bit-gather fallback of Extract.
func (pp *Packed) extractSlow(out [][]int, val []uint64) {
	P, F, bw := pp.P, pp.F, pp.bw
	n := pp.prog.layout.N
	for l, o := range out {
		blk, ws := pp.word(l / 64)
		bit := uint(l % 64)
		for j := 0; j < n; j++ {
			row := blk*n*P*bw + j*P*bw + ws
			v := 0
			for b := F; b < P; b++ {
				v |= int(val[row+b*bw]>>bit&1) << uint(b-F)
			}
			o[j] = v
		}
	}
}

// Run executes the step program over the packed plane array in sc, one
// cache block of lane words at a time. Every movement op consults the
// compile-time plane bounds (see planeBounds): dead front and index
// planes are skipped.
func (pp *Packed) Run(sc *PackedScratch) {
	for blk := 0; blk < pp.nb; blk++ {
		pp.runBlock(sc, blk, false)
	}
}

// RunFull is Run with the index-plane bounds disabled: every index plane
// is treated as live. Composition-mode clients (the word sorter's wide
// path) preload a composed permutation into the index planes, which
// invalidates the identity-start assumption of the origin-interval
// analysis; the front-plane bounds are data-independent and still apply.
func (pp *Packed) RunFull(sc *PackedScratch) {
	for blk := 0; blk < pp.nb; blk++ {
		pp.runBlock(sc, blk, true)
	}
}

// runBlock replays the step stream over one cache block of lane words.
// The packability scan behind Program.Packed guarantees every opcode has
// a case here, so the switch needs no failure arm.
func (pp *Packed) runBlock(sc *PackedScratch, blk int, fullIdx bool) {
	for r, reps := 0, pp.prog.Repeats(); r < reps; r++ {
		pp.runBlockPass(sc, blk, fullIdx, r*len(pp.prog.steps))
	}
}

// runBlockPass replays the step stream once over one cache block; bbase
// offsets into the per-executed-step plane bounds (pass r of a Repeat
// program owns bounds [r·len(steps), (r+1)·len(steps))).
func (pp *Packed) runBlockPass(sc *PackedScratch, blk int, fullIdx bool, bbase int) {
	P, bw := pp.P, pp.bw
	PW := P * bw
	n := pp.prog.layout.N
	bval := sc.Val[blk*n*PW : (blk+1)*n*PW]
	btmp := sc.Tmp[:n*PW]
	cnt := sc.cnt
	m1 := sc.msk[:bw]
	gw := blk * bw // first global in-psel word of this block
	for si, st := range pp.prog.steps {
		lo, hi := int(st.Lo), int(st.Hi)
		s := hi - lo
		wf := int(pp.wFront[bbase+si])
		wi := int(pp.wIdx[bbase+si])
		if fullIdx {
			wi = pp.I
		}
		tp := wf - 1
		switch st.Op {
		case OpCmpSwap:
			// Inlined single-position masked swap: cmp-swaps are the most
			// frequent step by far (every merge bottoms out in one), and a
			// call per pair would cost more than the swap itself.
			xo := lo * PW
			if bw == 1 {
				if m := bval[xo+tp] &^ bval[xo+P+tp]; m != 0 {
					m1[0] = m
					pp.swapPos(bval[xo:xo+PW], bval[xo+PW:xo+2*PW], m1, wf, wi)
				}
				break
			}
			any := uint64(0)
			for w := 0; w < bw; w++ {
				mw := bval[xo+tp*bw+w] &^ bval[xo+PW+tp*bw+w]
				m1[w] = mw
				any |= mw
			}
			if any != 0 {
				pp.swapPos(bval[xo:xo+PW], bval[xo+PW:xo+2*PW], m1, wf, wi)
			}
		case OpEndsSwap:
			for i := 0; i < s/2; i++ {
				xo, yo := (lo+i)*PW, (hi-1-i)*PW
				any := uint64(0)
				for w := 0; w < bw; w++ {
					mw := bval[xo+tp*bw+w] &^ bval[yo+tp*bw+w]
					m1[w] = mw
					any |= mw
				}
				if any != 0 {
					pp.swapPos(bval[xo:xo+PW], bval[yo:yo+PW], m1, wf, wi)
				}
			}
		case OpFourIn:
			q := s / 4
			m0 := sc.msk[bw : 2*bw]
			m2 := sc.msk[2*bw : 3*bw]
			m3 := sc.msk[3*bw : 4*bw]
			sb := 2 * int(st.Aux) * bw
			for w := 0; w < bw; w++ {
				h1 := bval[(lo+q)*PW+tp*bw+w]
				h2 := bval[(lo+3*q)*PW+tp*bw+w]
				sc.sel[sb+w] = h1
				sc.sel[sb+bw+w] = h2
				m0[w] = ^h1 & ^h2
				m2[w] = h1 & ^h2
				m3[w] = h1 & h2
			}
			// INSwap per select (see swapper.INSwap): sel 0 rotates the
			// upper three quarters right, sel 1 is the identity, sel 2
			// swaps the halves, sel 3 swaps the first two quarters.
			pp.maskedSwap(bval, lo+2*q, lo+3*q, q, m0, wf, wi) // rot right: swap q2,q3
			pp.maskedSwap(bval, lo+q, lo+2*q, q, m0, wf, wi)   // then swap q1,q2
			pp.maskedSwap(bval, lo, lo+2*q, 2*q, m2, wf, wi)   // swap halves
			pp.maskedSwap(bval, lo, lo+q, q, m3, wf, wi)       // swap q0,q1
		case OpFourOut:
			q := s / 4
			m0 := sc.msk[bw : 2*bw]
			m3 := sc.msk[3*bw : 4*bw]
			sb := 2 * int(st.Aux) * bw
			for w := 0; w < bw; w++ {
				h1 := sc.sel[sb+w]
				h2 := sc.sel[sb+bw+w]
				m0[w] = ^h1 & ^h2
				m3[w] = h1 & h2
			}
			// OUTSwap per select: sel 0 rotates the upper three quarters
			// right, sel 3 the lower three left; 1 and 2 are identities.
			pp.maskedSwap(bval, lo+2*q, lo+3*q, q, m0, wf, wi) // rot right: swap q2,q3
			pp.maskedSwap(bval, lo+q, lo+2*q, q, m0, wf, wi)   // then swap q1,q2
			pp.maskedSwap(bval, lo, lo+q, q, m3, wf, wi)       // rot left: swap q0,q1
			pp.maskedSwap(bval, lo+q, lo+2*q, q, m3, wf, wi)   // then swap q1,q2
		case OpShuffleCount, OpShuffle:
			pp.shuffle(bval, btmp, lo, hi, wf, wi)
			if st.Op == OpShuffle {
				break
			}
			// Reset the bit-sliced ones counters and carry-save add every
			// tag word of the window: amortized O(1) plane updates per
			// word, exactly a 64-lane binary counter increment per word.
			for b := range cnt {
				cnt[b] = 0
			}
			for i := lo; i < hi; i++ {
				for w := 0; w < bw; w++ {
					c := bval[i*PW+tp*bw+w]
					for b := w; c != 0; b += bw {
						carry := cnt[b] & c
						cnt[b] ^= c
						c = carry
					}
				}
			}
		case OpUnshuffle:
			pp.unshuffle(bval, btmp, lo, hi, wf, wi)
		case OpCondIn:
			pw := core.Lg(s)
			sb := 2 * int(st.Aux) * bw
			for w := 0; w < bw; w++ {
				// Per-lane m ≥ s/2 ⇔ counter bit pw-1 or pw set (m ≤ s).
				d := cnt[(pw-1)*bw+w] | cnt[pw*bw+w]
				sc.sel[sb+w] = d
				// m -= s/2 on the selected lanes: bit pw-1 becomes bit pw
				// (1 only in the m = s case), bit pw clears.
				cnt[(pw-1)*bw+w] = (cnt[(pw-1)*bw+w] &^ d) | (cnt[pw*bw+w] & d)
				cnt[pw*bw+w] &^= d
				m1[w] = d
			}
			pp.maskedSwap(bval, lo, lo+s/2, s/2, m1, wf, wi)
		case OpCondOut:
			sb := 2 * int(st.Aux) * bw
			pp.maskedSwap(bval, lo, lo+s/2, s/2, sc.sel[sb:sb+bw], wf, wi)
		case OpFishSplit:
			k := int(st.Aux)
			bs := s / k
			half := bs / 2
			copy(btmp[:s*PW], bval[lo*PW:hi*PW])
			up, dn := lo, lo+s/2
			for j := 0; j < k; j++ {
				blo := j * bs // block offset within btmp
				d := btmp[(blo+half)*PW+tp*bw : (blo+half)*PW+(tp+1)*bw]
				// Lanes in d send the upper (clean) half of the block up
				// and the lower half down; the rest the reverse.
				blendRange(bval[up*PW:], btmp[blo*PW:], btmp[(blo+half)*PW:], half*P, d, bw)
				blendRange(bval[dn*PW:], btmp[(blo+half)*PW:], btmp[blo*PW:], half*P, d, bw)
				up += half
				dn += half
			}
		case OpFishClean:
			k := int(st.Aux)
			bs := s / k
			// Stable per-lane partition of the k clean blocks by their
			// common tag: k rounds of odd-even transposition with masked
			// block swaps. Equal tags never swap, so the partition is
			// stable, matching the scalar fishCleanSort exactly.
			for round := 0; round < k; round++ {
				for j := round & 1; j+1 < k; j += 2 {
					a, b := lo+j*bs, lo+(j+1)*bs
					for w := 0; w < bw; w++ {
						m1[w] = bval[a*PW+tp*bw+w] &^ bval[b*PW+tp*bw+w]
					}
					pp.maskedSwap(bval, a, b, bs, m1, wf, wi)
				}
			}
		case OpRank:
			// Element-wise stable partition: inherently per-lane (each
			// lane's packet order differs), so gather/scatter lane by
			// lane. Only the Ranking baseline engine emits this op.
			pp.rankLanes(bval, btmp, lo, hi, tp)
		case OpSetTag:
			// Tag retargeting is folded into the per-step bounds at
			// compile time; nothing to execute.
		case OpSelSwap:
			// Preset 2×2 switch: the per-step lane mask was flattened from
			// the per-lane settings by LoadSelBits, so the replay is the
			// same masked-XOR swap every tag-driven op uses.
			pb := int(st.Aux)*pp.wpad + gw
			pp.maskedSwap(bval, lo, lo+1, 1, sc.psel[pb:pb+bw], wf, wi)
		case OpCmpPair:
			// Arbitrary-pair compare-exchange: lo and hi are both
			// positions. Same masked single-position swap as OpCmpSwap.
			xo, yo := lo*PW, hi*PW
			if bw == 1 {
				if m := bval[xo+tp] &^ bval[yo+tp]; m != 0 {
					m1[0] = m
					pp.swapPos(bval[xo:xo+PW], bval[yo:yo+PW], m1, wf, wi)
				}
				break
			}
			any := uint64(0)
			for w := 0; w < bw; w++ {
				mw := bval[xo+tp*bw+w] &^ bval[yo+tp*bw+w]
				m1[w] = mw
				any |= mw
			}
			if any != 0 {
				pp.swapPos(bval[xo:xo+PW], bval[yo:yo+PW], m1, wf, wi)
			}
		case OpPermute:
			pp.permute(bval, btmp, lo, hi, pp.prog.perms[st.Aux:int(st.Aux)+s], wf, wi)
		}
	}
}

// permute applies a fixed receives-from permutation to the live planes of
// [lo,hi): position lo+j receives position lo+π[j]. Like shuffle, dead
// planes are window-constant, so copying only live planes preserves them.
func (pp *Packed) permute(bval, btmp []uint64, lo, hi int, pm []int32, wf, wi int) {
	P, F, bw := pp.P, pp.F, pp.bw
	PW := P * bw
	s := hi - lo
	w1 := wf
	if wf == F {
		w1 = F + wi
		wi = 0
	}
	if w1+wi+4 >= P { // same copy-overhead tradeoff as maskedSwap
		copy(btmp[:s*PW], bval[lo*PW:hi*PW])
		for j := 0; j < s; j++ {
			src := int(pm[j])
			copy(bval[(lo+j)*PW:(lo+j+1)*PW], btmp[src*PW:(src+1)*PW])
		}
		return
	}
	for i := 0; i < s; i++ {
		copyLive(btmp[i*PW:], bval[(lo+i)*PW:], w1, F, wi, bw)
	}
	for j := 0; j < s; j++ {
		copyLive(bval[(lo+j)*PW:], btmp[int(pm[j])*PW:], w1, F, wi, bw)
	}
}

// swapPos exchanges the live planes of two single positions on exactly
// the lanes in m: the two live ranges are the wf leading front planes and
// the wi leading index planes, merged into one run when they abut.
func (pp *Packed) swapPos(x, y, m []uint64, wf, wi int) {
	P, F, bw := pp.P, pp.F, pp.bw
	w1 := wf
	if wf == F {
		w1 = F + wi
		wi = 0
	}
	if bw == 1 {
		m0 := m[0]
		if w1+wi+4 >= P {
			for p, xv := range x {
				t := (xv ^ y[p]) & m0
				x[p] = xv ^ t
				y[p] ^= t
			}
			return
		}
		for p := 0; p < w1; p++ {
			t := (x[p] ^ y[p]) & m0
			x[p] ^= t
			y[p] ^= t
		}
		for p := F; p < F+wi; p++ {
			t := (x[p] ^ y[p]) & m0
			x[p] ^= t
			y[p] ^= t
		}
		return
	}
	if w1+wi+4 >= P {
		for o := 0; o < len(x); o += bw {
			for w, mw := range m {
				i := o + w
				t := (x[i] ^ y[i]) & mw
				x[i] ^= t
				y[i] ^= t
			}
		}
		return
	}
	for p := 0; p < w1; p++ {
		o := p * bw
		for w, mw := range m {
			i := o + w
			t := (x[i] ^ y[i]) & mw
			x[i] ^= t
			y[i] ^= t
		}
	}
	for p := F; p < F+wi; p++ {
		o := p * bw
		for w, mw := range m {
			i := o + w
			t := (x[i] ^ y[i]) & mw
			x[i] ^= t
			y[i] ^= t
		}
	}
}

// maskedSwap exchanges the q-position ranges at a and b on exactly the
// lanes in m — three XOR passes per plane word, no branches on tag data —
// touching only the live planes of the step: the wf leading front planes
// and the wi leading index planes (dead planes hold broadcast constants
// across the step's window, so swapping them would be a no-op; see
// planeBounds). When the live total approaches P the two ranges collapse
// into one flat contiguous pass.
func (pp *Packed) maskedSwap(bval []uint64, a, b, q int, m []uint64, wf, wi int) {
	any := uint64(0)
	for _, mw := range m {
		any |= mw
	}
	if any == 0 {
		return
	}
	P, F, bw := pp.P, pp.F, pp.bw
	PW := P * bw
	w1 := wf
	if wf == F {
		w1 = F + wi
		wi = 0
	}
	// Swapping a dead plane is a no-op, so running the contiguous flat
	// pass over all P planes is always correct; the per-position bounded
	// path only wins once it skips enough planes to repay its
	// per-position loop setup (~4 word-ops).
	if w1+wi+4 >= P {
		x := bval[a*PW : (a+q)*PW]
		y := bval[b*PW : (b+q)*PW]
		if bw == 1 {
			m0 := m[0]
			for p, xv := range x {
				t := (xv ^ y[p]) & m0
				x[p] = xv ^ t
				y[p] ^= t
			}
			return
		}
		for o := 0; o < len(x); o += bw {
			for w, mw := range m {
				i := o + w
				t := (x[i] ^ y[i]) & mw
				x[i] ^= t
				y[i] ^= t
			}
		}
		return
	}
	ai, bi := a*PW, b*PW
	if bw == 1 {
		m0 := m[0]
		for i := 0; i < q; i++ {
			x := bval[ai : ai+w1]
			y := bval[bi : bi+w1]
			for p, xv := range x {
				t := (xv ^ y[p]) & m0
				x[p] = xv ^ t
				y[p] ^= t
			}
			for p := F; p < F+wi; p++ {
				xv, yv := bval[ai+p], bval[bi+p]
				t := (xv ^ yv) & m0
				bval[ai+p] = xv ^ t
				bval[bi+p] = yv ^ t
			}
			ai += PW
			bi += PW
		}
		return
	}
	for i := 0; i < q; i++ {
		x := bval[ai : ai+w1*bw]
		y := bval[bi : bi+w1*bw]
		for o := 0; o < len(x); o += bw {
			for w, mw := range m {
				j := o + w
				t := (x[j] ^ y[j]) & mw
				x[j] ^= t
				y[j] ^= t
			}
		}
		for p := F; p < F+wi; p++ {
			o := p * bw
			for w, mw := range m {
				xv, yv := bval[ai+o+w], bval[bi+o+w]
				t := (xv ^ yv) & mw
				bval[ai+o+w] = xv ^ t
				bval[bi+o+w] = yv ^ t
			}
		}
		ai += PW
		bi += PW
	}
}

// shuffle perfect-shuffles the live planes of [lo,hi): position lo+i
// goes to lo+2i, lo+h+i to lo+2i+1. Dead planes are window-constant, so
// copying only live planes preserves them.
func (pp *Packed) shuffle(bval, btmp []uint64, lo, hi, wf, wi int) {
	P, F, bw := pp.P, pp.F, pp.bw
	PW := P * bw
	s := hi - lo
	h := s / 2
	w1 := wf
	if wf == F {
		w1 = F + wi
		wi = 0
	}
	if w1+wi+4 >= P { // same copy-overhead tradeoff as maskedSwap
		copy(btmp[:s*PW], bval[lo*PW:hi*PW])
		for i := 0; i < h; i++ {
			copy(bval[(lo+2*i)*PW:(lo+2*i+1)*PW], btmp[i*PW:(i+1)*PW])
			copy(bval[(lo+2*i+1)*PW:(lo+2*i+2)*PW], btmp[(h+i)*PW:(h+i+1)*PW])
		}
		return
	}
	for i := 0; i < s; i++ {
		copyLive(btmp[i*PW:], bval[(lo+i)*PW:], w1, F, wi, bw)
	}
	for i := 0; i < h; i++ {
		copyLive(bval[(lo+2*i)*PW:], btmp[i*PW:], w1, F, wi, bw)
		copyLive(bval[(lo+2*i+1)*PW:], btmp[(h+i)*PW:], w1, F, wi, bw)
	}
}

// unshuffle inverts shuffle over [lo,hi): even positions gather into the
// first half, odd into the second.
func (pp *Packed) unshuffle(bval, btmp []uint64, lo, hi, wf, wi int) {
	P, F, bw := pp.P, pp.F, pp.bw
	PW := P * bw
	s := hi - lo
	h := s / 2
	w1 := wf
	if wf == F {
		w1 = F + wi
		wi = 0
	}
	if w1+wi+4 >= P {
		copy(btmp[:s*PW], bval[lo*PW:hi*PW])
		for i := 0; i < h; i++ {
			copy(bval[(lo+i)*PW:(lo+i+1)*PW], btmp[2*i*PW:(2*i+1)*PW])
			copy(bval[(lo+h+i)*PW:(lo+h+i+1)*PW], btmp[(2*i+1)*PW:(2*i+2)*PW])
		}
		return
	}
	for i := 0; i < s; i++ {
		copyLive(btmp[i*PW:], bval[(lo+i)*PW:], w1, F, wi, bw)
	}
	for i := 0; i < h; i++ {
		copyLive(bval[(lo+i)*PW:], btmp[2*i*PW:], w1, F, wi, bw)
		copyLive(bval[(lo+h+i)*PW:], btmp[(2*i+1)*PW:], w1, F, wi, bw)
	}
}

// copyLive copies one position's live planes: the w1 leading planes and
// the wi planes at offset F, bw words each.
func copyLive(dst, src []uint64, w1, F, wi, bw int) {
	copy(dst[:w1*bw], src[:w1*bw])
	for o := F * bw; o < (F+wi)*bw; o++ {
		dst[o] = src[o]
	}
}

// rankLanes applies OpRank — the stable 0s-before-1s partition — to every
// lane of [lo,hi) independently: lane l's bits are gathered from the copy
// scratch in partition order and rewritten bit by bit. tp is the tag
// plane.
func (pp *Packed) rankLanes(bval, btmp []uint64, lo, hi, tp int) {
	PW := pp.P * pp.bw
	s := hi - lo
	copy(btmp[lo*PW:hi*PW], bval[lo*PW:hi*PW])
	for i := lo * PW; i < hi*PW; i++ {
		bval[i] = 0
	}
	for w := 0; w < pp.bw; w++ {
		to := tp*pp.bw + w
		for l := uint(0); l < PackedLanes; l++ {
			bit := uint64(1) << l
			z := lo
			for i := lo; i < lo+s; i++ { // 0-tagged packets keep order up front
				if btmp[i*PW+to]&bit == 0 {
					copyLane(bval[z*PW:(z+1)*PW], btmp[i*PW:(i+1)*PW], w, pp.bw, bit)
					z++
				}
			}
			for i := lo; i < lo+s; i++ { // 1-tagged packets keep order behind
				if btmp[i*PW+to]&bit != 0 {
					copyLane(bval[z*PW:(z+1)*PW], btmp[i*PW:(i+1)*PW], w, pp.bw, bit)
					z++
				}
			}
		}
	}
}

// copyLane ORs the single lane selected by bit of word w from src into
// dst across all planes (dst's lane bits start zeroed).
func copyLane(dst, src []uint64, w, bw int, bit uint64) {
	for o := w; o < len(dst); o += bw {
		dst[o] |= src[o] & bit
	}
}

// blendRange writes u plane rows of dst as a per-lane select between two
// sources: lanes in d read from src1, the rest from src0.
func blendRange(dst, src0, src1 []uint64, u int, d []uint64, bw int) {
	w := u * bw
	dst = dst[:w]
	src0 = src0[:w]
	src1 = src1[:w]
	if bw == 1 {
		d0 := d[0]
		for p, a := range src0 {
			dst[p] = a ^ ((a ^ src1[p]) & d0)
		}
		return
	}
	for o := 0; o < w; o += bw {
		for wi, dw := range d {
			i := o + wi
			a := src0[i]
			dst[i] = a ^ ((a ^ src1[i]) & dw)
		}
	}
}

// Transpose64 transposes a 64×64 bit matrix in place (row r bit c ↔
// row c bit r) by recursive block swaps — the classic Hacker's Delight
// construction, three XOR passes per halving level: at block size j, the
// high-j bits of row k exchange with the low-j bits of row k+j within
// every 2j×2j diagonal block.
func Transpose64(a *[64]uint64) {
	// Each level: j is the block size, the mask selects the low j bits of
	// every 2j bit group. Levels are unrolled so shifts and masks are
	// compile-time constants.
	for k := 0; k < 32; k++ {
		t := ((a[k] >> 32) ^ a[k+32]) & 0x00000000FFFFFFFF
		a[k] ^= t << 32
		a[k+32] ^= t
	}
	for k0 := 0; k0 < 64; k0 += 32 {
		for k := k0; k < k0+16; k++ {
			t := ((a[k] >> 16) ^ a[k+16]) & 0x0000FFFF0000FFFF
			a[k] ^= t << 16
			a[k+16] ^= t
		}
	}
	for k0 := 0; k0 < 64; k0 += 16 {
		for k := k0; k < k0+8; k++ {
			t := ((a[k] >> 8) ^ a[k+8]) & 0x00FF00FF00FF00FF
			a[k] ^= t << 8
			a[k+8] ^= t
		}
	}
	for k0 := 0; k0 < 64; k0 += 8 {
		for k := k0; k < k0+4; k++ {
			t := ((a[k] >> 4) ^ a[k+4]) & 0x0F0F0F0F0F0F0F0F
			a[k] ^= t << 4
			a[k+4] ^= t
		}
	}
	for k0 := 0; k0 < 64; k0 += 4 {
		for k := k0; k < k0+2; k++ {
			t := ((a[k] >> 2) ^ a[k+2]) & 0x3333333333333333
			a[k] ^= t << 2
			a[k+2] ^= t
		}
	}
	for k := 0; k < 64; k += 2 {
		t := ((a[k] >> 1) ^ a[k+1]) & 0x5555555555555555
		a[k] ^= t << 1
		a[k+1] ^= t
	}
}

// Transpose16x4 transposes four 16×16 bit matrices at once: each 16-bit
// quarter of the 16 words is one matrix, and the butterfly masks repeat
// per quarter so all four flip in the same three passes per level. Used
// by Extract's stage two, where row b of quarter g is index bit b of
// positions 16g..16g+15 and the transposed row i yields four finished
// 16-bit index values (and by LoadDestLanes for the inverse packing —
// bit-matrix transposition is an involution).
func Transpose16x4(a *[16]uint64) {
	for j, m := uint(8), uint64(0x00FF00FF00FF00FF); j != 0; j, m = j>>1, m^(m<<(j>>1)) {
		for k := uint(0); k < 16; k = (k + j + 1) &^ j {
			t := ((a[k] >> j) ^ a[k+j]) & m
			a[k] ^= t << j
			a[k+j] ^= t
		}
	}
}
