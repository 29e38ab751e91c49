// Package fishhw is a cycle-accurate hardware model of the fish binary
// sorter — the paper's Network Model B made concrete: "we use all four
// building blocks and assume that there is a global clock that times our
// steps for moving various groups of inputs through (n,k)-multiplexer and
// (k,m)-demultiplexer blocks. The adaptive sorting networks under this
// model can be viewed as simple sequential or clocked circuits."
//
// Unlike internal/core's behavioral fish sorter (which computes the same
// data movements directly), every data movement here flows through an
// actual gate-level netlist: the (n, n/k)-multiplexer, the shared
// n/k-input mux-merger sorter, the (n/k, n)-demultiplexer, the per-level
// k-SWAP stages, the clean sorter's k-input sorter and dispatch
// multiplexer/demultiplexer pairs, and the per-level two-way mux-mergers.
// The control plane (select sequencing and register write enables) is the
// scheduler, exactly as in the paper's model; the datapath is hardware.
//
// The machine counts unit delays per traversal from the netlists' own
// measured depths, so the resulting sorting time cross-validates the
// closed-form timing model of core.FishSorter.SortingTime against real
// circuit depths.
package fishhw

import (
	"fmt"
	"sync"

	"absort/internal/bitvec"
	"absort/internal/core"
	"absort/internal/muxnet"
	"absort/internal/netlist"
	"absort/internal/swapper"
)

// levelHW holds the netlists of one k-way merger level of size s.
type levelHW struct {
	s        int
	kswap    *netlist.Circuit // k control inputs + s data -> s
	dispMux  *netlist.Circuit // (s/2, s/2k)-multiplexer
	dispDmx  *netlist.Circuit // (s/2k, s/2)-demultiplexer
	twoMerge *netlist.Circuit // s-input two-way mux-merger
}

// Machine is the clocked fish sorter datapath. Like the hardware it
// models, it has one register bank and one clock: Sort, Route and
// SortWide are safe for concurrent use, but they serialize — each run
// holds the machine until its schedule completes.
type Machine struct {
	n, k int

	// mu serializes runs: a run owns the register bank and the step
	// counters from reset to the returned Stats.
	mu sync.Mutex

	inputMux    *netlist.Circuit // (n, n/k)-multiplexer
	groupSorter *netlist.Circuit // shared n/k-input mux-merger sorter
	outputDemux *netlist.Circuit // (n/k, n)-demultiplexer
	kSorter     *netlist.Circuit // k-input mux-merger sorter (clean sorter)
	levels      []levelHW        // sizes n, n/2, ..., 2k

	bank bitvec.Vector // the n-bit register bank

	// Counters, reset per Sort call.
	macroSteps int // clocked block traversals
	unitDelays int // sum of traversed netlist depths (unpipelined)
}

// mmSorterCircuit builds an m-input mux-merger sorter netlist.
func mmSorterCircuit(m int) *netlist.Circuit {
	return core.NewMuxMergerSorter(m).Circuit()
}

// New constructs the machine for n inputs and k groups (powers of two,
// 2 ≤ k ≤ n/2; k = n degenerates to a purely combinational sorter, which
// Network Model A already covers).
func New(n, k int) (*Machine, error) {
	if !core.IsPow2(n) || !core.IsPow2(k) || k < 2 || k > n/2 {
		return nil, fmt.Errorf("fishhw: New(%d, %d): need powers of two with 2 ≤ k ≤ n/2", n, k)
	}
	g := n / k
	m := &Machine{n: n, k: k}

	b := netlist.NewBuilder(fmt.Sprintf("input-mux-%d-%d", n, g))
	sel := b.Inputs(core.Lg(k))
	in := b.Inputs(n)
	b.SetOutputs(muxnet.BuildMuxNK(b, sel, in, g))
	m.inputMux = b.MustBuild()

	m.groupSorter = mmSorterCircuit(g)

	b = netlist.NewBuilder(fmt.Sprintf("output-demux-%d-%d", g, n))
	sel = b.Inputs(core.Lg(k))
	in = b.Inputs(g)
	b.SetOutputs(muxnet.BuildDemuxKN(b, sel, in, n))
	m.outputDemux = b.MustBuild()

	m.kSorter = mmSorterCircuit(k)

	for s := n; s >= 2*k; s /= 2 {
		lv := levelHW{s: s}

		b = netlist.NewBuilder(fmt.Sprintf("kswap-%d", s))
		ctrl := b.Inputs(k)
		data := b.Inputs(s)
		b.SetOutputs(swapper.BuildKSwap(b, ctrl, data))
		lv.kswap = b.MustBuild()

		h := s / 2
		bs := h / k
		b = netlist.NewBuilder(fmt.Sprintf("dispatch-mux-%d", h))
		sel = b.Inputs(core.Lg(k))
		in = b.Inputs(h)
		b.SetOutputs(muxnet.BuildMuxNK(b, sel, in, bs))
		lv.dispMux = b.MustBuild()

		b = netlist.NewBuilder(fmt.Sprintf("dispatch-demux-%d", h))
		sel = b.Inputs(core.Lg(k))
		in = b.Inputs(bs)
		b.SetOutputs(muxnet.BuildDemuxKN(b, sel, in, h))
		lv.dispDmx = b.MustBuild()

		b = netlist.NewBuilder(fmt.Sprintf("two-merge-%d", s))
		in = b.Inputs(s)
		b.SetOutputs(core.BuildMuxMerge(b, in))
		lv.twoMerge = b.MustBuild()

		m.levels = append(m.levels, lv)
	}
	m.bank = bitvec.New(n)
	return m, nil
}

// N returns the input width; K the group count.
func (m *Machine) N() int { return m.n }

// K returns the group count.
func (m *Machine) K() int { return m.k }

// Stats reports a completed run's step and delay counts.
type Stats struct {
	// MacroSteps is the number of clocked block traversals the control
	// plane issued.
	MacroSteps int
	// UnitDelays is the total unit delay accumulated through traversed
	// netlists without pipelining, comparable to
	// core.FishSorter.SortingTime(false).
	UnitDelays int
	// SwitchCost is the machine's total switching hardware (unit cost of
	// all netlists; the shared sorter and per-level blocks counted once).
	SwitchCost int
	// RegisterBits is the datapath register budget.
	RegisterBits int
}

// traverse runs one clocked traversal of a netlist through the compiled
// SWAR engine (the program is compiled once per circuit and cached). It
// counts the macro step; unit delays are accumulated by the callers, which
// know whether branches run in parallel (equation (13)'s max) or
// sequentially.
func (m *Machine) traverse(c *netlist.Circuit, in bitvec.Vector) bitvec.Vector {
	out := c.Compile().Eval(in)
	m.macroSteps++
	return out
}

// Sort runs the machine on v and returns the sorted output with run
// statistics. The datapath is evaluated gate-by-gate; the schedule follows
// Fig. 7: k group-sorting steps, then the k-way merger levels with their
// per-block dispatch steps.
func (m *Machine) Sort(v bitvec.Vector) (bitvec.Vector, Stats, error) {
	if len(v) != m.n {
		return nil, Stats{}, fmt.Errorf("fishhw: Sort with %d inputs, want %d", len(v), m.n)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.macroSteps, m.unitDelays = 0, 0
	g := m.n / m.k

	// Phase A: funnel each group through the shared sorter. The input
	// multiplexer reads the raw inputs; the demultiplexer writes the
	// sorted group into the register bank (write enable = group select).
	copy(m.bank, v)
	passDepth := m.inputMux.Stats().UnitDepth +
		m.groupSorter.Stats().UnitDepth +
		m.outputDemux.Stats().UnitDepth
	for t := 0; t < m.k; t++ {
		selBits := bitvec.Vector(muxnet.SelectBits(t, m.k))
		grp := m.traverse(m.inputMux, bitvec.Concat(selBits, v))
		sorted := m.traverse(m.groupSorter, grp)
		routed := m.traverse(m.outputDemux, bitvec.Concat(selBits, sorted))
		copy(m.bank[t*g:(t+1)*g], routed[t*g:(t+1)*g])
		m.unitDelays += passDepth
	}

	// Phase B: the k-way mux-merger levels. Each level's lower half
	// recurses; delays on the clean-sorter branch and the recursive branch
	// accumulate in parallel (two independent pipelines sharing the
	// clock), so the level's ready time is their maximum, as in
	// equation (13).
	out, delay := m.mergeLevel(0, m.bank)
	m.unitDelays += delay
	copy(m.bank, out)
	return out.Clone(), Stats{
		MacroSteps:   m.macroSteps,
		UnitDelays:   m.unitDelays,
		SwitchCost:   m.SwitchCost(),
		RegisterBits: m.RegisterBits(),
	}, nil
}

// mergeLevel executes merger level idx on data and returns the sorted
// result plus the branch's unit delay (not yet added to m.unitDelays —
// parallel branches are max-combined by the caller chain).
func (m *Machine) mergeLevel(idx int, data bitvec.Vector) (bitvec.Vector, int) {
	if idx == len(m.levels) {
		// Boundary: the k-input mux-merger sorter.
		out := m.kSorterEval(data)
		return out, m.kSorter.Stats().UnitDepth
	}
	lv := m.levels[idx]
	s := lv.s

	// k-SWAP, controlled by each block's middle bit.
	ctrl := bitvec.Vector(swapper.KSwapSelects(data, m.k))
	swapped := m.traverse(lv.kswap, bitvec.Concat(ctrl, data))
	delay := lv.kswap.Stats().UnitDepth
	upper, lower := swapped[:s/2].Clone(), swapped[s/2:].Clone()

	upperSorted, dUp := m.cleanSort(idx, upper)
	lowerSorted, dLo := m.mergeLevel(idx+1, lower)
	if dLo > dUp {
		delay += dLo
	} else {
		delay += dUp
	}

	out := m.traverse(lv.twoMerge, bitvec.Concat(upperSorted, lowerSorted))
	delay += lv.twoMerge.Stats().UnitDepth
	return out, delay
}

// kSorterEval runs the boundary k-input sorter as a clocked traversal but
// returns only the data (delay handled by the caller).
func (m *Machine) kSorterEval(data bitvec.Vector) bitvec.Vector {
	out := m.kSorter.Compile().Eval(data)
	m.macroSteps++
	return out
}

// cleanSort runs level idx's clean sorter: the k leading bits through the
// k-input sorter fix each block's destination; then each block moves, one
// clock step at a time, through the dispatch multiplexer/demultiplexer
// into its position register.
func (m *Machine) cleanSort(idx int, u bitvec.Vector) (bitvec.Vector, int) {
	lv := m.levels[idx]
	h := len(u)
	bs := h / m.k

	leads := make(bitvec.Vector, m.k)
	for j := 0; j < m.k; j++ {
		leads[j] = u[j*bs]
	}
	sortedLeads := m.kSorterEval(leads)
	delay := m.kSorter.Stats().UnitDepth
	_ = sortedLeads // the count of zeros below re-derives the same ranking

	zeros := leads.Zeros()
	out := bitvec.New(h)
	nextZero, nextOne := 0, zeros
	for j := 0; j < m.k; j++ {
		pos := nextOne
		if leads[j] == 0 {
			pos = nextZero
			nextZero++
		} else {
			nextOne++
		}
		blk := m.traverse(lv.dispMux, bitvec.Concat(bitvec.Vector(muxnet.SelectBits(j, m.k)), u))
		routed := m.traverse(lv.dispDmx, bitvec.Concat(bitvec.Vector(muxnet.SelectBits(pos, m.k)), blk))
		copy(out[pos*bs:(pos+1)*bs], routed[pos*bs:(pos+1)*bs])
		delay += lv.dispMux.Stats().UnitDepth + lv.dispDmx.Stats().UnitDepth
	}
	return out, delay
}

// SwitchCost returns the unit cost of all datapath netlists.
func (m *Machine) SwitchCost() int {
	total := m.inputMux.Stats().UnitCost +
		m.groupSorter.Stats().UnitCost +
		m.outputDemux.Stats().UnitCost +
		m.kSorter.Stats().UnitCost
	for _, lv := range m.levels {
		total += lv.kswap.Stats().UnitCost +
			lv.dispMux.Stats().UnitCost +
			lv.dispDmx.Stats().UnitCost +
			lv.twoMerge.Stats().UnitCost
	}
	return total
}

// RegisterBits returns the datapath register budget: the n-bit bank plus
// one h-bit staging bank per clean-sorter level.
func (m *Machine) RegisterBits() int {
	total := m.n
	for _, lv := range m.levels {
		total += lv.s / 2
	}
	return total
}
