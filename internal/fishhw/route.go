package fishhw

import (
	"fmt"

	"absort/internal/bitvec"
	"absort/internal/muxnet"
	"absort/internal/netlist"
)

// Route runs the clocked datapath in packet mode: every wire carries a
// (tag bit, payload) pair evaluated through the netlists' tagged
// semantics, so the machine acts as the paper's time-multiplexed
// (n,n)-concentrator (Section IV): packets tagged 0 emerge on the leading
// outputs. It returns the realized permutation in receives-from form and
// the run statistics.
func (m *Machine) Route(tags bitvec.Vector) ([]int, Stats, error) {
	if len(tags) != m.n {
		return nil, Stats{}, fmt.Errorf("fishhw: Route with %d tags, want %d", len(tags), m.n)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.macroSteps, m.unitDelays = 0, 0
	g := m.n / m.k

	in := make([]netlist.Tagged, m.n)
	for i, t := range tags {
		in[i] = netlist.Tagged{Bit: uint8(t & 1), Payload: int32(i)}
	}
	selTagged := func(group int) []netlist.Tagged {
		bits := muxnet.SelectBits(group, m.k)
		out := make([]netlist.Tagged, len(bits))
		for i, b := range bits {
			out[i] = netlist.Tagged{Bit: uint8(b), Payload: netlist.NoPayload}
		}
		return out
	}

	bank := make([]netlist.Tagged, m.n)
	copy(bank, in)
	passDepth := m.inputMux.Stats().UnitDepth +
		m.groupSorter.Stats().UnitDepth +
		m.outputDemux.Stats().UnitDepth
	for t := 0; t < m.k; t++ {
		sel := selTagged(t)
		grp := m.traverseTagged(m.inputMux, append(append([]netlist.Tagged{}, sel...), in...))
		sorted := m.traverseTagged(m.groupSorter, grp)
		routed := m.traverseTagged(m.outputDemux, append(append([]netlist.Tagged{}, sel...), sorted...))
		copy(bank[t*g:(t+1)*g], routed[t*g:(t+1)*g])
		m.unitDelays += passDepth
	}

	out, delay := m.mergeLevelTagged(0, bank)
	m.unitDelays += delay

	p := make([]int, m.n)
	seen := make([]bool, m.n)
	for j, v := range out {
		if v.Payload == netlist.NoPayload || int(v.Payload) >= m.n || seen[v.Payload] {
			return nil, Stats{}, fmt.Errorf("fishhw: payload dropped or duplicated at output %d", j)
		}
		p[j] = int(v.Payload)
		seen[v.Payload] = true
	}
	st := Stats{
		MacroSteps:   m.macroSteps,
		UnitDelays:   m.unitDelays,
		SwitchCost:   m.SwitchCost(),
		RegisterBits: m.RegisterBits(),
	}
	return p, st, nil
}

func (m *Machine) traverseTagged(c *netlist.Circuit, in []netlist.Tagged) []netlist.Tagged {
	out := c.EvalTagged(in)
	m.macroSteps++
	return out
}

func (m *Machine) mergeLevelTagged(idx int, data []netlist.Tagged) ([]netlist.Tagged, int) {
	if idx == len(m.levels) {
		out := m.kSorter.EvalTagged(data)
		m.macroSteps++
		return out, m.kSorter.Stats().UnitDepth
	}
	lv := m.levels[idx]
	s := lv.s
	bs := s / m.k

	// k-SWAP controls: each block's middle bit.
	ctrl := make([]netlist.Tagged, m.k)
	for j := 0; j < m.k; j++ {
		ctrl[j] = netlist.Tagged{Bit: data[j*bs+bs/2].Bit, Payload: netlist.NoPayload}
	}
	swapped := m.traverseTagged(lv.kswap, append(append([]netlist.Tagged{}, ctrl...), data...))
	delay := lv.kswap.Stats().UnitDepth
	upper := append([]netlist.Tagged{}, swapped[:s/2]...)
	lower := append([]netlist.Tagged{}, swapped[s/2:]...)

	upperSorted, dUp := m.cleanSortTagged(idx, upper)
	lowerSorted, dLo := m.mergeLevelTagged(idx+1, lower)
	if dLo > dUp {
		delay += dLo
	} else {
		delay += dUp
	}

	out := m.traverseTagged(lv.twoMerge, append(upperSorted, lowerSorted...))
	delay += lv.twoMerge.Stats().UnitDepth
	return out, delay
}

func (m *Machine) cleanSortTagged(idx int, u []netlist.Tagged) ([]netlist.Tagged, int) {
	lv := m.levels[idx]
	h := len(u)
	bs := h / m.k

	leads := make([]netlist.Tagged, m.k)
	for j := 0; j < m.k; j++ {
		leads[j] = netlist.Tagged{Bit: u[j*bs].Bit, Payload: netlist.NoPayload}
	}
	m.kSorter.EvalTagged(leads) // the hardware sorts the leads; ranks re-derived below
	m.macroSteps++
	delay := m.kSorter.Stats().UnitDepth

	zeros := 0
	for j := 0; j < m.k; j++ {
		if leads[j].Bit == 0 {
			zeros++
		}
	}
	out := make([]netlist.Tagged, h)
	selTagged := func(group int) []netlist.Tagged {
		bits := muxnet.SelectBits(group, m.k)
		o := make([]netlist.Tagged, len(bits))
		for i, b := range bits {
			o[i] = netlist.Tagged{Bit: uint8(b), Payload: netlist.NoPayload}
		}
		return o
	}
	nextZero, nextOne := 0, zeros
	for j := 0; j < m.k; j++ {
		pos := nextOne
		if leads[j].Bit == 0 {
			pos = nextZero
			nextZero++
		} else {
			nextOne++
		}
		blk := m.traverseTagged(lv.dispMux, append(selTagged(j), u...))
		routed := m.traverseTagged(lv.dispDmx, append(selTagged(pos), blk...))
		copy(out[pos*bs:(pos+1)*bs], routed[pos*bs:(pos+1)*bs])
		delay += lv.dispMux.Stats().UnitDepth + lv.dispDmx.Stats().UnitDepth
	}
	return out, delay
}
