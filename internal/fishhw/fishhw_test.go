package fishhw

import (
	"math/rand"
	"sync"
	"testing"

	"absort/internal/bitvec"
	"absort/internal/concentrator"
	"absort/internal/core"
)

// TestMachineSortsExhaustive runs the clocked datapath on every input for
// small configurations.
func TestMachineSortsExhaustive(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{8, 2}, {8, 4}, {16, 4}, {16, 8}} {
		m, err := New(tc.n, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		bitvec.All(tc.n, func(v bitvec.Vector) bool {
			out, _, err := m.Sort(v)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Equal(v.Sorted()) {
				t.Errorf("n=%d k=%d: machine sorted %s to %s", tc.n, tc.k, v, out)
				return false
			}
			return true
		})
	}
}

// TestMachineMatchesBehavioralFish cross-validates the hardware datapath
// against the behavioral fish sorter on random wide inputs.
func TestMachineMatchesBehavioralFish(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	for _, tc := range []struct{ n, k int }{{64, 4}, {256, 8}, {1024, 8}} {
		m, err := New(tc.n, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		f := core.NewFishSorter(tc.n, tc.k)
		for i := 0; i < 25; i++ {
			v := bitvec.Random(rng, tc.n)
			hw, _, err := m.Sort(v)
			if err != nil {
				t.Fatal(err)
			}
			if bh := f.Sort(v); !hw.Equal(bh) {
				t.Fatalf("n=%d k=%d: hardware %s != behavioral %s", tc.n, tc.k, hw, bh)
			}
		}
	}
}

// TestMachineDelaysMatchTimingModel is the cross-validation the package
// exists for: the unit delays accumulated through the real netlists must
// equal core.FishSorter's closed-form unpipelined sorting time, except for
// the (k,1)-multiplexer the formula charges per clean-sorter block pass
// (+1 per pass) and the sequencing constant; we assert exact agreement
// after adding that charge.
func TestMachineDelaysMatchTimingModel(t *testing.T) {
	rng := rand.New(rand.NewSource(157))
	for _, tc := range []struct{ n, k int }{{16, 4}, {64, 4}, {256, 8}, {1024, 8}} {
		m, err := New(tc.n, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		f := core.NewFishSorter(tc.n, tc.k)
		model := f.SortingTime(false).Total()
		v := bitvec.Random(rng, tc.n)
		_, st, err := m.Sort(v)
		if err != nil {
			t.Fatal(err)
		}
		// The formula's clean-sorter pass is 2 lg k + 1 (mux, demux, and
		// the (k,1)-mux of the block-select path); the machine's datapath
		// pass is 2 lg k. The clean branch is the critical path only at the
		// innermost merger level (at every outer level the recursive branch
		// dominates, since Dkm(s/2) > clean there), so the model exceeds
		// the machine by exactly k·1 — the k dispatch passes of that one
		// level.
		adjusted := st.UnitDelays + tc.k
		if adjusted != model {
			t.Errorf("n=%d k=%d: machine delays %d (+%d mux charge = %d) != model %d",
				tc.n, tc.k, st.UnitDelays, tc.k, adjusted, model)
		}
	}
}

// TestMachineCostMatchesCostModel: the hardware switch cost must be within
// the k-way merger accounting of core.FishSorter.Cost (the formula charges
// k units per level for the (k,1)-multiplexer, which the machine's control
// plane subsumes, and counts mux/demux at the paper's n instead of the
// exact k(n/k −1)).
func TestMachineCostMatchesCostModel(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{16, 4}, {256, 8}, {1024, 16}} {
		m, err := New(tc.n, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		model := core.NewFishSorter(tc.n, tc.k).Cost().Total()
		hw := m.SwitchCost()
		if hw > model {
			t.Errorf("n=%d k=%d: hardware cost %d exceeds model %d", tc.n, tc.k, hw, model)
		}
		// The model's generosity is bounded: per level it may over-charge
		// the dispatch (k units for the (k,1)-mux plus the mux/demux
		// rounding ≤ 2k) and one k-sorter; plus 2k on the input mux/demux.
		slack := 0
		for s := tc.n; s >= 2*tc.k; s /= 2 {
			slack += 3*tc.k + core.MuxMergerSortCost(tc.k)
		}
		slack += 2 * tc.k
		if hw+slack < model {
			t.Errorf("n=%d k=%d: hardware cost %d too far below model %d (slack %d)",
				tc.n, tc.k, hw, model, slack)
		}
	}
}

// TestMachineMacroSteps sanity-checks the clocked schedule length:
// k phase-A steps ×3 traversals, plus per level (1 kswap + 1 k-sorter +
// 2k dispatch + 1 merge) and the boundary sorter.
func TestMachineMacroSteps(t *testing.T) {
	m, err := New(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := m.Sort(bitvec.New(64))
	if err != nil {
		t.Fatal(err)
	}
	levels := 0
	for s := 64; s >= 8; s /= 2 {
		levels++
	}
	want := 4*3 + levels*(1+1+2*4+1) + 1
	if st.MacroSteps != want {
		t.Errorf("macro steps = %d, want %d", st.MacroSteps, want)
	}
}

// TestMachineRegisters: bank + staging banks ≈ 2n.
func TestMachineRegisters(t *testing.T) {
	m, err := New(256, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := 256
	for s := 256; s >= 16; s /= 2 {
		want += s / 2
	}
	if got := m.RegisterBits(); got != want {
		t.Errorf("register bits = %d, want %d", got, want)
	}
}

// TestMachineValidation covers the constructor and Sort error paths.
func TestMachineValidation(t *testing.T) {
	if _, err := New(16, 16); err == nil {
		t.Error("accepted k = n (no time multiplexing)")
	}
	if _, err := New(12, 4); err == nil {
		t.Error("accepted non-power-of-two n")
	}
	if _, err := New(16, 3); err == nil {
		t.Error("accepted non-power-of-two k")
	}
	m, err := New(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Sort(bitvec.New(8)); err == nil {
		t.Error("accepted wrong input width")
	}
}

// TestMachineReusable: consecutive sorts do not leak state.
func TestMachineReusable(t *testing.T) {
	m, err := New(32, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(163))
	var prevSteps int
	for i := 0; i < 10; i++ {
		v := bitvec.Random(rng, 32)
		out, st, err := m.Sort(v)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Equal(v.Sorted()) {
			t.Fatalf("run %d: incorrect sort", i)
		}
		if i > 0 && st.MacroSteps != prevSteps {
			t.Fatalf("run %d: macro steps changed %d -> %d", i, prevSteps, st.MacroSteps)
		}
		prevSteps = st.MacroSteps
	}
}

// TestMachineRouteMatchesConcentrator: the clocked machine in packet mode
// realizes exactly the permutation of the behavioral fish concentrator
// replay, and its tag outputs are sorted.
func TestMachineRouteMatchesConcentrator(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for _, tc := range []struct{ n, k int }{{16, 4}, {64, 8}, {256, 8}} {
		m, err := New(tc.n, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			tags := bitvec.Random(rng, tc.n)
			p, st, err := m.Route(tags)
			if err != nil {
				t.Fatal(err)
			}
			want := concentrator.RouteFish(tags, tc.k)
			for j := range want {
				if p[j] != want[j] {
					t.Fatalf("n=%d k=%d tags=%s: machine %v != replay %v",
						tc.n, tc.k, tags, p, want)
				}
			}
			out := make(bitvec.Vector, tc.n)
			for j, idx := range p {
				out[j] = tags[idx]
			}
			if !out.IsSorted() {
				t.Fatalf("machine route left tags unsorted: %s", out)
			}
			if st.MacroSteps <= 0 || st.UnitDelays <= 0 {
				t.Fatal("missing stats")
			}
		}
	}
}

// TestMachineRouteExhaustiveSmall: all 2^8 tag patterns at n=8.
func TestMachineRouteExhaustiveSmall(t *testing.T) {
	m, err := New(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	bitvec.All(8, func(tags bitvec.Vector) bool {
		p, _, err := m.Route(tags)
		if err != nil {
			t.Fatal(err)
		}
		want := concentrator.RouteFish(tags, 2)
		for j := range want {
			if p[j] != want[j] {
				t.Errorf("tags=%s: %v != %v", tags, p, want)
				return false
			}
		}
		return true
	})
}

// TestMachineRouteArity covers validation.
func TestMachineRouteArity(t *testing.T) {
	m, err := New(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Route(bitvec.New(8)); err == nil {
		t.Error("accepted wrong tag width")
	}
}

// TestMachineConcurrentRuns shares one machine across goroutines, as
// verify.SortsAllBinary does with its worker pool: Sort, Route and
// SortWide serialize on the machine, so every run sorts correctly and
// reports the stats of a lone run. Run with -race.
func TestMachineConcurrentRuns(t *testing.T) {
	const n, k = 16, 4
	m, err := New(n, k)
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := m.Sort(bitvec.New(n))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				v := bitvec.Random(rng, n)
				out, st, err := m.Sort(v)
				if err != nil || !out.Equal(v.Sorted()) || st != want {
					t.Errorf("concurrent Sort(%s) = %s, %+v, %v; want %s, %+v",
						v, out, st, err, v.Sorted(), want)
					return
				}
				if _, st, err := m.Route(v); err != nil || st != want {
					t.Errorf("concurrent Route(%s) stats %+v, %v; want %+v", v, st, err, want)
					return
				}
				wide, st, err := m.SortWide([]bitvec.Vector{v, v.Complement()})
				if err != nil || !wide[0].Equal(v.Sorted()) || st != want {
					t.Errorf("concurrent SortWide(%s) stats %+v, %v; want %+v", v, st, err, want)
					return
				}
			}
		}(int64(300 + g))
	}
	wg.Wait()
}
