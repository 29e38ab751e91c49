package concentrator

import (
	"math/rand"
	"strings"
	"testing"

	"absort/internal/bitvec"
	"absort/internal/core"
	"absort/internal/race"
)

// The bit-block transpose convention the packed extractor depends on is
// pinned by TestTranspose64 in internal/planner, next to the shared
// packed runner the transpose now lives in.

// TestRoutePackedDifferential checks the 64-lane SWAR engine against the
// scalar plan on every engine, across widths and every lane count 1..64
// (ragged final words included): each lane's permutation must be
// bit-for-bit identical to the scalar route of that lane's tags.
func TestRoutePackedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	lanesSweep := []int{1, 2, 7, 24, 63, 64}
	for _, cfg := range planConfigs(64) {
		p := NewPlan(cfg.n, cfg.engine, cfg.k)
		pp, err := p.Packed()
		if err != nil {
			t.Fatal(err)
		}
		for _, lanes := range lanesSweep {
			batch := make([]bitvec.Vector, lanes)
			for l := range batch {
				batch[l] = bitvec.Random(rng, cfg.n)
			}
			out := make([][]int, lanes)
			for l := range out {
				out[l] = make([]int, cfg.n)
			}
			if err := pp.RouteLanes(out, batch); err != nil {
				t.Fatalf("%v n=%d k=%d lanes=%d: %v", cfg.engine, cfg.n, cfg.k, lanes, err)
			}
			for l, tags := range batch {
				want := mustRoute(t, p, tags)
				if !equalPerm(out[l], want) {
					t.Fatalf("%v n=%d k=%d lanes=%d lane %d tags=%v:\npacked %v\nscalar %v",
						cfg.engine, cfg.n, cfg.k, lanes, l, tags, out[l], want)
				}
			}
		}
	}
}

// TestRoutePackedExhaustive runs every tag pattern at small widths packed
// 64 at a time against the scalar plan — the packed twin of
// TestPlanExhaustiveDifferential.
func TestRoutePackedExhaustive(t *testing.T) {
	for _, cfg := range planConfigs(8) {
		p := NewPlan(cfg.n, cfg.engine, cfg.k)
		pp, err := p.Packed()
		if err != nil {
			t.Fatal(err)
		}
		total := uint64(1) << cfg.n
		for lo := uint64(0); lo < total; lo += PackedLanes {
			lanes := int(min64(PackedLanes, total-lo))
			batch := make([]bitvec.Vector, lanes)
			out := make([][]int, lanes)
			for l := range batch {
				batch[l] = bitvec.FromUint(lo+uint64(l), cfg.n)
				out[l] = make([]int, cfg.n)
			}
			if err := pp.RouteLanes(out, batch); err != nil {
				t.Fatalf("%v n=%d k=%d: %v", cfg.engine, cfg.n, cfg.k, err)
			}
			for l, tags := range batch {
				want := scalarRoute(cfg.engine, cfg.k, tags)
				if !equalPerm(out[l], want) {
					t.Fatalf("%v n=%d k=%d tags=%v: packed %v, scalar %v",
						cfg.engine, cfg.n, cfg.k, tags, out[l], want)
				}
			}
		}
	}
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// TestRoutePackedLarge extends the differential to widths where the
// extractor's 64-wide transpose chunks and the fish engine's deep merge
// trees are fully exercised.
func TestRoutePackedLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, cfg := range []struct {
		n      int
		engine Engine
		k      int
	}{
		{256, MuxMerger, 0}, {256, PrefixAdder, 0}, {256, Ranking, 0},
		{256, Fish, 2}, {256, Fish, 8}, {256, Fish, 128},
		{1024, Fish, 8}, {1024, PrefixAdder, 0},
	} {
		p := NewPlan(cfg.n, cfg.engine, cfg.k)
		pp, err := p.Packed()
		if err != nil {
			t.Fatal(err)
		}
		tags := make([]uint64, cfg.n)
		batch := make([]bitvec.Vector, PackedLanes)
		out := make([][]int, PackedLanes)
		for l := range batch {
			batch[l] = bitvec.Random(rng, cfg.n)
			out[l] = make([]int, cfg.n)
		}
		if err := PackTagLanes(tags, batch); err != nil {
			t.Fatal(err)
		}
		if err := pp.RoutePacked(out, tags); err != nil {
			t.Fatalf("%v n=%d k=%d: %v", cfg.engine, cfg.n, cfg.k, err)
		}
		for l, tv := range batch {
			want := mustRoute(t, p, tv)
			if !equalPerm(out[l], want) {
				t.Fatalf("%v n=%d k=%d lane %d: packed != scalar", cfg.engine, cfg.n, cfg.k, l)
			}
		}
	}
}

// TestConcentratePackedMatchesScalar checks the packed concentrator front
// door — permutations and request counts — against per-pattern
// ConcentrateInto, including patterns at exactly capacity.
func TestConcentratePackedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, engine := range []Engine{MuxMerger, PrefixAdder, Fish, Ranking} {
		n := 128
		c := New(n, n/2, engine, 4)
		for _, lanes := range []int{1, 24, 64} {
			batch := make([][]bool, lanes)
			for l := range batch {
				marked := make([]bool, n)
				r := rng.Intn(n/2 + 1)
				for _, i := range rng.Perm(n)[:r] {
					marked[i] = true
				}
				batch[l] = marked
			}
			perms, counts := makeBatchResults(lanes, n)
			if err := c.ConcentratePacked(perms, counts, batch); err != nil {
				t.Fatalf("%v lanes=%d: %v", engine, lanes, err)
			}
			wantP := make([]int, n)
			for l, marked := range batch {
				wantR, err := c.ConcentrateInto(wantP, marked)
				if err != nil {
					t.Fatal(err)
				}
				if counts[l] != wantR || !equalPerm(perms[l], wantP) {
					t.Fatalf("%v lanes=%d lane %d: packed (%v, %d) != scalar (%v, %d)",
						engine, lanes, l, perms[l], counts[l], wantP, wantR)
				}
			}
		}
	}
}

// TestConcentrateBatchPackedPath routes a batch wide enough to take the
// packed fast path through the ConcentrateBatch front door — including a
// ragged final lane group and a remainder narrower than MinPackedLanes —
// and checks it against the planned pipeline. Run under -race this also
// exercises the packed path's worker-pool memory visibility.
func TestConcentrateBatchPackedPath(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	n := 64
	for _, engine := range []Engine{MuxMerger, PrefixAdder, Fish} {
		c := New(n, n, engine, 4)
		for _, batchLen := range []int{PackedLanes, PackedLanes + MinPackedLanes - 1, 3*PackedLanes + 40, 257} {
			batch := make([][]bool, batchLen)
			for i := range batch {
				marked := make([]bool, n)
				for j := range marked {
					marked[j] = rng.Intn(2) == 0
				}
				batch[i] = marked
			}
			for _, workers := range []int{1, 4, 0} {
				gotP, gotR, err := c.ConcentrateBatch(batch, workers)
				if err != nil {
					t.Fatalf("%v len=%d workers=%d: %v", engine, batchLen, workers, err)
				}
				wantP, wantR, err := c.ConcentrateBatchPlanned(batch, workers)
				if err != nil {
					t.Fatal(err)
				}
				for i := range batch {
					if gotR[i] != wantR[i] || !equalPerm(gotP[i], wantP[i]) {
						t.Fatalf("%v len=%d workers=%d pattern %d: packed (%v, %d) != planned (%v, %d)",
							engine, batchLen, workers, i, gotP[i], gotR[i], wantP[i], wantR[i])
					}
				}
			}
		}
	}
}

// TestConcentrateBatchRankingStaysPlanned pins that the Ranking engine
// never auto-switches: its single stable partition gains nothing from
// lane packing, and opRank's per-lane gather would be slower.
func TestConcentrateBatchRankingStaysPlanned(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	n := 32
	c := New(n, n, Ranking, 0)
	batch := make([][]bool, 2*PackedLanes)
	for i := range batch {
		marked := make([]bool, n)
		for j := range marked {
			marked[j] = rng.Intn(2) == 0
		}
		batch[i] = marked
	}
	gotP, gotR, err := c.ConcentrateBatch(batch, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantP := make([]int, n)
	for i, marked := range batch {
		wantR, err := c.ConcentrateInto(wantP, marked)
		if err != nil {
			t.Fatal(err)
		}
		if gotR[i] != wantR || !equalPerm(gotP[i], wantP) {
			t.Fatalf("pattern %d: batch (%v, %d) != scalar (%v, %d)",
				i, gotP[i], gotR[i], wantP, wantR)
		}
	}
}

// TestPackedErrors walks every validated failure of the packed entry
// points: they must return errors — never panic — with the same messages
// the planned batch pipeline reports.
func TestPackedErrors(t *testing.T) {
	n := 16
	p := NewPlan(n, MuxMerger, 0)
	pp, err := p.Packed()
	if err != nil {
		t.Fatal(err)
	}
	good := make([][]int, 1)
	good[0] = make([]int, n)

	if err := pp.RoutePacked(nil, make([]uint64, n)); err == nil {
		t.Error("RoutePacked accepted 0 lanes")
	}
	if err := pp.RoutePacked(make([][]int, MaxPackedLanes+1), make([]uint64, n)); err == nil {
		t.Error("RoutePacked accepted more than MaxPackedLanes lanes")
	}
	if err := pp.RoutePacked(good, make([]uint64, n-1)); err == nil {
		t.Error("RoutePacked accepted short tag words")
	}
	if err := pp.RoutePacked([][]int{make([]int, n-1)}, make([]uint64, n)); err == nil {
		t.Error("RoutePacked accepted short output")
	}
	if err := pp.RouteLanes(good, make([]bitvec.Vector, 2)); err == nil {
		t.Error("RouteLanes accepted output/pattern count mismatch")
	}
	if err := pp.RouteLanes(good, []bitvec.Vector{make(bitvec.Vector, n-1)}); err == nil {
		t.Error("RouteLanes accepted short tag vector")
	}
	if err := PackTagLanes(make([]uint64, n), nil); err == nil {
		t.Error("PackTagLanes accepted 0 lanes")
	}
	if err := PackTagLanes(make([]uint64, 1), []bitvec.Vector{make(bitvec.Vector, n)}); err == nil {
		t.Error("PackTagLanes accepted short destination")
	}

	c := New(n, 2, MuxMerger, 0)
	perms, counts := makeBatchResults(1, n)
	if err := c.ConcentratePacked(perms, counts, nil); err == nil {
		t.Error("ConcentratePacked accepted 0 patterns")
	}
	if err := c.ConcentratePacked(perms, counts, [][]bool{make([]bool, n-1)}); err == nil ||
		!strings.Contains(err.Error(), "pattern 0") {
		t.Errorf("ConcentratePacked wrong-width error = %v", err)
	}
	over := make([]bool, n)
	for i := range over {
		over[i] = true
	}
	if err := c.ConcentratePacked(perms, counts, [][]bool{over}); err == nil ||
		!strings.Contains(err.Error(), "exceed capacity") {
		t.Errorf("ConcentratePacked over-capacity error = %v", err)
	}
	// The batch front door reports failures with the global pattern
	// index, identically to the planned path — whether the bad pattern
	// rides a packed group or the planned remainder after the last one.
	eight := make([]bool, n) // 8 marks: over the capacity 4 of c4
	for i := 0; i < 8; i++ {
		eight[i] = true
	}
	c4 := New(n, 4, MuxMerger, 0)
	for _, tc := range []struct {
		name       string
		c          *Concentrator
		size, bad  int
		pattern    []bool
		wantSubstr string
	}{
		{"packed group", c, PackedLanes, 70 % PackedLanes, over, "pattern 6:"},
		{"planned remainder", c4, PackedLanes + 1, PackedLanes, eight,
			"concentrator: batch pattern 64: concentrator: 8 requests exceed capacity 4"},
	} {
		batch := make([][]bool, tc.size)
		for i := range batch {
			batch[i] = make([]bool, n)
		}
		batch[tc.bad] = tc.pattern
		_, _, err := tc.c.ConcentrateBatch(batch, 2)
		_, _, want := tc.c.ConcentrateBatchPlanned(batch, 2)
		if err == nil || want == nil || err.Error() != want.Error() ||
			!strings.Contains(err.Error(), tc.wantSubstr) {
			t.Errorf("%s: ConcentrateBatch error = %v, planned error = %v", tc.name, err, want)
		}
	}
}

// TestPackedAllocFree pins the packed engine's zero steady-state heap
// allocation guarantee.
func TestPackedAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation pin skipped under the race detector: sync.Pool drops a fraction of Puts when instrumented")
	}
	rng := rand.New(rand.NewSource(46))
	n := 256
	pp, err := NewPlan(n, Fish, 4).Packed()
	if err != nil {
		t.Fatal(err)
	}
	tags := make([]uint64, n)
	for i := range tags {
		tags[i] = rng.Uint64()
	}
	out := make([][]int, PackedLanes)
	for l := range out {
		out[l] = make([]int, n)
	}
	if err := pp.RoutePacked(out, tags); err != nil { // warm the pool
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(50, func() {
		if err := pp.RoutePacked(out, tags); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("RoutePacked allocates %.1f per run, want 0", avg)
	}
}

// FuzzRoutePacked drives random engine/width/lane configurations through
// the packed engine and cross-checks every lane against the scalar plan.
func FuzzRoutePacked(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(3), uint8(17))
	f.Add(int64(2), uint8(1), uint8(5), uint8(64))
	f.Add(int64(3), uint8(2), uint8(6), uint8(1))
	f.Add(int64(4), uint8(3), uint8(4), uint8(33))
	f.Fuzz(func(t *testing.T, seed int64, eng, lgN, lanes8 uint8) {
		engine := Engine(eng % 4)
		n := 1 << (lgN % 9) // 1..256
		lanes := int(lanes8%PackedLanes) + 1
		k := 0
		if engine == Fish && n > 1 {
			rngK := rand.New(rand.NewSource(seed))
			k = 2 << rngK.Intn(core.Lg(n))
			if k > n {
				k = n
			}
		}
		rng := rand.New(rand.NewSource(seed))
		p := NewPlan(n, engine, k)
		pp, err := p.Packed()
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]bitvec.Vector, lanes)
		out := make([][]int, lanes)
		for l := range batch {
			batch[l] = bitvec.Random(rng, n)
			out[l] = make([]int, n)
		}
		if err := pp.RouteLanes(out, batch); err != nil {
			t.Fatal(err)
		}
		for l, tags := range batch {
			want := mustRoute(t, p, tags)
			if !equalPerm(out[l], want) {
				t.Fatalf("%v n=%d k=%d lane %d tags=%v: packed %v, scalar %v",
					engine, n, k, l, tags, out[l], want)
			}
		}
	})
}
