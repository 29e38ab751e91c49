package absort_test

import (
	"math/rand"
	"testing"

	"absort"
	"absort/internal/permnet"
	"absort/internal/race"
)

// TestBatchPermuterDifferential drives the public batch permuter against
// the scalar radix-permuter route for every engine.
func TestBatchPermuterDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, engine := range []absort.Engine{
		absort.EngineMuxMerger, absort.EnginePrefix, absort.EngineFish, absort.EngineRanking,
	} {
		n := 64
		bp, err := absort.NewBatchPermuter(n, engine)
		if err != nil {
			t.Fatal(err)
		}
		if bp.N() != n || bp.Engine() != engine {
			t.Fatalf("accessors: N=%d engine=%v", bp.N(), bp.Engine())
		}
		dests := make([][]int, 30)
		for i := range dests {
			dests[i] = rng.Perm(n)
		}
		batch, err := bp.RouteBatch(dests, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, dest := range dests {
			want, err := bp.Permuter().Route(dest)
			if err != nil {
				t.Fatal(err)
			}
			single, err := bp.Route(dest)
			if err != nil {
				t.Fatal(err)
			}
			for j := range want {
				if batch[i][j] != want[j] || single[j] != want[j] {
					t.Fatalf("%v request %d: batch %v single %v scalar %v",
						engine, i, batch[i], single, want)
				}
			}
			if !permnet.VerifyRouting(dest, batch[i]) {
				t.Fatalf("%v request %d: routing does not deliver", engine, i)
			}
		}
	}
}

// TestBatchPermuterRouteIntoAllocFree pins the public zero-allocation
// contract.
func TestBatchPermuterRouteIntoAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation pin skipped under the race detector: sync.Pool drops a fraction of Puts when instrumented")
	}
	n := 256
	bp, err := absort.NewBatchPermuter(n, absort.EngineFish)
	if err != nil {
		t.Fatal(err)
	}
	dest := rand.New(rand.NewSource(32)).Perm(n)
	out := make([]int, n)
	if err := bp.RouteInto(out, dest); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := bp.RouteInto(out, dest); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("RouteInto allocates %.1f per run, want 0", avg)
	}
}

// TestBatchConcentratorDifferential drives the public batch concentrator
// against the scalar Plan method.
func TestBatchConcentratorDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	n := 64
	bc, err := absort.NewBatchConcentrator(n, n/2, absort.EngineFish, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bc.N() != n || bc.M() != n/2 || bc.Engine() != absort.EngineFish {
		t.Fatal("accessors")
	}
	batch := make([][]bool, 40)
	for i := range batch {
		batch[i] = make([]bool, n)
		for _, j := range rng.Perm(n)[:rng.Intn(n/2+1)] {
			batch[i][j] = true
		}
	}
	perms, rs, err := bc.ConcentrateBatch(batch, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, marked := range batch {
		wantP, wantR, err := bc.Concentrator().Plan(marked)
		if err != nil {
			t.Fatal(err)
		}
		if rs[i] != wantR {
			t.Fatalf("pattern %d: r=%d want %d", i, rs[i], wantR)
		}
		for j := range wantP {
			if perms[i][j] != wantP[j] {
				t.Fatalf("pattern %d: batch %v != scalar %v", i, perms[i], wantP)
			}
		}
	}
	p := make([]int, n)
	if _, err := bc.ConcentrateInto(p, batch[0]); err != nil {
		t.Fatal(err)
	}
}

// TestBatchRouteValidation checks the public constructors and batch error
// paths.
func TestBatchRouteValidation(t *testing.T) {
	if _, err := absort.NewBatchPermuter(12, absort.EngineFish); err == nil {
		t.Error("NewBatchPermuter accepted non-power-of-two n")
	}
	if _, err := absort.NewBatchConcentrator(12, 4, absort.EngineFish, 0); err == nil {
		t.Error("NewBatchConcentrator accepted non-power-of-two n")
	}
	if _, err := absort.NewBatchConcentrator(16, 0, absort.EngineFish, 0); err == nil {
		t.Error("NewBatchConcentrator accepted m = 0")
	}
	bp, err := absort.NewBatchPermuter(8, absort.EngineMuxMerger)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bp.RouteBatch([][]int{{0, 0, 1, 2, 3, 4, 5, 6}}, 1); err == nil {
		t.Error("RouteBatch accepted a non-permutation")
	}
	bc, err := absort.NewBatchConcentrator(8, 2, absort.EngineMuxMerger, 0)
	if err != nil {
		t.Fatal(err)
	}
	over := []bool{true, true, true, false, false, false, false, false}
	if _, _, err := bc.ConcentrateBatch([][]bool{over}, 1); err == nil {
		t.Error("ConcentrateBatch accepted an over-capacity pattern")
	}
}

// TestSortWordsBatch checks the public word-sort batch front door,
// WordSorter.SortBatch, against per-set sorting.
func TestSortWordsBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	s, err := absort.NewWordSorter(32, 8, absort.EngineFish)
	if err != nil {
		t.Fatal(err)
	}
	sets := make([][]uint64, 20)
	for i := range sets {
		sets[i] = make([]uint64, 32)
		for j := range sets[i] {
			sets[i][j] = uint64(rng.Intn(256))
		}
	}
	keys, perms, err := s.SortBatch(sets, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, set := range sets {
		wantK, wantP, err := s.Sort(set)
		if err != nil {
			t.Fatal(err)
		}
		for j := range wantK {
			if keys[i][j] != wantK[j] || perms[i][j] != wantP[j] {
				t.Fatalf("set %d: batch != single", i)
			}
		}
	}
}
