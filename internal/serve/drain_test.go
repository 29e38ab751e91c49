package serve

// Tests of the drain's claim rule: a worker claims a burst only when the
// queue holds enough to fill a packed replay (see enoughToPack), so short
// groups spread over the idle workers and a closed loop keeps packing.

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"absort/internal/concentrator"
	"absort/internal/race"
)

// TestDrainLeavesUnpackableGroups queues 16 concentrates — fewer than
// MinPackedLanes — behind two held workers and releases them. No worker
// may claim a group it will not pack: every claim is a single task (or,
// never here, a packable group), and nothing rides a packed replay.
func TestDrainLeavesUnpackableGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n, workers, concs = 64, 2, 16
	s, err := New(Config{N: n, Engine: concentrator.MuxMerger, Workers: workers, QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	release := make(chan struct{})
	var held atomic.Int32
	s.testBeforeExec = func() {
		if held.Add(1) <= workers {
			<-release
		}
	}
	var mu sync.Mutex
	var sizes []int
	s.testOnBurst = func(kind Kind, size int) {
		mu.Lock()
		sizes = append(sizes, size)
		mu.Unlock()
	}

	ctx := context.Background()
	holds := make([]*Future, workers)
	for i := range holds {
		if holds[i], err = s.Submit(ctx, Request{Kind: SortWords, Keys: make([]uint64, n)}); err != nil {
			t.Fatal(err)
		}
	}
	for held.Load() < workers {
		time.Sleep(time.Millisecond)
	}
	futs := make([]*Future, concs)
	for i := range futs {
		marked := make([]bool, n)
		for j := range marked {
			marked[j] = rng.Intn(2) == 0
		}
		if futs[i], err = s.Submit(ctx, Request{Kind: Concentrate, Marked: marked}); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	for i, fut := range append(futs, holds...) {
		if _, err := fut.Wait(ctx); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	claimed := 0
	for _, size := range sizes {
		if size >= 2 && size < concentrator.MinPackedLanes {
			t.Errorf("a worker claimed an unpackable group of %d (claims %v)", size, sizes)
		}
		claimed += size
	}
	if claimed != concs {
		t.Errorf("claims %v cover %d concentrates, want %d", sizes, claimed, concs)
	}
	if st := s.Stats(); st.Packed != 0 {
		t.Errorf("Packed = %d for a %d-request queue, want 0", st.Packed, concs)
	}
}

// TestClosedLoopPacks drives a closed loop of 128 concentrate submitters
// at n=4096 on the fish engine (Network 3) for a fixed window: each
// submitter waits for its result and resubmits at once. The drain must
// keep that loop on the packed replay instead of decaying into
// one-by-one routes, so at least 80% of the resolved requests must have
// ridden a packed burst.
func TestClosedLoopPacks(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	if race.Enabled {
		t.Skip("timing test skipped under the race detector: instrumentation " +
			"slows the packed replay enough to change the queue dynamics")
	}
	const (
		n          = 4096
		submitters = 128
		window     = 800 * time.Millisecond
	)
	s, err := New(Config{N: n, Engine: concentrator.Fish, QueueDepth: 2 * submitters})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(29))
	pool := make([][]bool, 32)
	for i := range pool {
		pool[i] = make([]bool, n)
		for j := range pool[i] {
			pool[i][j] = rng.Intn(2) == 0
		}
	}

	ctx := context.Background()
	stop := time.Now().Add(window)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; time.Now().Before(stop); i++ {
				fut, err := s.Submit(ctx, Request{Kind: Concentrate, Marked: pool[i%len(pool)]})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := fut.Wait(ctx); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := s.Stats()
	if st.Completed == 0 {
		t.Fatal("no request completed")
	}
	share := float64(st.Packed) / float64(st.Completed)
	t.Logf("%d workers: %d of %d requests packed (%.2f)", s.Workers(), st.Packed, st.Completed, share)
	if share < 0.8 {
		t.Errorf("closed loop packed only %d of %d requests (%.2f), want ≥ 0.80",
			st.Packed, st.Completed, share)
	}
}
