package serve

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"absort/internal/concentrator"
	"absort/internal/permnet"
)

// newTestService builds a small service, failing the test on error.
func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestServeDifferential streams a mixed workload through the service on
// every engine and checks each result against the direct plan paths.
func TestServeDifferential(t *testing.T) {
	for _, engine := range []Engine{
		concentrator.MuxMerger, concentrator.PrefixAdder, concentrator.Fish, concentrator.Ranking,
	} {
		engine := engine
		t.Run(engine.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			n := 32
			s := newTestService(t, Config{N: n, Engine: engine, Workers: 4, QueueDepth: 8, WordBits: 8})
			rp := permnet.NewRadixPermuter(n, engine, 0)
			conc := concentrator.New(n, n, engine, 0)

			type pending struct {
				req  Request
				fut  *Future
				want Result
			}
			var reqs []pending
			for i := 0; i < 60; i++ {
				switch i % 3 {
				case 0:
					dest := rng.Perm(n)
					want, err := rp.RoutePlanned(dest)
					if err != nil {
						t.Fatal(err)
					}
					reqs = append(reqs, pending{req: Request{Kind: Permute, Dest: dest}, want: Result{Perm: want}})
				case 1:
					marked := make([]bool, n)
					for j := range marked {
						marked[j] = rng.Intn(2) == 0
					}
					wantP, wantR, err := conc.Concentrate(marked)
					if err != nil {
						t.Fatal(err)
					}
					reqs = append(reqs, pending{req: Request{Kind: Concentrate, Marked: marked},
						want: Result{Perm: wantP, Count: wantR}})
				default:
					keys := make([]uint64, n)
					for j := range keys {
						keys[j] = uint64(rng.Intn(256))
					}
					ws := s.word
					wantK, wantP, err := ws.Sort(keys)
					if err != nil {
						t.Fatal(err)
					}
					reqs = append(reqs, pending{req: Request{Kind: SortWords, Keys: keys},
						want: Result{Perm: wantP, Keys: wantK}})
				}
			}
			for i := range reqs {
				fut, err := s.Submit(context.Background(), reqs[i].req)
				if err != nil {
					t.Fatal(err)
				}
				reqs[i].fut = fut
			}
			for i, p := range reqs {
				res, err := p.fut.Wait(context.Background())
				if err != nil {
					t.Fatalf("request %d (%v): %v", i, p.req.Kind, err)
				}
				if len(res.Perm) != n {
					t.Fatalf("request %d: perm length %d", i, len(res.Perm))
				}
				for j := range res.Perm {
					if res.Perm[j] != p.want.Perm[j] {
						t.Fatalf("request %d (%v): perm %v want %v", i, p.req.Kind, res.Perm, p.want.Perm)
					}
				}
				if res.Count != p.want.Count {
					t.Fatalf("request %d: count %d want %d", i, res.Count, p.want.Count)
				}
				for j := range p.want.Keys {
					if res.Keys[j] != p.want.Keys[j] {
						t.Fatalf("request %d: keys %v want %v", i, res.Keys, p.want.Keys)
					}
				}
			}
			st := s.Stats()
			if st.Submitted != int64(len(reqs)) || st.Completed != int64(len(reqs)) ||
				st.Failed != 0 || st.InFlight != 0 {
				t.Fatalf("stats after drain: %+v", st)
			}
			if st.LatencyCount() != int64(len(reqs)) || st.MeanLatency() <= 0 ||
				st.ApproxQuantile(0.5) <= 0 {
				t.Fatalf("latency histogram: count=%d mean=%v", st.LatencyCount(), st.MeanLatency())
			}
		})
	}
}

// TestNewValidation checks that New rejects every malformed configuration
// with an error, never a panic.
func TestNewValidation(t *testing.T) {
	bad := []Config{
		{N: 0},
		{N: 12},
		{N: -8},
		{N: 16, Engine: Engine(99)},
		{N: 16, Engine: concentrator.Fish, K: 3},
		{N: 16, Engine: concentrator.Fish, K: 32},
		{N: 16, M: 17},
		{N: 16, WordBits: 65},
	}
	for i, cfg := range bad {
		if s, err := New(cfg); err == nil {
			s.Close()
			t.Errorf("config %d (%+v): accepted", i, cfg)
		}
	}
	// n = 1 is the trivial single-wire network and must work, fish included.
	for _, engine := range []Engine{
		concentrator.MuxMerger, concentrator.PrefixAdder, concentrator.Fish, concentrator.Ranking,
	} {
		s, err := New(Config{N: 1, Engine: engine, Workers: 1})
		if err != nil {
			t.Fatalf("New(n=1, %v): %v", engine, err)
		}
		fut, err := s.Submit(context.Background(), Request{Kind: Permute, Dest: []int{0}})
		if err != nil {
			t.Fatalf("n=1 %v submit: %v", engine, err)
		}
		if res, err := fut.Wait(context.Background()); err != nil || len(res.Perm) != 1 || res.Perm[0] != 0 {
			t.Fatalf("n=1 %v: res=%+v err=%v", engine, res, err)
		}
		s.Close()
	}
}

// TestSubmitValidation checks that malformed requests are rejected at
// admission with an error — no Future, no panic — and counted.
func TestSubmitValidation(t *testing.T) {
	n := 16
	s := newTestService(t, Config{N: n, Engine: concentrator.MuxMerger, Workers: 2})
	ctx := context.Background()
	cases := []Request{
		{Kind: Permute},                            // nil dest
		{Kind: Permute, Dest: make([]int, n-1)},    // short
		{Kind: Permute, Dest: make([]int, n+1)},    // long
		{Kind: Concentrate},                        // nil marked
		{Kind: Concentrate, Marked: []bool{true}},  // short
		{Kind: SortWords},                          // nil keys
		{Kind: SortWords, Keys: make([]uint64, 1)}, // short
		{Kind: Kind(7), Dest: make([]int, n)},      // unknown kind
		{Kind: Permute, Marked: make([]bool, n)},   // wrong field for kind
	}
	for i, req := range cases {
		if fut, err := s.Submit(ctx, req); err == nil || fut != nil {
			t.Errorf("case %d: admitted malformed request (err=%v)", i, err)
		}
	}
	if st := s.Stats(); st.Rejected != int64(len(cases)) || st.Submitted != 0 {
		t.Errorf("stats: %+v", st)
	}

	// Semantically invalid but well-formed requests reach a worker and
	// resolve the Future with an error (not a panic).
	dup := make([]int, n) // all-zeros: not a permutation
	fut, err := s.Submit(ctx, Request{Kind: Permute, Dest: dup})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(ctx); err == nil {
		t.Error("non-permutation resolved without error")
	}
	st := s.Stats()
	if st.Failed != 1 {
		t.Errorf("failed = %d, want 1", st.Failed)
	}
}

// TestConcentrateOverCapacity checks the capacity error path end to end.
func TestConcentrateOverCapacity(t *testing.T) {
	n := 16
	s := newTestService(t, Config{N: n, Engine: concentrator.PrefixAdder, M: 2, Workers: 1})
	marked := make([]bool, n)
	for i := range marked {
		marked[i] = true
	}
	fut, err := s.Submit(context.Background(), Request{Kind: Concentrate, Marked: marked})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(context.Background()); err == nil {
		t.Error("over-capacity pattern resolved without error")
	}
}

// TestServePackedBurst holds the single worker, floods the queue with
// Concentrate requests so the drain claims full lane groups, and checks
// the packed burst path end to end: results bit-for-bit equal to the
// scalar plan, over-capacity and expired-deadline requests resolving
// individually with their own errors (never poisoning burst
// neighbours), and a trailing non-Concentrate task executing after the
// burst.
func TestServePackedBurst(t *testing.T) {
	for _, engine := range []Engine{concentrator.MuxMerger, concentrator.PrefixAdder, concentrator.Fish} {
		engine := engine
		t.Run(engine.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			n := 64
			m := n / 2
			release := make(chan struct{})
			s, err := New(Config{N: n, Engine: engine, M: m, Workers: 1, QueueDepth: 128})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			released := false
			releaseOnce := func() {
				if !released {
					released = true
					close(release)
				}
			}
			defer releaseOnce() // a failing assertion must still unblock the worker
			if !s.packs(Concentrate) {
				t.Fatalf("packed burst path disabled for %v", engine)
			}
			var held atomic.Bool
			s.testBeforeExec = func() {
				if held.CompareAndSwap(false, true) {
					<-release
				}
			}
			ctx := context.Background()

			// Occupy the worker so everything below queues up behind it.
			hold, err := s.Submit(ctx, Request{Kind: Permute, Dest: rng.Perm(n)})
			if err != nil {
				t.Fatal(err)
			}
			for !held.Load() {
				time.Sleep(time.Millisecond)
			}

			conc := concentrator.New(n, m, engine, 0)
			type pending struct {
				fut      *Future
				wantPerm []int
				wantR    int
				wantErr  error // nil: success expected; non-nil sentinel or capacity
				overCap  bool
			}
			var reqs []pending
			const total = 90 // > one full lane group + a sub-minimum remainder
			for i := 0; i < total; i++ {
				marked := make([]bool, n)
				switch {
				case i == 10 || i == 70: // over-capacity inside and outside the first group
					for j := range marked {
						marked[j] = true
					}
					fut, err := s.Submit(ctx, Request{Kind: Concentrate, Marked: marked})
					if err != nil {
						t.Fatal(err)
					}
					reqs = append(reqs, pending{fut: fut, overCap: true})
				case i == 20: // expired deadline inside the first group
					fut, err := s.Submit(ctx, Request{
						Kind: Concentrate, Marked: marked, Deadline: time.Now().Add(-time.Second),
					})
					if err != nil {
						t.Fatal(err)
					}
					reqs = append(reqs, pending{fut: fut, wantErr: ErrDeadlineExceeded})
				default:
					for _, j := range rng.Perm(n)[:rng.Intn(m+1)] {
						marked[j] = true // r ≤ m marks: always within capacity
					}
					wantP, wantR, err := conc.Concentrate(marked)
					if err != nil {
						t.Fatal(err)
					}
					fut, err := s.Submit(ctx, Request{Kind: Concentrate, Marked: marked})
					if err != nil {
						t.Fatal(err)
					}
					reqs = append(reqs, pending{fut: fut, wantPerm: wantP, wantR: wantR})
				}
			}
			// A non-Concentrate task lands mid-queue territory: the drain
			// must stop at it and still execute it.
			dest := rng.Perm(n)
			permFut, err := s.Submit(ctx, Request{Kind: Permute, Dest: dest})
			if err != nil {
				t.Fatal(err)
			}

			releaseOnce()
			if _, err := hold.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			for i, p := range reqs {
				res, err := p.fut.Wait(ctx)
				switch {
				case p.overCap:
					if err == nil || !strings.Contains(err.Error(), "exceed capacity") {
						t.Fatalf("request %d: err=%v, want capacity error", i, err)
					}
				case p.wantErr != nil:
					if !errors.Is(err, p.wantErr) {
						t.Fatalf("request %d: err=%v, want %v", i, err, p.wantErr)
					}
				default:
					if err != nil {
						t.Fatalf("request %d: %v", i, err)
					}
					if res.Count != p.wantR {
						t.Fatalf("request %d: count %d want %d", i, res.Count, p.wantR)
					}
					for j := range res.Perm {
						if res.Perm[j] != p.wantPerm[j] {
							t.Fatalf("request %d: perm %v want %v", i, res.Perm, p.wantPerm)
						}
					}
				}
			}
			if res, err := permFut.Wait(ctx); err != nil || len(res.Perm) != n {
				t.Fatalf("trailing permute: res=%+v err=%v", res, err)
			}
			st := s.Stats()
			if st.Failed != 3 { // two over-capacity + one expired deadline
				t.Fatalf("failed = %d, want 3", st.Failed)
			}
			if st.InFlight != 0 || st.Completed != int64(total)+2 {
				t.Fatalf("stats after drain: %+v", st)
			}
			if st.ApproxQuantile(1) != time.Duration(st.LatencyMaxNs) {
				t.Fatalf("ApproxQuantile(1) = %v, observed max %dns", st.ApproxQuantile(1), st.LatencyMaxNs)
			}
		})
	}
}

// TestServeRankingStaysScalar checks the Ranking engine never takes the
// packed burst path (its stable partition gains nothing from packing)
// yet still resolves a flood of Concentrate requests correctly.
func TestServeRankingStaysScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 64
	s := newTestService(t, Config{N: n, Engine: concentrator.Ranking, Workers: 2, QueueDepth: 128})
	if s.packs(Concentrate) {
		t.Fatal("packed burst path enabled for ranking engine")
	}
	conc := concentrator.New(n, n, concentrator.Ranking, 0)
	ctx := context.Background()
	type pending struct {
		fut      *Future
		wantPerm []int
	}
	var reqs []pending
	for i := 0; i < 80; i++ {
		marked := make([]bool, n)
		for j := range marked {
			marked[j] = rng.Intn(2) == 0
		}
		wantP, _, err := conc.Concentrate(marked)
		if err != nil {
			t.Fatal(err)
		}
		fut, err := s.Submit(ctx, Request{Kind: Concentrate, Marked: marked})
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, pending{fut: fut, wantPerm: wantP})
	}
	for i, p := range reqs {
		res, err := p.fut.Wait(ctx)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		for j := range res.Perm {
			if res.Perm[j] != p.wantPerm[j] {
				t.Fatalf("request %d: perm %v want %v", i, res.Perm, p.wantPerm)
			}
		}
	}
}

// TestServePermutePackedBurst holds the single worker, floods the queue
// with Permute requests so the drain claims full lane groups, and checks
// the packed permute burst path end to end: results bit-for-bit equal to
// the planned path, non-permutation and expired-deadline requests
// resolving individually with their own errors (the malformed-request
// fallback is reachable here: admission validates lengths only, so a
// non-permutation surfaces inside the packed replay and the group
// re-routes per-request), and a trailing non-Permute task executing
// after the burst. Ranking is included: the permuter packs every engine.
func TestServePermutePackedBurst(t *testing.T) {
	for _, engine := range []Engine{concentrator.MuxMerger, concentrator.Fish, concentrator.Ranking} {
		engine := engine
		t.Run(engine.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			n := 64
			release := make(chan struct{})
			s, err := New(Config{N: n, Engine: engine, Workers: 1, QueueDepth: 128})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			released := false
			releaseOnce := func() {
				if !released {
					released = true
					close(release)
				}
			}
			defer releaseOnce() // a failing assertion must still unblock the worker
			if !s.packs(Permute) {
				t.Fatalf("packed permute burst path disabled for %v", engine)
			}
			var held atomic.Bool
			s.testBeforeExec = func() {
				if held.CompareAndSwap(false, true) {
					<-release
				}
			}
			ctx := context.Background()

			// Occupy the worker so everything below queues up behind it.
			hold, err := s.Submit(ctx, Request{Kind: Concentrate, Marked: make([]bool, n)})
			if err != nil {
				t.Fatal(err)
			}
			for !held.Load() {
				time.Sleep(time.Millisecond)
			}

			rp := permnet.NewRadixPermuter(n, engine, 0)
			type pending struct {
				fut      *Future
				wantPerm []int
				wantErr  error // ErrDeadlineExceeded sentinel
				badPerm  bool  // non-permutation: expect validation error
			}
			var reqs []pending
			const total = 90 // > one full lane group + a sub-maximum second group
			for i := 0; i < total; i++ {
				switch {
				case i == 10 || i == 70: // non-permutation inside both groups
					fut, err := s.Submit(ctx, Request{Kind: Permute, Dest: make([]int, n)})
					if err != nil {
						t.Fatal(err)
					}
					reqs = append(reqs, pending{fut: fut, badPerm: true})
				case i == 20: // expired deadline inside the first group
					fut, err := s.Submit(ctx, Request{
						Kind: Permute, Dest: rng.Perm(n), Deadline: time.Now().Add(-time.Second),
					})
					if err != nil {
						t.Fatal(err)
					}
					reqs = append(reqs, pending{fut: fut, wantErr: ErrDeadlineExceeded})
				default:
					dest := rng.Perm(n)
					want, err := rp.RoutePlanned(dest)
					if err != nil {
						t.Fatal(err)
					}
					fut, err := s.Submit(ctx, Request{Kind: Permute, Dest: dest})
					if err != nil {
						t.Fatal(err)
					}
					reqs = append(reqs, pending{fut: fut, wantPerm: want})
				}
			}
			// A non-Permute task lands behind the burst: the drain must stop
			// at it and still execute it.
			concFut, err := s.Submit(ctx, Request{Kind: Concentrate, Marked: make([]bool, n)})
			if err != nil {
				t.Fatal(err)
			}

			releaseOnce()
			if _, err := hold.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			for i, p := range reqs {
				res, err := p.fut.Wait(ctx)
				switch {
				case p.badPerm:
					if err == nil || !strings.Contains(err.Error(), "not a permutation") {
						t.Fatalf("request %d: err=%v, want permutation error", i, err)
					}
				case p.wantErr != nil:
					if !errors.Is(err, p.wantErr) {
						t.Fatalf("request %d: err=%v, want %v", i, err, p.wantErr)
					}
				default:
					if err != nil {
						t.Fatalf("request %d: %v", i, err)
					}
					for j := range res.Perm {
						if res.Perm[j] != p.wantPerm[j] {
							t.Fatalf("request %d: perm %v want %v", i, res.Perm, p.wantPerm)
						}
					}
				}
			}
			if res, err := concFut.Wait(ctx); err != nil || len(res.Perm) != n {
				t.Fatalf("trailing concentrate: res=%+v err=%v", res, err)
			}
			st := s.Stats()
			if st.Failed != 3 { // two non-permutations + one expired deadline
				t.Fatalf("failed = %d, want 3", st.Failed)
			}
			if st.InFlight != 0 || st.Completed != int64(total)+2 {
				t.Fatalf("stats after drain: %+v", st)
			}
		})
	}
}

// TestTrySubmitQueueFull fills the queue behind a deliberately held
// worker and checks ErrQueueFull backpressure plus blocking-Submit
// cancellation.
func TestTrySubmitQueueFull(t *testing.T) {
	n := 8
	release := make(chan struct{})
	s, err := New(Config{N: n, Engine: concentrator.MuxMerger, Workers: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	var held atomic.Bool
	s.testBeforeExec = func() {
		if held.CompareAndSwap(false, true) {
			<-release
		}
	}
	defer func() {
		s.Close()
	}()
	ctx := context.Background()
	req := func() Request { return Request{Kind: Permute, Dest: rand.Perm(n)} }

	// First admission occupies the worker; the next two fill the queue.
	futs := make([]*Future, 0, 3)
	for i := 0; i < 3; i++ {
		fut, err := s.Submit(ctx, req())
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	// Wait for the worker to actually hold the first task.
	for !held.Load() {
		time.Sleep(time.Millisecond)
	}
	for s.QueueLen() < s.QueueDepth() {
		fut, err := s.TrySubmit(ctx, req())
		if err != nil {
			t.Fatalf("TrySubmit with %d queued: %v", s.QueueLen(), err)
		}
		futs = append(futs, fut)
	}
	if _, err := s.TrySubmit(ctx, req()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("TrySubmit on full queue: %v, want ErrQueueFull", err)
	}

	// A blocking Submit on the full queue must honour ctx cancellation.
	cctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, err := s.Submit(cctx, req()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked Submit: %v, want DeadlineExceeded", err)
	}

	close(release)
	for _, fut := range futs {
		if _, err := fut.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRequestDeadline checks that an expired per-request deadline resolves
// the Future with ErrDeadlineExceeded without routing work.
func TestRequestDeadline(t *testing.T) {
	n := 8
	s := newTestService(t, Config{N: n, Engine: concentrator.MuxMerger, Workers: 1})
	fut, err := s.Submit(context.Background(), Request{
		Kind: Permute, Dest: rand.Perm(n), Deadline: time.Now().Add(-time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(context.Background()); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired deadline: %v, want ErrDeadlineExceeded", err)
	}
}

// TestContextCancelledInQueue checks that a request whose context is
// cancelled while queued resolves with the context error.
func TestContextCancelledInQueue(t *testing.T) {
	n := 8
	release := make(chan struct{})
	s, err := New(Config{N: n, Engine: concentrator.MuxMerger, Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	var held atomic.Bool
	s.testBeforeExec = func() {
		if held.CompareAndSwap(false, true) {
			<-release
		}
	}
	defer s.Close()

	bg := context.Background()
	first, err := s.Submit(bg, Request{Kind: Permute, Dest: rand.Perm(n)})
	if err != nil {
		t.Fatal(err)
	}
	for !held.Load() {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(bg)
	queued, err := s.Submit(ctx, Request{Kind: Permute, Dest: rand.Perm(n)})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	close(release)
	if _, err := first.Wait(bg); err != nil {
		t.Fatal(err)
	}
	if _, err := queued.Wait(bg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled-in-queue request: %v, want context.Canceled", err)
	}
}

// TestCloseDrainsInFlight is the shutdown/drain contract under -race:
// many goroutines submit continuously, Close lands mid-flight, and every
// Future ever handed out must resolve — zero dropped futures — while
// post-Close submissions fail with ErrClosed.
func TestCloseDrainsInFlight(t *testing.T) {
	n := 64
	s, err := New(Config{N: n, Engine: concentrator.Fish, Workers: 4, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	const submitters = 8
	var (
		wg       sync.WaitGroup
		admitted atomic.Int64
		resolved atomic.Int64
		rejected atomic.Int64
	)
	stop := make(chan struct{})
	rngs := make([]*rand.Rand, submitters)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(int64(100 + i)))
	}
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			var futs []*Future
			for {
				select {
				case <-stop:
					// Drain everything this goroutine was promised.
					for _, fut := range futs {
						<-fut.Done()
						if _, err := fut.Result(); err != nil {
							t.Errorf("drained future failed: %v", err)
						}
						resolved.Add(1)
					}
					return
				default:
				}
				fut, err := s.Submit(ctx, Request{Kind: Permute, Dest: rngs[g].Perm(n)})
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("submit: %v", err)
					}
					rejected.Add(1)
					continue
				}
				admitted.Add(1)
				futs = append(futs, fut)
			}
		}(g)
	}
	time.Sleep(30 * time.Millisecond)
	s.Close() // returns only after every admitted request resolved
	close(stop)
	wg.Wait()

	st := s.Stats()
	if st.InFlight != 0 {
		t.Errorf("in-flight after Close: %d", st.InFlight)
	}
	if st.Submitted != admitted.Load() || st.Completed != st.Submitted {
		t.Errorf("submitted=%d completed=%d, admitted=%d", st.Submitted, st.Completed, admitted.Load())
	}
	if resolved.Load() != admitted.Load() {
		t.Errorf("resolved %d of %d admitted futures", resolved.Load(), admitted.Load())
	}
	if admitted.Load() == 0 {
		t.Error("no requests admitted before Close")
	}
	// Closed service keeps rejecting, idempotently.
	if _, err := s.Submit(context.Background(), Request{Kind: Permute, Dest: rand.Perm(n)}); !errors.Is(err, ErrClosed) {
		t.Errorf("post-Close Submit: %v, want ErrClosed", err)
	}
	s.Close()
}

// TestCloseConcurrent checks that concurrent Close calls are safe and all
// return only once drained.
func TestCloseConcurrent(t *testing.T) {
	s, err := New(Config{N: 16, Engine: concentrator.MuxMerger, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	fut, err := s.Submit(context.Background(), Request{Kind: Permute, Dest: rand.Perm(16)})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Close()
			select {
			case <-fut.Done():
			default:
				t.Error("Close returned before the admitted future resolved")
			}
		}()
	}
	wg.Wait()
}

// FuzzSubmit fuzzes the admission boundary: arbitrary kinds and field
// lengths must always return (future, nil) or (nil, error) — never panic
// — and any returned future must resolve.
func FuzzSubmit(f *testing.F) {
	f.Add(uint8(0), 8, 0, 0)
	f.Add(uint8(1), 0, 8, 0)
	f.Add(uint8(2), 0, 0, 8)
	f.Add(uint8(0), 7, 3, 9)
	f.Add(uint8(9), 8, 8, 8)
	f.Add(uint8(1), 0, 9, 0)
	s, err := New(Config{N: 8, Engine: concentrator.MuxMerger, Workers: 2, WordBits: 8})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, kind uint8, nd, nm, nk int) {
		clamp := func(v int) int {
			if v < 0 {
				v = -v
			}
			return v % 32
		}
		req := Request{Kind: Kind(kind % 4)}
		if nd = clamp(nd); nd > 0 {
			req.Dest = rand.Perm(nd)
		}
		if nm = clamp(nm); nm > 0 {
			req.Marked = make([]bool, nm)
		}
		if nk = clamp(nk); nk > 0 {
			req.Keys = make([]uint64, nk)
		}
		fut, err := s.Submit(context.Background(), req)
		if (fut == nil) == (err == nil) {
			t.Fatalf("Submit returned fut=%v err=%v", fut, err)
		}
		if fut != nil {
			fut.Wait(context.Background())
		}
	})
}
