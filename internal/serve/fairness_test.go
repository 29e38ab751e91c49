package serve

// Regression tests for the serve bugfix sweep: the torn-snapshot stats
// invariant, burst-drain fairness across request kinds, the
// Submit-during-Close backpressure race, and Future.Wait's
// resolution-beats-cancellation guarantee.

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"absort/internal/concentrator"
)

// TestStatsTornSnapshotInvariant hammers Stats() under concurrent
// submission and resolution: every snapshot, however torn, must satisfy
// Submitted ≥ Completed + InFlight (and InFlight ≥ 0), and Packed ≤
// Completed. Before the fix,
// Submitted was incremented after the queue send and loaded before
// Completed, so a worker racing ahead of its submitter produced
// snapshots with Submitted < Completed.
func TestStatsTornSnapshotInvariant(t *testing.T) {
	const (
		submitters   = 6
		perSubmitter = 300
	)
	n := 64
	s, err := New(Config{N: n, Engine: concentrator.MuxMerger, Workers: 4, QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var stop atomic.Bool
	var violations atomic.Int64
	var snapErr atomic.Value
	var snappers sync.WaitGroup
	for g := 0; g < 2; g++ {
		snappers.Add(1)
		go func() {
			defer snappers.Done()
			for !stop.Load() {
				st := s.Stats()
				if st.InFlight < 0 || st.Submitted < st.Completed+st.InFlight ||
					st.Packed > st.Completed {
					violations.Add(1)
					snapErr.Store(st)
				}
			}
		}()
	}

	ctx := context.Background()
	var subs sync.WaitGroup
	for g := 0; g < submitters; g++ {
		g := g
		subs.Add(1)
		go func() {
			defer subs.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perSubmitter; i++ {
				var req Request
				if i%2 == 0 {
					req = Request{Kind: Permute, Dest: rng.Perm(n)}
				} else {
					keys := make([]uint64, n)
					for j := range keys {
						keys[j] = rng.Uint64()
					}
					req = Request{Kind: SortWords, Keys: keys}
				}
				fut, err := s.Submit(ctx, req)
				if err != nil {
					t.Error(err)
					return
				}
				if i%8 == 0 { // mix waited and fire-and-forget submissions
					if _, err := fut.Wait(ctx); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	subs.Wait()
	s.Close()
	stop.Store(true)
	snappers.Wait()

	if v := violations.Load(); v != 0 {
		t.Fatalf("%d torn snapshots violated Submitted >= Completed + InFlight or Packed <= Completed; last: %+v",
			v, snapErr.Load())
	}
	st := s.Stats()
	want := int64(submitters * perSubmitter)
	if st.Submitted != want || st.Completed != want || st.InFlight != 0 {
		t.Fatalf("final stats: submitted=%d completed=%d inflight=%d, want %d/%d/0",
			st.Submitted, st.Completed, st.InFlight, want, want)
	}
}

// TestBurstTailNotStarved pins the drain-fairness fix: the other-kind
// task that ends a greedy same-kind drain must execute BEFORE the
// burst's packed replay, not after it. A single held worker makes the
// schedule deterministic: 200 Concentrate requests queue up behind a
// scalar hold task, a lone Permute lands behind them, and on release the
// worker must resolve the Permute (the drain's tail) while every burst
// Concentrate is still unresolved.
func TestBurstTailNotStarved(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 64
	const concs = 200 // below burstLanes so the drain reaches the Permute
	s, err := New(Config{N: n, Engine: concentrator.MuxMerger, Workers: 1, QueueDepth: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	release := make(chan struct{})
	var held atomic.Bool
	s.testBeforeExec = func() {
		if held.CompareAndSwap(false, true) {
			<-release
		}
	}
	burstGate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(burstGate) }) }
	defer openGate()
	type burstInfo struct {
		kind Kind
		size int
	}
	burstCh := make(chan burstInfo, 4)
	s.testOnBurst = func(kind Kind, size int) {
		burstCh <- burstInfo{kind, size}
		<-burstGate // park the worker between the tail and the replay
	}

	ctx := context.Background()
	// Scalar hold task: occupies the worker without starting a burst.
	keys := make([]uint64, n)
	holdFut, err := s.Submit(ctx, Request{Kind: SortWords, Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	for !held.Load() {
		time.Sleep(time.Millisecond)
	}

	concFuts := make([]*Future, concs)
	for i := range concFuts {
		marked := make([]bool, n)
		for j := range marked {
			marked[j] = rng.Intn(2) == 0
		}
		if concFuts[i], err = s.Submit(ctx, Request{Kind: Concentrate, Marked: marked}); err != nil {
			t.Fatal(err)
		}
	}
	dest := rng.Perm(n)
	permFut, err := s.Submit(ctx, Request{Kind: Permute, Dest: dest})
	if err != nil {
		t.Fatal(err)
	}

	close(release)
	if _, err := permFut.Wait(ctx); err != nil {
		t.Fatalf("tail permute: %v", err)
	}
	// Receiving from burstCh synchronizes with the worker, which is now
	// parked in testOnBurst: the tail has run, the burst replay has not.
	// Every burst Concentrate must still be pending.
	burst := <-burstCh
	resolved := 0
	for _, fut := range concFuts {
		select {
		case <-fut.Done():
			resolved++
		default:
		}
	}
	if resolved != 0 {
		t.Errorf("%d/%d burst concentrates resolved before the drain's tail", resolved, concs)
	}
	if burst.kind != Concentrate || burst.size != concs {
		t.Errorf("burst = (%v, %d), want (%v, %d)", burst.kind, burst.size, Concentrate, concs)
	}
	openGate()
	for i, fut := range concFuts {
		if _, err := fut.Wait(ctx); err != nil {
			t.Fatalf("concentrate %d: %v", i, err)
		}
	}
	if _, err := holdFut.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestBurstConsecutiveKindCap pins the sustained-stream fairness bound:
// after maxConsecBursts consecutive full-width same-kind bursts, further
// same-kind drains are capped at one lane word until the streak breaks;
// a remainder too short to pack is then claimed one task at a time.
// A pre-filled queue and a single worker make the burst sequence exact.
func TestBurstConsecutiveKindCap(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 64
	total := maxConsecBursts*burstLanes + 4*concentrator.PackedLanes + 20
	s, err := New(Config{N: n, Engine: concentrator.MuxMerger, Workers: 1, QueueDepth: total + 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	release := make(chan struct{})
	var held atomic.Bool
	s.testBeforeExec = func() {
		if held.CompareAndSwap(false, true) {
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
	keys := make([]uint64, n)
	holdFut, err := s.Submit(ctx, Request{Kind: SortWords, Keys: keys})
	if err != nil {
		t.Fatal(err)
	}
	for !held.Load() {
		time.Sleep(time.Millisecond)
	}
	futs := make([]*Future, total)
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
	for i, fut := range futs {
		if _, err := fut.Wait(ctx); err != nil {
			t.Fatalf("concentrate %d: %v", i, err)
		}
	}
	if _, err := holdFut.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	want := []int{burstLanes, burstLanes, burstLanes, burstLanes,
		concentrator.PackedLanes, concentrator.PackedLanes,
		concentrator.PackedLanes, concentrator.PackedLanes}
	// The 20-task remainder is too short to pack: each claim routes one
	// task and leaves the rest queued (see enoughToPack).
	for i := 0; i < 20; i++ {
		want = append(want, 1)
	}
	if len(sizes) != len(want) {
		t.Fatalf("burst sizes %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("burst %d: size %d, want %d (full sequence %v)", i, sizes[i], want[i], sizes)
		}
	}
}

// TestSubmitCloseMidBackpressure closes the service while submitters are
// blocked on a full queue: every Submit must either return the typed
// ErrClosed or a Future that resolves — never panic on a closed channel,
// never hang on the drained queue. Run with -race.
func TestSubmitCloseMidBackpressure(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 64
	for iter := 0; iter < 20; iter++ {
		s, err := New(Config{N: n, Engine: concentrator.MuxMerger, Workers: 1, QueueDepth: 1})
		if err != nil {
			t.Fatal(err)
		}
		release := make(chan struct{})
		s.testBeforeExec = func() { <-release }

		ctx := context.Background()
		// Occupy the worker and fill the queue so later Submits block.
		hold, err := s.Submit(ctx, Request{Kind: Permute, Dest: rng.Perm(n)})
		if err != nil {
			t.Fatal(err)
		}
		fill, err := s.Submit(ctx, Request{Kind: Permute, Dest: rng.Perm(n)})
		if err != nil {
			t.Fatal(err)
		}

		const blocked = 16
		type outcome struct {
			fut *Future
			err error
		}
		results := make(chan outcome, blocked)
		var wg sync.WaitGroup
		for g := 0; g < blocked; g++ {
			dest := rng.Perm(n)
			wg.Add(1)
			go func() {
				defer wg.Done()
				fut, err := s.Submit(ctx, Request{Kind: Permute, Dest: dest})
				results <- outcome{fut, err}
			}()
		}
		var closers sync.WaitGroup
		closers.Add(2)
		go func() { defer closers.Done(); s.Close() }()
		go func() { defer closers.Done(); close(release) }()
		wg.Wait()
		closers.Wait()
		close(results)

		admitted := 0
		for out := range results {
			switch {
			case out.err == nil:
				admitted++
				if _, err := out.fut.Wait(ctx); err != nil {
					t.Fatalf("iter %d: admitted future resolved with %v", iter, err)
				}
			case !errors.Is(out.err, ErrClosed):
				t.Fatalf("iter %d: Submit during Close returned %v, want ErrClosed", iter, out.err)
			}
		}
		for _, fut := range []*Future{hold, fill} {
			if _, err := fut.Wait(ctx); err != nil {
				t.Fatalf("iter %d: pre-close future: %v", iter, err)
			}
		}
		if _, err := s.Submit(ctx, Request{Kind: Permute, Dest: rng.Perm(n)}); !errors.Is(err, ErrClosed) {
			t.Fatalf("iter %d: Submit after Close = %v, want ErrClosed", iter, err)
		}
		st := s.Stats()
		if st.Submitted != st.Completed || st.InFlight != 0 {
			t.Fatalf("iter %d: submitted=%d completed=%d inflight=%d after drain",
				iter, st.Submitted, st.Completed, st.InFlight)
		}
		if st.Completed != int64(2+admitted) {
			t.Fatalf("iter %d: completed=%d, want %d", iter, st.Completed, 2+admitted)
		}
	}
}

// TestFutureWaitResolvedBeatsCancel pins Wait's race rule: a context
// canceled after the Future resolved still returns the result, and
// concurrent Wait callers all observe the same (Result, error) pair.
// Run with -race.
func TestFutureWaitResolvedBeatsCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	n := 64
	s, err := New(Config{N: n, Engine: concentrator.MuxMerger, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx := context.Background()
	dest := rng.Perm(n)
	fut, err := s.Submit(ctx, Request{Kind: Permute, Dest: dest})
	if err != nil {
		t.Fatal(err)
	}
	<-fut.Done() // resolved before any cancellation below

	cctx, cancel := context.WithCancel(context.Background())
	cancel() // already done: both Wait branches are ready
	wantRes, wantErr := fut.Result()
	if wantErr != nil {
		t.Fatal(wantErr)
	}
	const waiters = 32
	var wg sync.WaitGroup
	for g := 0; g < waiters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := fut.Wait(cctx)
			if err != nil {
				t.Errorf("Wait on resolved future with canceled ctx: %v", err)
				return
			}
			if len(res.Perm) != n {
				t.Errorf("Wait returned %d-wide perm, want %d", len(res.Perm), n)
				return
			}
			for i := range res.Perm {
				if res.Perm[i] != wantRes.Perm[i] {
					t.Errorf("Wait observed a different result at %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()

	// An unresolved future with a canceled ctx still reports the ctx
	// error (cancellation only loses the race once resolution happened).
	release := make(chan struct{})
	s.testBeforeExec = func() { <-release }
	defer close(release)
	slow, err := s.Submit(ctx, Request{Kind: Permute, Dest: rng.Perm(n)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := slow.Wait(cctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait on pending future with canceled ctx = %v, want context.Canceled", err)
	}
}
