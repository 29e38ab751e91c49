package frontdoor

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"absort/internal/concentrator"
	"absort/internal/serve"
)

// testConfig keeps the controller/janitor out of the way (AdaptEvery a
// year) so tests drive adaptOnce deterministically.
func testConfig(workers, depth int) Config {
	return Config{
		Workers:    workers,
		QueueDepth: depth,
		IdleTTL:    time.Hour,
		AdaptEvery: 365 * 24 * time.Hour,
	}
}

func permReq(n int, rng *rand.Rand) serve.Request {
	return serve.Request{Kind: serve.Permute, Dest: rng.Perm(n)}
}

// holdFirst installs a testBeforeRun hook that parks the first dispatch
// on the returned release channel. Install before any Submit.
func holdFirst(fd *FrontDoor) (release chan struct{}, held *atomic.Bool) {
	release = make(chan struct{})
	held = &atomic.Bool{}
	fd.testBeforeRun = func() {
		if held.CompareAndSwap(false, true) {
			<-release
		}
	}
	return release, held
}

// TestDRRFairShareEqualWeights pins the deficit-round-robin interleave:
// with one dispatcher, a hot tenant's 20-deep backlog and a light
// tenant's 5 requests of the same width and weight must alternate — all
// 5 light-tenant dispatches land within the first 10 scheduling
// decisions, not after the hot tenant drains.
func TestDRRFairShareEqualWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 64
	fd := New(testConfig(1, 64))
	defer fd.Close()
	release, held := holdFirst(fd)
	var order []string
	fd.testOnDispatch = func(id string) { order = append(order, id) }

	for _, id := range []string{"hot", "light"} {
		if err := fd.Register(id, TenantSpec{N: n, Engine: concentrator.MuxMerger}); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	holdFut, err := fd.Submit(ctx, "hot", permReq(n, rng))
	if err != nil {
		t.Fatal(err)
	}
	for !held.Load() {
		time.Sleep(time.Millisecond)
	}

	var futs []*Future
	for i := 0; i < 20; i++ {
		f, err := fd.Submit(ctx, "hot", permReq(n, rng))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	for i := 0; i < 5; i++ {
		f, err := fd.Submit(ctx, "light", permReq(n, rng))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	close(release)
	if _, err := holdFut.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	for i, f := range futs {
		if _, err := f.Wait(ctx); err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
	}

	post := order[1:] // order[0] is the held dispatch
	if len(post) != 25 {
		t.Fatalf("dispatches = %d, want 25", len(post))
	}
	light := 0
	for _, id := range post[:10] {
		if id == "light" {
			light++
		}
	}
	if light != 5 {
		t.Errorf("light dispatches in first 10 = %d, want 5 (order %v)", light, post[:10])
	}
}

// TestDRRWeighted pins the weight semantics: a weight-2 tenant gets two
// dispatches per weight-1 tenant dispatch at equal width.
func TestDRRWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 64
	fd := New(testConfig(1, 64))
	defer fd.Close()
	release, held := holdFirst(fd)
	var order []string
	fd.testOnDispatch = func(id string) { order = append(order, id) }

	if err := fd.Register("heavy", TenantSpec{N: n, Engine: concentrator.MuxMerger, Weight: 2}); err != nil {
		t.Fatal(err)
	}
	if err := fd.Register("lite", TenantSpec{N: n, Engine: concentrator.MuxMerger}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	holdFut, err := fd.Submit(ctx, "heavy", permReq(n, rng))
	if err != nil {
		t.Fatal(err)
	}
	for !held.Load() {
		time.Sleep(time.Millisecond)
	}
	var futs []*Future
	for i := 0; i < 20; i++ {
		f, err := fd.Submit(ctx, "heavy", permReq(n, rng))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	for i := 0; i < 20; i++ {
		f, err := fd.Submit(ctx, "lite", permReq(n, rng))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	close(release)
	if _, err := holdFut.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	for _, f := range futs {
		if _, err := f.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// The held dispatch left the heavy tenant with banked deficit, so one
	// extra heavy dispatch leads; the steady state is heavy,heavy,lite.
	steady := order[1:][3:12]
	heavy := 0
	for _, id := range steady {
		if id == "heavy" {
			heavy++
		}
	}
	if heavy != 6 {
		t.Errorf("heavy dispatches in steady window = %d, want 6 (2:1 weights; order %v)",
			heavy, steady)
	}
}

// TestDRRWordFairAcrossWidths pins the cost model: dispatch charge is
// spec.N words, so at equal weight a 256-wide tenant gets 1 dispatch per
// 4 dispatches of a 64-wide tenant — equal word throughput, not equal
// request counts.
func TestDRRWordFairAcrossWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fd := New(testConfig(1, 64))
	defer fd.Close()
	release, held := holdFirst(fd)
	var order []string
	fd.testOnDispatch = func(id string) { order = append(order, id) }

	if err := fd.Register("wide", TenantSpec{N: 256, Engine: concentrator.MuxMerger}); err != nil {
		t.Fatal(err)
	}
	if err := fd.Register("narrow", TenantSpec{N: 64, Engine: concentrator.MuxMerger}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	holdFut, err := fd.Submit(ctx, "wide", permReq(256, rng))
	if err != nil {
		t.Fatal(err)
	}
	for !held.Load() {
		time.Sleep(time.Millisecond)
	}
	var futs []*Future
	for i := 0; i < 10; i++ {
		f, err := fd.Submit(ctx, "wide", permReq(256, rng))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	for i := 0; i < 40; i++ {
		f, err := fd.Submit(ctx, "narrow", permReq(64, rng))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	close(release)
	if _, err := holdFut.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	for _, f := range futs {
		if _, err := f.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	wide := 0
	for _, id := range order[1:][:10] {
		if id == "wide" {
			wide++
		}
	}
	if wide != 2 {
		t.Errorf("wide dispatches in first 10 = %d, want 2 (word-fair 1:4; order %v)",
			wide, order[1:][:10])
	}
}

// TestLazyInstantiationAndIdleEviction pins the plan-set lifecycle:
// registration compiles nothing, first traffic instantiates the backing
// service, an idle TTL evicts it, and the next request resurrects it
// through the shared plan cache.
func TestLazyInstantiationAndIdleEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 64
	cfg := testConfig(2, 8)
	cfg.IdleTTL = 20 * time.Millisecond
	cfg.AdaptEvery = 5 * time.Millisecond
	fd := New(cfg)
	defer fd.Close()
	if err := fd.Register("t", TenantSpec{N: n, Engine: concentrator.MuxMerger}); err != nil {
		t.Fatal(err)
	}
	st, err := fd.TenantStats("t")
	if err != nil {
		t.Fatal(err)
	}
	if st.Live {
		t.Fatal("plan set live before first traffic")
	}

	ctx := context.Background()
	fut, err := fd.Submit(ctx, "t", permReq(n, rng))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if st, _ = fd.TenantStats("t"); !st.Live {
		t.Fatal("plan set not live after first dispatch")
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _ = fd.TenantStats("t")
		if !st.Live && st.Evictions >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("not evicted: live=%v evictions=%d", st.Live, st.Evictions)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Resurrection: the next request re-instantiates and completes.
	fut, err = fd.Submit(ctx, "t", permReq(n, rng))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	st, _ = fd.TenantStats("t")
	if !st.Live || st.Completed != 2 {
		t.Fatalf("after resurrection: live=%v completed=%d, want live/2", st.Live, st.Completed)
	}
}

// TestAdaptiveDepthGrowth pins the controller's burst response: ingress
// rejections in a window whose p99 is within target double the tenant's
// queue depth up to the cap.
func TestAdaptiveDepthGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 64
	fd := New(testConfig(1, 4))
	defer fd.Close()
	release, held := holdFirst(fd)
	if err := fd.Register("t", TenantSpec{N: n, Engine: concentrator.MuxMerger}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	holdFut, err := fd.Submit(ctx, "t", permReq(n, rng))
	if err != nil {
		t.Fatal(err)
	}
	for !held.Load() {
		time.Sleep(time.Millisecond)
	}
	var futs []*Future
	for i := 0; i < 4; i++ {
		f, err := fd.Submit(ctx, "t", permReq(n, rng))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	if _, err := fd.Submit(ctx, "t", permReq(n, rng)); !errors.Is(err, ErrTenantQueueFull) {
		t.Fatalf("submit over depth: %v, want ErrTenantQueueFull", err)
	}

	fd.adaptOnce(time.Now())
	st, _ := fd.TenantStats("t")
	if st.Depth != 8 {
		t.Fatalf("depth after rejected window = %d, want 8", st.Depth)
	}
	if st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
	f, err := fd.Submit(ctx, "t", permReq(n, rng))
	if err != nil {
		t.Fatalf("submit after depth growth: %v", err)
	}
	futs = append(futs, f)
	close(release)
	for _, f := range append(futs, holdFut) {
		if _, err := f.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAdaptiveShareGrowthAndIdleDecay pins the controller's latency
// response and decay: a window whose p99 exceeds the target grows the
// tenant's dispatcher share by one; a fully idle window decays it back
// toward the default.
func TestAdaptiveShareGrowthAndIdleDecay(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const n = 64
	cfg := testConfig(4, 16)
	cfg.TargetP99 = time.Nanosecond // any real completion overshoots
	fd := New(cfg)
	defer fd.Close()
	if err := fd.Register("t", TenantSpec{N: n, Engine: concentrator.MuxMerger}); err != nil {
		t.Fatal(err)
	}
	def := fd.defShare
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		f, err := fd.Submit(ctx, "t", permReq(n, rng))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	fd.adaptOnce(time.Now())
	st, _ := fd.TenantStats("t")
	if st.Share != def+1 {
		t.Fatalf("share after slow window = %d, want %d", st.Share, def+1)
	}
	// Idle window: decay one step back toward the default.
	fd.adaptOnce(time.Now())
	st, _ = fd.TenantStats("t")
	if st.Share != def {
		t.Fatalf("share after idle window = %d, want %d", st.Share, def)
	}
}

// TestStatsCountResolvedFutures pins the counter order of a dispatch: a
// caller whose Future has resolved already sees its request in
// Stats().Completed (and Failed), so a controller window read right after
// a Wait is never stale. The first request pins the order directly: with
// the scheduler lock held while the dispatch runs, the Future must not
// resolve — the counters are updated under that lock first.
func TestStatsCountResolvedFutures(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const n = 64
	fd := New(testConfig(2, 16))
	defer fd.Close()
	release, held := holdFirst(fd)
	if err := fd.Register("t", TenantSpec{N: n, Engine: concentrator.MuxMerger}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	f, err := fd.Submit(ctx, "t", permReq(n, rng))
	if err != nil {
		t.Fatal(err)
	}
	for !held.Load() {
		time.Sleep(time.Millisecond)
	}
	fd.mu.Lock()
	close(release)
	select {
	case <-f.Done():
		fd.mu.Unlock()
		t.Fatal("Future resolved before the dispatch was counted")
	case <-time.After(50 * time.Millisecond):
	}
	fd.mu.Unlock()

	bad := make([]int, n) // right length, not a permutation: fails in routing
	for i := 1; ; i++ {
		if _, err := f.Wait(ctx); (err != nil) != (i%5 == 0) {
			t.Fatalf("request %d: err = %v", i, err)
		}
		if st := fd.Stats(); st.Completed != int64(i) || st.Failed != int64(i/5) {
			t.Fatalf("after request %d resolved: completed=%d failed=%d, want %d and %d",
				i, st.Completed, st.Failed, i, i/5)
		}
		if i == 200 {
			return
		}
		req := permReq(n, rng)
		if (i+1)%5 == 0 {
			req.Dest = bad
		}
		if f, err = fd.Submit(ctx, "t", req); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCloseDrains pins the drain guarantee: every admitted Future
// resolves across Close, and post-Close Register/Submit fail typed.
func TestCloseDrains(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 64
	fd := New(testConfig(1, 32))
	release, held := holdFirst(fd)
	if err := fd.Register("t", TenantSpec{N: n, Engine: concentrator.MuxMerger}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var futs []*Future
	f, err := fd.Submit(ctx, "t", permReq(n, rng))
	if err != nil {
		t.Fatal(err)
	}
	futs = append(futs, f)
	for !held.Load() {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		f, err := fd.Submit(ctx, "t", permReq(n, rng))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	done := make(chan struct{})
	go func() { fd.Close(); close(done) }()
	close(release)
	<-done
	for i, f := range futs {
		select {
		case <-f.Done():
		default:
			t.Fatalf("future %d unresolved after Close", i)
		}
		if _, err := f.Result(); err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
	}
	if _, err := fd.Submit(ctx, "t", permReq(n, rng)); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Submit: %v, want ErrClosed", err)
	}
	if err := fd.Register("u", TenantSpec{N: n, Engine: concentrator.MuxMerger}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Register: %v, want ErrClosed", err)
	}
	fd.Close() // idempotent
	st := fd.Stats()
	if st.Completed != 11 || st.Submitted != 11 {
		t.Fatalf("stats after close: %+v, want submitted=completed=11", st)
	}
}

// TestRegisterValidation pins the eager spec validation and the tenant
// bounds.
func TestRegisterValidation(t *testing.T) {
	cfg := testConfig(1, 4)
	cfg.MaxTenants = 2
	fd := New(cfg)
	defer fd.Close()
	ok := TenantSpec{N: 8, Engine: concentrator.MuxMerger}
	if err := fd.Register("", ok); err == nil {
		t.Error("empty id accepted")
	}
	if err := fd.Register("a", TenantSpec{N: 6, Engine: concentrator.MuxMerger}); err == nil {
		t.Error("non-power-of-two n accepted")
	}
	if err := fd.Register("a", TenantSpec{N: 8, Engine: Engine(42)}); err == nil {
		t.Error("unknown engine accepted")
	}
	if err := fd.Register("a", TenantSpec{N: 8, Engine: concentrator.MuxMerger, M: 9}); err == nil {
		t.Error("m > n accepted")
	}
	if err := fd.Register("a", TenantSpec{N: 8, Engine: concentrator.Fish, K: 3}); err == nil {
		t.Error("bad fish k accepted")
	}
	if err := fd.Register("a", ok); err != nil {
		t.Fatal(err)
	}
	if err := fd.Register("a", ok); !errors.Is(err, ErrTenantExists) {
		t.Errorf("duplicate register: %v, want ErrTenantExists", err)
	}
	if err := fd.Register("b", ok); err != nil {
		t.Fatal(err)
	}
	if err := fd.Register("c", ok); !errors.Is(err, ErrTooManyTenants) {
		t.Errorf("over-limit register: %v, want ErrTooManyTenants", err)
	}
	if got := fd.Tenants(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Tenants() = %v, want [a b]", got)
	}
}

// TestSubmitValidation pins fail-fast admission errors.
func TestSubmitValidation(t *testing.T) {
	fd := New(testConfig(1, 4))
	defer fd.Close()
	if err := fd.Register("t", TenantSpec{N: 8, Engine: concentrator.MuxMerger}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := fd.Submit(ctx, "nope", permReq(8, rand.New(rand.NewSource(8)))); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("unknown tenant: %v", err)
	}
	if _, err := fd.Submit(ctx, "t", serve.Request{Kind: serve.Permute, Dest: make([]int, 4)}); err == nil {
		t.Error("short permute accepted")
	}
	if _, err := fd.Submit(ctx, "t", serve.Request{Kind: serve.Kind(9)}); err == nil {
		t.Error("unknown kind accepted")
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := fd.Submit(canceled, "t", permReq(8, rand.New(rand.NewSource(9)))); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled ctx: %v", err)
	}
	st, _ := fd.TenantStats("t")
	if st.Rejected != 3 {
		t.Errorf("rejected = %d, want 3", st.Rejected)
	}

	// A semantically bad request of the right length resolves its Future
	// with the service's routing error, counted as Failed.
	fut, err := fd.Submit(ctx, "t", serve.Request{Kind: serve.Permute, Dest: make([]int, 8)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(ctx); err == nil {
		t.Error("non-permutation dest resolved without error")
	}
	st, _ = fd.TenantStats("t")
	if st.Failed != 1 || st.Completed != 1 {
		t.Errorf("failed=%d completed=%d, want 1/1", st.Failed, st.Completed)
	}
}

// TestMixedKindsAllTenants runs a mixed permute/concentrate/sortwords
// load over several tenants of different shapes and verifies every
// result, exercising the whole dispatch path under the race detector.
func TestMixedKindsAllTenants(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	fd := New(Config{Workers: 4, QueueDepth: 256, IdleTTL: time.Hour, AdaptEvery: 10 * time.Millisecond})
	defer fd.Close()
	specs := map[string]TenantSpec{
		"mux64":    {N: 64, Engine: concentrator.MuxMerger},
		"prefix32": {N: 32, Engine: concentrator.PrefixAdder},
		"fish128":  {N: 128, Engine: concentrator.Fish},
		"rank16":   {N: 16, Engine: concentrator.Ranking},
	}
	for id, spec := range specs {
		if err := fd.Register(id, spec); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	type pending struct {
		id  string
		req serve.Request
		fut *Future
	}
	var ps []pending
	for i := 0; i < 300; i++ {
		for id, spec := range specs {
			var req serve.Request
			switch i % 3 {
			case 0:
				req = serve.Request{Kind: serve.Permute, Dest: rng.Perm(spec.N)}
			case 1:
				marked := make([]bool, spec.N)
				for j := range marked {
					marked[j] = rng.Intn(2) == 0
				}
				req = serve.Request{Kind: serve.Concentrate, Marked: marked}
			default:
				keys := make([]uint64, spec.N)
				for j := range keys {
					keys[j] = rng.Uint64()
				}
				req = serve.Request{Kind: serve.SortWords, Keys: keys}
			}
			fut, err := fd.Submit(ctx, id, req)
			if errors.Is(err, ErrTenantQueueFull) {
				continue // fail-fast admission under load is expected
			}
			if err != nil {
				t.Fatal(err)
			}
			ps = append(ps, pending{id, req, fut})
		}
	}
	for _, p := range ps {
		res, err := p.fut.Wait(ctx)
		if err != nil {
			t.Fatalf("%s: %v", p.id, err)
		}
		verifyResult(t, p.req, res)
	}
	st := fd.Stats()
	if st.Completed != int64(len(ps)) || st.Tenants != 4 {
		t.Fatalf("stats %+v, want completed=%d tenants=4", st, len(ps))
	}
}

// verifyResult checks a response against its request: permutation
// realization for Permute, ones-count and mark-precedence for
// Concentrate, sortedness for SortWords.
func verifyResult(t *testing.T, req serve.Request, res serve.Result) {
	t.Helper()
	switch req.Kind {
	case serve.Permute:
		for i, d := range req.Dest {
			if res.Perm[d] != i {
				t.Fatalf("permute: input %d not at dest %d (perm[%d]=%d)", i, d, d, res.Perm[d])
			}
		}
	case serve.Concentrate:
		want := 0
		for _, m := range req.Marked {
			if m {
				want++
			}
		}
		if res.Count != want {
			t.Fatalf("concentrate: count %d, want %d", res.Count, want)
		}
		for j := 0; j < res.Count; j++ {
			if !req.Marked[res.Perm[j]] {
				t.Fatalf("concentrate: output %d sourced unmarked input %d", j, res.Perm[j])
			}
		}
	case serve.SortWords:
		for j := 1; j < len(res.Keys); j++ {
			if res.Keys[j-1] > res.Keys[j] {
				t.Fatalf("sortwords: keys[%d]=%d > keys[%d]=%d", j-1, res.Keys[j-1], j, res.Keys[j])
			}
		}
	}
}
