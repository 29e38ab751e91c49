package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"absort/internal/concentrator"
	"absort/internal/frontdoor"
	"absort/internal/permnet"
	"absort/internal/planner"
	"absort/internal/serve"
	"absort/internal/wordsort"
)

// span is one timed call into a layer's public entry point, made from
// this package. Spans of one request share Req; Parent is the span of
// the layer above that the call stands in for (0 for a top call).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Phase  string `json:"phase"`
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing: the untraced phases pass nil.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	phase string
	spans []span
}

func (r *recorder) add(name string, req int, parent int64, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Phase: r.phase, Name: name, Req: req,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
	})
	return id
}

func (r *recorder) setPhase(p string) {
	r.mu.Lock()
	r.phase = p
	r.mu.Unlock()
}

// runTraced measures the per-layer metrics. Its time is cut in four:
// an untraced closed loop, a traced closed loop (the difference is the
// tracing overhead), a traced open loop, and the layer replay, which
// calls every layer's entry point in turn on the workload's requests.
func runTraced(cfg config, host map[string]any) (result, error) {
	w := cfg.w
	reqs := genRequests(w, cfg.seed)
	tgt, err := setup(w, reqs)
	if err != nil {
		return result{}, err
	}
	var tl tally
	warmUp(tgt, w, reqs, cfg, &tl)
	untraced := closedLoop(tgt, w, reqs, cfg.phase(0.25), &tl, nil)

	rec := &recorder{t0: time.Now()}
	rec.setPhase("closed")
	smp := startSampler(tgt)
	p0 := takeProc()
	att0 := tl.attempted.Load()
	traced := closedLoop(tgt, w, reqs, cfg.phase(0.25), &tl, rec)
	p1 := takeProc()
	closedReqs := tl.attempted.Load() - att0
	rec.setPhase("open")
	openAtt0 := tl.attempted.Load()
	lat, late := openLoop(tgt, w, reqs, cfg.phase(0.25), &tl, rec)
	smp.finish()
	rejected, checked, completed := tgt.counts()
	loadAtt := tl.attempted.Load() - openAtt0 + closedReqs
	tgt.close()
	if err := tl.err(); err != nil {
		return result{}, err
	}

	rec.setPhase("replay")
	m, err := probeLayers(cfg, reqs, rec, &tl)
	if err != nil {
		return result{}, err
	}
	cs := planner.Shared.Stats()
	compileMs, err := compileTime(w)
	if err != nil {
		return result{}, err
	}
	path, err := writeSpans(spanDir, w.name, host, rec.spans)
	if err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}

	wall := p1.wall.Sub(p0.wall).Seconds()
	add := func(name string, v float64, unit string, n int) { m[name] = metric{v, unit, n} }
	add("frontdoor.reject_ratio", float64(rejected)/float64(max(loadAtt, 1)), "ratio", int(loadAtt))
	add("serve.queue_len_mean", smp.queueMean(), "count", int(smp.qN))
	add("serve.check_ratio", float64(checked)/float64(max(completed, 1)), "ratio", int(completed))
	add("planner.cache_hit_ratio", float64(cs.Hits)/float64(max(cs.Hits+cs.Misses, 1)), "ratio", int(cs.Hits+cs.Misses))
	add("planner.compile_ms", compileMs, "ms", len(w.shapes))
	add("proc.cpu_util", (p1.cpu-p0.cpu).Seconds()/(wall*float64(runtime.GOMAXPROCS(0))), "ratio", 1)
	add("proc.alloc_kb_per_req", float64(p1.allocBytes-p0.allocBytes)/1024/float64(max(closedReqs, 1)), "KB", int(closedReqs))
	add("proc.gc_cpu_share", (p1.gcCPU-p0.gcCPU)/max(p1.allCPU-p0.allCPU, 1e-9), "ratio", 1)
	add("gen.late_p99_ms", quantile(late, 0.99), "ms", len(late))
	add("e2e.latency_p99_ms", capInf(quantile(lat, 0.99), cfg.phase(0.25)), "ms", len(lat))
	add("trace.overhead_share", 1-traced/untraced, "ratio", 2)
	fmt.Fprintf(cfg.stdout, "spans %d written to %s\n", len(rec.spans), path)
	return result{Attempted: tl.attempted.Load(), Failed: tl.failed.Load(), Metrics: m}, nil
}

// layerStack holds every layer's public entry point at the workload's
// shapes, for the replay: a front door behind a loopback server and
// client, a standalone service configured as the front door configures
// its tenants', and the executors those services route through.
type layerStack struct {
	fd   *frontdoor.FrontDoor
	srv  *frontdoor.Server
	cl   *frontdoor.Client
	svc  map[string]*serve.Service
	conc map[string]*concentrator.Concentrator
	perm map[string]*permnet.RoutePlan
	word map[string]*wordsort.Sorter
}

func newLayerStack(shapes []shape) (*layerStack, error) {
	fd, srv, err := newFrontDoor(shapes)
	if err != nil {
		return nil, err
	}
	ls := &layerStack{
		fd: fd, srv: srv,
		svc:  map[string]*serve.Service{},
		conc: map[string]*concentrator.Concentrator{},
		perm: map[string]*permnet.RoutePlan{},
		word: map[string]*wordsort.Sorter{},
	}
	if ls.cl, err = frontdoor.Dial(srv.Addr().String()); err != nil {
		ls.close()
		return nil, err
	}
	procs := runtime.GOMAXPROCS(0)
	for _, s := range shapes {
		svc, err := serve.New(serve.Config{
			N: s.n, Engine: s.engine, WordBits: s.wordBits, Workers: procs, QueueDepth: 2 * procs,
		})
		if err != nil {
			ls.close()
			return nil, err
		}
		ls.svc[s.id] = svc
		ls.conc[s.id] = concentrator.New(s.n, s.n, s.engine, 0)
		ls.perm[s.id] = permnet.NewRadixPermuter(s.n, s.engine, 0).Compile()
		if ls.word[s.id], err = wordsort.New(s.n, sortBits(s), s.engine); err != nil {
			ls.close()
			return nil, err
		}
	}
	return ls, nil
}

// sortBits is the key width of the replay stack's word sorter: the
// shape's own, or 16 bits for the sortwords probe of a workload that
// sends no sortwords requests.
func sortBits(s shape) int {
	if s.wordBits == 0 {
		return 16
	}
	return s.wordBits
}

func (ls *layerStack) close() {
	if ls.cl != nil {
		ls.cl.Close()
	}
	ls.srv.Close()
	ls.fd.Close()
	for _, svc := range ls.svc {
		svc.Close()
	}
}

// exec routes r on the executor the service would use.
func (ls *layerStack) exec(r *request) (response, error) {
	n := r.shape.n
	switch r.kind {
	case serve.Permute:
		out := make([]int, n)
		err := ls.perm[r.shape.id].RouteInto(out, r.dest)
		return response{perm: out}, err
	case serve.Concentrate:
		out := make([]int, n)
		c, err := ls.conc[r.shape.id].ConcentrateInto(out, r.marked)
		return response{perm: out, count: c}, err
	default:
		out, perm := make([]uint64, n), make([]int, n)
		err := ls.word[r.shape.id].SortInto(out, perm, r.keys)
		return response{keys: out, perm: perm}, err
	}
}

// execName is the span name of the executor layer serving kind.
func execName(kind serve.Kind) string {
	switch kind {
	case serve.Permute:
		return "permnet.route"
	case serve.Concentrate:
		return "concentrator.concentrate"
	}
	return "wordsort.sort"
}

// probeLayers runs the layer replay and the packed probes for a quarter
// of the run and returns their metrics. The replay sends each request,
// one at a time, through the wire client, FrontDoor.Submit,
// Service.Submit and the executor. A layer's self time for a request is
// its call's time minus the call of the layer below on the same
// request; the metrics are medians over requests.
func probeLayers(cfg config, reqs []*request, rec *recorder, tl *tally) (map[string]metric, error) {
	w := cfg.w
	ls, err := newLayerStack(w.shapes)
	if err != nil {
		return nil, err
	}
	defer ls.close()
	budget := cfg.phase(0.25)
	ctx := context.Background()

	// One row per replayed request: µs in the wire call, FrontDoor.Submit,
	// Service.Submit and the executor.
	type row struct {
		kind                serve.Kind
		wire, fd, svc, exec float64
	}
	var rows []row
	timed := func(name string, r *request, parent int64, call func() (response, error)) (int64, float64) {
		t0 := time.Now()
		res, err := call()
		t1 := time.Now()
		tl.record(r, res, err)
		return rec.add(name, r.id, parent, t0, t1), us(t1.Sub(t0))
	}
	deadline := time.Now().Add(budget / 2)
	// Request i has kind i mod k and shape (i/k) mod s: the first k×s
	// requests cover every (shape, kind) pair.
	cover := len(w.kinds) * len(w.shapes)
	for i := 0; i < cover || time.Now().Before(deadline); i++ {
		r := reqs[i%len(reqs)]
		x := row{kind: r.kind}
		var id int64
		id, x.wire = timed("frontdoor.wire", r, 0, func() (response, error) { return wireDo(ls.cl, r) })
		id, x.fd = timed("frontdoor.submit", r, id, func() (response, error) {
			fut, err := ls.fd.Submit(ctx, r.shape.id, r.serveReq())
			if err != nil {
				return response{}, err
			}
			res, err := fut.Wait(ctx)
			return response{perm: res.Perm, count: res.Count, keys: res.Keys}, err
		})
		id, x.svc = timed("serve.submit", r, id, func() (response, error) { return serveDo(ctx, ls.svc[r.shape.id], r) })
		_, x.exec = timed(execName(r.kind), r, id, func() (response, error) { return ls.exec(r) })
		rows = append(rows, x)
	}
	if err := tl.err(); err != nil {
		return nil, err
	}

	m := map[string]metric{}
	n := len(rows)
	col := func(f func(row) float64) []float64 {
		xs := make([]float64, n)
		for i, x := range rows {
			xs[i] = f(x)
		}
		return xs
	}
	mean := func(xs []float64) float64 {
		t := 0.0
		for _, x := range xs {
			t += x
		}
		return t / float64(len(xs))
	}
	wire := col(func(x row) float64 { return x.wire })
	wireSelf := col(func(x row) float64 { return x.wire - x.fd })
	admitSelf := col(func(x row) float64 { return x.fd - x.svc })
	serveSelf := col(func(x row) float64 { return x.svc - x.exec })
	exec := col(func(x row) float64 { return x.exec })
	svc := col(func(x row) float64 { return x.svc })
	fmt.Fprintf(cfg.stdout, "mean self times over %d requests: wire %.2f + admit %.2f + serve %.2f + executor %.2f = %.2f us; frontdoor.wire mean %.2f us\n",
		n, mean(wireSelf), mean(admitSelf), mean(serveSelf), mean(exec),
		mean(wireSelf)+mean(admitSelf)+mean(serveSelf)+mean(exec), mean(wire))
	m["frontdoor.wire_p50_us"] = metric{quantile(wire, 0.5), "us", n}
	m["frontdoor.submit_p50_us"] = metric{quantile(col(func(x row) float64 { return x.fd }), 0.5), "us", n}
	m["frontdoor.wire_self_us"] = metric{quantile(wireSelf, 0.5), "us", n}
	m["frontdoor.admit_self_us"] = metric{quantile(admitSelf, 0.5), "us", n}
	m["serve.submit_p50_us"] = metric{quantile(svc, 0.5), "us", n}
	m["serve.submit_p99_us"] = metric{quantile(svc, 0.99), "us", n}
	m["serve.self_us"] = metric{quantile(serveSelf, 0.5), "us", n}
	m["executor.p50_us"] = metric{quantile(exec, 0.5), "us", n}
	execOf := func(kind serve.Kind) []float64 {
		var xs []float64
		for _, x := range rows {
			if x.kind == kind {
				xs = append(xs, x.exec)
			}
		}
		return xs
	}

	// The packed probes and the scalar probes of kinds the workload does
	// not send run at the widest shape, on inputs drawn from the seed.
	ps := w.widest()
	ps.wordBits = sortBits(ps)
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	lanes := planner.PackedLanes
	probe := map[serve.Kind][]*request{}
	for _, k := range []serve.Kind{serve.Permute, serve.Concentrate, serve.SortWords} {
		for i := 0; i < lanes; i++ {
			probe[k] = append(probe[k], genRequest(rng, -1-i, ps, k))
		}
	}
	slice := budget / 8

	scalar := func(kind serve.Kind, name string) error {
		if ds := execOf(kind); len(ds) > 0 {
			m[name] = metric{quantile(ds, 0.5), "us", len(ds)}
			return nil
		}
		var ds []float64
		err := repeat(slice, func(i int) error {
			r := probe[kind][i%lanes]
			t0 := time.Now()
			res, err := ls.exec(r)
			ds = append(ds, us(time.Since(t0)))
			if tl.record(r, res, err); err != nil {
				return err
			}
			return tl.err()
		})
		m[name] = metric{quantile(ds, 0.5), "us", len(ds)}
		return err
	}
	if err := scalar(serve.Concentrate, "concentrator.scalar_us"); err != nil {
		return nil, err
	}
	if err := scalar(serve.Permute, "permnet.scalar_us"); err != nil {
		return nil, err
	}
	if err := scalar(serve.SortWords, "wordsort.sort_us"); err != nil {
		return nil, err
	}

	if err := packedProbes(ls.conc[ps.id], ls.perm[ps.id], probe, slice, m, tl); err != nil {
		return nil, err
	}
	return m, tl.err()
}

// packedProbes times 64-lane passes of the packed concentrator (whole,
// and split into the planner's load, replay and extract stages) and of
// the packed permuter.
func packedProbes(conc *concentrator.Concentrator, plan *permnet.RoutePlan, probe map[serve.Kind][]*request,
	slice time.Duration, m map[string]metric, tl *tally) error {
	n := plan.N()
	lanes := planner.PackedLanes
	marked := make([][]bool, lanes)
	dests := make([][]int, lanes)
	perms := make([][]int, lanes)
	for l := range perms {
		marked[l] = probe[serve.Concentrate][l].marked
		dests[l] = probe[serve.Permute][l].dest
		perms[l] = make([]int, n)
	}
	counts := make([]int, lanes)
	checkAll := func(kind serve.Kind) error {
		for l, r := range probe[kind] {
			tl.record(r, response{perm: perms[l], count: counts[l]}, nil)
		}
		return tl.err()
	}

	var whole []float64
	err := repeat(slice, func(int) error {
		t0 := time.Now()
		err := conc.ConcentratePacked(perms, counts, marked)
		whole = append(whole, us(time.Since(t0)))
		return err
	})
	if err == nil {
		err = checkAll(serve.Concentrate)
	}
	if err != nil {
		return err
	}

	pp, err := conc.Compile().Program().Packed(1)
	if err != nil {
		return err
	}
	tags := make([]uint64, n)
	for l, mk := range marked {
		for i, v := range mk {
			if !v {
				tags[i] |= 1 << uint(l)
			}
		}
	}
	var load, replay, extract []float64
	err = repeat(slice, func(int) error {
		sc := pp.Get()
		t0 := time.Now()
		pp.LoadTagWords(sc.Val, tags)
		t1 := time.Now()
		pp.Run(sc)
		t2 := time.Now()
		pp.Extract(perms, sc.Val)
		t3 := time.Now()
		pp.Put(sc)
		load = append(load, us(t1.Sub(t0)))
		replay = append(replay, us(t2.Sub(t1)))
		extract = append(extract, us(t3.Sub(t2)))
		return nil
	})
	if err == nil {
		err = checkAll(serve.Concentrate)
	}
	if err != nil {
		return err
	}

	var route []float64
	err = repeat(slice, func(int) error {
		t0 := time.Now()
		err := plan.RoutePacked(perms, dests)
		route = append(route, us(time.Since(t0)))
		return err
	})
	if err == nil {
		err = checkAll(serve.Permute)
	}
	if err != nil {
		return err
	}

	pass := quantile(whole, 0.5)
	l, r, x := quantile(load, 0.5), quantile(replay, 0.5), quantile(extract, 0.5)
	m["concentrator.packed_us_per_pattern"] = metric{pass / float64(lanes), "us", len(whole)}
	m["permnet.packed_us_per_route"] = metric{quantile(route, 0.5) / float64(lanes), "us", len(route)}
	m["planner.load_us"] = metric{l, "us", len(load)}
	m["planner.replay_us"] = metric{r, "us", len(replay)}
	m["planner.extract_us"] = metric{x, "us", len(extract)}
	m["planner.marshal_us"] = metric{pass - (l + r + x), "us", len(whole)}
	m["planner.replay_share"] = metric{r / pass, "ratio", len(whole)}
	return nil
}

// repeat calls fn until d has passed, at least three times.
func repeat(d time.Duration, fn func(i int) error) error {
	end := time.Now().Add(d)
	for i := 0; i < 3 || time.Now().Before(end); i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// compileTime is the mean over the workload's shapes of the median of
// three cold service builds, in ms: the plan-set compile a tenant pays
// on first dispatch when planner.Shared does not hold its plans.
func compileTime(w *workload) (float64, error) {
	var total float64
	for _, s := range w.shapes {
		var ds []float64
		for i := 0; i < 3; i++ {
			flushShared()
			t0 := time.Now()
			svc, err := serve.New(serve.Config{N: s.n, Engine: s.engine, WordBits: s.wordBits})
			if err != nil {
				return 0, err
			}
			ds = append(ds, ms(time.Since(t0)))
			svc.Close()
		}
		total += quantile(ds, 0.5)
	}
	return total / float64(len(w.shapes)), nil
}
