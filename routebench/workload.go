package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"absort/internal/frontdoor"
	"absort/internal/planner"
	"absort/internal/serve"
)

// shape is one plan-set shape: a front-door tenant or a service.
type shape struct {
	id       string
	n        int
	engine   planner.Engine
	wordBits int // 0 means the serving default (64)
}

// workload is one named traffic mix against one stack.
type workload struct {
	name string
	// wire selects the front door over loopback TCP; otherwise requests
	// go straight to an in-process serve.Service.
	wire   bool
	shapes []shape
	kinds  []serve.Kind // cycled request kinds
	pool   int          // distinct pre-generated requests, cycled
	// Open loop: burst requests due together every period.
	burst  int
	period time.Duration
	// Closed loop: window requests in flight per connection (wire) or
	// in total (serve).
	window int
	conns  int // wire connections
	// queueDepth is the serve.Service admission bound (serve only).
	queueDepth int
}

var workloads = []*workload{
	// The loopback wire path over four small tenants: executor work is a
	// few µs and bursts never reach MinPackedLanes, so the codec, DRR
	// admission and the serve hop dominate and the packed path is
	// bypassed. Sortwords is left out: one request costs WordBits route
	// passes and would set the tail alone.
	{
		name: "wire-small",
		wire: true,
		shapes: []shape{
			{id: "rank16", n: 16, engine: planner.Ranking},
			{id: "prefix32", n: 32, engine: planner.PrefixAdder},
			{id: "mux64", n: 64, engine: planner.MuxMerger},
			{id: "fish128", n: 128, engine: planner.Fish},
		},
		kinds:  []serve.Kind{serve.Permute, serve.Concentrate},
		pool:   1024,
		burst:  1,
		period: 200 * time.Microsecond,
		window: 8,
		conns:  2,
	},
	// Bursts of concentrates at n=4096 (Network 3) in process: serve
	// drain sizing and the packed load/replay/extract stages decide the
	// result. A burst of 48 is two per-core groups of at least
	// MinPackedLanes on a 2-core host.
	{
		name:       "burst-conc-4096",
		shapes:     []shape{{id: "fish4096", n: 4096, engine: planner.Fish}},
		kinds:      []serve.Kind{serve.Concentrate},
		pool:       384,
		burst:      48,
		period:     40 * time.Millisecond,
		window:     128,
		conns:      1,
		queueDepth: 256,
	},
	// Permute, concentrate and sortwords in turn at n=1024 (Network 2)
	// in process: every kind switch ends a drain burst, permute rides the
	// multi-level radix path, sortwords runs per-request passes.
	{
		name:       "mixed-1024",
		shapes:     []shape{{id: "mux1024", n: 1024, engine: planner.MuxMerger, wordBits: 16}},
		kinds:      []serve.Kind{serve.Permute, serve.Concentrate, serve.SortWords},
		pool:       384,
		burst:      1,
		period:     5 * time.Millisecond,
		window:     64,
		conns:      1,
		queueDepth: 128,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// widest returns the workload's widest shape, the one the packed and
// missing-kind layer probes run at.
func (w *workload) widest() shape {
	s := w.shapes[0]
	for _, t := range w.shapes[1:] {
		if t.n > s.n {
			s = t
		}
	}
	return s
}

// request is one pre-generated input with its expected outcome.
type request struct {
	id     int
	shape  shape
	kind   serve.Kind
	dest   []int
	marked []bool
	keys   []uint64
	count  int      // concentrate: marked inputs
	sorted []uint64 // sortwords: expected output
}

// response is a routed request's outcome, whichever layer returned it.
type response struct {
	perm  []int
	count int
	keys  []uint64
}

func (r *request) serveReq() serve.Request {
	return serve.Request{Kind: r.kind, Dest: r.dest, Marked: r.marked, Keys: r.keys}
}

// genRequests draws the workload's request pool from seed: request i
// has kind kinds[i mod k] and shape shapes[(i/k) mod s].
func genRequests(w *workload, seed int64) []*request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]*request, w.pool)
	k := len(w.kinds)
	for i := range reqs {
		reqs[i] = genRequest(rng, i, w.shapes[(i/k)%len(w.shapes)], w.kinds[i%k])
	}
	return reqs
}

// genRequest draws one input: a uniform permutation, a pattern with
// exactly half the inputs marked, or keys of the shape's word width.
func genRequest(rng *rand.Rand, id int, s shape, kind serve.Kind) *request {
	r := &request{id: id, shape: s, kind: kind}
	switch kind {
	case serve.Permute:
		r.dest = rng.Perm(s.n)
	case serve.Concentrate:
		r.marked = make([]bool, s.n)
		for _, i := range rng.Perm(s.n)[:s.n/2] {
			r.marked[i] = true
		}
		r.count = s.n / 2
	case serve.SortWords:
		bits := s.wordBits
		if bits == 0 {
			bits = 64
		}
		r.keys = make([]uint64, s.n)
		for i := range r.keys {
			r.keys[i] = rng.Uint64()
			if bits < 64 {
				r.keys[i] &= 1<<bits - 1
			}
		}
		r.sorted = slices.Clone(r.keys)
		slices.Sort(r.sorted)
	}
	return r
}

// check verifies a response against the routing contract: a permute
// realizes dest (perm[dest[i]] == i), a concentrate returns the marked
// count with exactly the marked inputs on the leading outputs, and a
// sortwords output is the sorted key multiset.
func (r *request) check(res response) error {
	n := r.shape.n
	switch r.kind {
	case serve.Permute:
		if len(res.perm) != n {
			return fmt.Errorf("permute: %d outputs, want %d", len(res.perm), n)
		}
		for i, d := range r.dest {
			if res.perm[d] != i {
				return fmt.Errorf("permute: output %d receives %d, want %d", d, res.perm[d], i)
			}
		}
	case serve.Concentrate:
		if res.count != r.count {
			return fmt.Errorf("concentrate: count %d, want %d", res.count, r.count)
		}
		if len(res.perm) < r.count {
			return fmt.Errorf("concentrate: %d outputs for %d marked", len(res.perm), r.count)
		}
		seen := make([]bool, n)
		for j, i := range res.perm[:r.count] {
			if i < 0 || i >= n || !r.marked[i] || seen[i] {
				return fmt.Errorf("concentrate: output %d carries input %d, not a distinct marked input", j, i)
			}
			seen[i] = true
		}
	case serve.SortWords:
		if !slices.Equal(res.keys, r.sorted) {
			return fmt.Errorf("sortwords: output is not the sorted keys")
		}
	}
	return nil
}

// target is the workload's entry point under load.
type target interface {
	// do routes r and waits for its response; slot picks the
	// connection on the wire.
	do(ctx context.Context, r *request, slot int) (response, error)
	// send issues r and returns a function that waits for its
	// response, so one goroutine can issue a whole burst at once.
	send(ctx context.Context, r *request, slot int) func() (response, error)
	// queueLen samples the serve admission backlog.
	queueLen() int
	// counts returns (attempts refused at admission, responses checked
	// by the serve layer's sampled checker, responses completed by the
	// serve layer).
	counts() (rejected, checked, completed int64)
	close()
}

// serveTarget submits straight to one serve.Service.
type serveTarget struct{ svc *serve.Service }

func (t *serveTarget) do(ctx context.Context, r *request, _ int) (response, error) {
	return serveDo(ctx, t.svc, r)
}

func (t *serveTarget) send(ctx context.Context, r *request, _ int) func() (response, error) {
	fut, err := t.svc.Submit(ctx, r.serveReq())
	return func() (response, error) {
		if err != nil {
			return response{}, err
		}
		res, err := fut.Wait(ctx)
		return response{perm: res.Perm, count: res.Count, keys: res.Keys}, err
	}
}

func serveDo(ctx context.Context, svc *serve.Service, r *request) (response, error) {
	fut, err := svc.Submit(ctx, r.serveReq())
	if err != nil {
		return response{}, err
	}
	res, err := fut.Wait(ctx)
	return response{perm: res.Perm, count: res.Count, keys: res.Keys}, err
}

func (t *serveTarget) queueLen() int { return t.svc.QueueLen() }

func (t *serveTarget) counts() (int64, int64, int64) {
	st, fs := t.svc.Stats(), t.svc.FaultStats()
	return st.Rejected, fs.Checked, st.Completed
}

func (t *serveTarget) close() { t.svc.Close() }

// wireTarget calls a FrontDoorServer over pipelined loopback clients.
type wireTarget struct {
	fd      *frontdoor.FrontDoor
	srv     *frontdoor.Server
	clients []*frontdoor.Client
}

func (t *wireTarget) do(_ context.Context, r *request, slot int) (response, error) {
	return wireDo(t.clients[slot%len(t.clients)], r)
}

// send runs the blocking client call on its own goroutine.
func (t *wireTarget) send(ctx context.Context, r *request, slot int) func() (response, error) {
	type reply struct {
		res response
		err error
	}
	ch := make(chan reply, 1)
	go func() {
		res, err := t.do(ctx, r, slot)
		ch <- reply{res, err}
	}()
	return func() (response, error) {
		x := <-ch
		return x.res, x.err
	}
}

func wireDo(cl *frontdoor.Client, r *request) (response, error) {
	var res response
	var err error
	switch r.kind {
	case serve.Permute:
		res.perm, err = cl.Permute(r.shape.id, r.dest)
	case serve.Concentrate:
		res.perm, res.count, err = cl.Concentrate(r.shape.id, r.marked)
	case serve.SortWords:
		res.keys, err = cl.SortWords(r.shape.id, r.keys)
	}
	return res, err
}

// queueLen samples the tenants' in-flight serve requests: the front
// door does not expose its tenants' Service.QueueLen.
func (t *wireTarget) queueLen() int {
	q := 0
	for _, id := range t.fd.Tenants() {
		if st, err := t.fd.TenantStats(id); err == nil {
			q += int(st.Serve.InFlight)
		}
	}
	return q
}

func (t *wireTarget) counts() (rejected, checked, completed int64) {
	for _, id := range t.fd.Tenants() {
		if st, err := t.fd.TenantStats(id); err == nil {
			rejected += st.Rejected
			checked += st.Fault.Checked
			completed += st.Serve.Completed
		}
	}
	return rejected, checked, completed
}

func (t *wireTarget) close() {
	for _, cl := range t.clients {
		cl.Close()
	}
	t.srv.Close()
	t.fd.Close()
}
