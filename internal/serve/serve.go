// Package serve is the streaming routing service in front of the compiled
// routing plans: one long-lived worker pool owning one plan set — the
// Fig. 10 radix permuter's route plan, an (n,m)-concentrator plan
// (Section IV), and a word sorter (the Section I radix decomposition) —
// replayed over an unbounded request stream with bounded admission.
//
// This is the serving regime of a fixed small network: the same compiled
// structure is reused across many inputs, exactly the periodic operation
// studied for constant-periodic merging networks. Where the batch
// pipelines (concentrator.ConcentrateBatch, permnet.RouteBatch) fan a
// one-shot slice of requests across cores and return, a Service accepts
// requests asynchronously:
//
//   - Submit blocks while the bounded queue is full (backpressure),
//     honouring context cancellation; TrySubmit fails fast with
//     ErrQueueFull.
//   - Every admitted request gets a Future that is always resolved —
//     with a result, a routing error, or a cancellation error — never
//     dropped, even across Close.
//   - Close rejects new admissions, drains everything already admitted,
//     and returns only after the workers have exited.
//   - Stats exposes admission/completion counters and a power-of-two
//     latency histogram.
//
// Workers execute on the plans' pooled scratch, so steady-state service
// throughput matches the batch pipelines: the only per-request
// allocations are the task envelope and the result slices handed to the
// caller.
//
// Under a request burst the service additionally matches the packed
// batch pipelines: a worker that picks up a Concentrate or Permute
// request looks at the queue. If at least MinPackedLanes − 1 requests
// wait behind it — after one runtime.Gosched when the first look comes
// up short, so that callers just woken by this worker's resolutions can
// resubmit — it greedily drains further queued requests of the same kind
// (never blocking) and, when the drained group is at least
// MinPackedLanes wide, routes the whole group through one SWAR plan
// replay (ConcentratePacked / RoutePacked) — up to burstLanes requests
// per replay, riding the packed engine's multi-word lane planes. If the
// queue is still short, the worker routes only its own request and
// leaves the rest to the other workers: a group too small to pack would
// otherwise run serially on one worker while the others sit idle. The
// drain is fair across kinds: an other-kind request that ends a drain
// executes before the burst's wide replay, and a sustained single-kind
// stream has its burst width capped after maxConsecBursts consecutive
// full-width bursts, so no kind is starved past its deadline by another
// kind's packing. Results are bit-for-bit identical to the per-request path, and
// every drained task still honours its own context, deadline, and (for
// Concentrate) capacity check individually; a malformed permutation in a
// Permute burst resolves alone with its own error and never poisons its
// burst neighbours. The Ranking engine's Concentrate requests always
// take the per-request path, exactly as ConcentrateBatch does.
//
// The service additionally carries the paper's hardware fault model into
// the serving regime (see fault.go): each request kind routes through a
// swappable plan INSTANCE (one "hardware copy" of the compiled plan),
// InjectFault wedges wires of an instance under live traffic, a sampled
// lanewise checker verifies responses against the routing invariants, and
// a detected misroute quarantines the instance and recompiles around the
// fault — onto spare capacity, across engines, or (for the concentrator)
// degrading onto the permuter — replaying the failed requests so no
// admitted Future ever resolves with a wrong result.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"absort/internal/concentrator"
	"absort/internal/core"
	"absort/internal/permnet"
	"absort/internal/planner"
	"absort/internal/verify"
	"absort/internal/wordsort"
)

// Engine selects the routing engine backing the service's plan set.
type Engine = concentrator.Engine

// burstLanes caps a worker's greedy same-kind drain: WideWords lane
// words of requests ride one multi-word packed replay — the widest group
// the auto-tuned batch pipelines use — while staying far below the
// packed engines' MaxPackedLanes hard limit.
const burstLanes = planner.WideWords * concentrator.PackedLanes

// maxConsecBursts bounds how many consecutive FULL-WIDTH same-kind
// bursts one worker may run before its drain is capped at a single lane
// word (concentrator.PackedLanes): under a sustained single-kind stream
// the greedy drain would otherwise claim burstLanes-deep stretches of
// the queue back to back, and a request of another kind — claimed as the
// drain's tail or waiting right behind the claimed stretch — would keep
// paying a full wide-replay latency per cycle, long enough to blow its
// deadline. Capped bursts still ride the packed replay (PackedLanes ≥
// MinPackedLanes), so the fairness bound costs only the widening, not
// the packing. The streak resets whenever another kind actually runs or
// the queue goes idle.
const maxConsecBursts = 4

// Service errors.
var (
	// ErrQueueFull is returned by TrySubmit when the admission queue is at
	// QueueDepth.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrClosed is returned by Submit/TrySubmit after Close has started.
	ErrClosed = errors.New("serve: service closed")
	// ErrDeadlineExceeded resolves a Future whose request deadline passed
	// before a worker picked it up.
	ErrDeadlineExceeded = errors.New("serve: request deadline exceeded before execution")
)

// Config configures a Service.
type Config struct {
	// N is the network width (a power of two).
	N int
	// Engine selects the routing engine for the whole plan set.
	Engine Engine
	// K is the fish group count (≤ 0 selects the paper's k = lg n choice;
	// other engines ignore it).
	K int
	// M is the concentrator output capacity (≤ 0 means N: the
	// (n,n)-concentrator every binary sorter forms).
	M int
	// WordBits is the word-sort key width (≤ 0 means 64).
	WordBits int
	// Workers is the worker pool size (≤ 0 means GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue (≤ 0 means 4 × Workers).
	QueueDepth int
	// CheckFraction is the fraction of successful responses verified by
	// the lanewise misroute checker (permutation realization for Permute,
	// ones-conservation for Concentrate, sortedness for SortWords). 0
	// selects the default 1/64 sampling; values ≥ 1 check every response;
	// negative disables checking (and with it fault detection and
	// recovery). Independent of the sampling rate, every response routed
	// by a plan instance that has already failed one check is verified
	// until recovery replaces the instance.
	CheckFraction float64
	// Spares is the number of same-engine spare plan instances recovery
	// may allocate per request kind before quarantining the engine and
	// falling back to the next one. 0 selects the default (1); negative
	// means no spares — the first detected fault on a kind fails over to
	// another engine immediately.
	Spares int
}

// Kind selects what a Request asks the plan set to route.
type Kind uint8

// Request kinds.
const (
	// Permute routes Dest (a permutation in "input i goes to output
	// dest[i]" form) through the radix permuter's compiled plan.
	Permute Kind = iota
	// Concentrate routes Marked through the concentrator's compiled plan.
	Concentrate
	// SortWords sorts Keys through the word sorter's compiled plan.
	SortWords
)

func (k Kind) String() string {
	switch k {
	case Permute:
		return "permute"
	case Concentrate:
		return "concentrate"
	case SortWords:
		return "sortwords"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Request is one unit of work submitted to a Service. Exactly the field
// matching Kind must be populated with length N.
type Request struct {
	Kind   Kind
	Dest   []int    // Permute: destination assignment (a permutation)
	Marked []bool   // Concentrate: request pattern
	Keys   []uint64 // SortWords: keys to sort

	// Deadline, when nonzero, drops the request (resolving its Future
	// with ErrDeadlineExceeded) if no worker has started it by then.
	Deadline time.Time
}

// Result is the outcome of a successfully routed Request.
type Result struct {
	// Perm is the realized permutation in receives-from form
	// (out[j] = in[Perm[j]]); set for every kind.
	Perm []int
	// Count is the number of concentrated inputs (Concentrate only).
	Count int
	// Keys are the sorted keys (SortWords only).
	Keys []uint64
}

// Future is the handle of an admitted request. It is resolved exactly
// once — the service never drops an admitted Future, even across Close.
type Future struct {
	done chan struct{}
	res  Result
	err  error
}

// Done is closed when the Future has been resolved.
func (f *Future) Done() <-chan struct{} { return f.done }

// Wait blocks until the Future resolves or ctx is done, returning the
// result or the first error (routing error, cancellation, or ctx error).
// Resolution wins every race with cancellation: a ctx that is canceled
// after (or concurrently with) the resolution still returns the result,
// so concurrent Wait callers on a resolved Future all observe the same
// (Result, error) pair regardless of their contexts.
func (f *Future) Wait(ctx context.Context) (Result, error) {
	select {
	case <-f.done:
		return f.res, f.err
	default:
	}
	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
		// Both channels may have been ready and select picks arbitrarily:
		// re-check so an already-resolved Future never reports ctx.Err().
		select {
		case <-f.done:
			return f.res, f.err
		default:
		}
		return Result{}, ctx.Err()
	}
}

// Result returns the resolved outcome. It must only be called after Done
// is closed (Wait does this for you).
func (f *Future) Result() (Result, error) { return f.res, f.err }

// task is the queue envelope of an admitted request.
type task struct {
	req       Request
	ctx       context.Context
	fut       *Future
	submitted time.Time
	// packed marks a task routed by a packed burst replay (Stats.Packed).
	packed bool
}

// Service is a streaming routing service: a bounded admission queue in
// front of a long-lived worker pool replaying one compiled plan set. It
// is safe for concurrent use.
type Service struct {
	cfg Config

	// word is the initial word sorter of the plan set, kept for
	// introspection; routing always goes through the per-kind plan
	// instances below.
	word *wordsort.Sorter

	// inst holds the plan instance currently serving each request kind
	// (indexed by Kind). An instance is one "hardware copy" of the
	// compiled plan: fault injection wedges wires of the current
	// instance, and recovery swaps in a replacement — the quarantined
	// copy (with its faults) is simply never routed through again. For
	// Permute at n ≥ permnet.ShardedAutoThreshold the instance carries
	// the sharded decomposition and the flat fused program — Θ(n lg n)
	// steps at those widths — is never compiled.
	inst [3]atomic.Pointer[planInstance]

	// checker verifies sampled responses; checkStride is the sampling
	// stride derived from Config.CheckFraction (0 disabled, 1 every
	// response, k one in k via checkCtr).
	checker     *verify.LaneChecker
	checkStride uint64
	checkCtr    atomic.Uint64

	// faultMu serializes recovery (instance replacement); recov tracks
	// per-kind spare usage and quarantined engines; spares is the
	// resolved Config.Spares; rotation is the per-kind engine fallback
	// order, derived from the planner registry at New (capability-
	// filtered, registration order — see rotationFor).
	faultMu  sync.Mutex
	recov    [3]recoveryState
	spares   int
	rotation [3][]Engine

	queue chan *task
	quit  chan struct{} // closed by Close: wakes blocked submitters

	mu         sync.Mutex // guards closed + submitters.Add
	closed     bool
	submitters sync.WaitGroup // Submits between admission check and send
	workers    sync.WaitGroup

	stats statsCounters

	// testBeforeExec, when set (tests only), runs in the worker once per
	// task taken off the queue (including tasks drained into a packed
	// burst) before the task executes; it lets tests hold workers busy
	// deterministically.
	testBeforeExec func()
	// testOnBurst, when set (tests only), runs in the worker after a
	// drained group's tail (if any) has executed and before the group's
	// replay, reporting the burst kind and width; it lets tests pin the
	// drain-fairness behaviour deterministically.
	testOnBurst func(kind Kind, size int)
}

// New validates cfg, compiles the plan set, and starts the worker pool.
func New(cfg Config) (*Service, error) {
	if !core.IsPow2(cfg.N) {
		return nil, fmt.Errorf("serve: New: n=%d is not a positive power of two", cfg.N)
	}
	spec, ok := planner.Lookup(cfg.Engine)
	if !ok {
		return nil, fmt.Errorf("serve: New: unknown engine %v", cfg.Engine)
	}
	if !planner.CanRoute(cfg.Engine, cfg.N) {
		return nil, fmt.Errorf("serve: New: engine %v cannot route width %d", cfg.Engine, cfg.N)
	}
	if cfg.N >= 2 && !planner.CanRoute(cfg.Engine, 2) {
		// The permuter and word-sorter plans recurse through every level
		// width n, n/2, …, 2, so a width-locked kernel cannot back them.
		return nil, fmt.Errorf("serve: New: engine %v cannot route the permuter's level widths 2..%d",
			cfg.Engine, cfg.N)
	}
	if spec.CheckK != nil && cfg.K > 0 {
		if _, err := spec.CheckK(cfg.N, cfg.K); err != nil {
			return nil, fmt.Errorf("serve: New: %v", err)
		}
	}
	if cfg.M <= 0 {
		cfg.M = cfg.N
	}
	if cfg.M > cfg.N {
		return nil, fmt.Errorf("serve: New: concentrator capacity m=%d exceeds n=%d", cfg.M, cfg.N)
	}
	if cfg.WordBits <= 0 {
		cfg.WordBits = 64
	}
	if cfg.WordBits > 64 {
		return nil, fmt.Errorf("serve: New: key width %d out of range [1,64]", cfg.WordBits)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}

	word, err := wordsort.New(cfg.N, cfg.WordBits, cfg.Engine)
	if err != nil {
		return nil, fmt.Errorf("serve: New: %w", err)
	}
	conc := concentrator.New(cfg.N, cfg.M, cfg.Engine, cfg.K)
	conc.Compile()
	s := &Service{
		cfg:         cfg,
		word:        word,
		checker:     verify.NewLaneChecker(cfg.N),
		checkStride: strideFor(cfg.CheckFraction),
		spares:      cfg.Spares,
		queue:       make(chan *task, cfg.QueueDepth),
		quit:        make(chan struct{}),
	}
	if s.spares == 0 {
		s.spares = 1
	} else if s.spares < 0 {
		s.spares = 0
	}
	permInst := &planInstance{engine: cfg.Engine}
	if cfg.N >= permnet.ShardedAutoThreshold {
		sharded, err := permnet.ShardedPlanFor(cfg.N, cfg.Engine, 0)
		if err != nil {
			return nil, fmt.Errorf("serve: New: %w", err)
		}
		permInst.sharded = sharded
	} else {
		permInst.perm = permnet.NewRadixPermuter(cfg.N, cfg.Engine, cfg.K).Compile()
	}
	s.inst[Permute].Store(permInst)
	s.inst[Concentrate].Store(&planInstance{engine: cfg.Engine, conc: conc})
	s.inst[SortWords].Store(&planInstance{engine: cfg.Engine, word: word})
	for kind := range s.rotation {
		s.rotation[kind] = rotationFor(Kind(kind), cfg.N)
	}
	s.workers.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go s.worker()
	}
	return s, nil
}

// N returns the network width; Engine, Workers, QueueDepth the resolved
// configuration; QueueLen the current admission queue occupancy.
func (s *Service) N() int          { return s.cfg.N }
func (s *Service) Engine() Engine  { return s.cfg.Engine }
func (s *Service) Workers() int    { return s.cfg.Workers }
func (s *Service) QueueDepth() int { return s.cfg.QueueDepth }
func (s *Service) QueueLen() int   { return len(s.queue) }

// validate rejects malformed requests at admission so a bad request can
// never reach (let alone crash) a worker.
func (s *Service) validate(req Request) error {
	switch req.Kind {
	case Permute:
		if len(req.Dest) != s.cfg.N {
			return fmt.Errorf("serve: permute request with %d destinations, want %d",
				len(req.Dest), s.cfg.N)
		}
	case Concentrate:
		if len(req.Marked) != s.cfg.N {
			return fmt.Errorf("serve: concentrate request with %d marks, want %d",
				len(req.Marked), s.cfg.N)
		}
	case SortWords:
		if len(req.Keys) != s.cfg.N {
			return fmt.Errorf("serve: sortwords request with %d keys, want %d",
				len(req.Keys), s.cfg.N)
		}
	default:
		return fmt.Errorf("serve: unknown request kind %v", req.Kind)
	}
	return nil
}

// Submit admits req, blocking while the queue is full. It returns a
// Future that is always resolved, or an error when the request is
// malformed, ctx is done before admission, or the service is closed.
func (s *Service) Submit(ctx context.Context, req Request) (*Future, error) {
	return s.submit(ctx, req, true)
}

// TrySubmit is Submit without blocking: a full queue returns ErrQueueFull
// immediately.
func (s *Service) TrySubmit(ctx context.Context, req Request) (*Future, error) {
	return s.submit(ctx, req, false)
}

func (s *Service) submit(ctx context.Context, req Request, block bool) (*Future, error) {
	if err := s.validate(req); err != nil {
		s.stats.rejected.Add(1)
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		s.stats.rejected.Add(1)
		return nil, err
	}
	// Enter the submitter gate: Close waits for everyone inside it before
	// closing the queue channel, so a send can never hit a closed channel.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.stats.rejected.Add(1)
		return nil, ErrClosed
	}
	s.submitters.Add(1)
	s.mu.Unlock()
	defer s.submitters.Done()

	t := &task{
		req:       req,
		ctx:       ctx,
		fut:       &Future{done: make(chan struct{})},
		submitted: time.Now(),
	}
	// Count the admission BEFORE the queue send: a worker can take the
	// task and resolve it (incrementing Completed) the instant it lands
	// on the channel, so Submitted must already cover it or a torn Stats
	// snapshot can observe Submitted < Completed + InFlight. A send that
	// fails rolls the count back — the transient in between is a phantom
	// admission (Submitted one high), which the invariant tolerates,
	// never a missing one, which it would not.
	s.stats.submitted.Add(1)
	if block {
		select {
		case s.queue <- t:
		case <-ctx.Done():
			s.stats.submitted.Add(-1)
			s.stats.rejected.Add(1)
			return nil, ctx.Err()
		case <-s.quit:
			s.stats.submitted.Add(-1)
			s.stats.rejected.Add(1)
			return nil, ErrClosed
		}
	} else {
		select {
		case s.queue <- t:
		default:
			s.stats.submitted.Add(-1)
			s.stats.rejected.Add(1)
			return nil, ErrQueueFull
		}
	}
	return t.fut, nil
}

// Close stops admission, drains every admitted request (each Future
// resolves), and returns once all workers have exited. It is idempotent
// and safe to call concurrently.
func (s *Service) Close() {
	s.mu.Lock()
	first := !s.closed
	s.closed = true
	s.mu.Unlock()
	if first {
		close(s.quit)       // wake submitters blocked on a full queue
		s.submitters.Wait() // no Submit is mid-send any more
		close(s.queue)      // workers drain the remainder and exit
	}
	s.workers.Wait()
}

// worker drains the admission queue until it is closed and empty. When
// the live plan instance of a Concentrate or Permute task can ride the
// packed replay (see packs), the task triggers a greedy non-blocking
// drain of further queued tasks of the same kind so the group rides one
// SWAR plan replay — but only when the queue holds enough to fill one
// (see enoughToPack); otherwise the task routes alone and the queue is
// left to the other workers. Two fairness rules keep a sustained
// single-kind stream from starving the other kinds: the drain's
// other-kind tail executes BEFORE the burst's packed replay (one scalar
// route delays the burst; a wide replay could expire the tail's
// deadline), and after maxConsecBursts consecutive full-width same-kind
// bursts the drain is capped at one lane word so other-kind arrivals
// surface within PackedLanes tasks instead of burstLanes.
func (s *Service) worker() {
	defer s.workers.Done()
	var burst []*task
	var marked [][]bool
	var dests [][]int
	if s.cfg.N > 1 {
		burst = make([]*task, 0, burstLanes)
		marked = make([][]bool, 0, burstLanes)
		dests = make([][]int, 0, burstLanes)
	}
	lastKind := Kind(255) // kind of the previous burst; 255 = no streak
	consec := 0           // consecutive same-kind bursts, full width or capped
	for t := range s.queue {
		if s.testBeforeExec != nil {
			s.testBeforeExec()
		}
		kind := t.req.Kind
		if !s.packs(kind) {
			s.exec(t)
			lastKind, consec = Kind(255), 0 // another kind ran: streak over
			continue
		}
		limit := burstLanes
		if kind == lastKind && consec >= maxConsecBursts {
			limit = concentrator.PackedLanes
		}
		burst = append(burst[:0], t)
		var tail *task
		if s.enoughToPack() {
			tail = s.drainKind(kind, &burst, limit)
		}
		if tail != nil {
			// Age/deadline protection: the tail is the lone other-kind
			// request this worker claimed — run it before the wide replay
			// it is not part of, not after.
			s.exec(tail)
		}
		if s.testOnBurst != nil {
			s.testOnBurst(kind, len(burst))
		}
		s.execBurst(kind, burst, marked, dests)
		switch {
		case tail != nil || len(burst) < limit:
			// Another kind ran, or the queue went idle mid-drain: no
			// sustained single-kind pressure, reset the streak.
			lastKind, consec = Kind(255), 0
		case kind == lastKind:
			consec++
		default:
			lastKind, consec = kind, 1
		}
	}
}

// packs reports whether kind's tasks may drain into packed bursts: the
// live plan instance of the kind can ride the packed replay (see
// planInstance.packable), so the drain follows recovery onto another
// engine. The trivial n = 1 wire never packs.
func (s *Service) packs(kind Kind) bool {
	return s.cfg.N > 1 && s.loadInst(kind).packable(kind)
}

// enoughToPack reports whether the queue holds enough tasks behind a
// just-taken packable task to fill a packed replay (MinPackedLanes − 1
// more). A short queue gets one processor yield and a second look: in a
// closed loop a channel send hands the task straight to a parked worker,
// which then wakes to an empty queue before the callers its own
// resolutions woke have resubmitted. A queue still short after the yield
// is left alone — the worker routes only its own task, and the rest stay
// queued for the idle workers instead of running serially on this one.
func (s *Service) enoughToPack() bool {
	const want = planner.MinPackedLanes - 1
	if len(s.queue) >= want {
		return true
	}
	runtime.Gosched()
	return len(s.queue) >= want
}

// drainKind greedily claims further queued tasks of the same kind up to
// limit, never blocking: the worker calls it only when enoughToPack saw
// a hot queue, and the claimed group rides one packed plan replay; if the
// queue empties first the select falls through and a group too narrow to
// pack takes the per-request path. Claim order matches queue order, so
// burst tasks execute in FIFO order. The first other-kind task claimed, if any, ends
// the drain and is returned — the worker executes it BEFORE the burst's
// packed replay (see worker), the one deliberate FIFO inversion.
func (s *Service) drainKind(kind Kind, burst *[]*task, limit int) *task {
	for len(*burst) < limit {
		select {
		case nt, ok := <-s.queue:
			if !ok {
				return nil
			}
			if s.testBeforeExec != nil {
				s.testBeforeExec()
			}
			if nt.req.Kind != kind {
				return nt
			}
			*burst = append(*burst, nt)
		default:
			return nil
		}
	}
	return nil
}

// execBurst resolves a drained group of Concentrate or Permute tasks.
// Groups at least MinPackedLanes wide route through one packed plan
// replay; narrower groups take the per-request path (the packing
// overhead would not pay for itself), as does any group whose current
// plan instance cannot ride the packed replay — injected faults force
// the scalar faulty path, a recovery fallback onto the Ranking engine
// gains nothing from lane packing, and degraded (permuter-backed)
// concentrate service has no concentrator plan at all. Each task is
// still pre-checked individually — cancellation, deadline, and for
// Concentrate the capacity — so one dead or over-capacity request
// resolves alone with its own error and never poisons its burst
// neighbours; the pre-checked failures take the same scalar path exec
// would, producing identical error messages. A packed replay that still
// fails re-routes the group per request, so each task gets its own
// canonical result or error: for Permute this is reachable, since
// admission validates only lengths and a non-permutation surfaces inside
// RoutePacked. marked and dests are the worker's reusable request-slice
// scratch.
func (s *Service) execBurst(kind Kind, burst []*task, marked [][]bool, dests [][]int) {
	inst := s.loadInst(kind)
	if len(burst) < planner.MinPackedLanes || !inst.packable(kind) {
		for _, t := range burst {
			s.exec(t)
		}
		return
	}
	live := burst[:0] // compact forward: reads stay ahead of writes
	for _, t := range burst {
		switch {
		case t.ctx.Err() != nil:
			s.resolve(t, Result{}, t.ctx.Err())
		case !t.req.Deadline.IsZero() && !time.Now().Before(t.req.Deadline):
			s.resolve(t, Result{}, ErrDeadlineExceeded)
		case kind == Concentrate && s.overCapacity(t.req.Marked):
			res, err := s.route(t.req) // canonical capacity error text
			s.resolve(t, res, err)
		default:
			live = append(live, t)
		}
	}
	if len(live) < planner.MinPackedLanes {
		for _, t := range live {
			s.execRouted(t)
		}
		return
	}
	n := s.cfg.N
	flat := make([]int, len(live)*n)
	perms := make([][]int, len(live))
	for i := range live {
		perms[i] = flat[i*n : (i+1)*n]
	}
	var counts []int
	var err error
	if kind == Concentrate {
		counts = make([]int, len(live))
		marked = marked[:0]
		for _, t := range live {
			marked = append(marked, t.req.Marked)
		}
		err = inst.conc.ConcentratePacked(perms, counts, marked)
	} else {
		dests = dests[:0]
		for _, t := range live {
			dests = append(dests, t.req.Dest)
		}
		if inst.sharded != nil {
			// Shard-parallel drain: the burst routes in groups of requests
			// per wide replay, each request spanning its w shard lanes.
			err = inst.sharded.RoutePacked(perms, dests)
		} else {
			err = inst.perm.RoutePacked(perms, dests)
		}
	}
	if err != nil {
		for _, t := range live {
			s.execRouted(t)
		}
		return
	}
	for i, t := range live {
		t.packed = true
		res := Result{Perm: perms[i]}
		if counts != nil {
			res.Count = counts[i]
		}
		s.finish(t, inst, res, nil)
	}
}

// overCapacity reports whether a concentrate pattern requests more than
// the capacity m. For the (n,n)-concentrator (m = n) no pattern can
// exceed capacity, so the scan is skipped.
func (s *Service) overCapacity(marked []bool) bool {
	if s.cfg.M >= s.cfg.N {
		return false
	}
	r := 0
	for _, mk := range marked {
		if mk {
			r++
		}
	}
	return r > s.cfg.M
}

// exec resolves one task: cancellation and deadline are honoured before
// any routing work is spent on the request.
func (s *Service) exec(t *task) {
	switch {
	case t.ctx.Err() != nil:
		s.resolve(t, Result{}, t.ctx.Err())
	case !t.req.Deadline.IsZero() && !time.Now().Before(t.req.Deadline):
		s.resolve(t, Result{}, ErrDeadlineExceeded)
	default:
		s.execRouted(t)
	}
}

// execRouted routes one pre-checked task on the current plan instance of
// its kind, runs the sampled lanewise response check, and resolves it —
// the common tail of the scalar path and the burst fallbacks.
func (s *Service) execRouted(t *task) {
	inst := s.loadInst(t.req.Kind)
	res, err := s.routeOn(inst, t.req)
	s.finish(t, inst, res, err)
}

// resolve publishes a task's outcome exactly once and records it in the
// service counters and latency histogram. The counters are updated
// before the Future is closed, so a caller that has seen its Future
// resolve also sees it in Stats.
func (s *Service) resolve(t *task, res Result, err error) {
	s.stats.completed.Add(1)
	if t.packed {
		s.stats.packed.Add(1) // after completed: see Stats
	}
	if err != nil {
		s.stats.failed.Add(1)
	}
	s.stats.observe(time.Since(t.submitted))
	t.fut.res, t.fut.err = res, err
	close(t.fut.done)
}

// route replays the request through the current plan instance of its
// kind; see routeOn.
func (s *Service) route(req Request) (Result, error) {
	return s.routeOn(s.loadInst(req.Kind), req)
}

// routeOn replays the request through one plan instance. Lengths were
// validated at admission; the plans re-validate semantic properties
// (permutation validity, concentrator capacity) and return errors — no
// routing path here can panic on malformed input. An instance with
// injected faults routes through the scalar faulty replay (the wedged
// wires apply); a degraded concentrator instance routes through the
// permuter instead.
func (s *Service) routeOn(inst *planInstance, req Request) (Result, error) {
	switch req.Kind {
	case Permute:
		out := make([]int, s.cfg.N)
		if inst.sharded != nil {
			if err := inst.sharded.RouteInto(out, req.Dest); err != nil {
				return Result{}, err
			}
			return Result{Perm: out}, nil
		}
		if f := inst.faultList(); f != nil {
			if err := inst.perm.RouteIntoStuck(out, req.Dest, f); err != nil {
				return Result{}, err
			}
			return Result{Perm: out}, nil
		}
		if err := inst.perm.RouteInto(out, req.Dest); err != nil {
			return Result{}, err
		}
		return Result{Perm: out}, nil
	case Concentrate:
		if inst.degraded {
			return s.concentrateDegraded(req.Marked)
		}
		out := make([]int, s.cfg.N)
		var r int
		var err error
		if f := inst.faultList(); f != nil {
			r, err = inst.conc.ConcentrateIntoStuck(out, req.Marked, f)
		} else {
			r, err = inst.conc.ConcentrateInto(out, req.Marked)
		}
		if err != nil {
			return Result{}, err
		}
		return Result{Perm: out, Count: r}, nil
	case SortWords:
		keys := make([]uint64, s.cfg.N)
		perm := make([]int, s.cfg.N)
		if err := inst.word.SortInto(keys, perm, req.Keys); err != nil {
			return Result{}, err
		}
		return Result{Perm: perm, Keys: keys}, nil
	}
	return Result{}, fmt.Errorf("serve: unknown request kind %v", req.Kind)
}
