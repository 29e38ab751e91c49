package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"absort/internal/concentrator"
	"absort/internal/frontdoor"
	"absort/internal/permnet"
	"absort/internal/planner"
	"absort/internal/serve"
)

// flushShared evicts every compiled plan from the process-wide plan
// cache (a placeholder key takes the last slot), so the next set-up
// compiles from cold.
func flushShared() {
	prev := planner.Shared.SetCap(1)
	planner.Shared.Add(planner.PlanKey{Kind: planner.PlanKind(255)}, nil)
	planner.Shared.SetCap(prev)
}

// setupTimed runs reps cold set-ups, closes all but the last, and
// returns the median set-up time with the last stack.
func setupTimed(w *workload, reqs []*request, reps int) (time.Duration, target, error) {
	times := make([]time.Duration, 0, reps)
	var tgt target
	for i := 0; i < reps; i++ {
		if tgt != nil {
			tgt.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		tgt, err = setup(w, reqs)
		if err != nil {
			return 0, nil, err
		}
		times = append(times, time.Since(start))
	}
	slices.Sort(times)
	return times[len(times)/2], tgt, nil
}

// setup builds the workload's stack from a cold plan cache, builds the
// packed engines the timed phases can reach, and returns once one
// response per (shape, kind) has been verified.
func setup(w *workload, reqs []*request) (target, error) {
	flushShared()
	var tgt target
	var err error
	if w.wire {
		tgt, err = newWireTarget(w)
	} else {
		tgt, err = newServeTarget(w)
	}
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, r := range reqs {
		key := fmt.Sprint(r.shape.id, r.kind)
		if seen[key] {
			continue
		}
		seen[key] = true
		res, err := tgt.do(context.Background(), r, 0)
		if err == nil {
			err = r.check(res)
		}
		if err != nil {
			tgt.close()
			return nil, fmt.Errorf("set-up: first %v on %s: %w", r.kind, r.shape.id, err)
		}
	}
	warmPacked(w)
	return tgt, nil
}

// warmPacked builds the lane-word widths of the packed engines that the
// workload's in-flight bound lets a serve drain burst reach, so their
// lazy construction lands in set-up, not in a timed phase.
func warmPacked(w *workload) {
	inFlight := max(w.burst, w.window*w.conns)
	if inFlight < planner.MinPackedLanes {
		return
	}
	words := min((inFlight+planner.PackedLanes-1)/planner.PackedLanes, planner.WideWords)
	for _, s := range w.shapes {
		perm := permnet.NewRadixPermuter(s.n, s.engine, 0).Compile()
		var conc *concentrator.Plan
		if planner.PackedProfitable(s.engine) {
			conc = concentrator.New(s.n, s.n, s.engine, 0).Compile()
		}
		for k := 1; k <= words; k++ {
			// Unpackable programs fall back to the per-request path at
			// run time as well; there is nothing to build.
			_, _ = perm.Program().Packed(k)
			if conc != nil {
				_, _ = conc.Program().Packed(k)
			}
		}
	}
}

func newServeTarget(w *workload) (*serveTarget, error) {
	s := w.shapes[0]
	svc, err := serve.New(serve.Config{
		N: s.n, Engine: s.engine, WordBits: s.wordBits, QueueDepth: w.queueDepth,
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return &serveTarget{svc: svc}, nil
}

func newWireTarget(w *workload) (*wireTarget, error) {
	fd, srv, err := newFrontDoor(w.shapes)
	if err != nil {
		return nil, err
	}
	t := &wireTarget{fd: fd, srv: srv}
	for i := 0; i < w.conns; i++ {
		cl, err := frontdoor.Dial(srv.Addr().String())
		if err != nil {
			t.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		t.clients = append(t.clients, cl)
	}
	return t, nil
}

// newFrontDoor starts a front door with one tenant per shape, served on
// a loopback port. The workloads stay far below capacity, so the
// adaptive controller has no overload to react to; at its default 5 ms
// p99 target a host stall alone makes it halve a tenant's queue depth,
// and runs came out with busy refusals and many times the usual p90.
// A 1 s target keeps it out of the way.
func newFrontDoor(shapes []shape) (*frontdoor.FrontDoor, *frontdoor.Server, error) {
	fd := frontdoor.New(frontdoor.Config{TargetP99: time.Second})
	for _, s := range shapes {
		if err := fd.Register(s.id, frontdoor.TenantSpec{N: s.n, Engine: s.engine, WordBits: s.wordBits}); err != nil {
			fd.Close()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
	}
	srv, err := frontdoor.NewServer(fd, "127.0.0.1:0")
	if err != nil {
		fd.Close()
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	return fd, srv, nil
}
