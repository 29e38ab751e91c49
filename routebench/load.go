package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// maxOpenInFlight bounds the open-loop generator's outstanding
// requests; past it the generator waits and the wait shows as lateness.
const maxOpenInFlight = 1024

// tally counts attempts and failures over a run and keeps the first
// wrong response, which aborts the run.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	wrong             error
}

// record books one response and reports whether it was correct. A
// routing error or a busy refusal counts as failed; a wrong response is
// kept for the caller to abort on.
func (t *tally) record(r *request, res response, err error) bool {
	t.attempted.Add(1)
	if err != nil {
		t.failed.Add(1)
		return false
	}
	if err := r.check(res); err != nil {
		t.mu.Lock()
		if t.wrong == nil {
			t.wrong = fmt.Errorf("wrong response to request %d (%v on %s): %w", r.id, r.kind, r.shape.id, err)
		}
		t.mu.Unlock()
		return false
	}
	return true
}

func (t *tally) err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.wrong
}

// openLoop issues w.burst requests due together every w.period for dur,
// whatever the responses do. Latency runs from the due time to the
// response, in ms, +Inf for a failed request; late is how far behind
// its schedule the generator issued each request, in ms.
func openLoop(tgt target, w *workload, reqs []*request, dur time.Duration, tl *tally, rec *recorder) (lat, late []float64) {
	ctx := context.Background()
	sem := make(chan struct{}, maxOpenInFlight)
	var mu sync.Mutex
	var wg sync.WaitGroup
	// The generator keeps its own thread, with the kernel's timer slack
	// (50 µs by default) cut to 1 ns, so nanosleep wakes on time.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 1, 0) // best effort
	procs := runtime.GOMAXPROCS(0)
	start := time.Now()
	next := 0
	type pending struct {
		r    *request
		wait func() (response, error)
	}
	var sent []pending
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * w.period)
		if due.Sub(start) >= dur {
			break
		}
		sleepUntil(due)
		// A burst is due at one instant, so it is issued back to back,
		// before any waiter starts, and with one P: no worker can run
		// until the whole burst is queued. With a second P, a worker
		// woken by the first request claims whatever is queued by the
		// time it runs; on a shared VM the generator thread is often
		// descheduled for milliseconds mid-burst, and the burst then
		// splits at random into groups too small for the packed path.
		sent = sent[:0]
		if w.burst > 1 {
			runtime.GOMAXPROCS(1)
		}
		for b := 0; b < w.burst; b++ {
			sem <- struct{}{}
			late = append(late, ms(time.Since(due)))
			r := reqs[next%len(reqs)]
			sent = append(sent, pending{r, tgt.send(ctx, r, next)})
			next++
		}
		if w.burst > 1 {
			runtime.GOMAXPROCS(procs)
		}
		for _, p := range sent {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := p.wait()
				end := time.Now()
				<-sem
				rec.add(topSpan(w), p.r.id, 0, due, end)
				d := math.Inf(1)
				if tl.record(p.r, res, err) {
					d = ms(end.Sub(due))
				}
				mu.Lock()
				lat = append(lat, d)
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	return lat, late
}

// closedLoop keeps w.window requests in flight per connection for dur,
// each slot issuing its next request when the previous one returns. It
// returns the rate of verified completions within dur.
func closedLoop(tgt target, w *workload, reqs []*request, dur time.Duration, tl *tally, rec *recorder) float64 {
	ctx := context.Background()
	var done, cursor atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(dur)
	for g := 0; g < w.window*w.conns; g++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for {
				t0 := time.Now()
				if !t0.Before(end) {
					return
				}
				r := reqs[int(cursor.Add(1)-1)%len(reqs)]
				res, err := tgt.do(ctx, r, slot)
				t1 := time.Now()
				rec.add(topSpan(w), r.id, 0, t0, t1)
				if tl.record(r, res, err) && t1.Before(end) {
					done.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	return float64(done.Load()) / dur.Seconds()
}

// sleepUntil blocks the calling thread in nanosleep until t. A Go
// timer would do, but on an idle process the runtime's poller waits in
// whole milliseconds, so it fires up to about 1 ms late: longer than a
// small wire request takes.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

func topSpan(w *workload) string {
	if w.wire {
		return "frontdoor.wire"
	}
	return "serve.submit"
}

// sampler polls heap in use and the serve backlog every 10 ms.
type sampler struct {
	stop, done chan struct{}
	heap       []float64 // MB
	qSum, qN   int64
}

func startSampler(tgt target) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			s.heap = append(s.heap, float64(heapInuse())/(1<<20))
			s.qSum += int64(tgt.queueLen())
			s.qN++
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and waits for it.
func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}

func (s *sampler) queueMean() float64 { return float64(s.qSum) / float64(max(s.qN, 1)) }

// heapInuse is runtime.MemStats.HeapInuse without stopping the world.
func heapInuse() uint64 {
	m := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	metrics.Read(m)
	return m[0].Value.Uint64() + m[1].Value.Uint64()
}

// procSnap is a point in the process's CPU and allocation counters.
type procSnap struct {
	wall          time.Time
	cpu           time.Duration
	allocBytes    uint64
	gcCPU, allCPU float64
}

func takeProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	m := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(m)
	return procSnap{
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: m[0].Value.Uint64(),
		gcCPU:      m[1].Value.Float64(),
		allCPU:     m[2].Value.Float64(),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the q-quantile of xs by the nearest-rank rule; it
// sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}
