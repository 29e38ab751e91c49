// Service counters and the completion-latency histogram. Everything is
// lock-free: plain atomic counters plus a fixed array of power-of-two
// latency buckets, so recording a completion costs two atomic adds and
// Stats() is a consistent-enough snapshot for monitoring.
package serve

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the number of power-of-two latency buckets: bucket 0
// counts completions of exactly 0 ns (a clock that did not tick between
// submit and resolve), and bucket i ≥ 1 counts completions with latency
// in [2^(i-1), 2^i) nanoseconds, so 48 buckets span beyond three days.
const histBuckets = 48

// statsCounters is the service's internal mutable state. There is no
// in-flight counter: InFlight is derived in Stats from the two monotone
// counters submitted and completed, because a third independently
// updated counter can tear against them in a snapshot (the historical
// Submitted < Completed + InFlight bug).
type statsCounters struct {
	submitted atomic.Int64
	completed atomic.Int64
	rejected  atomic.Int64
	failed    atomic.Int64
	packed    atomic.Int64

	// Fault-tolerance counters (see fault.go).
	checked         atomic.Int64
	faultDetected   atomic.Int64
	faultRecompiled atomic.Int64
	faultReplayed   atomic.Int64
	faultDegraded   atomic.Int64

	latency  [histBuckets]atomic.Int64
	latSumNs atomic.Int64
	latMaxNs atomic.Int64
}

// observe records one completion latency.
func (c *statsCounters) observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	b := bits.Len64(uint64(ns))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	c.latency[b].Add(1)
	c.latSumNs.Add(ns)
	// CAS-maximise the observed-latency high-water mark; quantile upper
	// bounds are clamped to it so a single slow request cannot make the
	// histogram report a latency 2× above anything actually seen.
	for {
		cur := c.latMaxNs.Load()
		if ns <= cur || c.latMaxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Stats is a point-in-time snapshot of a Service's counters.
type Stats struct {
	// Submitted counts admitted requests; Completed counts resolved
	// Futures (including those resolved with an error); Rejected counts
	// Submit/TrySubmit calls that returned an error (malformed request,
	// queue full, cancelled, closed); Failed counts Futures resolved with
	// an error; InFlight is the number of admitted, not-yet-resolved
	// requests. Every snapshot satisfies
	//
	//	Submitted ≥ Completed + InFlight   and   InFlight ≥ 0
	//
	// even when taken mid-resolve under concurrent load.
	Submitted, Completed, Rejected, Failed, InFlight int64
	// Packed counts the Completed requests routed by a packed burst
	// replay (one SWAR plan pass shared by a drained group); the other
	// Completed − Packed took the per-request path. Every snapshot
	// satisfies Packed ≤ Completed.
	Packed int64
	// Latency[0] counts completions that resolved within the clock's
	// resolution (exactly 0 ns); Latency[i] for i ≥ 1 counts completions
	// with submit-to-resolve latency in [2^(i-1), 2^i) ns.
	Latency [histBuckets]int64
	// LatencySumNs is the sum of all completion latencies in nanoseconds.
	LatencySumNs int64
	// LatencyMaxNs is the largest single completion latency observed, in
	// nanoseconds. Quantile upper bounds are clamped to it.
	LatencyMaxNs int64
}

// Stats snapshots the service counters. Each field is atomically read,
// but the snapshot as a whole is not a single atomic cut: a completion
// landing mid-snapshot can make loose cross-field identities (for
// example LatencyCount = Completed) off by the number of in-progress
// updates. The documented invariant Submitted ≥ Completed + InFlight,
// however, holds in EVERY snapshot, torn or not: Completed (monotone)
// is loaded first and Submitted (monotone, and incremented before the
// matching queue send — see submit) last, so any resolution landing
// mid-snapshot can only raise Submitted relative to the Completed
// already read; InFlight is then derived from those same two loads
// instead of being a third counter that could tear against them, and
// clamped against the one transient that remains (a rolled-back
// admission between the two loads). Packed is loaded before Completed and
// each task adds to it after adding to Completed, so Packed ≤ Completed
// holds in every snapshot as well.
func (s *Service) Stats() Stats {
	packed := s.stats.packed.Load()
	st := Stats{
		Packed:       packed,
		Completed:    s.stats.completed.Load(),
		Rejected:     s.stats.rejected.Load(),
		Failed:       s.stats.failed.Load(),
		LatencySumNs: s.stats.latSumNs.Load(),
		LatencyMaxNs: s.stats.latMaxNs.Load(),
	}
	for i := range st.Latency {
		st.Latency[i] = s.stats.latency[i].Load()
	}
	st.Submitted = s.stats.submitted.Load()
	st.InFlight = st.Submitted - st.Completed
	if st.InFlight < 0 {
		st.InFlight = 0
	}
	return st
}

// FaultStats is a point-in-time snapshot of the service's
// fault-tolerance counters (see fault.go for the detection and recovery
// machinery).
type FaultStats struct {
	// Checked counts responses run through the lanewise checker
	// (including replays re-verified during recovery); Detected counts
	// responses that failed verification; Recompiled counts plan-instance
	// swaps performed by recovery; Replayed counts requests re-executed
	// on a replacement instance; Degraded counts Concentrate requests
	// served through the permuter after every concentrator engine was
	// quarantined.
	Checked, Detected, Recompiled, Replayed, Degraded int64
}

// FaultStats snapshots the fault-tolerance counters. Like Stats, each
// field is atomically read but the snapshot is not a single atomic cut.
func (s *Service) FaultStats() FaultStats {
	return FaultStats{
		Checked:    s.stats.checked.Load(),
		Detected:   s.stats.faultDetected.Load(),
		Recompiled: s.stats.faultRecompiled.Load(),
		Replayed:   s.stats.faultReplayed.Load(),
		Degraded:   s.stats.faultDegraded.Load(),
	}
}

// LatencyCount returns the number of recorded completions.
func (st *Stats) LatencyCount() int64 {
	var n int64
	for _, c := range st.Latency {
		n += c
	}
	return n
}

// MeanLatency returns the average completion latency.
func (st *Stats) MeanLatency() time.Duration {
	n := st.LatencyCount()
	if n == 0 {
		return 0
	}
	return time.Duration(st.LatencySumNs / n)
}

// ApproxQuantile returns the upper bound of the histogram bucket holding
// the q-quantile completion latency (q in [0,1]); 0 when nothing has
// completed. Power-of-two buckets make this exact to within 2×, and the
// bound is additionally clamped to the largest latency actually
// observed, so ApproxQuantile(1) never reports a value above the true
// maximum (an unclamped bucket upper bound can sit up to 2× above it).
func (st *Stats) ApproxQuantile(q float64) time.Duration {
	n := st.LatencyCount()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(n-1))
	var seen int64
	bound := time.Duration(uint64(1) << (histBuckets - 1))
	for i, c := range st.Latency {
		seen += c
		if seen > rank {
			if i == 0 {
				return 0 // bucket 0 holds exactly-0ns completions
			}
			bound = time.Duration(uint64(1) << uint(i))
			break
		}
	}
	if mx := time.Duration(st.LatencyMaxNs); mx < bound {
		return mx
	}
	return bound
}
