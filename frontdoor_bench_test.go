package absort_test

// TestFrontdoorThroughputFloor drives the ISSUE 9 acceptance workload
// against an in-process FrontDoorServer — 4 tenants of different shapes
// × 16 pipelined TCP connections, every response verified — and pins a
// conservative CI floor on sustained request throughput. The measured
// point is appended to BENCH_frontdoor.json (the same trajectory file
// `permroute -loadgen` writes) on benchmark runs, so the CI smoke run
// leaves a machine-readable record of front-door wire throughput.
//
// BenchmarkFrontdoorWire measures the same workload per-request for
// `make bench-frontdoor`.

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"absort"
	"absort/internal/race"
)

// frontdoorBenchRecord mirrors cmd/permroute's loadgen record so both
// writers share BENCH_frontdoor.json.
type frontdoorBenchRecord struct {
	When        string  `json:"when"`
	Source      string  `json:"source"`
	Tenants     int     `json:"tenants"`
	Conns       int     `json:"conns"`
	Requests    int     `json:"requests"`
	WallSeconds float64 `json:"wall_s"`
	ReqsPerSec  float64 `json:"reqs_per_s"`
	WordsPerSec float64 `json:"words_per_s"`
	BusyRetries int64   `json:"busy_retries"`
	Wrong       int64   `json:"wrong"`
}

// benchRun reports whether the test binary was asked to run benchmarks
// (-test.bench set, as every `make bench*` target does). Tests that feed
// the tracked BENCH_*.json trajectories record only then, so a plain
// `go test ./...` leaves the checkout unchanged.
func benchRun() bool {
	f := flag.Lookup("test.bench")
	return f != nil && f.Value.String() != ""
}

// appendFrontdoorBench appends rec to BENCH_frontdoor.json on benchmark
// runs (see benchRun).
func appendFrontdoorBench(rec frontdoorBenchRecord) {
	if !benchRun() {
		return
	}
	const path = "BENCH_frontdoor.json"
	var records []frontdoorBenchRecord
	if data, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(data, &records)
	}
	records = append(records, rec)
	if data, err := json.MarshalIndent(records, "", "  "); err == nil {
		_ = os.WriteFile(path, append(data, '\n'), 0o644)
	}
}

// frontdoorTenants is the acceptance tenant set: four shapes spanning
// the engine families and a 16–128 width range.
func frontdoorTenants() (ids []string, specs map[string]absort.TenantSpec) {
	specs = map[string]absort.TenantSpec{
		"mux64":    {N: 64, Engine: absort.EngineMuxMerger},
		"prefix32": {N: 32, Engine: absort.EnginePrefix},
		"fish128":  {N: 128, Engine: absort.EngineFish},
		"rank16":   {N: 16, Engine: absort.EngineRanking},
	}
	return []string{"mux64", "prefix32", "fish128", "rank16"}, specs
}

// driveFrontdoorConn runs reqs verified mixed requests on one client
// connection, retrying busy responses, returning the word volume
// routed and counting wrong responses.
func driveFrontdoorConn(cl *absort.FrontDoorClient, id string, spec absort.TenantSpec,
	seed int64, reqs int, wrong, busyRetries *atomic.Int64) (int64, error) {
	retry := func(call func() error) error {
		for {
			err := call()
			if !errors.Is(err, absort.ErrTenantQueueFull) {
				return err
			}
			busyRetries.Add(1)
			time.Sleep(time.Millisecond)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var words int64
	for i := 0; i < reqs; i++ {
		var err error
		switch i % 3 {
		case 0:
			dest := rng.Perm(spec.N)
			err = retry(func() error {
				perm, err := cl.Permute(id, dest)
				if err != nil {
					return err
				}
				for in, d := range dest {
					if perm[d] != in {
						wrong.Add(1)
					}
				}
				return nil
			})
		case 1:
			marked := make([]bool, spec.N)
			want := 0
			for j := range marked {
				if rng.Intn(2) == 0 {
					marked[j] = true
					want++
				}
			}
			err = retry(func() error {
				perm, count, err := cl.Concentrate(id, marked)
				if err != nil {
					return err
				}
				if count != want {
					wrong.Add(1)
				}
				for j := 0; j < count && j < len(perm); j++ {
					if !marked[perm[j]] {
						wrong.Add(1)
					}
				}
				return nil
			})
		default:
			keys := make([]uint64, spec.N)
			for j := range keys {
				keys[j] = rng.Uint64()
			}
			err = retry(func() error {
				sorted, err := cl.SortWords(id, keys)
				if err != nil {
					return err
				}
				for j := 1; j < len(sorted); j++ {
					if sorted[j-1] > sorted[j] {
						wrong.Add(1)
					}
				}
				return nil
			})
		}
		if err != nil {
			return words, err
		}
		words += int64(spec.N)
	}
	return words, nil
}

func TestFrontdoorThroughputFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("wire throughput floor skipped in -short mode")
	}
	if race.Enabled {
		t.Skip("wire throughput floor skipped under the race detector: " +
			"instrumentation distorts the timing gate (correctness is still " +
			"covered by internal/frontdoor's race-enabled end-to-end test)")
	}
	fd := absort.NewFrontDoor(absort.FrontDoorConfig{QueueDepth: 256})
	srv, err := absort.NewFrontDoorServer(fd, "127.0.0.1:0")
	if err != nil {
		fd.Close()
		t.Fatal(err)
	}
	defer func() { srv.Close(); fd.Close() }()

	ids, specs := frontdoorTenants()
	const connsPerTenant = 4 // 4 tenants × 4 = 16 connections
	const reqsPerConn = 60

	var wg sync.WaitGroup
	var wrong, busyRetries, words atomic.Int64
	errCh := make(chan error, len(ids)*connsPerTenant)
	t0 := time.Now()
	for ti, id := range ids {
		for c := 0; c < connsPerTenant; c++ {
			wg.Add(1)
			go func(id string, seed int64) {
				defer wg.Done()
				cl, err := absort.DialFrontDoor(srv.Addr().String())
				if err != nil {
					errCh <- err
					return
				}
				defer cl.Close()
				if err := cl.Register(id, specs[id]); err != nil {
					errCh <- err
					return
				}
				w, err := driveFrontdoorConn(cl, id, specs[id], seed, reqsPerConn, &wrong, &busyRetries)
				words.Add(w)
				if err != nil {
					errCh <- fmt.Errorf("%s: %w", id, err)
				}
			}(id, int64(1000+ti*100+c))
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err) // a dropped connection or request is an acceptance failure
	}
	wall := time.Since(t0)
	total := len(ids) * connsPerTenant * reqsPerConn
	reqsPerSec := float64(total) / wall.Seconds()

	if w := wrong.Load(); w != 0 {
		t.Fatalf("%d wrong responses (want zero)", w)
	}
	t.Logf("%d tenants × %d conns: %d verified requests in %v (%.0f reqs/sec, %d busy retries)",
		len(ids), connsPerTenant, total, wall, reqsPerSec, busyRetries.Load())
	appendFrontdoorBench(frontdoorBenchRecord{
		When:        time.Now().UTC().Format(time.RFC3339),
		Source:      "ci-floor",
		Tenants:     len(ids),
		Conns:       len(ids) * connsPerTenant,
		Requests:    total,
		WallSeconds: wall.Seconds(),
		ReqsPerSec:  reqsPerSec,
		WordsPerSec: float64(words.Load()) / wall.Seconds(),
		BusyRetries: busyRetries.Load(),
		Wrong:       wrong.Load(),
	})

	// The CI floor: deliberately conservative (loopback hardware easily
	// sustains hundreds of reqs/sec per connection; the gate exists to
	// catch order-of-magnitude regressions like a serialized dispatcher
	// or a per-request plan recompile, not to benchmark the machine).
	const floorReqsPerSec = 200
	if reqsPerSec < floorReqsPerSec {
		t.Errorf("front door sustained %.0f reqs/sec over the wire, want ≥ %d",
			reqsPerSec, floorReqsPerSec)
	}
}

// BenchmarkFrontdoorWire reports per-request latency of the mixed
// acceptance workload over one pipelined connection per tenant.
func BenchmarkFrontdoorWire(b *testing.B) {
	fd := absort.NewFrontDoor(absort.FrontDoorConfig{QueueDepth: 256})
	srv, err := absort.NewFrontDoorServer(fd, "127.0.0.1:0")
	if err != nil {
		fd.Close()
		b.Fatal(err)
	}
	defer func() { srv.Close(); fd.Close() }()
	ids, specs := frontdoorTenants()
	clients := make([]*absort.FrontDoorClient, len(ids))
	for i, id := range ids {
		cl, err := absort.DialFrontDoor(srv.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		if err := cl.Register(id, specs[id]); err != nil {
			b.Fatal(err)
		}
		clients[i] = cl
	}
	var wrong, busy atomic.Int64
	const reqsPerIter = 6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for c, id := range ids {
			wg.Add(1)
			go func(cl *absort.FrontDoorClient, id string, seed int64) {
				defer wg.Done()
				if _, err := driveFrontdoorConn(cl, id, specs[id], seed, reqsPerIter, &wrong, &busy); err != nil {
					b.Error(err)
				}
			}(clients[c], id, int64(i*len(ids)+c))
		}
		wg.Wait()
	}
	b.StopTimer()
	if w := wrong.Load(); w != 0 {
		b.Fatalf("%d wrong responses", w)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(ids)*reqsPerIter), "ns/request")
}
