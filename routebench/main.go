// Command routebench is the routing stack's benchmark: one workload per
// run, end-to-end metrics from an untraced run, per-layer self times
// from a traced one. See README.md for the workloads, the metrics and
// the layer each one belongs to.
//
//	bash routebench/run.sh --workload wire-small --seed 1 --seconds 55 --trace 0
//
// The last line of standard output is the result: a JSON object with
// the keys correct, attempted, failed and metrics. A wrong response
// aborts the run with a nonzero exit and no result.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "routebench:", err)
		os.Exit(1)
	}
}

// metric is one reported value with its unit and sample count; the
// count goes to the human-readable lines, not the result object.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupReps is how many cold set-ups an untraced run times; setup_s is
// their median, as one set-up takes only milliseconds.
const setupReps = 41

// spanDir is where the traced run writes its spans: run.sh builds into
// the same directory, which git ignores.
const spanDir = ".bench_build"

// config is one run's settings.
type config struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	stdout  io.Writer // human-readable lines; the result goes last
}

func (c config) phase(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("routebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: wire-small, burst-conc-4096 or mixed-1024")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 55, "measured seconds (set-up and warm-up excluded)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, stdout: stdout}
	host := hostStamp(cfg)
	fmt.Fprintf(stdout, "host %s\n", mustJSON(host))

	var res result
	if cfg.trace {
		res, err = runTraced(cfg, host)
	} else {
		res, err = runEndToEnd(cfg)
	}
	if err != nil {
		return err
	}
	res.Correct = true
	for _, k := range sortedKeys(res.Metrics) {
		m := res.Metrics[k]
		fmt.Fprintf(stdout, "metric %-34s %14.6g %-6s samples %d\n", k, m.Value, m.Unit, m.samples)
	}
	fmt.Fprintln(stdout, mustJSON(res))
	return nil
}

// rounds is how many (open loop, closed loop) pairs an untraced run
// alternates. Each metric is the median over rounds of the round's
// figure, so a stretch of host noise spoils one round, not the run.
const rounds = 20

// runEndToEnd times setupReps cold set-ups, warms up, then spends
// half the measured time in open-loop and half in closed-loop phases,
// alternated over rounds.
func runEndToEnd(cfg config) (result, error) {
	w := cfg.w
	reqs := genRequests(w, cfg.seed)
	setupD, tgt, err := setupTimed(w, reqs, setupReps)
	if err != nil {
		return result{}, err
	}
	defer tgt.close()
	var tl tally
	warmUp(tgt, w, reqs, cfg, &tl)
	open, closed := cfg.phase(0.5/rounds), cfg.phase(0.5/rounds)
	var p50, p90, p99, rps []float64
	samples := 0
	smp := startSampler(tgt)
	for i := 0; i < rounds; i++ {
		lat, _ := openLoop(tgt, w, reqs, open, &tl, nil)
		rps = append(rps, closedLoop(tgt, w, reqs, closed, &tl, nil))
		p50 = append(p50, capInf(quantile(lat, 0.50), open))
		p90 = append(p90, capInf(quantile(lat, 0.90), open))
		p99 = append(p99, capInf(quantile(lat, 0.99), open))
		samples += len(lat)
		fmt.Fprintf(cfg.stdout, "round %d: p50 %.4g p90 %.4g p99 %.4g ms over %d, %.5g req/s\n",
			i, p50[i], p90[i], p99[i], len(lat), rps[i])
	}
	smp.finish()
	if err := tl.err(); err != nil {
		return result{}, err
	}
	att, failed := tl.attempted.Load(), tl.failed.Load()
	med := func(xs []float64) float64 { return quantile(xs, 0.5) }
	// The p99 is printed but not part of the result: on a shared 2-vCPU
	// host its run-to-run spread on wire-small is wider than any bound
	// a regression gate could use. The traced run reports it per layer.
	fmt.Fprintf(cfg.stdout, "latency_p99_ms %.6g ms over %d samples (median over rounds; not in the result)\n", med(p99), samples)
	return result{
		Attempted: att,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":        {setupD.Seconds(), "s", setupReps},
			"throughput_rps": {med(rps), "req/s", rounds},
			"latency_p50_ms": {med(p50), "ms", samples},
			"latency_p90_ms": {med(p90), "ms", samples},
			"ok_ratio":       {1 - float64(failed)/float64(max(att, 1)), "ratio", int(att)},
			"heap_peak_mb":   {quantile(smp.heap, 0.95), "MB", len(smp.heap)},
		},
	}, nil
}

func warmUpTime(cfg config) time.Duration { return min(cfg.phase(0.05), time.Second) }

// warmUp runs an untimed closed loop so pools, GC pacing and the
// scheduler settle before the first timed phase. Its responses are
// verified and counted like any other.
func warmUp(tgt target, w *workload, reqs []*request, cfg config, tl *tally) {
	closedLoop(tgt, w, reqs, warmUpTime(cfg), tl, nil)
}

// hostStamp records the host and run settings every result belongs to.
func hostStamp(cfg config) map[string]any {
	return map[string]any{
		"workload":   cfg.w.name,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"setup_reps": setupReps,
		"phases":     phases(cfg),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     commit(),
	}
}

// phases describes how the run spends its measured time.
func phases(cfg config) string {
	warm := warmUpTime(cfg)
	if cfg.trace {
		q := cfg.phase(0.25)
		return fmt.Sprintf("%v warm-up; %v untraced closed, %v traced closed, %v traced open, %v replay and probes",
			warm, q, q, q, q)
	}
	return fmt.Sprintf("%v warm-up; %d rounds of %v open + %v closed", warm, rounds, cfg.phase(0.5/rounds), cfg.phase(0.5/rounds))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision stamped into the build, "unknown" when it
// was built outside a git work tree.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	return "unknown"
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps, strings and finite numbers reach here
	}
	return string(b)
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// writeSpans writes the host stamp and the spans as JSON lines.
func writeSpans(dir, workload string, host map[string]any, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, mustJSON(map[string]any{"host": host}))
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// capInf replaces the +Inf latency of a failed request by the whole
// phase length, so a percentile that reaches failures stays a number.
func capInf(x float64, phase time.Duration) float64 {
	if math.IsInf(x, 1) {
		return ms(phase)
	}
	return x
}
