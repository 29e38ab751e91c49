package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// benchSpec is the part of BENCHMARK.json the smoke test checks against.
type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload for a fraction of a second, untraced
// and traced, and checks that the result line holds exactly the metrics
// BENCHMARK.json declares, with their units, that each metric is also
// printed by name, and that the runs leave git status unchanged.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		if _, err := workloadByName(wl.Name); err != nil {
			t.Fatalf("BENCHMARK.json: %v", err)
		}
	}
	before, gitOK := gitStatus()
	for _, wl := range workloads {
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace=%d", wl.name, trace), func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", wl.name, "--seed", "7", "--seconds", "0.4",
					"--trace", fmt.Sprint(trace)}
				if err := run(args, &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed *int64
					Metrics           map[string]struct {
						Value *float64
						Unit  string
					}
				}
				last := lines[len(lines)-1]
				if err := json.Unmarshal([]byte(last), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, last)
				}
				var keys map[string]json.RawMessage
				_ = json.Unmarshal([]byte(last), &keys) // parsed above
				for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
					if _, ok := keys[k]; !ok || len(keys) != 4 {
						t.Fatalf("result keys %v, want exactly correct, attempted, failed, metrics", keys)
					}
				}
				// Failures are allowed: under the race detector the stack
				// runs several times slower and the wire open loop
				// overloads it into busy refusals.
				if !res.Correct || *res.Attempted < 1 || *res.Failed < 0 || *res.Failed > *res.Attempted {
					t.Fatalf("bad result line: %s", last)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok || got.Value == nil:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0):
						t.Errorf("metric %s = %v", m.Name, *got.Value)
					case !strings.Contains(out.String(), "metric "+m.Name+" "):
						t.Errorf("metric %s not printed by name", m.Name)
					}
				}
			})
		}
	}
	if after, _ := gitStatus(); gitOK && after != before {
		t.Errorf("git status changed:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// gitStatus returns `git status --porcelain`, or false outside a git
// work tree.
func gitStatus() (string, bool) {
	out, err := exec.Command("git", "status", "--porcelain").Output()
	return string(out), err == nil
}
