package planner

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDriveBatchPolicy pins the batch driver's policy across batch sizes
// around the packed thresholds, one and two workers, packable and
// unpackable executors, flat (1 lane) and sharded-style (32 lanes)
// requests, and the policy's or a pinned group width: every request
// routes exactly once; packed groups hold at least MinPackedLanes lanes
// and at most the policy's AutoWideLanes width (or the pinned width);
// batches that are unpackable or narrower than one lane word never reach
// the group callback; and with two injected failures the earlier index
// is reported under the caller's prefix.
func TestDriveBatchPolicy(t *testing.T) {
	for _, n := range []int{0, 1, 23, 24, 63, 64, 65, 87, 88, 257, 1064} {
		for _, workers := range []int{1, 2} {
			for _, packable := range []bool{true, false} {
				for _, lanes := range []int{1, 32} {
					for _, groupLanes := range []int{0, 2 * PackedLanes} {
						name := fmt.Sprintf("n=%d/workers=%d/packable=%v/lanes=%d/group=%d",
							n, workers, packable, lanes, groupLanes)
						t.Run(name, func(t *testing.T) {
							checkDriveBatch(t, n, workers, lanes, groupLanes, packable)
						})
					}
				}
			}
		}
	}
}

func checkDriveBatch(t *testing.T, n, workers, lanes, groupLanes int, packable bool) {
	maxLanes := AutoWideLanes(n*lanes, workers)
	if groupLanes > 0 {
		maxLanes = max(groupLanes, lanes)
	}
	visits := make([]atomic.Int32, n)
	var mu sync.Mutex
	var groups [][2]int
	route := func(i int) error {
		visits[i].Add(1)
		return nil
	}
	group := func(lo, hi int) (int, error) {
		mu.Lock()
		groups = append(groups, [2]int{lo, hi})
		mu.Unlock()
		for i := lo; i < hi; i++ {
			visits[i].Add(1)
		}
		return 0, nil
	}
	if err := DriveBatch(n, workers, 3, lanes, groupLanes, packable, "test: request", route, group); err != nil {
		t.Fatal(err)
	}
	for i := range visits {
		if v := visits[i].Load(); v != 1 {
			t.Fatalf("request %d routed %d times, want 1", i, v)
		}
	}
	if len(groups) > 0 && (!packable || groupLanes == 0 && n*lanes < PackedLanes) {
		t.Fatalf("batch routed %d packed groups, want none", len(groups))
	}
	for _, g := range groups {
		if w := (g[1] - g[0]) * lanes; w < MinPackedLanes || w > maxLanes {
			t.Fatalf("group [%d,%d) holds %d lanes, want %d..%d", g[0], g[1], w, MinPackedLanes, maxLanes)
		}
	}
	if packable && groupLanes == 0 && n*lanes >= PackedLanes && len(groups) == 0 {
		t.Fatal("packable batch of at least one lane word never packed")
	}

	// Two injected failures: the later one waits until the earlier one
	// has been attempted, so both are attempted under any schedule and
	// the earlier must win.
	if n < 2 {
		return
	}
	first, second := n/3, n-1
	errFirst := errors.New("first failure")
	attempted := make(chan struct{})
	var once sync.Once
	fail := func(lo, hi int) (int, error) {
		switch {
		case lo <= first && first < hi:
			once.Do(func() { close(attempted) })
			return first, errFirst
		case lo <= second && second < hi:
			select {
			case <-attempted:
			case <-time.After(10 * time.Second):
				return second, errors.New("earlier failure never attempted")
			}
			return second, errors.New("second failure")
		}
		return 0, nil
	}
	err := DriveBatch(n, workers, 3, lanes, groupLanes, packable, "test: request",
		func(i int) error { _, err := fail(i, i+1); return err }, fail)
	if want := fmt.Sprintf("test: request %d: first failure", first); err == nil || err.Error() != want || !errors.Is(err, errFirst) {
		t.Fatalf("err = %v, want %q", err, want)
	}
}
