package parallel

// Work-stealing scheduler contract: every index runs exactly once for
// any worker count, results merged by index are identical across
// worker counts, and stealing actually happens under a skewed cost
// distribution.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestStealRunExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8, 16} {
		for _, n := range []int{0, 1, 7, 64, 1000} {
			counts := make([]atomic.Int32, n)
			StealRun(n, StealOptions{Workers: workers, Seed: 42}, func(i int) {
				counts[i].Add(1)
			})
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: task %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

// TestStealRunMergedOutputStable pins the determinism contract: tasks
// writing pure functions of their index produce identical merged
// output for every (workers, seed) combination.
func TestStealRunMergedOutputStable(t *testing.T) {
	const n = 500
	want := make([]int, n)
	StealRun(n, StealOptions{Workers: 1}, func(i int) { want[i] = i * i })
	for _, workers := range []int{2, 3, 8} {
		for _, seed := range []int64{1, 7, 99} {
			got := make([]int, n)
			StealRun(n, StealOptions{Workers: workers, Seed: seed}, func(i int) { got[i] = i * i })
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("workers=%d seed=%d: slot %d = %d, want %d", workers, seed, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStealRebalances proves an idle worker really does take over a
// busy worker's backlog. With workers=2 and n=4 the deal is
// w0={0,2}, w1={1,3}; the tail pop makes worker 0 start with task 2,
// which blocks until task 0 — the one remaining in worker 0's deque —
// runs. Worker 1's own tasks are instant, so task 0 can only run if
// worker 1 steals it; without stealing, task 2 would sit blocked
// until its escape timeout fires.
func TestStealRebalances(t *testing.T) {
	for _, seed := range []int64{1, 3, 7, 99} {
		release := make(chan struct{})
		var rebalanced atomic.Bool
		StealRun(4, StealOptions{Workers: 2, Seed: seed}, func(i int) {
			switch i {
			case 2:
				select {
				case <-release:
					rebalanced.Store(true)
				case <-time.After(5 * time.Second):
				}
			case 0:
				close(release)
			}
		})
		if !rebalanced.Load() {
			t.Fatalf("seed %d: blocked worker's backlog was never stolen", seed)
		}
	}
}

// TestStealDeque pins the deque primitive: owner and thief alike take
// the tail, the largest remaining index.
func TestStealDeque(t *testing.T) {
	d := &stealDeque{items: []int{1, 2, 3, 4, 5}}
	for want := 5; want >= 1; want-- {
		if i, ok := d.popTail(); !ok || i != want {
			t.Fatalf("popTail = %d,%v want %d,true", i, ok, want)
		}
	}
	if i, ok := d.popTail(); ok {
		t.Fatalf("popTail of empty deque = %d,true, want false", i)
	}
}

// TestStealTakesCostliest pins the tail policy end to end. With
// workers=2 and n=6 the deal is w0={0,2,4}, w1={1,3,5}; worker 0
// starts task 4, which blocks until task 0 has run, while worker 1
// runs its own tasks instantly and then steals. A thief takes the
// victim's tail, the costliest remaining task under a costliest-last
// layout, so worker 1 steals task 2 before task 0.
func TestStealTakesCostliest(t *testing.T) {
	for _, seed := range []int64{1, 3, 7, 99} {
		var mu sync.Mutex
		var ran []int
		release := make(chan struct{})
		StealRun(6, StealOptions{Workers: 2, Seed: seed}, func(i int) {
			mu.Lock()
			ran = append(ran, i)
			mu.Unlock()
			switch i {
			case 4:
				select {
				case <-release:
				case <-time.After(5 * time.Second):
				}
			case 0:
				close(release)
			}
		})
		at := map[int]int{}
		for k, i := range ran {
			at[i] = k
		}
		if len(ran) != 6 || at[2] > at[0] {
			t.Fatalf("seed %d: tasks ran in order %v, want task 2 stolen before task 0", seed, ran)
		}
	}
}
