package parallel

// Deterministic work stealing.
//
// A channel-fed worker pool hands jobs to whichever worker asks
// first — fine when every job costs about the same, wasteful when a
// design-space wave mixes 50 µs candidates with 5 ms ones: the cheap
// jobs drain early and their workers idle behind one straggler's
// backlog. StealRun instead deals the index range into per-worker
// deques up front and lets an idle worker steal the *tail* task of a
// victim's deque — the costliest remaining one when the caller lays
// its tasks out costliest last — so load balances to the actual cost
// distribution without a shared queue in the hot path, and no worker
// is left running the second-costliest task alone after the rest have
// finished.
//
// Determinism contract: the schedule (who runs what, in what order)
// varies with the worker count and the steal seed, but every task
// writes only to its own index's slot, so the merged result is a pure
// function of the task function alone. Callers that need byte-stable
// output across -workers values (the explorer's Pareto front, the
// sweep curves, core.Explore's rankings) get it by keeping each task's
// work independent of its siblings — which the emulator guarantees,
// one run being a sealed deterministic simulation. The seed exists so
// the *schedule* itself is reproducible for profiling, not to protect
// the results.

import (
	"math/rand"
	"runtime"
	"sync"
)

// StealOptions tunes a StealRun.
type StealOptions struct {
	// Workers is the number of concurrent workers; zero selects
	// GOMAXPROCS. More workers than tasks is clamped.
	Workers int

	// Seed drives each worker's victim-selection order; zero selects
	// seed 1. Runs with equal seeds replay the same steal schedule
	// given the same worker count and task timings.
	Seed int64
}

// stealDeque is one worker's job stack. Owner and thieves alike take
// the tail, the largest remaining index: the owner works through its
// share newest-first, and a thief takes the one task that would
// otherwise finish last. A plain mutex is fine here — the lock is only
// contended when a thief probes, and one emulation dwarfs a lock round
// trip by orders of magnitude.
type stealDeque struct {
	mu    sync.Mutex
	items []int
}

// popTail removes and returns the tail item; ok is false when d is
// empty. Owners and thieves both call it.
func (d *stealDeque) popTail() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return 0, false
	}
	i := d.items[len(d.items)-1]
	d.items = d.items[:len(d.items)-1]
	return i, true
}

// StealRun executes task(i) for every i in [0, n) on a work-stealing
// worker pool and returns when all tasks have finished. Indices are
// dealt round-robin across the workers' deques, and each worker runs
// its own deque from the tail, largest index first: a caller that
// lays out its costliest tasks last has every worker start with one
// of them (internal/sweep does). An idle worker probes victims in a
// seeded random order, runs the tail task of the first non-empty one,
// and exits once a full sweep finds every deque empty (tasks never
// spawn tasks, so an empty sweep is final).
func StealRun(n int, opts StealOptions, task func(i int)) {
	if n <= 0 {
		return
	}
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}

	deques := make([]*stealDeque, w)
	for i := range deques {
		deques[i] = &stealDeque{items: make([]int, 0, n/w+1)}
	}
	// Round-robin deal: worker k starts with indices k, k+w, k+2w, …
	// in ascending order, so its tail pop runs them newest-first but
	// each worker's share spans the whole range — a cost gradient
	// across the space (small package sizes are slower) is spread
	// evenly instead of handing one worker the expensive prefix.
	for i := 0; i < n; i++ {
		d := deques[i%w]
		d.items = append(d.items, i)
	}

	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			// Per-worker rng: distinct streams per worker, stable per
			// (seed, worker) pair.
			rng := rand.New(rand.NewSource(seed + int64(k)*0x9e3779b9))
			own := deques[k]
			for {
				if i, ok := own.popTail(); ok {
					task(i)
					continue
				}
				// Own deque dry: sweep victims in a fresh random order
				// and run the costliest task the first one still holds.
				stole := false
				for _, v := range rng.Perm(w) {
					if v == k {
						continue
					}
					if i, ok := deques[v].popTail(); ok {
						task(i)
						stole = true
						break
					}
				}
				if !stole {
					return
				}
			}
		}(k)
	}
	wg.Wait()
}
