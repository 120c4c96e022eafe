package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// stamp describes the host and build a result was measured on.
func stamp(cfg config) map[string]any {
	commit := os.Getenv("SEGBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"git_commit": commit,
		"seed":       cfg.seed,
		"seconds":    cfg.dur.Seconds(),
		"load":       cfg.load,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// loopStats is one measured closed loop.
type loopStats struct {
	lat     []time.Duration // every operation, sorted ascending
	failed  int64
	elapsed time.Duration
	peakRSS uint64 // bytes resident, sampled while the loop ran
	mallocs uint64 // heap objects allocated during the loop
	alloced uint64 // heap bytes allocated during the loop
	gcs     uint32 // completed GC cycles during the loop
}

// ops is the number of completed operations.
func (s *loopStats) ops() int64 { return int64(len(s.lat)) }

// closedLoop runs clients goroutines that each call op back to back
// until dur has passed, so a slower system receives less load. op
// reports its own latency (the caller decides what the timed region
// is) and whether its output passed the check; an error aborts the
// loop. Garbage left by input preparation is collected and returned to
// the OS first, so the sampled peak RSS belongs to the loop.
func closedLoop(clients int, dur time.Duration, op func(client int) (time.Duration, bool, error)) (*loopStats, error) {
	runtime.GC()
	debug.FreeOSMemory()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rss := startRSSSampler()
	start := time.Now()
	deadline := start.Add(dur)
	lats := make([][]time.Duration, clients)
	fails := make([]int64, clients)
	errs := make([]error, clients)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() && time.Now().Before(deadline) {
				lat, ok, err := op(c)
				if err != nil {
					errs[c] = err
					stop.Store(true)
					return
				}
				lats[c] = append(lats[c], lat)
				if !ok {
					fails[c]++
				}
			}
		}()
	}
	wg.Wait()
	st := &loopStats{elapsed: time.Since(start)}
	st.peakRSS = rss.stop()
	runtime.ReadMemStats(&after)
	for c := range lats {
		if errs[c] != nil {
			return nil, errs[c]
		}
		st.lat = append(st.lat, lats[c]...)
		st.failed += fails[c]
	}
	if len(st.lat) == 0 {
		return nil, fmt.Errorf("no operation completed in %v", dur)
	}
	sort.Slice(st.lat, func(i, j int) bool { return st.lat[i] < st.lat[j] })
	st.mallocs = after.Mallocs - before.Mallocs
	st.alloced = after.TotalAlloc - before.TotalAlloc
	st.gcs = after.NumGC - before.NumGC
	if st.peakRSS == 0 {
		st.peakRSS = after.Sys
	}
	return st, nil
}

// percentile returns the nearest-rank p-th percentile of sorted and
// the number of samples beyond it.
func percentile(sorted []time.Duration, p float64) (time.Duration, int) {
	n := len(sorted)
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = max(1, min(n, rank))
	return sorted[rank-1], n - rank
}

// usOf converts a duration to microseconds, keeping every digit.
func usOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// endToEnd builds the end-to-end metrics of one measured loop. setup is
// the median set-up time of the run.
func endToEnd(setup time.Duration, st *loopStats) (map[string]metric, map[string]any) {
	p50, _ := percentile(st.lat, 50)
	p99, beyond := percentile(st.lat, 99)
	metrics := map[string]metric{
		"setup_s":     {setup.Seconds(), "s"},
		"req_p50_us":  {usOf(p50), "us"},
		"req_p99_us":  {usOf(p99), "us"},
		"req_per_s":   {float64(st.ops()) / st.elapsed.Seconds(), "1/s"},
		"peak_rss_mb": {float64(st.peakRSS) / (1 << 20), "MiB"},
	}
	samples := map[string]any{
		"operations":       st.ops(),
		"beyond_p99":       beyond,
		"measured_seconds": st.elapsed.Seconds(),
	}
	return metrics, samples
}

// runtimeMetrics are the allocation and GC figures of a measured loop,
// per operation where that makes sense.
func runtimeMetrics(st *loopStats) map[string]metric {
	n := float64(st.ops())
	return map[string]metric{
		"runtime.alloc_kb_per_op": {float64(st.alloced) / 1024 / n, "KiB"},
		"runtime.allocs_per_op":   {float64(st.mallocs) / n, "count"},
		"runtime.gc_cycles":       {float64(st.gcs), "count"},
	}
}

// timeSetup measures set-up: reps times it runs fn batch times back to
// back and divides the batch's wall time by batch, and it returns the
// median of those per-set-up times. Batching spreads the allocator and
// timer noise of a set-up that takes microseconds over many.
func timeSetup(reps, batch int, fn func() error) (time.Duration, error) {
	ds := make([]time.Duration, reps)
	for i := range ds {
		// Each batch starts from a collected heap, so none pays for
		// garbage left by input preparation or by the one before.
		runtime.GC()
		start := time.Now()
		for j := 0; j < batch; j++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		ds[i] = time.Since(start) / time.Duration(batch)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[reps/2], nil
}

// rssSampler polls the process's resident set size.
type rssSampler struct {
	done chan struct{}
	peak chan uint64
}

// startRSSSampler starts polling /proc/self/statm every 5 ms; stop
// returns the largest value seen, or 0 where statm is unavailable.
func startRSSSampler() *rssSampler {
	s := &rssSampler{done: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		var peak uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if v, ok := residentBytes(); ok && v > peak {
				peak = v
			}
			select {
			case <-s.done:
				if v, ok := residentBytes(); ok && v > peak {
					peak = v
				}
				s.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) stop() uint64 {
	close(s.done)
	return <-s.peak
}

// residentBytes reads the resident set size from /proc/self/statm.
func residentBytes() (uint64, bool) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0, false
	}
	return pages * uint64(os.Getpagesize()), true
}

// samples collects per-operation values of named layer metrics.
type samples struct {
	mu sync.Mutex
	v  map[string][]float64
}

func newSamples() *samples { return &samples{v: make(map[string][]float64)} }

func (s *samples) add(name string, v float64) {
	s.mu.Lock()
	s.v[name] = append(s.v[name], v)
	s.mu.Unlock()
}

// median returns the median of name's values and their count.
func (s *samples) median(name string) (float64, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return medianOf(s.v[name]), len(s.v[name])
}

// medianOf returns the median of vs (0 for none) without reordering vs.
func medianOf(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	c := append([]float64(nil), vs...)
	sort.Float64s(c)
	if n := len(c); n%2 == 0 {
		return (c[n/2-1] + c[n/2]) / 2
	}
	return c[len(c)/2]
}

// promCounters parses a Prometheus text exposition and sums every
// sample by family name (labels dropped).
func promCounters(body []byte) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		id, rest, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(id, '{'); i >= 0 {
			id = id[:i]
		}
		val, _, _ := strings.Cut(rest, " ")
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		out[id] += v
	}
	return out
}
