// Package pool keeps warm emulator machines between runs so repeated
// emulations skip per-run machine construction: a checkout returns a
// machine whose flat element arrays, bound handlers, kernel slots and
// queues are already sized for a similar platform shape, and
// Machine.Run reconfigures it in place.
//
// The pool began life inside internal/serve as the leader path's
// construction-cost killer; it lives here so every repeated-emulation
// workload — the serving stack, the design-space explorer, the sweep
// curves, core.Explore's rankings — shares one implementation instead
// of constructing fresh machines per candidate. Batch callers use Run,
// one call per candidate.
//
// Correctness never depends on the pool: Machine.Run rebuilds every
// piece of run-affecting state from the request's own models, and the
// reuse battery (emulator reuse tests, the conform `pooled` oracle,
// the serve differential) pins warm output byte-identical to fresh.
// The pool therefore only decides how often storage is reused, which
// is why machines are binned by a cheap structural shape key — a
// checkout for a matching shape reuses allocations at their final
// size instead of re-growing them.
//
// Machines are Reset on the way in (Put), not the way out, so a
// checkout is a slice pop and the pool never stores a dirty machine —
// a run that failed, deadlocked or hit its step limit returns through
// the same Reset as a clean one.
package pool

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"

	"segbus/internal/emulator"
	"segbus/internal/obs"
	"segbus/internal/platform"
	"segbus/internal/psdf"
)

// DefaultPerKey bounds the free list of one shape: enough to keep
// every worker of a typical pool warm on a hot shape without
// hoarding.
const DefaultPerKey = 4

// DefaultMaxShapes bounds the number of distinct shapes binned at
// once; a design-space sweep touches a handful of platform shapes, so
// 64 covers real workloads while capping worst-case retained memory.
const DefaultMaxShapes = 64

// Options tunes a Pool. The counter handles are nil-safe; a zero
// Options selects the default bounds with no metrics.
type Options struct {
	// PerKey bounds the free machines kept per shape; <= 0 selects
	// DefaultPerKey.
	PerKey int

	// MaxShapes bounds the distinct shapes binned before new ones are
	// discarded; <= 0 selects DefaultMaxShapes.
	MaxShapes int

	// Hits / Misses / Discards receive the checkout accounting:
	// hits + misses equals machines handed out, discards counts
	// returned machines dropped because a bound was reached.
	Hits, Misses, Discards *obs.Counter
}

// Pool is a bounded free list of warm emulator machines binned by
// platform shape. Safe for concurrent use.
type Pool struct {
	mu     sync.Mutex
	free   map[string][]*emulator.Machine
	shapes int // distinct keys currently binned

	perKey    int
	maxShapes int

	hits, misses, discards *obs.Counter // nil-safe handles
}

// New returns an empty pool with the given bounds and metric handles.
func New(o Options) *Pool {
	if o.PerKey <= 0 {
		o.PerKey = DefaultPerKey
	}
	if o.MaxShapes <= 0 {
		o.MaxShapes = DefaultMaxShapes
	}
	return &Pool{
		free:      make(map[string][]*emulator.Machine),
		perKey:    o.PerKey,
		maxShapes: o.MaxShapes,
		hits:      o.Hits,
		misses:    o.Misses,
		discards:  o.Discards,
	}
}

// ForWorkers returns a pool for a batch run on the given number of
// workers: each shape keeps one warm machine per worker, and
// workers <= 0 selects GOMAXPROCS, matching parallel.StealRun.
func ForWorkers(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return New(Options{PerKey: workers})
}

// ShapeKey bins a request by the structural sizes that drive the
// machine's storage: segment count, per-segment FU counts and flow
// count. Two requests with equal keys allocate identically-shaped
// arenas, so reusing across them is maximally effective; unequal keys
// still reuse correctly (Machine.Run regrows in place), they just
// share no bin.
func ShapeKey(m *psdf.Model, plat *platform.Platform) string {
	b := make([]byte, 0, 48)
	b = strconv.AppendInt(b, int64(plat.NumSegments()), 10)
	for _, seg := range plat.Segments {
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(len(seg.FUs)), 10)
	}
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(m.NumFlows()), 10)
	return string(b)
}

// Get checks out a machine for the given shape, reporting whether it
// was a pool hit (warm machine) or a miss (freshly constructed).
func (p *Pool) Get(key string) (*emulator.Machine, bool) {
	p.mu.Lock()
	if ms := p.free[key]; len(ms) > 0 {
		mc := ms[len(ms)-1]
		ms[len(ms)-1] = nil
		p.free[key] = ms[:len(ms)-1]
		p.mu.Unlock()
		p.hits.Inc()
		return mc, true
	}
	p.mu.Unlock()
	p.misses.Inc()
	return emulator.NewMachine(), false
}

// Put returns a machine to its shape's free list, resetting it first
// so the pool only ever holds clean machines. A full free list or an
// exhausted shape budget discards the machine to the GC instead.
func (p *Pool) Put(key string, mc *emulator.Machine) {
	mc.Reset()
	p.mu.Lock()
	ms, ok := p.free[key]
	if !ok && p.shapes >= p.maxShapes {
		p.mu.Unlock()
		p.discards.Inc()
		return
	}
	if len(ms) >= p.perKey {
		p.mu.Unlock()
		p.discards.Inc()
		return
	}
	if !ok {
		p.shapes++
	}
	p.free[key] = append(ms, mc)
	p.mu.Unlock()
}

// Run emulates m on plat on a machine checked out for their shape and
// returns the machine afterwards. A panic during the run becomes the
// returned error and the machine is dropped rather than returned —
// Reset is total, but a machine whose run tore a hole in the stack is
// not worth salvaging.
func (p *Pool) Run(m *psdf.Model, plat *platform.Platform, cfg emulator.Config) (r *emulator.Report, err error) {
	defer func() {
		if v := recover(); v != nil {
			r, err = nil, fmt.Errorf("pool: emulation panicked: %v", v)
		}
	}()
	key := ShapeKey(m, plat)
	mc, _ := p.Get(key)
	r, err = mc.Run(m, plat, cfg)
	p.Put(key, mc)
	return r, err
}

// Stats returns the pool's current occupancy (shapes binned, machines
// free) for tests and health endpoints.
func (p *Pool) Stats() (shapes, machines int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ms := range p.free {
		machines += len(ms)
	}
	return p.shapes, machines
}
