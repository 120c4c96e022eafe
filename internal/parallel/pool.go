// Package parallel holds the two ways this repository spends
// concurrency.
//
// The paper's Java emulator used one thread per platform element to
// mimic hardware concurrency inside a single run. This Go
// implementation makes the opposite trade: one emulation run is a
// deterministic sequential discrete-event simulation (bit-identical
// results on every run — something the thread-pool design could not
// guarantee), and the concurrency budget is spent one level up, on
// many runs at once:
//
//   - StealRun evaluates a batch on a deterministic work-stealing
//     scheduler. Every batch of candidate configurations runs on it —
//     core.Explore's rankings, the sweep curves and the design-space
//     explorer's waves — each task emulating one candidate on a
//     machine checked out of an emulator pool and writing only its own
//     result slot, so output is in candidate order and each
//     candidate's failure stays its own. Workers and thieves alike
//     take a deque's tail, so under a costliest-last layout an idle
//     worker always picks up the costliest task still queued.
//   - Pool rations concurrency for serving, where requests arrive over
//     time rather than as one batch: bounded worker slots, a bounded
//     admission queue that fails fast when full, and a graceful drain.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// poolToken is what occupies admission and worker slots; only the
// channel capacities matter.
type poolToken = struct{}

// Pool is the long-lived counterpart of StealRun: a bounded set of
// worker slots plus a bounded admission queue, built for serving
// workloads where requests arrive over time instead of as one batch.
//
// Admission is two-staged. Submit first claims an admission token
// (workers + queue depth of them exist); when none is free the pool is
// saturated and Submit fails fast with ErrQueueFull so the caller can
// shed load (HTTP 429) instead of stacking unbounded goroutines. With
// a token held, Submit waits for a worker slot — honouring the
// caller's context, so an abandoned request stops waiting, releases
// its token immediately and never occupies a slot.
//
// The work function runs on the caller's goroutine (net/http already
// provides one per request); the pool only rations concurrency. Close
// starts a graceful drain: new submissions are rejected with
// ErrPoolClosed while admitted work runs to completion, and Drain
// blocks until the last slot is back.
type Pool struct {
	tokens chan struct{} // admission tokens: workers + queue depth
	slots  chan struct{} // concurrent execution slots: workers

	closed   chan struct{}
	closeOne sync.Once
	inflight atomic.Int64
}

// ErrQueueFull reports that the pool had no admission capacity left;
// the caller should shed the request.
var ErrQueueFull = fmt.Errorf("parallel: pool queue is full")

// ErrPoolClosed reports a submission to a pool that has begun its
// graceful drain.
var ErrPoolClosed = fmt.Errorf("parallel: pool is closed")

// NewPool returns a pool with the given number of worker slots and
// queued (admitted but not yet running) submissions. workers <= 0
// selects GOMAXPROCS; queue < 0 selects twice the worker count.
func NewPool(workers, queue int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queue < 0 {
		queue = 2 * workers
	}
	return &Pool{
		tokens: make(chan struct{}, workers+queue),
		slots:  make(chan struct{}, workers),
		closed: make(chan struct{}),
	}
}

// Submit runs fn on a worker slot. It returns ErrQueueFull when the
// pool is saturated, ErrPoolClosed after Close, or the context's cause
// when ctx is cancelled before fn starts — in which case fn never
// runs and the queued position is released immediately. A nil ctx
// waits indefinitely.
//
// Cancellation is checked at every stage, not just while waiting for
// a slot: an already-abandoned submission neither claims an admission
// token its siblings could use (a batch fan-out whose client is gone
// must fail fast, not crowd out live requests) nor runs fn after
// winning a slot in the same instant its context expired (the
// slot-acquire select picks randomly among ready cases).
func (p *Pool) Submit(ctx context.Context, fn func()) error {
	return p.SubmitObserved(ctx, nil, fn)
}

// SubmitObserved is Submit with an admission observer: when the
// submission is admitted — fn is definitely about to run — observe is
// called exactly once with the time spent waiting between submission
// and the worker slot, i.e. the queue wait a served request cannot see
// from outside the pool. Rejected, shed and cancelled submissions
// never invoke it, so observers can attribute admission wait without
// reaching into pool internals. A nil observe makes this identical to
// Submit (the clock is not even read).
func (p *Pool) SubmitObserved(ctx context.Context, observe func(queueWait time.Duration), fn func()) error {
	var submitted time.Time
	if observe != nil {
		submitted = time.Now()
	}
	select {
	case <-p.closed:
		return ErrPoolClosed
	default:
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
		select {
		case <-done:
			return context.Cause(ctx)
		default:
		}
	}
	select {
	case p.tokens <- struct{}{}:
	default:
		return ErrQueueFull
	}
	defer func() { <-p.tokens }()

	select {
	case p.slots <- struct{}{}:
	case <-done:
		return context.Cause(ctx)
	case <-p.closed:
		return ErrPoolClosed
	}
	defer func() { <-p.slots }()
	if done != nil {
		select {
		case <-done:
			return context.Cause(ctx)
		default:
		}
	}
	p.inflight.Add(1)
	defer p.inflight.Add(-1)
	if observe != nil {
		observe(time.Since(submitted))
	}
	fn()
	return nil
}

// InFlight returns the number of submissions currently executing.
func (p *Pool) InFlight() int64 { return p.inflight.Load() }

// Close starts the graceful drain: subsequent and slot-waiting
// submissions fail with ErrPoolClosed; running work is unaffected.
// Safe to call more than once.
func (p *Pool) Close() {
	p.closeOne.Do(func() { close(p.closed) })
}

// Drain blocks until every in-flight submission has finished or ctx
// is done, whichever comes first, and reports whether the pool fully
// drained. It works by parking a token in every worker slot, so it
// must only be called after Close (otherwise it would compete with
// live submissions for slots).
func (p *Pool) Drain(ctx context.Context) bool {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	for i := 0; i < cap(p.slots); i++ {
		select {
		case p.slots <- poolToken{}:
		case <-done:
			return false
		}
	}
	return true
}
