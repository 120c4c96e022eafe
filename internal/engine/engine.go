// Package engine provides the deterministic discrete-event simulation
// kernel underneath the SegBus emulator.
//
// The kernel models wall-clock time in integer picoseconds (the unit
// the paper reports) and supports multiple clock domains: every
// platform element acts on edges of its own clock. Events scheduled
// for the same picosecond are delivered in a deterministic order —
// (time, priority, sequence number) — so a simulation is exactly
// reproducible across runs and across drivers.
//
// The event queue is a value-typed 4-ary min-heap over a slice of
// 32-byte entries backed by a pooled slot array with an intrusive
// free list: scheduling reuses slots, firing and cancellation bump a
// per-slot generation, and an EventID is a (slot, generation) pair
// rather than a retained pointer. A push sifts up with the new key in
// scalars and writes the entry once, in place, into its final slot.
// Steady-state operation — events fired at the rate they are
// scheduled — performs zero heap allocations (pinned by
// TestSteadyStateAllocs), and the dispatch order is byte-identical to
// the original container/heap kernel (pinned by
// TestDispatchOrderGolden).
package engine

import (
	"fmt"
	"math"

	"segbus/internal/obs"
)

// Time is an absolute simulation time in picoseconds.
type Time int64

// MaxTime is the largest representable simulation time.
const MaxTime Time = math.MaxInt64

// String renders the time the way the paper's reports do, e.g.
// "75307617ps".
func (t Time) String() string { return fmt.Sprintf("%dps", int64(t)) }

// Micros returns the time in microseconds as a float, convenient for
// comparisons against the paper's µs figures.
func (t Time) Micros() float64 { return float64(t) / 1e6 }

// Clock is a clock domain: a period in picoseconds. Elements quantise
// their actions to edges of their clock.
type Clock struct {
	periodPs int64
}

// NewClock returns a clock domain with the given period in
// picoseconds. The period must be positive.
func NewClock(periodPs int64) Clock {
	if periodPs <= 0 {
		panic("engine: non-positive clock period")
	}
	return Clock{periodPs: periodPs}
}

// PeriodPs returns the clock period in picoseconds.
func (c Clock) PeriodPs() int64 { return c.periodPs }

// Ticks converts a number of clock ticks into a duration in
// picoseconds.
func (c Clock) Ticks(n int64) Time { return Time(n * c.periodPs) }

// NextEdge returns the earliest clock edge at or after t. Edges sit at
// integer multiples of the period, with an edge at time zero.
func (c Clock) NextEdge(t Time) Time {
	if t <= 0 {
		return 0
	}
	rem := int64(t) % c.periodPs
	if rem == 0 {
		return t
	}
	return t + Time(c.periodPs-rem)
}

// TicksElapsed returns how many full clock ticks fit in the interval
// [0, t]: the tick count an element of this domain has accumulated by
// absolute time t if it counted continuously from the start of the
// emulation. This is the conversion the paper uses between TCT values
// and execution times (t_SAx = TCT × period).
func (c Clock) TicksElapsed(t Time) int64 {
	if t <= 0 {
		return 0
	}
	return (int64(t) + c.periodPs - 1) / c.periodPs
}

// Handler is the callback attached to a scheduled event.
type Handler func(now Time)

// heapEnt is one entry of the 4-ary min-heap: the full ordering key
// plus the pooled slot holding the handler. Entries are values — heap
// comparisons and swaps never chase a pointer — and the field layout
// packs one entry into 32 bytes.
type heapEnt struct {
	at   Time
	seq  uint64
	prio int
	slot int32
	gen  uint32
}

// entLess is the deterministic total order: time, then priority, then
// scheduling sequence.
func entLess(a, b heapEnt) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// evSlot is one pooled handler slot. gen distinguishes incarnations:
// it starts at 1 and is bumped every time the slot is released (fire
// or cancel), so a stale EventID or heap entry can never match a
// reused slot. next links free slots intrusively; -1 terminates.
type evSlot struct {
	fn   Handler
	gen  uint32
	next int32
}

// EventID allows a scheduled event to be canceled before it fires. It
// is a (slot, generation) pair, not a pointer: the zero value is
// inert, cancellation is a generation comparison, and nothing keeps
// the event alive after it fired. Generations are per-slot uint32
// counters; an ID only aliases a later event after 2^32 reuses of its
// slot.
type EventID struct {
	slot int32 // pool index + 1, so the zero EventID matches nothing
	gen  uint32
}

// Sim is a discrete-event simulation instance. The zero value is not
// usable; construct with NewSim.
type Sim struct {
	now      Time
	heap     []heapEnt
	pool     []evSlot
	freeHead int32
	live     int // scheduled and neither fired nor canceled
	seq      uint64
	stopped  bool
	steps    uint64
	limit    uint64       // safety valve against runaway models; 0 = unlimited
	events   *obs.Counter // optional per-event metric; nil no-ops
}

// NewSim returns an empty simulation positioned at time zero.
func NewSim() *Sim {
	return &Sim{freeHead: -1}
}

// SetStepLimit installs a safety limit on the number of events the
// simulation will process; Run returns an error once exceeded. A limit
// of zero (the default) disables the check.
func (s *Sim) SetStepLimit(n uint64) { s.limit = n }

// SetEventCounter streams every processed event into an obs counter,
// so a live scrape sees simulation progress while Run is still
// inside its loop. A nil counter (the default) keeps the dispatch
// loop free of metric work beyond one pointer test.
func (s *Sim) SetEventCounter(c *obs.Counter) { s.events = c }

// Now returns the current simulation time.
func (s *Sim) Now() Time { return s.now }

// Steps returns the number of events processed so far.
func (s *Sim) Steps() uint64 { return s.steps }

// allocSlot takes a slot off the free list (or grows the pool) and
// installs fn, returning the slot index and its current generation.
func (s *Sim) allocSlot(fn Handler) (int32, uint32) {
	if i := s.freeHead; i >= 0 {
		sl := &s.pool[i]
		s.freeHead = sl.next
		sl.fn = fn
		return i, sl.gen
	}
	s.pool = append(s.pool, evSlot{fn: fn, gen: 1, next: -1})
	return int32(len(s.pool) - 1), 1
}

// freeSlot releases a slot back to the pool, invalidating every
// outstanding EventID and heap entry that refers to its current
// incarnation.
func (s *Sim) freeSlot(i int32) {
	sl := &s.pool[i]
	sl.fn = nil // drop the handler reference eagerly
	sl.gen++
	if sl.gen == 0 {
		sl.gen = 1 // keep the zero EventID inert across wrap-around
	}
	sl.next = s.freeHead
	s.freeHead = i
}

// siftDown re-inserts e — the entry displaced from the tail when the
// root was removed — into the first n heap entries, starting at the
// root.
func (s *Sim) siftDown(e heapEnt, n int) {
	h := s.heap
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entLess(h[j], h[m]) {
				m = j
			}
		}
		if !entLess(h[m], e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}

// popHeap removes and returns the minimum entry.
func (s *Sim) popHeap() heapEnt {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	s.heap = h[:n]
	if n > 0 {
		s.siftDown(h[n], n)
	}
	return top
}

// At schedules fn to run at absolute time at with the given priority
// (lower priorities run first among simultaneous events). Scheduling
// in the past panics: that is always a model bug.
func (s *Sim) At(at Time, priority int, fn Handler) EventID {
	if at < s.now {
		panic(fmt.Sprintf("engine: scheduling event at %v before now %v", at, s.now))
	}
	if fn == nil {
		panic("engine: nil event handler")
	}
	slot, gen := s.allocSlot(fn)
	// Sift up with the new entry's key held in scalars and write it
	// field by field into its final slot: building a heapEnt and
	// copying it in stalls on store forwarding (narrow stores re-read
	// as wide loads). The new sequence number exceeds every queued
	// one, so the entry moves above a parent only when it is strictly
	// earlier in (time, priority).
	h := s.heap
	i := len(h)
	if i < cap(h) {
		h = h[:i+1]
	} else {
		h = append(h, heapEnt{})
	}
	for i > 0 {
		p := (i - 1) >> 2
		q := &h[p]
		if q.at < at || q.at == at && q.prio <= priority {
			break
		}
		h[i] = *q
		i = p
	}
	e := &h[i]
	e.at, e.seq, e.prio, e.slot, e.gen = at, s.seq, priority, slot, gen
	s.heap = h
	s.seq++
	s.live++
	return EventID{slot: slot + 1, gen: gen}
}

// After schedules fn to run delay picoseconds from now.
func (s *Sim) After(delay Time, priority int, fn Handler) EventID {
	if delay < 0 {
		panic("engine: negative delay")
	}
	return s.At(s.now+delay, priority, fn)
}

// Cancel prevents a scheduled event from firing. Canceling an already
// fired or already canceled event is a no-op: its generation no longer
// matches. The event's heap entry stays queued and is discarded when
// it surfaces.
func (s *Sim) Cancel(id EventID) {
	i := id.slot - 1
	if i < 0 || int(i) >= len(s.pool) || s.pool[i].gen != id.gen {
		return
	}
	s.freeSlot(i)
	s.live--
}

// Stop makes Run return after the current event completes. Handlers
// call it when the simulated system has reached its termination
// condition ahead of queue exhaustion.
func (s *Sim) Stop() { s.stopped = true }

// Reset returns the simulation to time zero with an empty queue while
// keeping the heap and slot arrays for reuse: a Reset-then-reschedule
// cycle performs no allocations once the arrays have grown to their
// working size. Every pooled slot is relinked into the free list with
// its generation bumped, so EventIDs issued before the Reset can never
// cancel an event scheduled after it. The step limit and event counter
// are deliberately kept — callers that reconfigure per run overwrite
// them anyway, and callers that don't expect them to persist.
//
// The sequence counter restarts at zero, so two identical schedules —
// one on a fresh Sim, one after Reset — dispatch in byte-identical
// order: the order key is (time, priority, sequence) and slot indices
// never influence it.
func (s *Sim) Reset() {
	s.heap = s.heap[:0]
	s.freeHead = -1
	for i := range s.pool {
		sl := &s.pool[i]
		sl.fn = nil
		sl.gen++
		if sl.gen == 0 {
			sl.gen = 1
		}
		sl.next = s.freeHead
		s.freeHead = int32(i)
	}
	s.now = 0
	s.live = 0
	s.seq = 0
	s.steps = 0
	s.stopped = false
}

// Pending returns the number of live (non-canceled) events in the
// queue. The count is maintained incrementally on schedule, fire and
// cancel — O(1), not a queue scan.
func (s *Sim) Pending() int { return s.live }

// Run processes events in order until the queue is empty, Stop is
// called, or the step limit is exceeded. It returns the final
// simulation time.
func (s *Sim) Run() (Time, error) {
	return s.dispatch(MaxTime, false)
}

// RunUntil processes events with timestamps <= deadline, leaving later
// events queued. It returns the simulation time after the last
// processed event (or the deadline when nothing remains to do before
// it). Used by the barrier-synchronised parallel driver to advance the
// model one virtual-clock window at a time.
func (s *Sim) RunUntil(deadline Time) (Time, error) {
	return s.dispatch(deadline, true)
}

// dispatch is the shared core of Run and RunUntil: pop, skip stale
// (canceled) entries, advance time, count the step against the safety
// limit, fire. bounded selects the RunUntil semantics — stop at the
// first entry past deadline and clamp the clock forward to it.
//
// The pop is inlined rather than calling popHeap: the common case of
// a shallow queue (the emulator's steady state keeps a handful of
// events pending) then runs without a call or a 32-byte struct copy,
// which is worth ~15% of kernel throughput.
func (s *Sim) dispatch(deadline Time, bounded bool) (Time, error) {
	s.stopped = false
	for !s.stopped {
		h := s.heap
		if len(h) == 0 {
			break
		}
		top := h[0]
		if bounded && top.at > deadline {
			break
		}
		if n := len(h) - 1; n == 0 {
			s.heap = h[:0]
		} else {
			s.heap = h[:n]
			s.siftDown(h[n], n)
		}
		sl := &s.pool[top.slot]
		if sl.gen != top.gen {
			continue // canceled: the slot moved to a newer generation
		}
		fn := sl.fn
		sl.fn = nil
		sl.gen++
		if sl.gen == 0 {
			sl.gen = 1
		}
		sl.next = s.freeHead
		s.freeHead = top.slot
		s.live--
		if !bounded && top.at < s.now {
			// Run refuses to move time backwards (only reachable after
			// a RunUntil deadline clamped the clock past queued work).
			// The event is consumed, matching the original kernel,
			// which had already popped it when it reported the error.
			// RunUntil itself carries no such check: a clamped clock
			// rewinds to the event's timestamp, as it always has.
			return s.now, fmt.Errorf("engine: time went backwards (%v -> %v)", s.now, top.at)
		}
		s.now = top.at
		s.steps++
		s.events.Inc()
		if s.limit > 0 && s.steps > s.limit {
			return s.now, fmt.Errorf("engine: step limit %d exceeded at %v (livelock?)", s.limit, s.now)
		}
		fn(s.now)
	}
	if bounded && s.now < deadline {
		s.now = deadline
	}
	return s.now, nil
}

// NextEventTime returns the timestamp of the earliest live queued
// event and true, or zero and false when the queue holds no live
// events.
func (s *Sim) NextEventTime() (Time, bool) {
	for len(s.heap) > 0 && s.pool[s.heap[0].slot].gen != s.heap[0].gen {
		s.popHeap()
	}
	if len(s.heap) == 0 {
		return 0, false
	}
	return s.heap[0].at, true
}
