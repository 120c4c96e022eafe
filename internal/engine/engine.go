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
// Events are typed: an event is a (kind, index) pair that the
// caller's Dispatcher switches on, never a closure, and the event queue
// is a value-typed 4-ary min-heap over pointer-free 32-byte entries. A
// push sifts up with the new key in scalars and writes the entry once,
// in place, into its final slot. Steady-state operation — events fired
// at the rate they are scheduled — performs zero heap allocations
// (pinned by TestSteadyStateAllocs), and the dispatch order is
// byte-identical to the previous closure-based kernel (pinned by
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

// Kind names what a typed event does; its meaning belongs to the
// Dispatcher that fires it.
type Kind uint8

// Event is a typed event: a kind and the index of the element it acts
// on. It carries no pointer and no closure.
type Event struct {
	Kind  Kind
	Index int32
}

// Dispatcher fires the events of a Sim: Run hands it each event in
// order, with the clock already advanced to the event's time, and the
// dispatcher switches on the kind.
type Dispatcher interface {
	Fire(now Time, ev Event)
}

// heapEnt is one entry of the 4-ary min-heap: the full ordering key
// plus the event itself. Entries are pointer-free values — heap
// comparisons and swaps never chase a pointer and sifts need no write
// barriers — and the field layout packs one entry into 32 bytes.
type heapEnt struct {
	at   Time
	seq  uint64
	prio int32
	ev   Event
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

// Sim is a discrete-event simulation instance. The zero value is not
// usable; construct with NewSim.
type Sim struct {
	now    Time
	heap   []heapEnt
	seq    uint64
	steps  uint64
	limit  uint64       // safety valve against runaway models; 0 = unlimited
	events *obs.Counter // optional per-event metric; nil no-ops
}

// NewSim returns an empty simulation positioned at time zero.
func NewSim() *Sim {
	return &Sim{}
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

// At schedules ev to fire at absolute time at with the given priority
// (lower priorities fire first among simultaneous events). Scheduling
// in the past panics: that is always a model bug.
func (s *Sim) At(at Time, priority int, ev Event) {
	if at < s.now {
		panic(fmt.Sprintf("engine: scheduling event at %v before now %v", at, s.now))
	}
	// Sift up with the new entry's key held in scalars and write it
	// field by field into its final slot: building a heapEnt and
	// copying it in stalls on store forwarding (narrow stores re-read
	// as wide loads). The new sequence number exceeds every queued
	// one, so the entry moves above a parent only when it is strictly
	// earlier in (time, priority).
	prio := int32(priority)
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
		if q.at < at || q.at == at && q.prio <= prio {
			break
		}
		h[i] = *q
		i = p
	}
	e := &h[i]
	e.at, e.seq, e.prio, e.ev = at, s.seq, prio, ev
	s.heap = h
	s.seq++
}

// Reset returns the simulation to time zero with an empty queue while
// keeping the heap array for reuse: a Reset-then-reschedule cycle
// performs no allocations once the array has grown to its working
// size. The step limit and event counter are deliberately kept —
// callers that reconfigure per run overwrite them anyway, and callers
// that don't expect them to persist.
//
// The sequence counter restarts at zero, so two identical schedules —
// one on a fresh Sim, one after Reset — dispatch in byte-identical
// order.
func (s *Sim) Reset() {
	s.heap = s.heap[:0]
	s.now = 0
	s.seq = 0
	s.steps = 0
}

// Run fires events in (time, priority, sequence) order through d until
// the queue is empty or the step limit is exceeded, and returns the
// final simulation time. Events d schedules while firing join the
// queue. An event that exceeds the step limit is consumed and counted
// but not fired; the rest stay queued.
//
// The pop is inlined rather than a call: the common case of a shallow
// queue (the emulator's steady state keeps a handful of events
// pending) then runs without a call or a 32-byte struct copy.
func (s *Sim) Run(d Dispatcher) (Time, error) {
	if d == nil {
		panic("engine: nil dispatcher")
	}
	for {
		h := s.heap
		if len(h) == 0 {
			return s.now, nil
		}
		top := h[0]
		if n := len(h) - 1; n == 0 {
			s.heap = h[:0]
		} else {
			s.heap = h[:n]
			s.siftDown(h[n], n)
		}
		s.now = top.at
		s.steps++
		s.events.Inc()
		if s.limit > 0 && s.steps > s.limit {
			return s.now, fmt.Errorf("engine: step limit %d exceeded at %v (livelock?)", s.limit, s.now)
		}
		d.Fire(s.now, top.ev)
	}
}
