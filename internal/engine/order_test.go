package engine

import (
	"math/rand"
	"slices"
	"testing"
)

// refEvent is one event of the reference queue: its full order key,
// its label and, for events whose handler schedules a follow-up, the
// follow-up's delay and priority.
type refEvent struct {
	at    Time
	prio  int
	seq   int
	label int
	spawn bool
	delay Time
	fprio int
	done  bool // fired, canceled or dropped by a Reset
}

// TestDispatchOrderMatchesSortedReference drives 10⁴ random At,
// Cancel, RunUntil and Reset operations over a few distinct times and
// priorities, so ties on (time, priority) are the common case. After
// every dispatch window the kernel must have fired exactly what a
// reference fires: live events with time <= deadline, in
// (time, priority, scheduling sequence) order. Some handlers schedule
// a follow-up while they run; the reference mirrors it.
func TestDispatchOrderMatchesSortedReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		s := NewSim()
		var (
			live      []*refEvent // reference queue, pruned lazily
			ids       []EventID   // every top-level At, for Cancel
			events    []*refEvent // the reference twin of ids[k]
			seq       int         // reference sequence: At calls since the last Reset
			got, want []int
		)
		push := func(e *refEvent) {
			e.seq = seq
			seq++
			live = append(live, e)
		}
		var handler func(e *refEvent) Handler
		handler = func(e *refEvent) Handler {
			return func(now Time) {
				got = append(got, e.label)
				if e.spawn {
					f := &refEvent{at: now + e.delay, prio: e.fprio, label: -e.label - 1}
					s.At(f.at, f.prio, handler(f))
				}
			}
		}
		// runRef replays RunUntil(deadline) on the reference queue.
		runRef := func(deadline Time) {
			for {
				live = slices.DeleteFunc(live, func(e *refEvent) bool { return e.done })
				var next *refEvent
				for _, e := range live {
					if e.at > deadline {
						continue
					}
					if next == nil || e.at < next.at ||
						e.at == next.at && (e.prio < next.prio || e.prio == next.prio && e.seq < next.seq) {
						next = e
					}
				}
				if next == nil {
					return
				}
				next.done = true
				want = append(want, next.label)
				if next.spawn {
					push(&refEvent{at: next.at + next.delay, prio: next.fprio, label: -next.label - 1})
				}
			}
		}
		check := func(op int) {
			t.Helper()
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d op %d: kernel fired %v, reference %v", seed, op, got, want)
			}
			n := 0
			for _, e := range live {
				if !e.done {
					n++
				}
			}
			if s.Pending() != n {
				t.Fatalf("seed %d op %d: Pending() = %d, reference %d", seed, op, s.Pending(), n)
			}
		}

		for op := 0; op < 10_000; op++ {
			switch r := rng.Intn(20); {
			case r < 12: // schedule
				e := &refEvent{
					at:    s.Now() + Time(rng.Intn(4))*5,
					prio:  rng.Intn(3),
					label: len(ids),
					spawn: rng.Intn(6) == 0,
					delay: Time(rng.Intn(2)) * 5,
					fprio: rng.Intn(3),
				}
				push(e)
				ids = append(ids, s.At(e.at, e.prio, handler(e)))
				events = append(events, e)
			case r < 16: // cancel, possibly a dead event
				if len(ids) > 0 {
					k := rng.Intn(len(ids))
					s.Cancel(ids[k])
					events[k].done = true
				}
			case r < 19: // dispatch a window
				deadline := s.Now() + Time(rng.Intn(12))
				if _, err := s.RunUntil(deadline); err != nil {
					t.Fatal(err)
				}
				runRef(deadline)
			default:
				s.Reset()
				for _, e := range live {
					e.done = true
				}
				seq = 0
			}
			check(op)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		runRef(MaxTime)
		check(10_000)
		if len(want) < 1000 {
			t.Fatalf("seed %d: only %d events fired; the oracle proves little", seed, len(want))
		}
	}
}
