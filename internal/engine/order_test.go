package engine

import (
	"math/rand"
	"slices"
	"testing"
)

// refEvent is one event of the reference queue: its full order key,
// its label and, for events whose firing schedules a follow-up, the
// follow-up's delay and priority.
type refEvent struct {
	at    Time
	prio  int
	seq   int
	label int
	spawn bool
	delay Time
	fprio int
}

// TestDispatchOrderMatchesSortedReference drives 10⁴ random At, Run,
// step-limited Run and Reset operations over a few distinct times and
// priorities, so ties on (time, priority) are the common case. After
// every operation the kernel must have fired exactly what a reference
// fires: queued events in (time, priority, scheduling sequence) order,
// where a run stopped by the step limit consumes one event past the
// limit without firing it. Some events schedule a follow-up when they
// fire; the reference mirrors it.
func TestDispatchOrderMatchesSortedReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		s, d := NewSim(), &fns{}
		var (
			live      []*refEvent // reference queue
			seq       int         // reference sequence: At calls since the last Reset
			steps     uint64      // reference step count since the last Reset
			now       Time        // reference clock
			got, want []int
		)
		push := func(e *refEvent) {
			e.seq = seq
			seq++
			live = append(live, e)
		}
		var schedule func(e *refEvent)
		schedule = func(e *refEvent) {
			d.at(s, e.at, e.prio, func(now Time) {
				got = append(got, e.label)
				if e.spawn {
					schedule(&refEvent{at: now + e.delay, prio: e.fprio, label: -e.label - 1})
				}
			})
		}
		// popRef removes the reference's next event, advancing its
		// clock and step count; nil when the queue is empty.
		popRef := func() *refEvent {
			if len(live) == 0 {
				return nil
			}
			k := 0
			for j, e := range live {
				n := live[k]
				if e.at < n.at || e.at == n.at && (e.prio < n.prio || e.prio == n.prio && e.seq < n.seq) {
					k = j
				}
			}
			e := live[k]
			live = slices.Delete(live, k, k+1)
			now = e.at
			steps++
			return e
		}
		fireRef := func(e *refEvent) {
			want = append(want, e.label)
			if e.spawn {
				push(&refEvent{at: e.at + e.delay, prio: e.fprio, label: -e.label - 1})
			}
		}
		// runRef replays Run under a step budget (0: unlimited) and
		// reports whether the limit stopped it.
		runRef := func(budget int) bool {
			for fired := 0; ; fired++ {
				e := popRef()
				if e == nil {
					return false
				}
				if budget > 0 && fired == budget {
					return true
				}
				fireRef(e)
			}
		}
		check := func(op int) {
			t.Helper()
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d op %d: kernel fired %v, reference %v", seed, op, got, want)
			}
			if s.Now() != now || s.Steps() != steps {
				t.Fatalf("seed %d op %d: kernel at now=%v steps=%d, reference now=%v steps=%d",
					seed, op, s.Now(), s.Steps(), now, steps)
			}
		}

		labels := 0
		for op := 0; op < 10_000; op++ {
			switch r := rng.Intn(20); {
			case r < 12: // schedule
				e := &refEvent{
					at:    s.Now() + Time(rng.Intn(4))*5,
					prio:  rng.Intn(3),
					label: labels,
					spawn: rng.Intn(6) == 0,
					delay: Time(rng.Intn(2)) * 5,
					fprio: rng.Intn(3),
				}
				labels++
				push(e)
				schedule(e)
			case r < 16: // a run the step limit stops after k events
				k := 1 + rng.Intn(4)
				s.SetStepLimit(s.Steps() + uint64(k))
				_, err := s.Run(d)
				if stopped := runRef(k); stopped != (err != nil) {
					t.Fatalf("seed %d op %d: Run error %v, reference stopped=%v", seed, op, err, stopped)
				}
			case r < 19: // run the queue dry
				s.SetStepLimit(0)
				if _, err := s.Run(d); err != nil {
					t.Fatal(err)
				}
				runRef(0)
			default:
				s.Reset()
				live, seq, steps, now = live[:0], 0, 0, 0
			}
			check(op)
		}
		s.SetStepLimit(0)
		if _, err := s.Run(d); err != nil {
			t.Fatal(err)
		}
		runRef(0)
		check(10_000)
		if len(want) < 1000 {
			t.Fatalf("seed %d: only %d events fired; the oracle proves little", seed, len(want))
		}
	}
}
