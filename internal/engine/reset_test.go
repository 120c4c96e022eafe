package engine

import "testing"

// record drives a deterministic little workload — staggered schedules
// across three priorities and one in-event reschedule — and returns
// the dispatch trace as (time, tag) pairs.
func record(s *Sim) ([]Time, []int, error) {
	var times []Time
	var tags []int
	d := &fns{}
	note := func(tag int) func(Time) {
		return func(now Time) {
			times = append(times, now)
			tags = append(tags, tag)
		}
	}
	d.at(s, 5, 1, note(1))
	d.at(s, 5, 0, note(2))
	d.at(s, 7, 0, note(3))
	d.at(s, 9, 2, func(now Time) {
		note(4)(now)
		d.at(s, now+3, 0, note(5))
	})
	_, err := s.Run(d)
	return times, tags, err
}

// TestResetReplaysFresh: the same schedule dispatched on a fresh Sim
// and on a Reset one produces the identical trace — Reset restores
// time zero and restarts the sequence counter, so the (time, priority,
// sequence) order key replays exactly.
func TestResetReplaysFresh(t *testing.T) {
	fresh := NewSim()
	wantTimes, wantTags, err := record(fresh)
	if err != nil {
		t.Fatal(err)
	}

	s := NewSim()
	if _, _, err := record(s); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		s.Reset()
		if s.Now() != 0 || s.Steps() != 0 {
			t.Fatalf("round %d: Reset left now=%v steps=%d", round, s.Now(), s.Steps())
		}
		times, tags, err := record(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(times) != len(wantTimes) {
			t.Fatalf("round %d: %d events, want %d", round, len(times), len(wantTimes))
		}
		for i := range times {
			if times[i] != wantTimes[i] || tags[i] != wantTags[i] {
				t.Fatalf("round %d event %d: (%v,%d), want (%v,%d)",
					round, i, times[i], tags[i], wantTimes[i], wantTags[i])
			}
		}
	}
}

// TestResetMidQueue: Reset while events are still queued drops them —
// the queue empties without firing anything.
func TestResetMidQueue(t *testing.T) {
	s, d := NewSim(), &fns{}
	fired := false
	d.at(s, 100, 0, func(Time) { fired = true })
	s.Reset()
	if _, err := s.Run(d); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("event scheduled before Reset fired after it")
	}
	if s.Now() != 0 {
		t.Errorf("now = %v after draining an emptied queue", s.Now())
	}
}

// TestResetAllocs pins the arena-reuse guarantee: once the heap has
// grown to the workload's high-water mark, a Reset-schedule-drain
// cycle performs zero heap allocations.
func TestResetAllocs(t *testing.T) {
	s := NewSim()
	var err error
	cycle := func() {
		s.Reset()
		for i := 0; i < 64; i++ {
			s.At(Time(1+i%17), i%3, Event{Kind: Kind(i % 5), Index: int32(i)})
		}
		_, err = s.Run(noop{})
	}
	cycle() // warm the heap
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, cycle)
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("Reset cycle allocates %v per round, want 0", allocs)
	}
}
