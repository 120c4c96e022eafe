package engine

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	if got := Time(75307617).String(); got != "75307617ps" {
		t.Errorf("String() = %q", got)
	}
	if got := Time(489792303).Micros(); got < 489.79 || got > 489.80 {
		t.Errorf("Micros() = %v", got)
	}
}

func TestNewClockPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewClock(0) did not panic")
		}
	}()
	NewClock(0)
}

func TestClockNextEdge(t *testing.T) {
	c := NewClock(100)
	cases := []struct{ in, want Time }{
		{-5, 0}, {0, 0}, {1, 100}, {99, 100}, {100, 100}, {101, 200}, {250, 300},
	}
	for _, cse := range cases {
		if got := c.NextEdge(cse.in); got != cse.want {
			t.Errorf("NextEdge(%d) = %d, want %d", cse.in, got, cse.want)
		}
	}
}

func TestClockTicks(t *testing.T) {
	c := NewClock(10989) // 91 MHz
	if got := c.Ticks(250); got != 2747250 {
		t.Errorf("Ticks(250) = %d", got)
	}
}

func TestClockTicksElapsed(t *testing.T) {
	c := NewClock(100)
	cases := []struct {
		at   Time
		want int64
	}{
		{0, 0}, {-1, 0}, {1, 1}, {100, 1}, {101, 2}, {1000, 10}, {1001, 11},
	}
	for _, cse := range cases {
		if got := c.TicksElapsed(cse.at); got != cse.want {
			t.Errorf("TicksElapsed(%d) = %d, want %d", cse.at, got, cse.want)
		}
	}
}

func TestClockEdgeProperties(t *testing.T) {
	f := func(period uint16, at uint32) bool {
		p := int64(period) + 1
		c := NewClock(p)
		tm := Time(at)
		edge := c.NextEdge(tm)
		return edge >= tm && int64(edge)%p == 0 && edge-tm < Time(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// fns is the test dispatcher: an event's Index names the closure it
// fires. Closures are a test convenience; the kernel only sees typed
// events.
type fns []func(now Time)

func (d *fns) Fire(now Time, ev Event) { (*d)[ev.Index](now) }

// at schedules fn on s at time at with the given priority.
func (d *fns) at(s *Sim, at Time, prio int, fn func(now Time)) {
	*d = append(*d, fn)
	s.At(at, prio, Event{Index: int32(len(*d) - 1)})
}

func TestSimRunsInTimeOrder(t *testing.T) {
	s, d := NewSim(), &fns{}
	var seen []Time
	for _, at := range []Time{500, 100, 300, 200, 400} {
		d.at(s, at, 0, func(now Time) { seen = append(seen, now) })
	}
	end, err := s.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if end != 500 {
		t.Errorf("final time = %v", end)
	}
	if !sort.SliceIsSorted(seen, func(i, j int) bool { return seen[i] < seen[j] }) {
		t.Errorf("events out of order: %v", seen)
	}
	if len(seen) != 5 {
		t.Errorf("processed %d events", len(seen))
	}
}

func TestSimPriorityOrder(t *testing.T) {
	s, d := NewSim(), &fns{}
	var seen []int
	d.at(s, 100, 2, func(Time) { seen = append(seen, 2) })
	d.at(s, 100, 0, func(Time) { seen = append(seen, 0) })
	d.at(s, 100, 1, func(Time) { seen = append(seen, 1) })
	if _, err := s.Run(d); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[0] != 0 || seen[1] != 1 || seen[2] != 2 {
		t.Errorf("priority order violated: %v", seen)
	}
}

func TestSimSeqBreaksTies(t *testing.T) {
	s, d := NewSim(), &fns{}
	var seen []int
	for i := 0; i < 10; i++ {
		d.at(s, 100, 0, func(Time) { seen = append(seen, i) })
	}
	if _, err := s.Run(d); err != nil {
		t.Fatal(err)
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("insertion order not preserved among ties: %v", seen)
		}
	}
}

func TestSimSchedulingDuringRun(t *testing.T) {
	s, d := NewSim(), &fns{}
	count := 0
	var ping func(now Time)
	ping = func(now Time) {
		count++
		if count < 5 {
			d.at(s, now+10, 0, ping)
		}
	}
	d.at(s, 0, 0, ping)
	end, err := s.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if count != 5 || end != 40 {
		t.Errorf("count=%d end=%v", count, end)
	}
}

func TestSimPastSchedulingPanics(t *testing.T) {
	s, d := NewSim(), &fns{}
	d.at(s, 100, 0, func(now Time) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(50, 0, Event{})
	})
	if _, err := s.Run(d); err != nil {
		t.Fatal(err)
	}
}

// TestSimNilHandlerPanics: the dispatcher is the kernel's only event
// handler, and running without one is a caller bug.
func TestSimNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil dispatcher did not panic")
		}
	}()
	NewSim().Run(nil)
}

// TestSimNegativeDelayPanics: an event a negative delay from now — here
// before time zero on a fresh Sim — is refused like any past event.
func TestSimNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	NewSim().At(-1, 0, Event{})
}

func TestSimStepLimit(t *testing.T) {
	s, d := NewSim(), &fns{}
	s.SetStepLimit(10)
	var loop func(now Time)
	loop = func(now Time) { d.at(s, now+1, 0, loop) }
	d.at(s, 0, 0, loop)
	if _, err := s.Run(d); err == nil {
		t.Error("runaway simulation not stopped by step limit")
	}
}

func TestSimDeterminism(t *testing.T) {
	// Property: a randomly generated event program yields the same
	// execution sequence on every run.
	run := func(seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		s, d := NewSim(), &fns{}
		var seen []Time
		var spawn func(now Time)
		depth := 0
		spawn = func(now Time) {
			seen = append(seen, now)
			depth++
			if depth < 200 {
				d.at(s, now+Time(rng.Intn(50)), rng.Intn(3), spawn)
			}
		}
		for i := 0; i < 20; i++ {
			d.at(s, Time(rng.Intn(100)), rng.Intn(3), spawn)
		}
		if _, err := s.Run(d); err != nil {
			t.Fatal(err)
		}
		return seen
	}
	for seed := int64(0); seed < 10; seed++ {
		a := run(seed)
		b := run(seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: lengths differ", seed)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: divergence at %d: %v vs %v", seed, i, a[i], b[i])
			}
		}
	}
}
