package engine

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateReplay = flag.Bool("update", false, "rewrite the kernel dispatch-order golden")

// dispatchTrace drives one seeded random workload — a mix of
// scheduling (also from inside firing events), Run, Reset and
// step-limited runs — and records the complete observable behaviour of
// the kernel: every dispatched event (serial, time), every Run return
// value, and the clock and step count between phases.
//
// The trace for each seed is pinned in testdata/dispatch_order.golden.
// The golden was recorded against the closure-based kernel (pooled
// handler slots); the typed-event kernel must replay it byte-for-byte,
// which pins the (time, priority, seq) total order, the Reset
// semantics and the step-limit behaviour across the rewrite.
func dispatchTrace(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	s, d := NewSim(), &fns{}
	var b strings.Builder
	serial := 0
	budget := 200 // total events any one workload may schedule

	var schedule func(at Time, prio int)
	fire := func(sn int, now Time) {
		fmt.Fprintf(&b, "fire %d at=%d\n", sn, now)
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			if budget > 0 {
				schedule(now+Time(rng.Intn(60)), rng.Intn(3))
			}
		case 4:
			if budget > 0 && rng.Intn(2) == 0 {
				schedule(now+Time(rng.Intn(60)), rng.Intn(3))
				schedule(now+Time(rng.Intn(60)), rng.Intn(3))
			}
		}
	}
	schedule = func(at Time, prio int) {
		budget--
		sn := serial
		serial++
		d.at(s, at, prio, func(now Time) { fire(sn, now) })
		fmt.Fprintf(&b, "sched %d at=%d prio=%d\n", sn, at, prio)
	}
	run := func() {
		now, err := s.Run(d)
		fmt.Fprintf(&b, "run now=%d err=%v\n", now, err)
		fmt.Fprintf(&b, "state now=%d steps=%d\n", s.Now(), s.Steps())
	}

	for phase := 0; phase < 6; phase++ {
		fmt.Fprintf(&b, "phase %d\n", phase)
		for i, n := 0, 2+rng.Intn(5); i < n && budget > 0; i++ {
			schedule(s.Now()+Time(rng.Intn(120)), rng.Intn(3))
		}
		switch phase % 3 {
		case 1: // drop the queue, then schedule afresh from time zero
			s.Reset()
			fmt.Fprintf(&b, "reset now=%d steps=%d\n", s.Now(), s.Steps())
			for i, n := 0, 1+rng.Intn(4); i < n && budget > 0; i++ {
				schedule(s.Now()+Time(rng.Intn(120)), rng.Intn(3))
			}
		case 2: // stop a run at the step limit, then run the rest
			limit := s.Steps() + 1 + uint64(rng.Intn(4))
			s.SetStepLimit(limit)
			fmt.Fprintf(&b, "limit %d\n", limit)
			run()
			s.SetStepLimit(0)
		}
		run()
	}
	return b.String()
}

const replaySeeds = 12

func replayGolden() string {
	var b strings.Builder
	for seed := int64(1); seed <= replaySeeds; seed++ {
		fmt.Fprintf(&b, "==== seed %d ====\n", seed)
		b.WriteString(dispatchTrace(seed))
	}
	return b.String()
}

// TestDispatchOrderGolden asserts the kernel replays the recorded
// dispatch order of the closure-based kernel on every seeded workload,
// byte for byte.
func TestDispatchOrderGolden(t *testing.T) {
	got := replayGolden()
	path := filepath.Join("testdata", "dispatch_order.golden")
	if *updateReplay {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		n := len(gl)
		if len(wl) < n {
			n = len(wl)
		}
		for i := 0; i < n; i++ {
			if gl[i] != wl[i] {
				t.Fatalf("dispatch order diverges from the recorded kernel at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("dispatch trace length differs: got %d lines, want %d", len(gl), len(wl))
	}
}

// TestDispatchTraceSelfDeterministic: the harness itself is
// deterministic — two in-process runs of the same seed agree. This
// guards the golden against accidental nondeterminism in the harness
// rather than the kernel.
func TestDispatchTraceSelfDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		if a, b := dispatchTrace(seed), dispatchTrace(seed); a != b {
			t.Fatalf("seed %d: harness trace not deterministic", seed)
		}
	}
}
