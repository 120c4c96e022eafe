package conform

import (
	"errors"
	"testing"

	"segbus/internal/automata"
	"segbus/internal/emulator"
	"segbus/internal/platform"
	"segbus/internal/psdf"
)

// TestReachabilityAgreement is the acceptance property of the exact
// reachability checker: over hundreds of generated models — plus a
// same-order cyclic mutant of each (CyclicMutant), which can genuinely
// deadlock — the checker's verdict must match the emulator's outcome,
// and every deadlock counterexample must replay into a stuck state.
func TestReachabilityAgreement(t *testing.T) {
	gen := NewGenerator(7, nil)
	checked, deadlocks := 0, 0
	for i := 0; i < 220; i++ {
		c := gen.Next()
		checked += agreeOnce(t, c.Doc.Model, c.Doc.Platform, &deadlocks)

		mut := CyclicMutant(c.Doc, 0)
		if mut == nil {
			continue
		}
		checked += agreeOnce(t, mut.Model, mut.Platform, &deadlocks)
	}
	if checked < 200 {
		t.Fatalf("only %d models reached a conclusive comparison, want >= 200", checked)
	}
	if deadlocks == 0 {
		t.Errorf("no mutant deadlocked; the agreement property was not exercised on the deadlock side")
	}
	t.Logf("checked %d models, %d deadlocking", checked, deadlocks)
}

// agreeOnce compares the checker and the emulator on one model pair,
// returning 1 when the comparison was conclusive and 0 when the model
// is outside the checker's domain (invalid or over budget).
func agreeOnce(t *testing.T, m *psdf.Model, plat *platform.Platform, deadlocks *int) int {
	t.Helper()
	sys, err := automata.Compile(m, plat)
	if err != nil {
		return 0
	}
	res := sys.Check(automata.Options{})
	if res.Verdict == automata.Inconclusive {
		return 0
	}
	_, emuErr := emulator.Run(m, plat, emulator.Config{})
	var dl *emulator.DeadlockError
	emuDeadlock := errors.As(emuErr, &dl)
	if emuErr != nil && !emuDeadlock {
		t.Fatalf("%s: emulator failed for a non-deadlock reason: %v", m.Name(), emuErr)
	}
	if emuDeadlock != (res.Verdict == automata.Deadlocks) {
		t.Fatalf("%s: checker verdict %v, emulator deadlock=%v", m.Name(), res.Verdict, emuDeadlock)
	}
	if res.Verdict == automata.Deadlocks {
		*deadlocks++
		stuck, rerr := sys.Replay(res.Trace)
		if rerr != nil {
			t.Fatalf("%s: counterexample does not replay: %v", m.Name(), rerr)
		}
		if !stuck {
			t.Fatalf("%s: counterexample replays to a live state", m.Name())
		}
	}
	return 1
}
