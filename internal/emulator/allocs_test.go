//go:build !race

package emulator_test

import (
	"testing"

	"segbus/internal/apps"
	"segbus/internal/emulator"
)

// freshRunAllocs is what the MP3 estimation allocates on a fresh
// machine, as measured: the schedule extraction, the report assembly
// and the arena's first sizing (flat element arrays, kernel heap,
// request and waiter queues). Events are typed, so nothing is bound
// per element.
const freshRunAllocs = 212

// TestFreshMachineRunAllocs fences the first run on a fresh machine at
// freshRunAllocs. (The race detector's instrumentation allocates on its
// own, so the count only holds without it.)
func TestFreshMachineRunAllocs(t *testing.T) {
	m, plat := apps.MP3Model(), apps.MP3Platform3(36)
	fresh := testing.AllocsPerRun(10, func() {
		if _, err := emulator.NewMachine().Run(m, plat, emulator.Config{}); err != nil {
			t.Fatal(err)
		}
	})
	if fresh > freshRunAllocs {
		t.Errorf("fresh machine run allocates %v, want at most %d", fresh, freshRunAllocs)
	}
}
