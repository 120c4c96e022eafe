package engine

import (
	"reflect"
	"testing"
	"unsafe"
)

// chain is a dispatcher whose every event reschedules itself 7 ps
// later until left reaches zero: a self-clocking element with no
// closure anywhere.
type chain struct {
	s    *Sim
	left int
}

func (c *chain) Fire(now Time, ev Event) {
	if c.left--; c.left > 0 {
		c.s.At(now+7, 0, ev)
	}
}

// TestSteadyStateAllocs pins the kernel's zero-allocation guarantee:
// once the heap has grown to the workload's high-water mark, a
// self-rescheduling event chain runs without a single heap allocation
// per dispatched event.
func TestSteadyStateAllocs(t *testing.T) {
	s := NewSim()
	c := &chain{s: s}
	var err error
	window := func() {
		c.left = 100
		s.At(s.Now(), 0, Event{Kind: 1, Index: 3})
		_, err = s.Run(c)
	}
	window() // warm the heap
	allocs := testing.AllocsPerRun(100, window)
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("steady-state At+dispatch allocates %v per window, want 0", allocs)
	}
}

// TestHeapEntryShape pins the queue's entry layout: at most 32 bytes
// and no pointer, so sifts move plain values without write barriers.
func TestHeapEntryShape(t *testing.T) {
	if n := unsafe.Sizeof(heapEnt{}); n > 32 {
		t.Errorf("heap entry is %d bytes, want <= 32", n)
	}
	var walk func(reflect.Type)
	walk = func(ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type)
			}
		case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint:
		default:
			t.Errorf("heap entry holds a %v, want integers only", ty)
		}
	}
	walk(reflect.TypeOf(heapEnt{}))
}
