package engine

import "testing"

// BenchmarkEventThroughput measures raw kernel throughput: schedule
// and dispatch chained events.
func BenchmarkEventThroughput(b *testing.B) {
	s := NewSim()
	c := &chain{s: s, left: b.N}
	b.ResetTimer()
	s.At(0, 0, Event{})
	if _, err := s.Run(c); err != nil {
		b.Fatal(err)
	}
}

// noop fires nothing.
type noop struct{}

func (noop) Fire(Time, Event) {}

// BenchmarkQueueChurn measures heap behaviour with many pending
// events.
func BenchmarkQueueChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSim()
		for j := 0; j < 1024; j++ {
			s.At(Time((j*37)%1024), j%3, Event{Index: int32(j)})
		}
		if _, err := s.Run(noop{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNextEdge measures clock-edge quantisation.
func BenchmarkNextEdge(b *testing.B) {
	c := NewClock(10989)
	var acc Time
	for i := 0; i < b.N; i++ {
		acc += c.NextEdge(Time(i * 977))
	}
	_ = acc
}
