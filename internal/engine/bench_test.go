package engine

import "testing"

// BenchmarkEventThroughput measures raw kernel throughput: schedule
// and dispatch chained events.
func BenchmarkEventThroughput(b *testing.B) {
	s := NewSim()
	count := 0
	var next Handler
	next = func(now Time) {
		count++
		if count < b.N {
			s.After(10, 0, next)
		}
	}
	b.ResetTimer()
	s.At(0, 0, next)
	if _, err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkQueueChurn measures heap behaviour with many pending
// events.
func BenchmarkQueueChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSim()
		for j := 0; j < 1024; j++ {
			s.At(Time((j*37)%1024), j%3, func(Time) {})
		}
		if _, err := s.Run(); err != nil {
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

// BenchmarkCancelHeavy measures cancellation churn: per op, 64 events
// scheduled, every other one cancelled, and the window run out.
func BenchmarkCancelHeavy(b *testing.B) {
	s := NewSim()
	noop := Handler(func(Time) {})
	ids := make([]EventID, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now := s.Now()
		for j := 0; j < 64; j++ {
			ids = append(ids, s.At(now+Time(1+j%17), j%3, noop))
		}
		for j, id := range ids {
			if j%2 == 0 {
				s.Cancel(id)
			}
		}
		ids = ids[:0]
		if _, err := s.RunUntil(now + 20); err != nil {
			b.Fatal(err)
		}
	}
}
