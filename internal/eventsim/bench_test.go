package eventsim

import "testing"

// BenchmarkEventLoop measures raw simulator event throughput, the wall-
// clock cost driver of every experiment.
func BenchmarkEventLoop(b *testing.B) {
	s := New()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			s.After(Nanosecond, tick)
		}
	}
	b.ResetTimer()
	s.After(0, tick)
	s.RunAll()
}

// BenchmarkPollLoop measures the poll-loop actor overhead.
func BenchmarkPollLoop(b *testing.B) {
	s := New()
	c := NewCore(s, 0, 0, 2.1e9)
	n := 0
	var loop *PollLoop
	loop = NewPollLoop(s, c, 60, func() (float64, func()) {
		n++
		if n >= b.N {
			loop.Stop()
		}
		return 100, nil
	})
	b.ResetTimer()
	loop.Start()
	s.RunAll()
}

// TestParkWakeZeroAllocs gates the parking path: a poll loop woken by a
// producer event after every long idle gap books nothing on the heap.
func TestParkWakeZeroAllocs(t *testing.T) {
	s := New()
	c := NewCore(s, 0, 0, 2.1e9)
	queued := 0
	NewPollLoop(s, c, 60, func() (float64, func()) {
		if queued == 0 {
			return 0, nil
		}
		queued--
		return 200, nil
	}).Start()
	produce := func() { queued += 4 }
	cycle := func() {
		s.At(s.Now()+100*Microsecond, produce)
		s.Run(s.Now() + 200*Microsecond)
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	before := s.Processed()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("park/wake cycle allocates %.1f objects, want 0", avg)
	}
	// 101 cycles of 200 us polled one by one would be ~700k events.
	if n := s.Processed() - before; n > 101*50 {
		t.Errorf("%d events for 101 cycles: the loop did not park", n)
	}
}
