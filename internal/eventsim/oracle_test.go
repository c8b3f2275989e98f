package eventsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// refLoop is the reference poll loop the parked PollLoop must reproduce:
// a plain self-rescheduling At chain that books one event per poll,
// empty or not.
type refLoop struct {
	sim        *Sim
	core       *Core
	body       PollBody
	idleCycles float64
	stopped    bool
	iterations uint64
	pending    func()
}

func (r *refLoop) start() { r.sim.After(0, r.iterate) }

func (r *refLoop) iterate() {
	if r.stopped {
		return
	}
	r.iterations++
	cycles, commit := r.body()
	if cycles <= 0 {
		cycles = r.idleCycles
	}
	r.pending = commit
	r.core.Exec(cycles, r.finish)
}

func (r *refLoop) finish() {
	if c := r.pending; c != nil {
		r.pending = nil
		c()
	}
	r.iterate()
}

// traceRec is one non-idle execution: when, by whom, carrying what.
type traceRec struct {
	at      Time
	actor   string
	payload int
}

// fifo is a bounded queue shared between actors (a stand-in for a ring).
type fifo struct {
	items []int
	cap   int
}

func (f *fifo) push(v int) bool {
	if len(f.items) >= f.cap {
		return false
	}
	f.items = append(f.items, v)
	return true
}

func (f *fifo) take(max int) []int {
	n := min(max, len(f.items))
	out := append([]int(nil), f.items[:n]...)
	f.items = append(f.items[:0], f.items[n:]...)
	return out
}

// actorSystem is a seeded random pipeline of producers, poll loops,
// shared rings and timers, built identically on either loop
// implementation.
type actorSystem struct {
	sim   *Sim
	trace []traceRec
	rings []*fifo
	cores []*Core
	iters []func() uint64
	stops []func()
	next  int // payload counter for items injected between chunks
}

func (a *actorSystem) rec(actor string, payload int) {
	a.trace = append(a.trace, traceRec{a.sim.Now(), actor, payload})
}

// buildSystem wires a random system from seed. With ref set the loops
// are refLoops; otherwise they are parked PollLoops.
func buildSystem(seed int64, ref bool) *actorSystem {
	rng := rand.New(rand.NewSource(seed))
	s := New()
	a := &actorSystem{sim: s}
	nRings := 1 + rng.Intn(3)
	for i := 0; i < nRings; i++ {
		a.rings = append(a.rings, &fifo{cap: 4 + rng.Intn(60)})
	}
	sink := &fifo{cap: 1 << 30}

	addLoop := func(name string, hz, idle float64, body PollBody) {
		c := NewCore(s, len(a.cores), 0, hz)
		a.cores = append(a.cores, c)
		if ref {
			l := &refLoop{sim: s, core: c, body: body, idleCycles: idle}
			a.iters = append(a.iters, func() uint64 { return l.iterations })
			a.stops = append(a.stops, func() { l.stopped = true })
			l.start()
			return
		}
		l := NewPollLoop(s, c, idle, body)
		a.iters = append(a.iters, l.Iterations)
		a.stops = append(a.stops, l.Stop)
		l.Start()
	}

	// Clocks: the transfer-core idle period (60 cycles @ 2.1 GHz) next to
	// a faster forwarder (20 cycles @ 3 GHz).
	clocks := []struct{ hz, idle float64 }{{2.1e9, 60}, {3e9, 20}}

	// Producers: event-driven sources pushing bursts into rings, with idle
	// gaps long enough for the loops to park.
	nProd := 1 + rng.Intn(3)
	for p := 0; p < nProd; p++ {
		out := a.rings[rng.Intn(nRings)]
		prng := rand.New(rand.NewSource(rng.Int63()))
		name := fmt.Sprintf("prod%d", p)
		var tick func()
		seq := p << 20
		tick = func() {
			burst := 1 + prng.Intn(8)
			for i := 0; i < burst; i++ {
				seq++
				if out.push(seq) {
					a.rec(name, seq)
				}
			}
			gap := Time(prng.Intn(50)) * 100 * Nanosecond
			if prng.Intn(3) == 0 {
				gap += Time(prng.Intn(100)) * Microsecond
			}
			s.After(gap, tick)
		}
		s.After(Time(prng.Intn(1000))*Nanosecond, tick)
	}

	// Poll loops: each drains one ring and forwards to another ring (or
	// the sink) in commit. Several loops may share one input ring; phases
	// are equal or different depending on the start offset.
	nLoops := 2 + rng.Intn(4)
	for l := 0; l < nLoops; l++ {
		ck := clocks[rng.Intn(len(clocks))]
		in := a.rings[rng.Intn(nRings)]
		out := sink
		if k := rng.Intn(nRings + 1); k < nRings && a.rings[k] != in {
			out = a.rings[k]
		}
		burst := 1 + rng.Intn(8)
		perItem := float64(rng.Intn(3)) * 10
		name := fmt.Sprintf("loop%d", l)
		var held []int
		commit := func() {
			for _, v := range held {
				if out.push(v) {
					a.rec(name+".out", v)
				}
			}
			held = held[:0]
		}
		body := func() (float64, func()) {
			got := in.take(burst)
			if len(got) == 0 {
				return 0, nil
			}
			a.rec(name, got[0])
			held = append(held, got...)
			cycles := perItem * float64(len(got))
			if cycles == 0 {
				// A busy iteration lasting exactly one idle period.
				cycles = ck.idle
			}
			return cycles, commit
		}
		if rng.Intn(2) == 0 {
			addLoop(name, ck.hz, ck.idle, body)
			continue
		}
		s.After(Time(rng.Intn(3))*Time(rng.Intn(40))*Nanosecond, func() {
			addLoop(name, ck.hz, ck.idle, body)
		})
	}

	// A batching loop whose flush deadline is backed by a Timer: the
	// idle-body contract's doorbell pattern, with Reset and Stop.
	if rng.Intn(2) == 0 {
		ck := clocks[rng.Intn(len(clocks))]
		in := a.rings[rng.Intn(nRings)]
		timeout := Time(1+rng.Intn(10)) * Microsecond
		var staged []int
		var firstAt Time
		bell := s.NewTimer(func() { a.rec("bell", len(staged)) })
		var flushed []int
		commit := func() {
			for _, v := range flushed {
				a.rec("batch.out", v)
			}
			flushed = flushed[:0]
		}
		body := func() (float64, func()) {
			if len(staged) > 0 && s.Now()-firstAt >= timeout {
				flushed = append(flushed[:0], staged...)
				staged = staged[:0]
				bell.Stop()
				a.rec("batch.flush", len(flushed))
				return 40, commit
			}
			got := in.take(4)
			if len(got) == 0 {
				return 0, nil
			}
			if len(staged) == 0 {
				firstAt = s.Now()
				bell.Reset(timeout)
			}
			staged = append(staged, got...)
			a.rec("batch", got[0])
			return 30, nil
		}
		addLoop("batch", ck.hz, ck.idle, body)
	}

	// A timer actor that re-arms and cancels itself at random.
	trng := rand.New(rand.NewSource(rng.Int63()))
	var tm *Timer
	tm = s.NewTimer(func() {
		a.rec("timer", 0)
		tm.Reset(Time(1+trng.Intn(30)) * Microsecond)
		if trng.Intn(3) == 0 {
			tm.Stop()
			s.After(Time(trng.Intn(20))*Microsecond, func() { tm.Reset(Microsecond) })
		}
	})
	tm.Reset(5 * Microsecond)
	return a
}

// drive runs the system in chunks. Between chunks it injects items into
// a ring directly (a state change outside any event, as test rigs do);
// one event stops the run mid-chunk and another halts one poll loop.
func (a *actorSystem) drive(seed int64, horizon Time) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	stopAt := Time(rng.Int63n(int64(horizon)))
	a.sim.At(stopAt, func() { a.rec("stop", 0); a.sim.Stop() })
	// One poll loop is halted for good part way through.
	victim := rng.Intn(8)
	a.sim.At(Time(rng.Int63n(int64(horizon))), func() {
		a.rec("halt", victim%len(a.stops))
		a.stops[victim%len(a.stops)]()
	})
	for a.sim.Now() < horizon {
		chunk := Time(1+rng.Intn(200)) * Microsecond
		a.sim.Run(min(a.sim.Now()+chunk, horizon))
		if rng.Intn(3) == 0 {
			r := a.rings[rng.Intn(len(a.rings))]
			a.next++
			if r.push(-a.next) {
				a.rec("inject", -a.next)
			}
		}
	}
}

func (a *actorSystem) summary(horizon Time) []string {
	var out []string
	for i, c := range a.cores {
		out = append(out, fmt.Sprintf("core%d util=%v free=%v iters=%d",
			i, c.Utilization(horizon), c.FreeAt(), a.iters[i]()))
	}
	return out
}

// TestParkedLoopsMatchReference is the differential oracle for parking:
// seeded random actor systems run once on reference loops (one event per
// poll) and once on parked PollLoops, and must produce the identical
// trace of non-idle executions plus identical core accounting.
func TestParkedLoopsMatchReference(t *testing.T) {
	seeds := 100
	if testing.Short() {
		seeds = 25
	}
	horizon := Millisecond
	var refEvents, gotEvents uint64
	for seed := int64(1); seed <= int64(seeds); seed++ {
		ref := buildSystem(seed, true)
		ref.drive(seed, horizon)
		got := buildSystem(seed, false)
		got.drive(seed, horizon)
		if len(ref.trace) == 0 {
			t.Fatalf("seed %d: empty reference trace", seed)
		}
		if !reflect.DeepEqual(ref.trace, got.trace) {
			n := min(len(ref.trace), len(got.trace))
			i := 0
			for i < n && ref.trace[i] == got.trace[i] {
				i++
			}
			t.Fatalf("seed %d: traces diverge at record %d of %d/%d:\nref %+v\ngot %+v",
				seed, i, len(ref.trace), len(got.trace), at(ref.trace, i), at(got.trace, i))
		}
		if rs, gs := ref.summary(horizon), got.summary(horizon); !reflect.DeepEqual(rs, gs) {
			t.Fatalf("seed %d: core accounting differs:\nref %v\ngot %v", seed, rs, gs)
		}
		refEvents += ref.sim.Processed()
		gotEvents += got.sim.Processed()
	}
	// The systems idle between bursts, so parking must pay off overall.
	if gotEvents*4 > refEvents {
		t.Errorf("parked runs processed %d events, reference %d: under 4x fewer", gotEvents, refEvents)
	}
	t.Logf("events: parked %d, reference %d", gotEvents, refEvents)
}

func at(tr []traceRec, i int) any {
	if i < len(tr) {
		return tr[i]
	}
	return "<end>"
}

// TestPostFromAnotherGoroutineWakesParkedLoop checks that a Post from
// another goroutine never loses a wake-up: the loop is parked on an
// empty ring with nothing else scheduled, the posted function fills the
// ring, and the loop must consume it within one poll period of the
// drain.
func TestPostFromAnotherGoroutineWakesParkedLoop(t *testing.T) {
	s := New()
	c := NewCore(s, 0, 0, 2.1e9)
	ring := &fifo{cap: 8}
	var postedAt, seenAt Time
	loop := NewPollLoop(s, c, 60, func() (float64, func()) {
		if len(ring.take(1)) == 0 {
			return 0, nil
		}
		seenAt = s.Now()
		return 100, nil
	})
	loop.Start()
	// A far-off event gives the loop something to park against.
	s.At(Second, func() {})
	s.Run(10 * Microsecond)

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Post(func() {
			postedAt = s.Now()
			ring.push(1)
		})
	}()
	<-done
	deadline := time.Now().Add(10 * time.Second)
	for seenAt == 0 {
		s.Run(s.Now() + 100*Microsecond)
		if time.Now().After(deadline) {
			t.Fatal("posted work never consumed")
		}
	}
	if seenAt < postedAt || seenAt-postedAt > c.CycleTime(60) {
		t.Errorf("posted at %v, consumed at %v: more than one poll period later", postedAt, seenAt)
	}
}

// TestPostDrainUnparksFastForwardedLoops covers a drain that lands while
// a loop is fast-forwarded past the clock: loop b posts from its wake
// tick, after loop a has already skipped ahead to just before the far
// event. The drain must take a back to its next tick, so the posted
// item is consumed within one poll period, not at the far event.
func TestPostDrainUnparksFastForwardedLoops(t *testing.T) {
	s := New()
	ring := &fifo{cap: 8}
	ca := NewCore(s, 0, 0, 3e9)
	var postedAt, seenAt Time
	NewPollLoop(s, ca, 20, func() (float64, func()) {
		if len(ring.take(1)) == 0 {
			return 0, nil
		}
		seenAt = s.Now()
		return 100, nil
	}).Start()
	calls := 0
	// A slow core: its wake tick lands hundreds of ns before the far
	// event, while loop a has skipped to within one of its 6.7 ns polls.
	NewPollLoop(s, NewCore(s, 1, 0, 0.1e9), 60, func() (float64, func()) {
		if calls++; calls == 2 {
			s.Post(func() {
				postedAt = s.Now()
				ring.push(1)
			})
		}
		return 0, nil
	}).Start()
	far := 100 * Microsecond
	s.At(far, func() {})
	s.Run(far)
	if postedAt == 0 || postedAt > far-2*ca.CycleTime(20) {
		t.Fatalf("post drained at %v: the setup did not post while loop a was fast-forwarded", postedAt)
	}
	if seenAt < postedAt || seenAt-postedAt > ca.CycleTime(20) {
		t.Errorf("posted at %v, consumed at %v: more than one poll period later", postedAt, seenAt)
	}
}
