// Package eventsim provides a deterministic discrete-event simulator used as
// the time authority for the DHL testbed reproduction.
//
// The simulator models virtual time as int64 picoseconds so that CPU cycles
// at non-integral-nanosecond frequencies (e.g. 2.1 GHz -> 476.19 ps/cycle)
// accumulate with negligible rounding error. All hardware and software
// components in the reproduction are actors on a single event loop, which
// makes every experiment bit-for-bit reproducible.
package eventsim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Time is a virtual timestamp in picoseconds since simulation start.
type Time int64

// Common durations expressed in picoseconds.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// FromDuration converts a time.Duration into simulator Time.
func FromDuration(d time.Duration) Time {
	return Time(d.Nanoseconds()) * Nanosecond
}

// Duration converts a simulator Time span back into a time.Duration,
// truncating to nanosecond resolution.
func (t Time) Duration() time.Duration {
	return time.Duration(int64(t)/int64(Nanosecond)) * time.Nanosecond
}

// Seconds reports the time span in floating-point seconds.
func (t Time) Seconds() float64 {
	return float64(t) / float64(Second)
}

// Micros reports the time span in floating-point microseconds.
func (t Time) Micros() float64 {
	return float64(t) / float64(Microsecond)
}

// String renders the timestamp at microsecond granularity for diagnostics.
func (t Time) String() string {
	return fmt.Sprintf("%.3fus", t.Micros())
}

// FromSeconds converts floating-point seconds into simulator Time.
func FromSeconds(s float64) Time {
	if math.IsInf(s, 1) || s > float64(math.MaxInt64)/float64(Second) {
		return Time(math.MaxInt64)
	}
	return Time(s * float64(Second))
}

// Sim is a single-threaded discrete-event simulation.
//
// Sim is not safe for concurrent use: all actors run on the event loop
// goroutine, which is exactly what makes runs deterministic. The one
// exception is Post, the external mailbox: any goroutine may Post a
// function, and the driving goroutine executes it at the next safe point
// inside Run. That is how the control plane injects management
// operations into a live system without locking against the data path.
type Sim struct {
	now     Time
	seq     uint64
	events  queue
	stopped bool
	nEvents uint64

	// Idle poll loops park here instead of in events (see PollLoop). The
	// parked queue is merged with events in (at, seq) order when Run
	// picks the next callback, but bound ignores it, so parked loops
	// never hold each other awake. loops lists every poll loop, for
	// unpark; ahead counts the parked loops a fast-forward has charged
	// ticks past the clock, and aheadTo is the latest tick they skipped
	// to; horizon is the running Run's until. epoch changes whenever an
	// event may have changed state: every event counts except a poll
	// tick that found nothing to do.
	parked  queue
	loops   []*PollLoop
	ahead   int
	aheadTo Time
	horizon Time
	epoch   uint64

	// External mailbox (Post). postPending lets Run's inner loop check for
	// posted work with a single atomic load per event, so the data path
	// never takes the mutex unless someone actually posted.
	postMu      sync.Mutex
	posted      []func()
	postScratch []func()
	postPending atomic.Bool
}

// New creates an empty simulation with the clock at zero.
func New() *Sim {
	return &Sim{}
}

// Now reports the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Processed reports the number of events executed so far.
func (s *Sim) Processed() uint64 { return s.nEvents }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// is clamped to "now": the event runs before any later-scheduled work.
//
//dhl:hotpath
func (s *Sim) At(t Time, fn func()) {
	if fn == nil {
		return
	}
	if t < s.now {
		t = s.now
	}
	if s.ahead > 0 && t < s.aheadTo {
		// A fast-forwarded loop has skipped ticks that could see this
		// event. Only an idle body breaking the PollBody contract books
		// work that early; unparking keeps even that exact.
		s.unpark()
	}
	s.seq++
	s.events.push(entry{at: t, seq: s.seq, fn: fn})
}

// After schedules fn to run d picoseconds from now.
func (s *Sim) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.now+d, fn)
}

// Stop makes Run return after the currently executing event completes.
func (s *Sim) Stop() { s.stopped = true }

// Post schedules fn to run on the event-loop goroutine at the next safe
// point inside Run: before the next event executes, at the current
// virtual time. Unlike every other Sim method, Post is safe to call from
// any goroutine — it is the bridge by which external actors (the control
// plane's HTTP handlers, operator CLIs) inject work into a live
// simulation. Posted functions run in post order, may themselves
// schedule events, and must not block. If nothing is driving Run, the
// function waits for the next Run call; callers that need a reply should
// wait with a real-time timeout.
func (s *Sim) Post(fn func()) {
	if fn == nil {
		return
	}
	s.postMu.Lock()
	s.posted = append(s.posted, fn)
	s.postMu.Unlock()
	s.postPending.Store(true)
}

// PostedPending reports whether external work is waiting for the next
// Run safe point. Safe from any goroutine.
func (s *Sim) PostedPending() bool { return s.postPending.Load() }

// drainPosted runs every function waiting in the external mailbox. Only
// the event-loop goroutine calls it (from Run), so posted functions see
// the same single-threaded world as any scheduled event. The swap keeps
// the mutex window to a slice exchange; functions posted while draining
// are picked up by the next check.
func (s *Sim) drainPosted() {
	s.postMu.Lock()
	batch := s.posted
	s.posted = s.postScratch[:0]
	s.postPending.Store(false)
	s.postMu.Unlock()
	for i, fn := range batch {
		batch[i] = nil
		fn()
	}
	s.postScratch = batch
}

// Run executes events in timestamp order until the queue is empty or the
// clock would pass "until". It returns the number of events processed.
//
// Between events (and once on entry) Run drains the external mailbox, so
// functions handed to Post from other goroutines execute here, on the
// driving goroutine, serialized against the actors.
//
// No parked poll loop outlives Run: before each mailbox drain, and when
// Run returns, every parked loop is unparked onto its next tick after
// the current time. Posted functions and the code between Run calls may
// therefore change state freely: the loops see the change at the same
// tick an unparked loop would have.
func (s *Sim) Run(until Time) uint64 {
	s.stopped = false
	s.horizon = until
	var n uint64
	if s.postPending.Load() {
		s.drainPosted()
	}
	for !s.stopped {
		q := s.next()
		if q == nil || (*q)[0].at > until {
			break
		}
		if q == &s.events {
			s.epoch++
		}
		ev := q.pop()
		s.now = ev.at
		ev.fn()
		n++
		s.nEvents++
		if s.postPending.Load() {
			s.unpark()
			s.drainPosted()
		}
	}
	s.unpark()
	// Advance the clock to the horizon even if the queue drained early so
	// that rate computations over [0, until] are well-defined.
	if !s.stopped && s.now < until && until != Time(math.MaxInt64) {
		s.now = until
	}
	return n
}

// next returns the queue holding the earliest pending callback, or nil
// when both are empty.
//
//dhl:hotpath
func (s *Sim) next() *queue {
	switch {
	case len(s.parked) == 0:
		if len(s.events) == 0 {
			return nil
		}
		return &s.events
	case len(s.events) == 0 || s.parked[0].before(&s.events[0]):
		return &s.parked
	default:
		return &s.events
	}
}

// bound is the instant a parked loop must not skip past: the earliest
// pending event, or just past the running Run's horizon when that comes
// first, so no parked loop is left charged ahead of the clock when Run
// returns. math.MaxInt64 means there is nothing to wait for.
func (s *Sim) bound() Time {
	b := Time(math.MaxInt64)
	if s.horizon < b {
		b = s.horizon + 1
	}
	if len(s.events) > 0 && s.events[0].at < b {
		b = s.events[0].at
	}
	return b
}

// parkedAt reports whether a loop with tick period d is parked at t.
func (s *Sim) parkedAt(t, d Time) bool {
	for _, p := range s.loops {
		if p.parked && p.parkAt == t && p.period == d {
			return true
		}
	}
	return false
}

// unpark takes every parked loop back to its first tick after the
// current time and books that tick as an ordinary event, under the seq
// it was parked with. Cold: it runs when Run returns, and when something
// other than an event (a Post drain) is about to change state while
// loops are parked.
func (s *Sim) unpark() {
	if len(s.parked) == 0 {
		return
	}
	for _, p := range s.loops {
		if p.parked {
			p.rewind(s.now)
			p.parked = false
			s.events.push(entry{at: p.parkAt, seq: p.parkSeq, fn: p.step})
		}
	}
	clear(s.parked)
	s.parked = s.parked[:0]
	s.ahead, s.aheadTo = 0, 0
}

// RunAll executes events until the queue is empty.
func (s *Sim) RunAll() uint64 {
	return s.Run(Time(math.MaxInt64))
}

// Pending reports the number of scheduled-but-unexecuted events, a
// parked poll loop's next tick included.
func (s *Sim) Pending() int { return len(s.events) + len(s.parked) }
