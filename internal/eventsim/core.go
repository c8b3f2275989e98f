package eventsim

import (
	"fmt"
	"math"
)

// Core models one simulated CPU hardware thread.
//
// Work is accounted in cycles at the core's clock frequency. A core is a
// serial resource: tasks queued on it execute back-to-back, mirroring a
// DPDK-style run-to-completion poll-mode core.
type Core struct {
	sim    *Sim
	id     int
	node   int // NUMA node
	hz     float64
	freeAt Time

	// busy and idle split the time the core has been occupied: work the
	// callers charged, and empty polls (a PollLoop iteration whose body
	// reported no work). loops counts the poll loops bound to the core;
	// only a core with a single loop lets it park.
	busy  Time
	idle  Time
	loops int
}

// NewCore creates a simulated core on NUMA node "node" clocked at hz Hz.
func NewCore(sim *Sim, id, node int, hz float64) *Core {
	return &Core{sim: sim, id: id, node: node, hz: hz}
}

// ID reports the core's identifier.
func (c *Core) ID() int { return c.id }

// Node reports the core's NUMA node.
func (c *Core) Node() int { return c.node }

// Hz reports the core's clock frequency.
func (c *Core) Hz() float64 { return c.hz }

// CycleTime converts a cycle count into virtual time at this core's clock.
func (c *Core) CycleTime(cycles float64) Time {
	if cycles <= 0 {
		return 0
	}
	return Time(cycles * 1e12 / c.hz)
}

// Cycles converts a virtual-time span into cycles at this core's clock.
func (c *Core) Cycles(d Time) float64 {
	return float64(d) * c.hz / 1e12
}

// FreeAt reports when the core finishes all currently queued work.
func (c *Core) FreeAt() Time { return c.freeAt }

// Utilization reports the fraction of [0, horizon] this core spent
// occupied, empty polls included: a poll-mode core is always 100% busy
// to the OS, and IdleTime says how much of that was spent finding
// nothing to do.
func (c *Core) Utilization(horizon Time) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(c.busy+c.idle) / float64(horizon)
}

// IdleTime reports the time the core's poll loops spent on empty polls.
func (c *Core) IdleTime() Time { return c.idle }

// IdlePollRatio reports the share of the core's occupied time spent on
// empty polls: the busy-versus-idle-poll split DPDK operators watch.
func (c *Core) IdlePollRatio() float64 {
	if c.busy+c.idle == 0 {
		return 0
	}
	return float64(c.idle) / float64(c.busy+c.idle)
}

// Exec occupies the core for "cycles" cycles starting no earlier than now,
// then invokes done (which may be nil). It returns the completion time.
func (c *Core) Exec(cycles float64, done func()) Time {
	end := c.occupy(c.CycleTime(cycles), false)
	if done != nil {
		c.sim.At(end, done)
	}
	return end
}

// occupy books d of core time starting no earlier than now, charged as
// an empty poll when idle is set, and returns the completion time.
//
//dhl:hotpath
func (c *Core) occupy(d Time, idle bool) Time {
	start := c.sim.now
	if c.freeAt > start {
		start = c.freeAt
	}
	c.freeAt = start + d
	if idle {
		c.idle += d
	} else {
		c.busy += d
	}
	return c.freeAt
}

// String identifies the core for diagnostics.
func (c *Core) String() string {
	return fmt.Sprintf("core%d(node%d @%.2fGHz)", c.id, c.node, c.hz/1e9)
}

// PollBody is one poll-loop iteration. It returns the cycles the iteration
// consumed and an optional commit callback that runs when the core has
// actually spent those cycles — downstream hand-offs (ring enqueues, NIC
// TX, DMA posts) belong in commit so that pipeline latency includes the
// stage's processing time. Inputs may be consumed at iteration start
// (matching when rx_burst/ring dequeue returns).
//
// An iteration that returns no cycles and no commit is idle, and an idle
// loop parks (see PollLoop): the iterations it skips never call the
// body. The body must therefore keep the idle-body contract:
//
//   - An idle iteration changes no state another actor can see, and
//     leaves the body's own state as it found it, so the next poll
//     would be idle too unless something else changed.
//   - Whether an iteration is idle must not depend on the clock alone.
//     Time-based work (a flush deadline, a retry back-off) must be backed
//     by a scheduled event — an At callback or a Timer — at the instant
//     it falls due; the event is what wakes a parked loop.
//
// State changes made by events, including Post functions, are always
// seen at the same tick an unparked loop would have seen them.
type PollBody func() (cycles float64, commit func())

// PollLoop runs a poll-mode body on a core forever (until the simulation
// horizon). If the body reports 0 cycles the loop charges idleCycles
// instead, modelling the cost of a wasted poll. This mirrors a DPDK
// while(1) { rx_burst(); ... } core.
//
// An idle loop parks instead of booking one event per empty poll. Its
// ticks fall on the lattice start + k·period (period is idleCycles of
// core time), and in a discrete-event simulation state changes only
// inside events, so an idle body gives the same answer at every tick
// until some event runs. The parked loop's next tick waits in the
// simulator's parked queue under the (time, seq) key it would have been
// booked with. When that tick comes up:
//
//   - If an event may have changed state since the loop parked, the tick
//     runs for real.
//   - Otherwise every tick whose successor still falls before the next
//     pending event (or past the running Run's horizon) is charged
//     analytically — Iterations, core idle time and FreeAt come out
//     exactly as if it had run — and the loop re-parks on the last of
//     them, the wake tick. The wake tick runs the body and books the
//     first tick that can see the event as an ordinary event, at the
//     same instant and in the same order among equal-time events as an
//     unparked loop would have.
//
// Run unparks every loop onto its next tick before a Post drain and
// when it returns, so code outside events may change state freely.
type PollLoop struct {
	sim        *Sim
	core       *Core
	body       PollBody
	idleCycles float64
	period     Time // core time of one empty poll
	stopped    bool
	iterations uint64

	// step and pendingCommit are bound once at construction so iterate —
	// which runs once per poll on every transfer core — schedules the next
	// turn without materializing a fresh closure each iteration.
	step          func()
	pendingCommit func()

	// Parking state, valid while parked: parkAt and parkSeq key the
	// loop's next tick in the parked queue, parkEpoch is the simulator's
	// epoch when the loop parked, wakeFn is the bound handler, and ahead
	// is the number of ticks a fast-forward charged past the clock.
	parked    bool
	parkAt    Time
	parkSeq   uint64
	parkEpoch uint64
	ahead     Time
	wakeFn    func()
}

// NewPollLoop creates (but does not start) a poll loop on core.
func NewPollLoop(sim *Sim, core *Core, idleCycles float64, body PollBody) *PollLoop {
	p := &PollLoop{
		sim: sim, core: core, body: body, idleCycles: idleCycles,
		period: core.CycleTime(idleCycles),
	}
	p.step = p.finish
	p.wakeFn = p.wake
	sim.loops = append(sim.loops, p)
	core.loops++
	return p
}

// Start schedules the first iteration at the current time.
func (p *PollLoop) Start() {
	p.sim.After(0, p.iterate)
}

// Stop halts the loop after the current iteration.
func (p *PollLoop) Stop() { p.stopped = true }

// Iterations reports how many poll iterations have run.
func (p *PollLoop) Iterations() uint64 { return p.iterations }

func (p *PollLoop) iterate() { p.poll(true) }

// poll runs one iteration. An idle one parks the loop when mayPark is
// set (and the core is the loop's alone); otherwise, and after any work,
// the next tick is booked as an ordinary event.
//
//dhl:hotpath
func (p *PollLoop) poll(mayPark bool) {
	if p.stopped {
		return
	}
	p.iterations++
	cycles, commit := p.body()
	if cycles > 0 || commit != nil {
		p.sim.epoch++
	}
	if cycles > 0 {
		p.pendingCommit = commit
		p.core.Exec(cycles, p.step)
		return
	}
	next := p.core.occupy(p.period, true)
	if mayPark && commit == nil && p.period > 0 && p.core.loops == 1 {
		p.park(next)
		return
	}
	p.pendingCommit = commit
	p.sim.At(next, p.step)
}

// park books the loop's next tick in the parked queue under the seq an
// ordinary booking would have taken.
//
//dhl:hotpath
func (p *PollLoop) park(next Time) {
	s := p.sim
	s.seq++
	p.parked, p.parkAt, p.parkSeq, p.parkEpoch = true, next, s.seq, s.epoch
	s.parked.push(entry{at: next, seq: s.seq, fn: p.wakeFn})
}

// wake handles the parked tick at parkAt. If an event may have changed
// state since the loop parked, the tick runs for real. Otherwise every
// tick whose successor is still before the next pending event would be
// idle too: they are charged in one step and the loop re-parks at the
// last tick before the event (the wake tick). The wake tick runs the
// body and books its successor, the first tick that can see the event,
// as an ordinary event: that tick must run even if the event it waited
// for has already fired.
//
//dhl:hotpath
func (p *PollLoop) wake() {
	s := p.sim
	p.parked = false
	if p.ahead > 0 {
		p.ahead = 0
		if s.ahead--; s.ahead == 0 {
			s.aheadTo = 0
		}
	}
	if p.stopped {
		return
	}
	if s.epoch != p.parkEpoch {
		p.poll(true)
		return
	}
	if b := s.bound(); b != Time(math.MaxInt64) && p.parkAt+p.period < b {
		skip := (b - p.parkAt - 1) / p.period
		if s.parkedAt(p.parkAt+p.period, p.period) {
			// A loop on the same tick lattice already parked on the next
			// tick this round: step with it, so both draw their seqs in
			// the same round and keep their relative order.
			skip = 1
		}
		p.iterations += uint64(skip)
		p.core.idle += skip * p.period
		p.parkAt += skip * p.period
		p.core.freeAt = p.parkAt
		p.ahead = skip
		s.ahead++
		s.aheadTo = max(s.aheadTo, p.parkAt)
		// The wake tick takes a seq drawn now, when this tick would have
		// booked its successor, so loops on the same tick lattice keep
		// the order an unparked run gives them whether they skip or not.
		s.seq++
		p.parked, p.parkSeq = true, s.seq
		s.parked.push(entry{at: p.parkAt, seq: p.parkSeq, fn: p.wakeFn})
		return
	}
	p.poll(false)
}

// rewind takes a fast-forwarded loop back to its first tick after now,
// uncharging the ticks it had skipped past the clock.
func (p *PollLoop) rewind(now Time) {
	if p.ahead == 0 || p.parkAt <= now {
		p.ahead = 0
		return
	}
	back := min((p.parkAt-now-1)/p.period, p.ahead)
	p.iterations -= uint64(back)
	p.core.idle -= back * p.period
	p.parkAt -= back * p.period
	p.core.freeAt = p.parkAt
	p.ahead = 0
}

// finish runs the iteration's commit callback (after the core has spent
// its cycles) and schedules the next poll.
func (p *PollLoop) finish() {
	if c := p.pendingCommit; c != nil {
		p.pendingCommit = nil
		c()
	} else {
		// The tick itself changes nothing; only a non-idle body does.
		p.sim.epoch--
	}
	p.iterate()
}
