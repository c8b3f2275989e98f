package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// Go runtime metrics the host meter reads; see runtime/metrics.
var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/live:bytes",
}

// hostReading is one point-in-time reading of the process's host cost.
type hostReading struct {
	wall     time.Time
	cpu      time.Duration // user + system, all threads
	allocs   uint64
	bytes    uint64
	gcCycles uint64
	gcCPU    float64
	allCPU   float64
	heapLive uint64
}

// hostMeter accumulates host cost over the timed segments of a window.
// Pausing excludes the benchmark's own bookkeeping (output checks, trace
// folding, layer snapshots) from every total.
type hostMeter struct {
	samples []metrics.Sample
	on      bool
	cur     hostReading

	wall     time.Duration
	cpu      time.Duration
	allocs   uint64
	bytes    uint64
	gcCycles uint64
	gcCPU    float64
	allCPU   float64
	heapLive uint64 // at the last pause

	// slices are the totals at each cut, for per-slice medians.
	slices []hostSlice
	ref    *speedRef
}

// hostSlice is the timed wall and CPU time up to a cut, the packets
// offered by then, and how long the reference kernel took right after.
type hostSlice struct {
	wall, cpu time.Duration
	pkts      uint64
	ref       time.Duration
}

func newHostMeter(ref *speedRef) *hostMeter {
	m := &hostMeter{samples: make([]metrics.Sample, len(runtimeMetricNames)), ref: ref}
	for i, n := range runtimeMetricNames {
		m.samples[i].Name = n
	}
	return m
}

func (m *hostMeter) read() hostReading {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(m.samples)
	return hostReading{
		wall:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:   sampleUint(m.samples[0]),
		bytes:    sampleUint(m.samples[1]),
		gcCycles: sampleUint(m.samples[2]),
		gcCPU:    sampleFloat(m.samples[3]),
		allCPU:   sampleFloat(m.samples[4]),
		heapLive: sampleUint(m.samples[5]),
	}
}

func sampleUint(s metrics.Sample) uint64 {
	if s.Value.Kind() == metrics.KindUint64 {
		return s.Value.Uint64()
	}
	return 0
}

func sampleFloat(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	return 0
}

func (m *hostMeter) resume() {
	if m == nil {
		return
	}
	m.cur = m.read()
	m.on = true
}

func (m *hostMeter) pause() {
	if m == nil || !m.on {
		return
	}
	r := m.read()
	m.on = false
	m.wall += r.wall.Sub(m.cur.wall)
	m.cpu += r.cpu - m.cur.cpu
	m.allocs += r.allocs - m.cur.allocs
	m.bytes += r.bytes - m.cur.bytes
	m.gcCycles += r.gcCycles - m.cur.gcCycles
	m.gcCPU += r.gcCPU - m.cur.gcCPU
	m.allCPU += r.allCPU - m.cur.allCPU
	m.heapLive = r.heapLive
}

// cut closes a slice at the current totals and times the reference
// kernel. Call it while paused.
func (m *hostMeter) cut(pkts uint64) {
	s := hostSlice{wall: m.wall, cpu: m.cpu, pkts: pkts}
	if m.ref != nil {
		s.ref = m.ref.run()
	}
	m.slices = append(m.slices, s)
}

// sliceCost is one slice's wall and CPU nanoseconds per packet, raw and
// scaled to the reference speed by the kernel timed right after it (or
// raw again when the meter has no kernel).
type sliceCost struct {
	wall, cpu             float64
	scaledWall, scaledCPU float64
}

// perSlice is the cost of each slice. Interference from other tenants of
// the machine comes in bursts shorter than a run and drifts between
// runs, so the reported figures are medians over slices of the scaled
// costs.
func (m *hostMeter) perSlice() []sliceCost {
	var out []sliceCost
	prev := hostSlice{}
	for _, s := range m.slices {
		if n := s.pkts - prev.pkts; n > 0 {
			c := sliceCost{
				wall: float64((s.wall - prev.wall).Nanoseconds()) / float64(n),
				cpu:  float64((s.cpu - prev.cpu).Nanoseconds()) / float64(n),
			}
			c.scaledWall, c.scaledCPU = c.wall, c.cpu
			if s.ref > 0 {
				c.scaledWall, c.scaledCPU = scale(c.wall, s.ref), scale(c.cpu, s.ref)
			}
			out = append(out, c)
		}
		prev = s
	}
	return out
}

// elapsed is the timed wall time so far, including a running segment.
func (m *hostMeter) elapsed() time.Duration {
	if m.on {
		return m.wall + time.Since(m.cur.wall)
	}
	return m.wall
}

// peakRSSBytes is the process's peak resident set so far.
func peakRSSBytes() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) * 1024                // kilobytes on Linux
}
