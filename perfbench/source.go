package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"github.com/opencloudnext/dhl-go/internal/eth"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/netdev"
)

// ordinalLen is the size of the packet ordinal the IPsec workload writes
// at the start of every UDP payload, so a delivered frame can be matched
// to the plaintext the source generated for it.
const ordinalLen = 8

// alertPatterns are alert-action rules of nf.DefaultSnortRules: a planted
// pattern raises an alert and the packet is still delivered.
var alertPatterns = [][]byte{[]byte("wget http"), []byte("SELECT * FROM"), []byte("union select")}

// sourceConfig parameterizes the seeded traffic source.
type sourceConfig struct {
	Seed           uint64
	FrameSize      int
	OfferedWireBps float64
	Flows          int
	ZipfSkew       float64 // 0: uniform flow choice
	ChurnPerSec    float64
	// PlantEvery > 0 plants one alert pattern in one payload per block of
	// PlantEvery packets, at a seeded position.
	PlantEvery int
	// Ordinals writes each packet's ordinal and a seeded filler into the
	// payload (the IPsec decrypt check needs both).
	Ordinals bool
	// LogSources records each frame's source address for the ACL check.
	LogSources bool
}

// source is an open-loop traffic source outside the system under test:
// independent senders behind the NIC, so a frame is due whether or not
// earlier ones were served. It paces like a software packet generator
// with jitter: each gap is the wire time of one frame at line rate plus a
// seeded uniform draw between half and one and a half times the rest of
// the mean gap, which keeps the mean at the offered rate. (Exponential
// gaps put nids-1500-trough's p99 on a cliff: depending on the seed it
// read about 14.9 or 25.9 us, too bimodal to bound.) Each frame is stamped
// with its due time, and the only way into the system is
// netdev.Port.DeliverRx.
type source struct {
	cfg   sourceConfig
	sim   *eventsim.Sim
	pool  *mbuf.Pool
	port  *netdev.Port
	trace *tracer

	rng      *rand.Rand
	zipf     *rand.Zipf
	flowIDs  []uint64 // live flow slots under churn; nil means slot == id
	nextFlow uint64
	flowKey  uint64

	template   []byte
	minGap     float64 // ps
	jitGap     float64 // ps, mean of the jittered part
	churnEvery eventsim.Time

	due       eventsim.Time
	dueFrac   float64
	stopped   bool
	fireFn    func()
	churnFn   func()
	plantSlot uint64 // ordinal within the current block that gets a pattern

	// Counters, whole run.
	offered    uint64
	allocFails uint64
	planted    uint64

	// srcLog holds the source address of every frame since the last
	// check pause (LogSources only).
	srcLog []uint32
}

func newSource(sim *eventsim.Sim, pool *mbuf.Pool, port *netdev.Port, cfg sourceConfig) (*source, error) {
	if cfg.Flows < 1 {
		return nil, fmt.Errorf("source: need at least one flow, got %d", cfg.Flows)
	}
	s := &source{
		cfg:      cfg,
		sim:      sim,
		pool:     pool,
		port:     port,
		rng:      rand.New(rand.NewSource(int64(mix64(cfg.Seed ^ 0x50C0)))),
		flowKey:  mix64(cfg.Seed^0xF10E) | 1,
		template: make([]byte, cfg.FrameSize),
	}
	if cfg.ZipfSkew > 1 {
		s.zipf = rand.NewZipf(s.rng, cfg.ZipfSkew, 1, uint64(cfg.Flows-1))
		if s.zipf == nil {
			return nil, fmt.Errorf("source: bad Zipf skew %g", cfg.ZipfSkew)
		}
	}
	if cfg.ChurnPerSec > 0 {
		s.flowIDs = make([]uint64, cfg.Flows)
		for i := range s.flowIDs {
			s.flowIDs[i] = uint64(i)
		}
		s.nextFlow = uint64(cfg.Flows)
		s.churnEvery = eventsim.Time(1e12 / cfg.ChurnPerSec)
	}
	wire := float64(cfg.FrameSize+eth.WireOverhead) * 8
	s.minGap = wire / port.RateBps() * 1e12
	mean := wire / cfg.OfferedWireBps * 1e12
	if mean < s.minGap {
		return nil, fmt.Errorf("source: offered %.3g bps exceeds the %.3g bps port", cfg.OfferedWireBps, port.RateBps())
	}
	s.jitGap = mean - s.minGap
	payload := cfg.FrameSize - eth.EtherLen - eth.IPv4Len - eth.UDPLen
	if payload < ordinalLen {
		return nil, fmt.Errorf("source: %d B frames leave no room for a payload", cfg.FrameSize)
	}
	if _, err := eth.Build(s.template, eth.BuildConfig{
		SrcMAC: eth.MAC{0x02, 0, 0, 0, 0, 1}, DstMAC: eth.MAC{0x02, 0, 0, 0, 0, 2},
		SrcIP: eth.IPv4{10, 0, 0, 1}, DstIP: eth.IPv4{192, 168, 0, 1},
		SrcPort: 1024, DstPort: 80, Proto: eth.ProtoUDP,
		Payload: make([]byte, payload),
	}); err != nil {
		return nil, err
	}
	if cfg.LogSources {
		s.srcLog = make([]uint32, 0, checkLogCap)
	}
	s.fireFn = s.fire
	s.churnFn = s.churn
	return s, nil
}

// start makes the first frame due now.
func (s *source) start() {
	s.due = s.sim.Now()
	s.plantSlot = s.blockSlot(0)
	s.sim.At(s.due, s.fireFn)
	if s.churnEvery > 0 {
		s.sim.After(s.churnEvery, s.churnFn)
	}
}

func (s *source) stop() { s.stopped = true }

// flowTuple maps a flow id to its source address and port through a
// seeded bijection on the 40-bit flow space, so the seed decides which
// addresses the Zipf head lands on.
func (s *source) flowTuple(id uint64) (eth.IPv4, uint16) {
	const mask = 1<<40 - 1
	x := (id ^ s.flowKey) & mask
	x = (x * 0x9E3779B97F5) & mask // odd: a bijection mod 2^40
	x ^= x >> 19
	return netdev.FlowSrc(x)
}

func (s *source) pickFlow() uint64 {
	var slot uint64
	if s.zipf != nil {
		slot = s.zipf.Uint64()
	} else {
		slot = uint64(s.rng.Int63n(int64(s.cfg.Flows)))
	}
	if s.flowIDs != nil {
		return s.flowIDs[slot]
	}
	return slot
}

// blockSlot is the seeded ordinal offset that carries a pattern in block b.
func (s *source) blockSlot(b uint64) uint64 {
	if s.cfg.PlantEvery <= 0 {
		return ^uint64(0)
	}
	return mix64(s.cfg.Seed^(b*0x9E3779B97F4A7C15)) % uint64(s.cfg.PlantEvery)
}

// fire emits the frame due now and schedules the next one.
func (s *source) fire() {
	if s.stopped {
		return
	}
	sp := s.trace.begin(spSource)
	s.emit()
	s.trace.end(sp)
	gap := s.minGap + (0.5+s.rng.Float64())*s.jitGap + s.dueFrac
	step := eventsim.Time(gap)
	s.dueFrac = gap - float64(step)
	s.due += step
	s.sim.At(s.due, s.fireFn)
}

func (s *source) emit() {
	ord := s.offered
	s.offered++
	sp := s.trace.begin(spAlloc)
	m, err := s.pool.Alloc()
	s.trace.end(sp)
	if err != nil {
		s.allocFails++
		return
	}
	if err := m.AppendBytes(s.template); err != nil {
		s.allocFails++
		_ = s.pool.Free(m)
		return
	}
	frame, _ := eth.Parse(m.Data())
	flow := s.pickFlow()
	ip, port := s.flowTuple(flow)
	frame.SetSrcIP(ip)
	binary.BigEndian.PutUint16(frame.L4()[0:2], port)
	frame.SetIPChecksum(frame.ComputeIPChecksum())
	if s.cfg.LogSources {
		s.srcLog = append(s.srcLog, ip.Uint32())
	}
	payload := frame.Payload()
	if s.cfg.Ordinals {
		fillPayload(payload, s.cfg.Seed, ord)
	}
	if s.cfg.PlantEvery > 0 {
		every := uint64(s.cfg.PlantEvery)
		if ord%every == s.plantSlot {
			s.plant(payload, ord/every)
		}
		if ord%every == every-1 {
			s.plantSlot = s.blockSlot(ord/every + 1)
		}
	}
	m.Port = uint16(s.port.ID())
	m.RxTimestamp = int64(s.due)
	q := int(mix64(uint64(ip.Uint32())<<16|uint64(port)) % uint64(s.port.Queues()))
	sp = s.trace.begin(spDeliver)
	s.port.DeliverRx(q, m, s.pool)
	s.trace.end(sp)
}

// plant writes one alert pattern into payload at a seeded offset.
func (s *source) plant(payload []byte, block uint64) {
	r := mix64(s.cfg.Seed ^ block<<1 ^ 0xA1E7)
	p := alertPatterns[r%uint64(len(alertPatterns))]
	if len(payload) < len(p) {
		return
	}
	off := int((r >> 8) % uint64(len(payload)-len(p)+1))
	copy(payload[off:], p)
	s.planted++
}

// churn retires a seeded random live flow and births a fresh one in its
// slot.
func (s *source) churn() {
	if s.stopped {
		return
	}
	slot := s.rng.Int63n(int64(len(s.flowIDs)))
	s.flowIDs[slot] = s.nextFlow
	s.nextFlow++
	s.sim.After(s.churnEvery, s.churnFn)
}

// fillPayload writes the ordinal and a seeded filler derived from it.
func fillPayload(payload []byte, seed, ord uint64) {
	binary.BigEndian.PutUint64(payload[:ordinalLen], ord)
	x := mix64(seed ^ ord)
	for i := ordinalLen; i < len(payload); i++ {
		if (i-ordinalLen)%8 == 0 && i > ordinalLen {
			x = mix64(x)
		}
		payload[i] = byte(x >> (8 * ((i - ordinalLen) % 8)))
	}
}

// mix64 is the SplitMix64 finalizer.
func mix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
