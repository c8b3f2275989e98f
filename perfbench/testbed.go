package main

import (
	"fmt"
	"sort"

	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/eth"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/flowtab"
	"github.com/opencloudnext/dhl-go/internal/fpga"
	"github.com/opencloudnext/dhl-go/internal/hwfunc"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/netdev"
	"github.com/opencloudnext/dhl-go/internal/nf"
	"github.com/opencloudnext/dhl-go/internal/pcie"
	"github.com/opencloudnext/dhl-go/internal/perf"
	"github.com/opencloudnext/dhl-go/internal/ring"
	"github.com/opencloudnext/dhl-go/internal/telemetry"
	"github.com/opencloudnext/dhl-go/internal/tuner"
)

// prSettle is how long the DHL testbeds run before traffic so partial
// reconfiguration of the accelerator finishes (as in the Figure 6 rig).
const prSettle = 60 * eventsim.Millisecond

// poolCapacity is the testbed mbuf pool size (the Figure 6 rig's).
const poolCapacity = 16384

// dhlApp is the shape both DHL-version NFs share.
type dhlApp interface {
	PreProcess(*mbuf.Mbuf) (nf.Verdict, float64)
	PostProcess(*mbuf.Mbuf) (nf.Verdict, float64)
}

// counters are the driver's own tallies, kept in both traced and
// untraced runs.
type counters struct {
	polls, idlePolls uint64
	verdictDrops     uint64
	ibqLoss          uint64 // refused by SendPackets and freed
	ringLoss         uint64 // refused by a pipeline ring and freed
	delivered        uint64 // accepted by the TX port
}

// testbed is the Figure 6 rig assembled from the layers' public
// constructors, with the Table IV core assignment: for DHL, one I/O core
// on RX + shallow processing, one on OBQ + post-processing + TX, and the
// runtime's TX/RX transfer cores; for the CPU-only firewall, one RX core,
// two workers and one TX core around rings.
type testbed struct {
	w    *workload
	sim  *eventsim.Sim
	pool *mbuf.Pool
	rx   *netdev.Port
	tx   *netdev.Port
	tr   *tracer
	src  *source

	nextCore int

	// DHL workloads.
	rt    *core.Runtime
	dev   *fpga.Device
	dma   *pcie.Engine
	tel   *telemetry.Registry
	tun   *tuner.Tuner
	app   dhlApp
	nfID  core.NFID
	nids  *nf.NIDSDHL
	accID core.AccID

	// CPU-only firewall.
	ffw      *nf.FlowFirewall
	workerIn *ring.Ring[*mbuf.Mbuf]
	txRing   *ring.Ring[*mbuf.Mbuf]
	tickFn   func()
	ticking  bool

	cnt      counters
	lat      *latSamples
	winStart eventsim.Time
	winEnd   eventsim.Time
	inUseMax int
	dueBuf   []int64
	chk      *checker

	setupEvents uint64
}

// newTestbed builds the workload's testbed up to the instant the first
// packet is due. tr, when non-nil, is wired into every call site.
func newTestbed(w *workload, seed uint64, tr *tracer) (*testbed, error) {
	sim := eventsim.New()
	pool, err := mbuf.NewPool(mbuf.PoolConfig{Name: "bench", Capacity: poolCapacity})
	if err != nil {
		return nil, err
	}
	pps := w.offeredWireBps / (float64(w.frameSize+eth.WireOverhead) * 8)
	tb := &testbed{w: w, sim: sim, pool: pool, tr: tr, dueBuf: make([]int64, 0, 64),
		lat: newLatSamples(int(pps * w.simWindow.Seconds()))}
	if tb.rx, err = netdev.NewPort(sim, netdev.PortConfig{ID: 0, RateBps: perf.NIC40GBps, RxQueues: 2, RxQueueDepth: 512}); err != nil {
		return nil, err
	}
	if tb.tx, err = netdev.NewPort(sim, netdev.PortConfig{ID: 1, RateBps: perf.NIC40GBps}); err != nil {
		return nil, err
	}
	tb.chk = newChecker(w, seed)
	switch w.kind {
	case kindIPsec, kindNIDS:
		err = tb.buildDHL()
	case kindFirewall:
		err = tb.buildFirewall()
	default:
		err = fmt.Errorf("unknown workload kind %d", w.kind)
	}
	if err != nil {
		return nil, err
	}
	tb.src, err = newSource(sim, pool, tb.rx, sourceConfig{
		Seed:           seed,
		FrameSize:      w.frameSize,
		OfferedWireBps: w.offeredWireBps,
		Flows:          w.flows,
		ZipfSkew:       w.zipfSkew,
		ChurnPerSec:    w.churnPerSec,
		PlantEvery:     w.plantEvery,
		Ordinals:       w.kind == kindIPsec,
		LogSources:     w.kind == kindFirewall,
	})
	if err != nil {
		return nil, err
	}
	tb.src.trace = tr
	tb.setupEvents = sim.Processed()
	return tb, nil
}

func (tb *testbed) core() *eventsim.Core {
	c := eventsim.NewCore(tb.sim, tb.nextCore, 0, perf.TestbedCoreHz)
	tb.nextCore++
	return c
}

// tracedModule times every ProcessBatch of a hardware function.
type tracedModule struct {
	inner fpga.Module
	tr    *tracer
	name  spanName
}

func (m *tracedModule) ProcessBatch(dst, in []byte) ([]byte, error) {
	sp := m.tr.begin(m.name)
	out, err := m.inner.ProcessBatch(dst, in)
	m.tr.end(sp)
	return out, err
}

func (m *tracedModule) Configure(params []byte) error { return m.inner.Configure(params) }

func (tb *testbed) buildDHL() error {
	w := tb.w
	if w.autotune {
		// The tuner reads the telemetry span ring, so arming it arms
		// telemetry in the runtime, the DMA engine and the Dispatcher.
		tb.tel = telemetry.New(1024)
	}
	var err error
	if tb.dev, err = fpga.NewDevice(tb.sim, fpga.Config{ID: 0, Node: 0, Telemetry: tb.tel}); err != nil {
		return err
	}
	tb.dma = pcie.NewEngine(tb.sim, pcie.Config{Telemetry: tb.tel})
	tb.rt, err = core.NewRuntime(core.Config{
		Sim:       tb.sim,
		FPGAs:     []core.FPGAAttachment{{Device: tb.dev, DMA: tb.dma}},
		Telemetry: tb.tel,
	})
	if err != nil {
		return err
	}
	specs := hwfunc.Specs()
	names := make([]string, 0, len(specs))
	for n := range specs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		spec := specs[n]
		if tb.tr != nil {
			inner, tr, name := spec.New, tb.tr, spIPsecHW
			if n == hwfunc.PatternMatchingName {
				name = spPatternHW
			}
			spec.New = func() fpga.Module { return &tracedModule{inner: inner(), tr: tr, name: name} }
		}
		if err := tb.rt.RegisterModule(spec); err != nil {
			return err
		}
	}
	if err := tb.rt.AttachCores(0, tb.core(), tb.core(), tb.pool); err != nil {
		return err
	}
	switch w.kind {
	case kindIPsec:
		sadb := nf.NewSADB()
		if err := sadb.AddDefaultSA(); err != nil {
			return err
		}
		gw, err := nf.NewIPsecGatewayDHL(tb.rt, sadb, "ipsec-gw", 0)
		if err != nil {
			return err
		}
		tb.app, tb.nfID, tb.accID = gw, gw.NFID, gw.AccID
	case kindNIDS:
		rules, err := nf.NewRuleSet(nf.DefaultSnortRules())
		if err != nil {
			return err
		}
		ids, err := nf.NewNIDSDHL(tb.rt, rules, "nids", 0)
		if err != nil {
			return err
		}
		tb.app, tb.nfID, tb.accID, tb.nids = ids, ids.NFID, ids.AccID, ids
	}
	obq, err := tb.rt.PrivateOBQ(tb.nfID)
	if err != nil {
		return err
	}
	in := &ingressLoop{tb: tb, rxBuf: make([]*mbuf.Mbuf, 64), send: make([]*mbuf.Mbuf, 0, 64)}
	in.commitFn = in.commit
	tb.startLoop(spIngress, tb.rxPending, in.body)
	out := &egressLoop{tb: tb, obqBuf: make([]*mbuf.Mbuf, 32), txBuf: make([]*mbuf.Mbuf, 0, 32)}
	out.commitFn = out.commit
	tb.startLoop(spEgress, func() bool { return obq.Len() > 0 }, out.body)

	tb.sim.Run(tb.sim.Now() + prSettle)
	if info, err := tb.rt.AccInfoFor(tb.accID); err != nil || !info.Ready {
		return fmt.Errorf("accelerator %d not ready after %v settle (err %v)", tb.accID, prSettle, err)
	}
	if w.autotune {
		if tb.tun, err = tuner.New(tb.sim, tb.rt, tb.tel, tuner.Config{}); err != nil {
			return err
		}
		if err := tb.tun.Enable(); err != nil {
			return err
		}
	}
	return nil
}

// quietPoll runs one poll-loop iteration. While tracing, an iteration
// whose input queues are empty runs with recording off: an idle poll is
// counted, not timed, and its time stays with the event loop.
func (tb *testbed) quietPoll(n spanName, pending func() bool, poll eventsim.PollBody) (float64, func()) {
	if tb.tr == nil || !tb.tr.on || pending() {
		return poll()
	}
	tb.tr.idle[n]++
	tb.tr.on = false
	cycles, commit := poll()
	tb.tr.on = true
	return cycles, commit
}

// startLoop starts a poll loop on the next core whose idle iterations
// are not traced.
func (tb *testbed) startLoop(n spanName, pending func() bool, poll eventsim.PollBody) {
	eventsim.NewPollLoop(tb.sim, tb.core(), perf.PollIdleCycles, func() (float64, func()) {
		return tb.quietPoll(n, pending, poll)
	}).Start()
}

// rxPending reports whether an RX queue holds frames.
func (tb *testbed) rxPending() bool {
	for q := 0; q < tb.rx.Queues(); q++ {
		if tb.rx.RxQueueLen(q) > 0 {
			return true
		}
	}
	return false
}

// ingressLoop is the DHL RX core: rx_burst, shallow processing, then
// DHL_send_packets once the core has spent the cycles.
type ingressLoop struct {
	tb       *testbed
	rxBuf    []*mbuf.Mbuf
	send     []*mbuf.Mbuf
	commitFn func()
}

func (l *ingressLoop) body() (float64, func()) {
	tb := l.tb
	sp := tb.tr.begin(spIngress)
	tb.cnt.polls++
	got := tb.rxBurst(l.rxBuf)
	if got == 0 {
		tb.cnt.idlePolls++
		tb.tr.end(sp)
		return 0, nil
	}
	cycles := 0.0
	l.send = l.send[:0]
	for _, m := range l.rxBuf[:got] {
		ps := tb.tr.begin(spPre)
		verdict, c := tb.app.PreProcess(m)
		tb.tr.end(ps)
		cycles += perf.IORxCycles + c
		if verdict != nf.VerdictForward {
			tb.cnt.verdictDrops++
			_ = tb.pool.Free(m)
			continue
		}
		l.send = append(l.send, m)
	}
	tb.tr.end(sp)
	return cycles, l.commitFn
}

func (l *ingressLoop) commit() {
	tb := l.tb
	sp := tb.tr.begin(spSend)
	acc, err := tb.rt.SendPackets(tb.nfID, l.send)
	tb.tr.end(sp)
	if err != nil {
		acc = 0
	}
	for _, m := range l.send[acc:] {
		tb.cnt.ibqLoss++
		_ = tb.pool.Free(m)
	}
}

// egressLoop is the DHL TX core: DHL_receive_packets, post-processing,
// then tx_burst once the core has spent the cycles.
type egressLoop struct {
	tb       *testbed
	obqBuf   []*mbuf.Mbuf
	txBuf    []*mbuf.Mbuf
	commitFn func()
}

func (l *egressLoop) body() (float64, func()) {
	tb := l.tb
	sp := tb.tr.begin(spEgress)
	tb.cnt.polls++
	rs := tb.tr.begin(spRecv)
	n, err := tb.rt.ReceivePackets(tb.nfID, l.obqBuf)
	if err != nil || n == 0 {
		tb.tr.end(rs)
		tb.cnt.idlePolls++
		tb.tr.end(sp)
		return 0, nil
	}
	tb.tr.end(rs)
	cycles := 0.0
	l.txBuf = l.txBuf[:0]
	for _, m := range l.obqBuf[:n] {
		ps := tb.tr.begin(spPost)
		verdict, c := tb.app.PostProcess(m)
		tb.tr.end(ps)
		cycles += perf.OBQPollCycles + c + perf.IOTxCycles
		if verdict != nf.VerdictForward {
			tb.cnt.verdictDrops++
			_ = tb.pool.Free(m)
			continue
		}
		l.txBuf = append(l.txBuf, m)
	}
	tb.tr.end(sp)
	return cycles, l.commitFn
}

func (l *egressLoop) commit() { l.tb.transmit(l.txBuf) }

// rxBurst polls both RX queues, 32 frames each at most.
func (tb *testbed) rxBurst(buf []*mbuf.Mbuf) int {
	got := 0
	for q := 0; q < tb.rx.Queues() && got+32 <= len(buf); q++ {
		if tb.rx.RxQueueLen(q) == 0 {
			got += tb.rx.RxBurst(q, buf[got:got+32]) // idle: not timed
			continue
		}
		rs := tb.tr.begin(spRx)
		got += tb.rx.RxBurst(q, buf[got:got+32])
		tb.tr.end(rs)
	}
	return got
}

// transmit hands a burst to the TX port. Latency runs from each frame's
// due time to the moment the port accepts it; the port frees the mbufs,
// so due times and check copies are taken first, and the frames the port
// refused (always a suffix of the burst) are rolled back.
func (tb *testbed) transmit(pkts []*mbuf.Mbuf) {
	if len(pkts) == 0 {
		return
	}
	now := tb.sim.Now()
	tb.dueBuf = tb.dueBuf[:0]
	for _, m := range pkts {
		tb.dueBuf = append(tb.dueBuf, m.RxTimestamp)
	}
	var mark int
	if tb.chk.frames != nil {
		sp := tb.tr.begin(spCheck)
		mark = tb.chk.recordFrames(pkts)
		tb.tr.end(sp)
	}
	inWindow := now >= tb.winStart && now < tb.winEnd
	if inWindow {
		// Sampled while this burst still holds its mbufs.
		tb.inUseMax = max(tb.inUseMax, tb.pool.InUse())
	}
	sp := tb.tr.begin(spTx)
	acc := tb.tx.TxBurst(pkts, tb.pool)
	tb.tr.end(sp)
	if tb.chk.frames != nil && acc < len(pkts) {
		tb.chk.rollback(mark, acc)
	}
	tb.cnt.delivered += uint64(acc)
	if inWindow {
		for _, due := range tb.dueBuf[:acc] {
			tb.lat.add(int64(now) - due)
		}
	}
}

// --- CPU-only flow firewall ------------------------------------------------

// fwRules is the ACL behind the flow cache: first match wins, default
// allow. It denies about 1/32 of the generated address space.
var fwRules = []nf.FirewallRule{
	{SrcPrefix: 0x0A080000, SrcDepth: 13, Action: nf.FirewallDeny, Description: "blocklisted /13"},
	{SrcPrefix: 0x0A420000, SrcDepth: 16, Action: nf.FirewallAllow, Description: "partner /16"},
	{SrcPrefix: 0x0A400000, SrcDepth: 12, Action: nf.FirewallDeny, Description: "blocklisted /12 outside the partner"},
	{SrcPrefix: 0x0AFF0005, SrcDepth: 32, Action: nf.FirewallDeny, Description: "blocklisted host"},
}

func (tb *testbed) buildFirewall() error {
	w := tb.w
	fw := nf.NewFirewall(nf.FirewallAllow)
	for _, r := range fwRules {
		if err := fw.AddRule(r); err != nil {
			return err
		}
	}
	var err error
	tb.ffw, err = nf.NewFlowFirewall(fw, nf.FlowFirewallConfig{
		MemBudgetBytes: w.memBudget,
		FlowTTL:        w.flowTTL,
		Clock:          tb.sim.Now,
	})
	if err != nil {
		return err
	}
	if tb.workerIn, err = ring.New[*mbuf.Mbuf]("worker-in", 128, ring.SingleProducer); err != nil {
		return err
	}
	if tb.txRing, err = ring.New[*mbuf.Mbuf]("tx-ring", 512, ring.SingleConsumer); err != nil {
		return err
	}
	rx := &fwRxLoop{tb: tb, buf: make([]*mbuf.Mbuf, 64)}
	rx.commitFn = rx.commit
	tb.startLoop(spIngress, tb.rxPending, rx.body)
	workerPending := func() bool { return tb.workerIn.Len() > 0 }
	for i := 0; i < 2; i++ {
		wl := &fwWorker{tb: tb, buf: make([]*mbuf.Mbuf, 32), fwd: make([]*mbuf.Mbuf, 0, 32)}
		wl.commitFn = wl.commit
		tb.startLoop(spWorker, workerPending, wl.body)
	}
	tx := &fwTxLoop{tb: tb, buf: make([]*mbuf.Mbuf, 32)}
	tx.commitFn = tx.commit
	tb.startLoop(spTxLoop, func() bool { return tb.txRing.Len() > 0 }, tx.body)
	// The expiry wheel ticks at a quarter TTL, the cadence an NF's
	// housekeeping timer would use.
	tb.tickFn = tb.tick
	tb.ticking = true
	tb.sim.After(w.flowTTL/4, tb.tickFn)
	return nil
}

func (tb *testbed) tick() {
	if !tb.ticking {
		return
	}
	sp := tb.tr.begin(spTick)
	tb.ffw.Tick()
	tb.tr.end(sp)
	tb.sim.After(tb.w.flowTTL/4, tb.tickFn)
}

// fwTable reports the firewall's flow cache statistics.
func (tb *testbed) fwTable() flowtab.Stats {
	return flowtab.Collect(tb.ffw.FlowTabs())[0].Stats
}

type fwRxLoop struct {
	tb       *testbed
	buf      []*mbuf.Mbuf
	pending  []*mbuf.Mbuf
	commitFn func()
}

func (l *fwRxLoop) body() (float64, func()) {
	tb := l.tb
	sp := tb.tr.begin(spIngress)
	tb.cnt.polls++
	got := tb.rxBurst(l.buf)
	if got == 0 {
		tb.cnt.idlePolls++
		tb.tr.end(sp)
		return 0, nil
	}
	l.pending = l.buf[:got]
	tb.tr.end(sp)
	return float64(got) * (perf.IORxCycles + perf.RingOpCycles), l.commitFn
}

func (l *fwRxLoop) commit() { l.tb.enqueue(l.tb.workerIn, l.pending) }

// enqueue hands pkts to a pipeline ring, freeing what it refuses.
func (tb *testbed) enqueue(r *ring.Ring[*mbuf.Mbuf], pkts []*mbuf.Mbuf) {
	sp := tb.tr.begin(spRingEnq)
	acc := r.EnqueueBurst(pkts)
	tb.tr.end(sp)
	for _, m := range pkts[acc:] {
		tb.cnt.ringLoss++
		_ = tb.pool.Free(m)
	}
}

// dequeue polls a pipeline ring.
func (tb *testbed) dequeue(r *ring.Ring[*mbuf.Mbuf], buf []*mbuf.Mbuf) int {
	sp := tb.tr.begin(spRingDeq)
	n := r.DequeueBurst(buf)
	tb.tr.end(sp)
	return n
}

type fwWorker struct {
	tb       *testbed
	buf      []*mbuf.Mbuf
	fwd      []*mbuf.Mbuf
	commitFn func()
}

func (l *fwWorker) body() (float64, func()) {
	tb := l.tb
	sp := tb.tr.begin(spWorker)
	tb.cnt.polls++
	n := tb.dequeue(tb.workerIn, l.buf)
	if n == 0 {
		tb.cnt.idlePolls++
		tb.tr.end(sp)
		return 0, nil
	}
	cycles := float64(n) * 2 * perf.RingOpCycles
	l.fwd = l.fwd[:0]
	for _, m := range l.buf[:n] {
		ps := tb.tr.begin(spProcess)
		verdict, c := tb.ffw.Process(m)
		tb.tr.end(ps)
		cycles += c
		if verdict != nf.VerdictForward {
			tb.cnt.verdictDrops++
			_ = tb.pool.Free(m)
			continue
		}
		l.fwd = append(l.fwd, m)
	}
	tb.tr.end(sp)
	return cycles, l.commitFn
}

func (l *fwWorker) commit() { l.tb.enqueue(l.tb.txRing, l.fwd) }

type fwTxLoop struct {
	tb       *testbed
	buf      []*mbuf.Mbuf
	pending  []*mbuf.Mbuf
	commitFn func()
}

func (l *fwTxLoop) body() (float64, func()) {
	tb := l.tb
	sp := tb.tr.begin(spTxLoop)
	tb.cnt.polls++
	n := tb.dequeue(tb.txRing, l.buf)
	if n == 0 {
		tb.cnt.idlePolls++
		tb.tr.end(sp)
		return 0, nil
	}
	l.pending = l.buf[:n]
	tb.tr.end(sp)
	return float64(n) * (perf.RingOpCycles + perf.IOTxCycles), l.commitFn
}

func (l *fwTxLoop) commit() { l.tb.transmit(l.pending) }
