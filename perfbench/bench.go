package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/flowtab"
	"github.com/opencloudnext/dhl-go/internal/netdev"
	"github.com/opencloudnext/dhl-go/internal/pcie"
	"github.com/opencloudnext/dhl-go/internal/telemetry"
)

type workloadKind int

const (
	kindIPsec workloadKind = iota + 1
	kindNIDS
	kindFirewall
)

// workload is one traffic mix and the testbed that serves it. All are
// open loop; rates are in virtual time.
type workload struct {
	name           string
	why            string
	kind           workloadKind
	frameSize      int
	offeredWireBps float64
	flows          int
	zipfSkew       float64
	churnPerSec    float64
	flowTTL        eventsim.Time
	memBudget      int
	plantEvery     int
	autotune       bool

	// warmup runs before any measurement; simWindow is the fixed
	// virtual window every simulated metric and layer count covers;
	// chunk is the virtual step between the driver's checkpoints.
	warmup    eventsim.Time
	simWindow eventsim.Time
	chunk     eventsim.Time
	// setups is how many times one run builds the testbed to time set-up.
	setups int
}

var workloads = []*workload{
	{
		name:           "ipsec-64-busy",
		why:            "DHL IPsec gateway, 64 B frames at 25 Gbps wire: per-packet cost dominates at the smallest frame, crypto runs on every packet",
		kind:           kindIPsec,
		frameSize:      64,
		offeredWireBps: 25e9,
		flows:          64,
		warmup:         2 * eventsim.Millisecond,
		simWindow:      5 * eventsim.Millisecond,
		chunk:          100 * eventsim.Microsecond,
		setups:         5,
	},
	{
		name:           "nids-1500-trough",
		why:            "DHL NIDS, 1500 B at 0.4 Gbps with the autotuner armed: idle polling dominates, batches are partial",
		kind:           kindNIDS,
		frameSize:      1500,
		offeredWireBps: 0.4e9,
		flows:          64,
		plantEvery:     256,
		autotune:       true,
		warmup:         10 * eventsim.Millisecond,
		simWindow:      100 * eventsim.Millisecond,
		chunk:          eventsim.Millisecond,
		setups:         5,
	},
	{
		name:           "fw-1m-churn",
		why:            "CPU-only flow firewall, 1M Zipf flows with 2M births/s and a 20 ms TTL: flow-table hits, inserts and evictions",
		kind:           kindFirewall,
		frameSize:      128,
		offeredWireBps: 20e9,
		flows:          1_000_000,
		zipfSkew:       1.1,
		churnPerSec:    2e6,
		flowTTL:        20 * eventsim.Millisecond,
		memBudget:      512 << 20,
		warmup:         25 * eventsim.Millisecond,
		simWindow:      20 * eventsim.Millisecond,
		chunk:          500 * eventsim.Microsecond,
		// Each set-up takes about 10 ms here, so more of them are timed.
		setups: 25,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// layerSnap is every deterministic counter the driver reads from the
// layers' public stats at one virtual instant.
type layerSnap struct {
	at            eventsim.Time
	events        uint64
	offered       uint64
	allocFails    uint64
	cnt           counters
	rx, tx        netdev.PortStats
	poolFails     uint64
	transfer      core.TransferStats
	h2c, c2h      pcie.Stats
	regionBatches uint64
	regionBusy    eventsim.Time
	flow          flowtab.Stats
	stages        [telemetry.NumStages]telemetry.HistogramSnapshot
	tunerWindows  uint64
	tunerGrow     uint64
	tunerShrink   uint64
	batchTarget   int
}

func (tb *testbed) snapshot() layerSnap {
	s := layerSnap{
		at:         tb.sim.Now(),
		events:     tb.sim.Processed(),
		offered:    tb.src.offered,
		allocFails: tb.src.allocFails,
		cnt:        tb.cnt,
		rx:         tb.rx.Stats(),
		tx:         tb.tx.Stats(),
	}
	_, _, s.poolFails = tb.pool.Stats()
	if tb.rt != nil {
		s.transfer, _ = tb.rt.Stats(0) // node 0 always exists
		s.h2c = tb.dma.DirStats(pcie.H2C)
		s.c2h = tb.dma.DirStats(pcie.C2H)
		for i := 0; i < tb.dev.Regions(); i++ {
			b, _, busy, err := tb.dev.RegionStats(i)
			if err == nil {
				s.regionBatches += b
				s.regionBusy += busy
			}
		}
	}
	if tb.tel != nil {
		for i := range s.stages {
			s.stages[i] = tb.tel.Stages[i].Snapshot()
		}
	}
	if tb.tun != nil {
		st := tb.tun.Status()
		s.tunerWindows, s.tunerGrow, s.tunerShrink = st.Windows, st.GrowDecisions, st.ShrinkDecisions
		for _, a := range st.Accs {
			s.batchTarget = a.BatchTarget
		}
	}
	if tb.ffw != nil {
		s.flow = tb.fwTable()
	}
	return s
}

// transferDrops sums the transfer layer's attributed packet drops.
func transferDrops(t core.TransferStats) uint64 {
	return t.StagingDrops + t.DropFault + t.DropNoRoute + t.DropCorrupt + t.DropMismatch +
		t.DropUnknownNF + t.DropNFClosed + t.DropOBQFull
}

// losses are packets neither delivered nor dropped by an NF verdict.
func (s layerSnap) losses() uint64 {
	return s.allocFails + s.rx.RxDropped + s.tx.TxDropped + s.cnt.ibqLoss + s.cnt.ringLoss + transferDrops(s.transfer)
}

// simStats are the simulated results of one seed: deterministic, so any
// change means the model changed.
type simStats struct {
	GoodputGbps float64
	P50Us       float64
	P99Us       float64
	Samples     uint64
	TailPct     float64
	LossRatio   float64
	Offered     uint64
	Delivered   uint64
}

// window is what one run measured.
type window struct {
	sim   simStats
	a, b  layerSnap // at the start and end of the simulated window
	inUse int

	host     *hostMeter
	hostPkts uint64        // offered in the timed window
	hostSpan eventsim.Time // virtual time the timed window covered
	end      eventsim.Time

	setupEvents uint64
	offered     uint64 // whole run
	failed      uint64 // whole run
	checked     string // what the output checks verified
}

// hostSlices is how many slices the timed window is cut into; host time
// per packet is reported as the median over slices.
const hostSlices = 100

// runOpts selects how long a run measures.
type runOpts struct {
	// hostSeconds is the timed wall time the window lasts at least; the
	// window also always covers the simulated window.
	hostSeconds float64
	// until, when set, ends the timed window at exactly this virtual time
	// instead (the traced replay of an untraced run).
	until eventsim.Time
	// ref, when set, is timed after every slice to scale its host time.
	ref *speedRef
}

func checkf(format string, args ...any) error {
	return fmt.Errorf("correctness check failed: "+format, args...)
}

// setupTimes builds the testbed n times, timing each from its first
// constructor call to the instant the first packet is due, and returns
// the last one. With ref set, the reference kernel runs refSamples
// times before and after each set-up, and scaled holds each time at the
// reference speed the kernel's medians give.
func setupTimes(w *workload, seed uint64, n int, tr *tracer, ref *speedRef) (tb *testbed, raw, scaled []float64, err error) {
	for i := 0; i < n; i++ {
		tb = nil
		runtime.GC()
		var before time.Duration
		if ref != nil {
			before = ref.sample(refSamples)
		}
		t0 := time.Now()
		tb, err = newTestbed(w, seed, tr)
		if err != nil {
			return nil, nil, nil, err
		}
		d := time.Since(t0).Seconds()
		raw = append(raw, d)
		if ref != nil {
			scaled = append(scaled, scale(d, (before+ref.sample(refSamples))/2))
		}
	}
	return tb, raw, scaled, nil
}

// refSamples is how many kernel runs give the speed on each side of a
// set-up: one set-up lasts up to a second, over which a single 2 ms run
// is too small a sample of the machine's speed.
const refSamples = 5

// measure starts traffic on a built testbed, warms up, runs the timed
// window, drains, and checks every output.
func (tb *testbed) measure(o runOpts) (*window, error) {
	w := tb.w
	tb.src.start()
	start := tb.sim.Now()
	tb.winStart = start + w.warmup
	tb.winEnd = tb.winStart + w.simWindow
	tb.tx.SetMeasureWindow(tb.winStart, tb.winEnd)
	win := &window{host: newHostMeter(o.ref), setupEvents: tb.setupEvents}

	if err := tb.advance(tb.winStart, nil); err != nil {
		return nil, err
	}
	win.a = tb.snapshot()
	hostDur := time.Duration(o.hostSeconds * float64(time.Second))
	sliceDur := hostDur / hostSlices
	var lastCut time.Duration
	if tb.tr != nil {
		tb.tr.on = true
	}
	win.host.resume()
	for {
		now := tb.sim.Now()
		if o.until > 0 {
			if now >= o.until {
				break
			}
		} else if now >= tb.winEnd && win.host.elapsed() >= hostDur {
			break
		}
		next := now + w.chunk
		if now < tb.winEnd && next > tb.winEnd {
			next = tb.winEnd
		}
		if o.until > 0 && next > o.until {
			next = o.until
		}
		if err := tb.step(next, win.host); err != nil {
			return nil, err
		}
		if tb.sim.Now() == tb.winEnd {
			win.host.pause()
			win.b = tb.snapshot()
			win.inUse = tb.inUseMax
			win.host.resume()
		}
		if sliceDur > 0 && win.host.elapsed()-lastCut >= sliceDur {
			win.host.pause()
			win.host.cut(tb.src.offered - win.a.offered)
			lastCut = win.host.wall
			win.host.resume()
		}
	}
	win.host.pause()
	win.host.cut(tb.src.offered - win.a.offered)
	if tb.tr != nil {
		tb.tr.on = false
	}
	win.end = tb.sim.Now()
	win.hostPkts = tb.src.offered - win.a.offered
	win.hostSpan = win.end - win.a.at
	if win.b.at != tb.winEnd {
		return nil, fmt.Errorf("timed window ended at %v before the simulated window's end %v", win.end, tb.winEnd)
	}
	if err := tb.drain(); err != nil {
		return nil, err
	}
	return win, tb.finish(win)
}

// step runs the simulation to next as one root span, then folds the
// trace buffer and drains the output checks outside the timed segments.
// host may be nil.
func (tb *testbed) step(next eventsim.Time, host *hostMeter) error {
	sp := tb.tr.begin(spRun)
	tb.sim.Run(next)
	tb.tr.end(sp)
	if tb.tr != nil && tb.tr.on {
		host.pause()
		tb.tr.fold()
		host.resume()
	}
	if tb.chk.needsDrain(tb.src) {
		host.pause()
		err := tb.chk.drain(tb.src)
		host.resume()
		return err
	}
	return nil
}

// advance runs the simulation to t in chunks, draining checks between;
// host may be nil outside the timed window.
func (tb *testbed) advance(t eventsim.Time, host *hostMeter) error {
	for tb.sim.Now() < t {
		next := min(tb.sim.Now()+tb.w.chunk, t)
		if err := tb.step(next, host); err != nil {
			return err
		}
	}
	return nil
}

// drainLimit bounds how long the pipeline may take to empty once the
// source stops.
const drainLimit = 50 * eventsim.Millisecond

func (tb *testbed) drain() error {
	tb.src.stop()
	deadline := tb.sim.Now() + drainLimit
	for tb.pool.InUse() > 0 && tb.sim.Now() < deadline {
		if err := tb.advance(tb.sim.Now()+tb.w.chunk, nil); err != nil {
			return err
		}
	}
	tb.ticking = false
	return tb.chk.drain(tb.src)
}

// finish computes the simulated results and runs every correctness check.
func (tb *testbed) finish(win *window) error {
	a, b := win.a, win.b
	good, _, pkts, _ := tb.tx.Measured(tb.winEnd)
	offered := b.offered - a.offered
	win.sim = simStats{
		GoodputGbps: good / 1e9,
		P50Us:       tb.lat.quantileUs(0.50),
		P99Us:       tb.lat.quantileUs(0.99),
		Samples:     tb.lat.n(),
		TailPct:     tailPercentile(tb.lat.n()),
		Offered:     offered,
		Delivered:   b.cnt.delivered - a.cnt.delivered,
	}
	if offered > 0 {
		win.sim.LossRatio = float64(b.losses()-a.losses()) / float64(offered)
	}
	end := tb.snapshot()
	win.offered = end.offered
	win.failed = end.losses()

	if pkts != tb.lat.n() {
		return checkf("TX port measured %d packets in the window, latency has %d samples", pkts, tb.lat.n())
	}
	if !supports(99, tb.lat.n()) {
		return checkf("%d latency samples cannot support p99 (need %d beyond it)", tb.lat.n(), minBeyond)
	}
	accounted := end.cnt.delivered + end.cnt.verdictDrops + end.losses()
	if end.offered != accounted {
		return checkf("ledger open: offered %d != delivered %d + verdict drops %d + losses %d",
			end.offered, end.cnt.delivered, end.cnt.verdictDrops, end.losses())
	}
	if end.tx.TxFrames != end.cnt.delivered {
		return checkf("TX port sent %d frames, driver counted %d", end.tx.TxFrames, end.cnt.delivered)
	}
	if n := tb.pool.InUse(); n != 0 {
		return checkf("%d mbufs still in use after the drain", n)
	}
	win.checked = fmt.Sprintf("ledger closed (%d offered = %d delivered + %d verdict drops + %d lost), pool empty",
		end.offered, end.cnt.delivered, end.cnt.verdictDrops, end.losses())
	switch tb.w.kind {
	case kindIPsec:
		if tb.chk.opened != end.cnt.delivered {
			return checkf("decrypted %d frames, %d delivered", tb.chk.opened, end.cnt.delivered)
		}
		win.checked += fmt.Sprintf(", %d delivered frames authenticated, decrypted and matched", tb.chk.opened)
	case kindNIDS:
		alerts := tb.nids.Stats.Alerts
		if alerts != tb.src.planted {
			return checkf("NIDS raised %d alerts for %d planted patterns", alerts, tb.src.planted)
		}
		if tb.src.planted == 0 {
			return checkf("no pattern was planted")
		}
		win.checked += fmt.Sprintf(", %d alerts for %d planted patterns", alerts, tb.src.planted)
	case kindFirewall:
		denied := tb.ffw.Firewall().Denied
		if denied != tb.chk.expectDenied {
			return checkf("firewall denied %d packets, a linear ACL scan of the sources denies %d", denied, tb.chk.expectDenied)
		}
		if denied != end.cnt.verdictDrops {
			return checkf("firewall denied %d packets, the driver dropped %d on its verdicts", denied, end.cnt.verdictDrops)
		}
		win.checked += fmt.Sprintf(", %d denies match a linear ACL scan", denied)
	}
	return nil
}
