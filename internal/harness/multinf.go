package harness

import (
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/netdev"
	"github.com/opencloudnext/dhl-go/internal/pcie"
	"github.com/opencloudnext/dhl-go/internal/perf"
)

// MultiNFConfig parameterizes the Figure 7 experiment: two NF instances,
// each fed by two 10G ports (Intel X520-DA2), sharing one FPGA.
type MultiNFConfig struct {
	// SharedAccelerator selects Figure 7(a) (two IPsec gateways calling
	// the same ipsec-crypto module); false selects Figure 7(b) (IPsec +
	// NIDS with different accelerator modules).
	SharedAccelerator bool
	FrameSize         int
	Warmup            eventsim.Time
	Window            eventsim.Time
}

func (c MultiNFConfig) withDefaults() MultiNFConfig {
	if c.Warmup == 0 {
		c.Warmup = 4 * eventsim.Millisecond
	}
	if c.Window == 0 {
		c.Window = 20 * eventsim.Millisecond
	}
	return c
}

// MultiNFResult reports one Figure 7 data point: per-instance throughput.
type MultiNFResult struct {
	Config MultiNFConfig
	// NF1 and NF2 are the per-instance throughputs (NF1 = IPsec1, NF2 =
	// IPsec2 in 7(a); NF1 = IPsec, NF2 = NIDS in 7(b)).
	NF1 Throughput
	NF2 Throughput
	// Isolation cross-checks: zero means no NF ever received another NF's
	// packets.
	NFIDMismatches uint64
}

// RunMultiNF reproduces one Figure 7 data point.
func RunMultiNF(cfg MultiNFConfig) (MultiNFResult, error) {
	cfg = cfg.withDefaults()
	res := MultiNFResult{Config: cfg}
	tb, err := newTestbed(32768)
	if err != nil {
		return res, err
	}
	rt, _, err := tb.newRuntime(1, pcie.Config{}, core.Config{})
	if err != nil {
		return res, err
	}

	// Two NF instances.
	var apps [2]dhlNF
	if apps[0], err = buildDHLApp(rt, IPsecGateway, "ipsec-1"); err != nil {
		return res, err
	}
	second, name := NIDS, "nids-1"
	if cfg.SharedAccelerator {
		second, name = IPsecGateway, "ipsec-2"
	}
	if apps[1], err = buildDHLApp(rt, second, name); err != nil {
		return res, err
	}
	tb.settle(80 * eventsim.Millisecond) // both PR loads complete

	// Four 10G ports: ports 0,1 feed NF1; ports 2,3 feed NF2. Each port
	// has a dedicated I/O core doing the full RX -> shallow -> IBQ and
	// OBQ -> post -> TX duty ("each port assigned with one CPU core for
	// I/O", §V-D).
	type portRig struct {
		rx  *netdev.Port
		tx  *netdev.Port
		gen *netdev.Generator
	}
	var rigs [4]portRig
	var dropped uint64 // the NFs' own drops; Figure 7 reports throughput only
	for p := 0; p < 4; p++ {
		nfIdx := p / 2
		rxPort, perr := netdev.NewPort(tb.sim, netdev.PortConfig{ID: p, RateBps: perf.NIC10GBps, RxQueues: 1})
		if perr != nil {
			return res, perr
		}
		txPort, perr := netdev.NewPort(tb.sim, netdev.PortConfig{ID: 10 + p, RateBps: perf.NIC10GBps})
		if perr != nil {
			return res, perr
		}
		var pl netdev.PayloadFn
		if !cfg.SharedAccelerator && nfIdx == 1 {
			pl = nidsPayload(1.0 / 256)
		}
		gen, gerr := netdev.NewGenerator(tb.sim, netdev.GeneratorConfig{
			Port: rxPort, Pool: tb.pool, FrameSize: cfg.FrameSize,
			OfferedWireBps: perf.NIC10GBps, Payload: pl,
		})
		if gerr != nil {
			return res, gerr
		}
		rigs[p] = portRig{rx: rxPort, tx: txPort, gen: gen}
		tb.dhlPortCore(rt, apps[nfIdx], rxPort, txPort, &dropped)
	}

	start := tb.sim.Now()
	measStart := start + cfg.Warmup
	measEnd := measStart + cfg.Window
	for p := 0; p < 4; p++ {
		rigs[p].tx.SetMeasureWindow(measStart, measEnd)
		rigs[p].gen.Start()
	}
	tb.sim.Run(measEnd)

	sum := func(a, b int) Throughput {
		ga, wa, pa, _ := rigs[a].tx.Measured(measEnd)
		gb, wb, pb, _ := rigs[b].tx.Measured(measEnd)
		return Throughput{
			GoodBps:  ga + gb,
			WireBps:  wa + wb,
			InputBps: float64(pa+pb) * float64(cfg.FrameSize) * 8 / cfg.Window.Seconds(),
			Pkts:     pa + pb,
		}
	}
	res.NF1 = sum(0, 1)
	res.NF2 = sum(2, 3)
	if ts, terr := rt.Stats(0); terr == nil {
		res.NFIDMismatches = ts.NFIDMismatches
	}
	return res, nil
}

// dhlPortCore starts the per-port I/O core of the multi-NF test: one
// poll runs both halves of the NF's I/O, RX -> shallow processing -> IBQ
// and OBQ -> post processing -> TX.
func (tb *testbed) dhlPortCore(rt *core.Runtime, app dhlNF, rxPort, txPort *netdev.Port, dropped *uint64) {
	rxBuf := make([]*mbuf.Mbuf, 32)
	obqBuf := make([]*mbuf.Mbuf, 32)
	eventsim.NewPollLoop(tb.sim, tb.core(), perf.PollIdleCycles, func() (float64, func()) {
		rx := tb.rxBurst(rxPort, rxBuf)
		cycles, send := tb.preProcess(app, rx, 0, make([]*mbuf.Mbuf, 0, len(rx)), dropped)
		cycles, tx := tb.postProcess(rt, app, obqBuf, cycles, dropped)
		if cycles == 0 {
			return 0, nil
		}
		return cycles, func() {
			if len(send) > 0 {
				tb.sendIBQ(rt, app, send, dropped)
			}
			if len(tx) > 0 {
				txPort.TxBurst(tx, tb.pool)
			}
		}
	}).Start()
}

// RunFigure7 produces both Figure 7 sub-figures over the frame-size sweep.
func RunFigure7(sizes []int) (shared, different []MultiNFResult, err error) {
	if len(sizes) == 0 {
		sizes = FrameSizes
	}
	for _, s := range sizes {
		r, rerr := RunMultiNF(MultiNFConfig{SharedAccelerator: true, FrameSize: s})
		if rerr != nil {
			return nil, nil, fmt.Errorf("harness: figure 7(a) %dB: %w", s, rerr)
		}
		shared = append(shared, r)
		r, rerr = RunMultiNF(MultiNFConfig{SharedAccelerator: false, FrameSize: s})
		if rerr != nil {
			return nil, nil, fmt.Errorf("harness: figure 7(b) %dB: %w", s, rerr)
		}
		different = append(different, r)
	}
	return shared, different, nil
}
