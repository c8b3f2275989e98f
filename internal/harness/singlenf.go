package harness

import (
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/netdev"
	"github.com/opencloudnext/dhl-go/internal/nf"
	"github.com/opencloudnext/dhl-go/internal/pcie"
	"github.com/opencloudnext/dhl-go/internal/perf"
	"github.com/opencloudnext/dhl-go/internal/ring"
	"github.com/opencloudnext/dhl-go/internal/telemetry"
)

// SingleNFConfig parameterizes the Figure 6 experiment: one NF instance on
// a 40G NIC with the Table IV core assignment.
type SingleNFConfig struct {
	Kind NFKind
	Mode Mode
	// FrameSize in bytes (64..1500).
	FrameSize int
	// OfferedWireBps defaults to the 40G line rate (Intel XL710-QDA2).
	OfferedWireBps float64
	// Warmup and Window bound the measurement (defaults 4 ms and 20 ms of
	// virtual time).
	Warmup eventsim.Time
	Window eventsim.Time
	// Batching / BatchBytes / FlushTimeout override the DHL runtime's
	// transfer batching (ablations A1).
	Batching     core.BatchingMode
	BatchBytes   int
	FlushTimeout eventsim.Time
	// Driver / RemoteNUMA select the DMA model variant (ablation A2).
	Driver     pcie.DriverMode
	RemoteNUMA bool
	// MatchFraction is the fraction of NIDS traffic carrying a
	// rule-matching payload. Default 1/256.
	MatchFraction float64
	// Flows is the number of generated 5-tuples.
	Flows int
	// PoolCapacity overrides the testbed mbuf pool size (failure
	// injection runs use a starved pool).
	PoolCapacity int
	// Telemetry, when set, arms the runtime's per-stage telemetry for DHL
	// runs (used by the overhead experiment and the per-stage latency
	// breakdown). Nil leaves the hot path untouched.
	Telemetry *telemetry.Registry
}

func (c SingleNFConfig) withDefaults() SingleNFConfig {
	if c.OfferedWireBps == 0 {
		c.OfferedWireBps = perf.NIC40GBps
	}
	if c.Warmup == 0 {
		c.Warmup = 4 * eventsim.Millisecond
	}
	if c.Window == 0 {
		c.Window = 20 * eventsim.Millisecond
	}
	if c.MatchFraction == 0 {
		c.MatchFraction = 1.0 / 256
	}
	return c
}

// SingleNFResult is one Figure 6 data point.
type SingleNFResult struct {
	Config     SingleNFConfig
	Throughput Throughput
	Latency    Latency

	RxDropped uint64
	TxDropped uint64
	// NFDropped counts packets the NF itself dropped (no SA / NIDS drop
	// rule / queue overflow at the NF boundary).
	NFDropped uint64
	// Transfer carries the DHL runtime's data-transfer-layer counters
	// (zero value in CPU-only and I/O modes).
	Transfer core.TransferStats
}

// swProcessor is satisfied by the CPU-only NFs (and the Table I
// forwarders).
type swProcessor interface {
	Process(*mbuf.Mbuf) (nf.Verdict, float64)
}

// dhlNF adapts the two DHL-version NFs to a common pre/post shape.
type dhlNF interface {
	PreProcess(*mbuf.Mbuf) (nf.Verdict, float64)
	PostProcess(*mbuf.Mbuf) (nf.Verdict, float64)
	ID() core.NFID
}

type ipsecDHLAdapter struct{ *nf.IPsecGatewayDHL }

func (a ipsecDHLAdapter) ID() core.NFID { return a.NFID }

type nidsDHLAdapter struct{ *nf.NIDSDHL }

func (a nidsDHLAdapter) ID() core.NFID { return a.NFID }

// nidsPayload returns a PayloadFn embedding an alert-rule pattern in every
// 1/fraction-th packet.
func nidsPayload(fraction float64) netdev.PayloadFn {
	if fraction <= 0 {
		return nil
	}
	interval := uint64(1 / fraction)
	if interval == 0 {
		interval = 1
	}
	pattern := []byte("wget http") // sid 1008, alert action
	return func(i uint64, payload []byte) {
		if i%interval == 0 && len(payload) >= len(pattern) {
			copy(payload, pattern)
		}
	}
}

// RunSingleNF runs one Figure 6 data point and reports throughput and
// latency measured at the TX port (§V-C measurement protocol).
func RunSingleNF(cfg SingleNFConfig) (SingleNFResult, error) {
	cfg = cfg.withDefaults()
	tb, err := newTestbed(cfg.PoolCapacity)
	if err != nil {
		return SingleNFResult{}, err
	}
	rxPort, txPort, err := tb.ports(perf.NIC40GBps, 2)
	if err != nil {
		return SingleNFResult{}, err
	}

	res := SingleNFResult{Config: cfg}
	var payload netdev.PayloadFn
	if cfg.Kind == NIDS {
		payload = nidsPayload(cfg.MatchFraction)
	}

	var rt *core.Runtime
	switch cfg.Mode {
	case IOOnly:
		// The Figure 6 "I/O" baseline: RX core -> ring -> TX core, no
		// computation.
		hand := ring.MustNew[*mbuf.Mbuf]("io-hand", 512, ring.SingleProducerConsumer)
		rxCore, txCore := tb.core(), tb.core()
		tb.rxToRing(rxCore, rxPort, hand, &res.NFDropped)
		tb.ringToTx(txCore, hand, txPort)
	case CPUOnly:
		proc, perr := buildSWNF(cfg.Kind)
		if perr != nil {
			return res, perr
		}
		if err := wireCPUOnly(tb, rxPort, txPort, proc, &res.NFDropped); err != nil {
			return res, err
		}
	case DHL:
		// Table IV single-NF row: one I/O core on the RX+shallow path, one
		// on the OBQ+TX path, plus the runtime's TX/RX transfer cores.
		rt, _, err = tb.newRuntime(1,
			pcie.Config{Mode: cfg.Driver, RemoteNUMA: cfg.RemoteNUMA},
			core.Config{Batching: cfg.Batching, BatchBytes: cfg.BatchBytes, FlushTimeout: cfg.FlushTimeout, Telemetry: cfg.Telemetry},
		)
		if err != nil {
			return res, err
		}
		app, aerr := buildDHLApp(rt, cfg.Kind, dhlAppName[cfg.Kind])
		if aerr != nil {
			return res, aerr
		}
		tb.dhlIngress(rt, app, rxPort, &res.NFDropped)
		tb.dhlEgress(rt, app, txPort, &res.NFDropped)
		// Let partial reconfiguration finish before traffic starts.
		tb.settle(60 * eventsim.Millisecond)
	default:
		return res, fmt.Errorf("harness: unknown mode %v", cfg.Mode)
	}

	gen, err := netdev.NewGenerator(tb.sim, netdev.GeneratorConfig{
		Port:           rxPort,
		Pool:           tb.pool,
		FrameSize:      cfg.FrameSize,
		OfferedWireBps: cfg.OfferedWireBps,
		Flows:          cfg.Flows,
		Payload:        payload,
	})
	if err != nil {
		return res, err
	}
	gen.Start()
	res.Throughput, res.Latency = tb.runWindow(txPort, cfg.Warmup, cfg.Window, cfg.FrameSize)
	gen.Stop()
	res.RxDropped = rxPort.Stats().RxDropped
	res.TxDropped = txPort.Stats().TxDropped
	if rt != nil {
		if ts, terr := rt.Stats(0); terr == nil {
			res.Transfer = ts
		}
	}
	return res, nil
}

// MeasureSingleNF runs the two-phase protocol used for the Figure 6 plots:
// throughput at offered line rate, then latency at 80% of the measured
// capacity so queueing reflects operating conditions rather than overload
// (see EXPERIMENTS.md, E3/E4 notes).
func MeasureSingleNF(cfg SingleNFConfig) (thr SingleNFResult, lat SingleNFResult, err error) {
	thr, err = RunSingleNF(cfg)
	if err != nil {
		return thr, lat, err
	}
	latCfg := cfg
	latCfg.OfferedWireBps = thr.Throughput.WireBps * 0.8
	if latCfg.OfferedWireBps <= 0 {
		return thr, thr, fmt.Errorf("harness: zero measured throughput for %v/%v", cfg.Kind, cfg.Mode)
	}
	lat, err = RunSingleNF(latCfg)
	return thr, lat, err
}

func buildSWNF(kind NFKind) (swProcessor, error) {
	switch kind {
	case IPsecGateway:
		sadb := nf.NewSADB()
		if err := sadb.AddDefaultSA(); err != nil {
			return nil, err
		}
		return nf.NewIPsecGatewaySW(sadb)
	case NIDS:
		rules, err := nf.NewRuleSet(nf.DefaultSnortRules())
		if err != nil {
			return nil, err
		}
		return nf.NewNIDSSW(rules), nil
	default:
		return nil, fmt.Errorf("harness: unknown NF kind %v", kind)
	}
}

// wireCPUOnly builds the DPDK pipeline-mode CPU-only variant (§V-B):
// 2 I/O cores (one RX, one TX) and 2 worker cores around rte_rings.
func wireCPUOnly(tb *testbed, rxPort, txPort *netdev.Port, proc swProcessor, dropped *uint64) error {
	workerIn, err := ring.New[*mbuf.Mbuf]("worker-in", 128, ring.SingleProducer)
	if err != nil {
		return err
	}
	txRing, err := ring.New[*mbuf.Mbuf]("tx-ring", 512, ring.SingleConsumer)
	if err != nil {
		return err
	}
	rxCore, txCore := tb.core(), tb.core()
	tb.rxToRing(rxCore, rxPort, workerIn, dropped)
	for w := 0; w < 2; w++ {
		buf := make([]*mbuf.Mbuf, 32)
		eventsim.NewPollLoop(tb.sim, tb.core(), perf.PollIdleCycles, func() (float64, func()) {
			n := workerIn.DequeueBurst(buf)
			if n == 0 {
				return 0, nil
			}
			cycles := float64(n) * 2 * perf.RingOpCycles
			fwd := make([]*mbuf.Mbuf, 0, n)
			for _, m := range buf[:n] {
				verdict, c := proc.Process(m)
				cycles += c
				if verdict != nf.VerdictForward {
					tb.drop(m, dropped)
					continue
				}
				fwd = append(fwd, m)
			}
			return cycles, func() { tb.enqueue(txRing, fwd, dropped) }
		}).Start()
	}
	tb.ringToTx(txCore, txRing, txPort)
	return nil
}

// dhlAppName is the NF name the single-instance experiments register.
var dhlAppName = map[NFKind]string{IPsecGateway: "ipsec-gw", NIDS: "nids"}

// buildDHLApp constructs the DHL-version NF of the given kind against a
// runtime, registering it on node 0 as name.
func buildDHLApp(rt *core.Runtime, kind NFKind, name string) (dhlNF, error) {
	switch kind {
	case IPsecGateway:
		sadb := nf.NewSADB()
		if err := sadb.AddDefaultSA(); err != nil {
			return nil, err
		}
		gw, err := nf.NewIPsecGatewayDHL(rt, sadb, name, 0)
		if err != nil {
			return nil, err
		}
		return ipsecDHLAdapter{gw}, nil
	case NIDS:
		rules, err := nf.NewRuleSet(nf.DefaultSnortRules())
		if err != nil {
			return nil, err
		}
		ids, err := nf.NewNIDSDHL(rt, rules, name, 0)
		if err != nil {
			return nil, err
		}
		return nidsDHLAdapter{ids}, nil
	default:
		return nil, fmt.Errorf("harness: unknown NF kind %v", kind)
	}
}
