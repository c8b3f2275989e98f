// Package harness assembles the paper's testbed (Table III) inside the
// discrete-event simulator and regenerates every table and figure of the
// evaluation section. Each experiment returns structured rows so that the
// root-level benchmarks and cmd/dhl-bench print the same series the paper
// plots.
package harness

import (
	"fmt"

	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/fpga"
	"github.com/opencloudnext/dhl-go/internal/hwfunc"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/netdev"
	"github.com/opencloudnext/dhl-go/internal/pcie"
	"github.com/opencloudnext/dhl-go/internal/perf"
)

// NFKind selects the evaluated network function.
type NFKind int

// Evaluated NFs (§V-B).
const (
	IPsecGateway NFKind = iota + 1
	NIDS
)

// String names the NF.
func (k NFKind) String() string {
	switch k {
	case IPsecGateway:
		return "ipsec-gateway"
	case NIDS:
		return "nids"
	default:
		return fmt.Sprintf("NFKind(%d)", int(k))
	}
}

// Mode selects the implementation variant.
type Mode int

// Implementation variants compared in Figure 6.
const (
	// CPUOnly is the pure-software DPDK pipeline build.
	CPUOnly Mode = iota + 1
	// DHL offloads deep packet processing to the FPGA.
	DHL
	// IOOnly is the Figure 6 "I/O" baseline: two cores forwarding without
	// any computation.
	IOOnly
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case CPUOnly:
		return "cpu-only"
	case DHL:
		return "dhl"
	case IOOnly:
		return "io"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// FrameSizes is the x-axis of Figures 6 and 7.
var FrameSizes = []int{64, 128, 256, 512, 1024, 1500}

// Throughput is a measured throughput triple.
type Throughput struct {
	// GoodBps counts transmitted frame bits (output frames, which for the
	// IPsec gateway have grown by the 20 B ESP overhead).
	GoodBps float64
	// WireBps adds the 24 B/frame preamble+IFG+FCS overhead, the
	// convention the paper uses for line-rate-bound numbers.
	WireBps float64
	// InputBps counts packets times the *input* frame size — the
	// convention the paper's Figure 6/7 y-axes use (throughput is plotted
	// against the generated packet size).
	InputBps float64
	// Pkts is the number of frames measured.
	Pkts uint64
}

// Latency is a measured latency summary in microseconds.
type Latency struct {
	MeanUs float64
	P50Us  float64
	P99Us  float64
	MaxUs  float64
}

// testbed carries the common simulated components of one run. Every
// experiment builds from it: newRuntime for the DHL runtime, core for
// each poll loop, and the port stages in stages.go for the I/O cores.
type testbed struct {
	sim  *eventsim.Sim
	pool *mbuf.Pool

	nextCore int
}

func newTestbed(poolSize int) (*testbed, error) {
	if poolSize == 0 {
		poolSize = 16384
	}
	sim := eventsim.New()
	pool, err := mbuf.NewPool(mbuf.PoolConfig{Name: "testbed", Capacity: poolSize})
	if err != nil {
		return nil, err
	}
	return &testbed{sim: sim, pool: pool}, nil
}

// core allocates the next simulated CPU core on node 0 at the testbed
// clock (Table III: Xeon Silver 4116 @ 2.1 GHz).
func (tb *testbed) core() *eventsim.Core {
	c := eventsim.NewCore(tb.sim, tb.nextCore, 0, perf.TestbedCoreHz)
	tb.nextCore++
	return c
}

// newRuntime stands up a DHL runtime over boards VC709-class FPGAs on
// node 0, each with its DMA engine, installs the stock accelerator module
// database and attaches the runtime's TX/RX transfer cores (the next two
// testbed cores). A fault plan on coreCfg arms the runtime and board 0
// only — its DMA engine and device — so one seed drives every injection
// layer and a kill target stays deterministic even when a replica
// spreads dispatches over the fleet. A telemetry registry arms every
// board's DMA service-time and Dispatcher histograms too.
func (tb *testbed) newRuntime(boards int, dmaCfg pcie.Config, coreCfg core.Config) (*core.Runtime, []*fpga.Device, error) {
	devs := make([]*fpga.Device, boards)
	dmaCfg.Telemetry = coreCfg.Telemetry
	for i := range devs {
		faults := coreCfg.Faults
		if i > 0 {
			faults = nil
		}
		dev, err := fpga.NewDevice(tb.sim, fpga.Config{ID: i, Node: 0, Faults: faults, Telemetry: coreCfg.Telemetry})
		if err != nil {
			return nil, nil, err
		}
		devs[i] = dev
		dmaCfg.Faults = faults
		coreCfg.FPGAs = append(coreCfg.FPGAs, core.FPGAAttachment{Device: dev, DMA: pcie.NewEngine(tb.sim, dmaCfg)})
	}
	coreCfg.Sim = tb.sim
	rt, err := core.NewRuntime(coreCfg)
	if err != nil {
		return nil, nil, err
	}
	for _, spec := range hwfunc.Specs() {
		if err := rt.RegisterModule(spec); err != nil {
			return nil, nil, err
		}
	}
	if err := rt.AttachCores(0, tb.core(), tb.core(), tb.pool); err != nil {
		return nil, nil, err
	}
	return rt, devs, nil
}

// ports stands up the testbed's RX port 0, with rxQueues RSS queues, and
// its TX port 1, both at rateBps.
func (tb *testbed) ports(rateBps float64, rxQueues int) (rx, tx *netdev.Port, err error) {
	if rx, err = netdev.NewPort(tb.sim, netdev.PortConfig{ID: 0, RateBps: rateBps, RxQueues: rxQueues}); err != nil {
		return nil, nil, err
	}
	tx, err = netdev.NewPort(tb.sim, netdev.PortConfig{ID: 1, RateBps: rateBps})
	return rx, tx, err
}

// runWindow runs warmup then a measured window of virtual time and reads
// port's TX throughput and latency over it; InputBps counts the offered
// frameSize frames.
func (tb *testbed) runWindow(port *netdev.Port, warmup, window eventsim.Time, frameSize int) (Throughput, Latency) {
	measStart := tb.sim.Now() + warmup
	measEnd := measStart + window
	port.SetMeasureWindow(measStart, measEnd)
	tb.sim.Run(measEnd)
	good, wire, pkts, lat := port.Measured(measEnd)
	inputBps := float64(pkts) * float64(frameSize) * 8 / window.Seconds()
	return Throughput{GoodBps: good, WireBps: wire, InputBps: inputBps, Pkts: pkts}, Latency{
		MeanUs: lat.Mean() / 1e6,
		P50Us:  lat.Percentile(50) / 1e6,
		P99Us:  lat.Percentile(99) / 1e6,
		MaxUs:  lat.Max() / 1e6,
	}
}

// settle runs the simulation forward (e.g. across partial reconfiguration)
// before traffic starts.
func (tb *testbed) settle(d eventsim.Time) {
	tb.sim.Run(tb.sim.Now() + d)
}
