// Command dhl-bench regenerates the tables and figures of the DHL paper's
// evaluation section from the simulated testbed and prints them in the
// paper's layout.
//
// Usage:
//
//	dhl-bench [table1|fig4|fig6|fig7|table5|table6|table7|ablation|telemetry|flowscale|boardfailover|diurnal|all]
//
// With no argument it runs everything. Full-fidelity windows take a few
// minutes of wall time; pass -quick for shorter measurement windows.
// The flowscale and diurnal targets additionally accept -json to emit
// the sweep as a machine-readable document: scripts/bench.sh regenerates
// BENCH_pr8.json from `-quick -json flowscale` and BENCH_pr10.json from
// `-json diurnal`, and scripts/check.sh diffs both against the committed
// files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/flowtab"
	"github.com/opencloudnext/dhl-go/internal/harness"
	"github.com/opencloudnext/dhl-go/internal/telemetry"
)

// emitJSON switches the flowscale and diurnal targets from the human
// table to a JSON document on stdout.
var emitJSON bool

// jsonTargets are the steps that support the -json flag.
var jsonTargets = map[string]bool{"flowscale": true, "diurnal": true}

func main() {
	quick := flag.Bool("quick", false, "use short measurement windows")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON (flowscale and diurnal targets only)")
	flag.Parse()
	emitJSON = *jsonOut
	targets := flag.Args()
	if len(targets) == 0 {
		targets = []string{"all"}
	}
	if emitJSON && (len(targets) != 1 || !jsonTargets[strings.ToLower(targets[0])]) {
		fmt.Fprintln(os.Stderr, "dhl-bench: -json is only supported with exactly one of the flowscale or diurnal targets")
		os.Exit(1)
	}
	if err := run(targets, *quick); err != nil {
		fmt.Fprintln(os.Stderr, "dhl-bench:", err)
		os.Exit(1)
	}
}

func run(targets []string, quick bool) error {
	want := make(map[string]bool)
	for _, t := range targets {
		want[strings.ToLower(t)] = true
	}
	all := want["all"]
	type step struct {
		name string
		fn   func(bool) error
	}
	steps := []step{
		{"table1", runTable1},
		{"fig4", runFig4},
		{"fig6", runFig6},
		{"fig7", runFig7},
		{"table5", runTable5},
		{"table6", runTable6},
		{"table7", runTable7},
		{"ablation", runAblation},
		{"telemetry", runTelemetry},
		{"flowscale", runFlowScaleBench},
		{"boardfailover", runBoardFailoverBench},
		{"diurnal", runDiurnalBench},
	}
	known := make(map[string]bool, len(steps))
	for _, s := range steps {
		known[s.name] = true
	}
	for t := range want {
		if t != "all" && !known[t] {
			return fmt.Errorf("unknown target %q (want table1|fig4|fig6|fig7|table5|table6|table7|ablation|telemetry|flowscale|boardfailover|diurnal|all)", t)
		}
	}
	for _, s := range steps {
		if all || want[s.name] {
			if err := s.fn(quick); err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
		}
	}
	return nil
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func singleCfg(quick bool, cfg harness.SingleNFConfig) harness.SingleNFConfig {
	if quick {
		cfg.Warmup = 2 * eventsim.Millisecond
		cfg.Window = 6 * eventsim.Millisecond
	}
	return cfg
}

func runTable1(bool) error {
	header("Table I: performance of DPDK with one CPU core (64B, 10G NIC)")
	rows, err := harness.RunTable1()
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %-24s %s\n", "Network Function", "Latency (cpu cycles)", "Throughput")
	for _, r := range rows {
		fmt.Printf("%-16s %-24.0f %.2f Gbps (wire %.2f)\n",
			r.NF, r.CyclesPerPkt, r.Throughput.InputBps/1e9, r.Throughput.WireBps/1e9)
	}
	return nil
}

func runFig4(bool) error {
	header("Figure 4: packet DMA engine performance (PCIe Gen3 x8)")
	results, err := harness.RunFigure4(nil)
	if err != nil {
		return err
	}
	bySeries := map[harness.DMAVariant][]harness.DMAResult{}
	for _, r := range results {
		bySeries[r.Variant] = append(bySeries[r.Variant], r)
	}
	order := []harness.DMAVariant{harness.DMAInKernel, harness.DMARemoteNUMA, harness.DMALocalNUMA}
	fmt.Printf("%-10s", "size")
	for _, v := range order {
		fmt.Printf(" | %-22v", v)
	}
	fmt.Printf("\n%-10s", "")
	for range order {
		fmt.Printf(" | %10s %11s", "Gbps", "RTT(us)")
	}
	fmt.Println()
	for i := range bySeries[order[0]] {
		fmt.Printf("%-10s", sizeLabel(bySeries[order[0]][i].TransferSize))
		for _, v := range order {
			r := bySeries[v][i]
			fmt.Printf(" | %10.2f %11.2f", r.ThroughputBps/1e9, r.LatencyUs)
		}
		fmt.Println()
	}
	return nil
}

func sizeLabel(n int) string {
	if n >= 1024 {
		return fmt.Sprintf("%dKB", n/1024)
	}
	return fmt.Sprintf("%dB", n)
}

func runFig6(quick bool) error {
	header("Figure 6: single NF throughput and latency (40G NIC, 4 cores)")
	for _, kind := range []harness.NFKind{harness.IPsecGateway, harness.NIDS} {
		fmt.Printf("\n-- %v --\n", kind)
		fmt.Printf("%-7s | %-21s | %-21s | %-12s\n", "size", "CPU-only", "DHL", "I/O")
		fmt.Printf("%-7s | %9s %11s | %9s %11s | %9s\n", "", "Gbps", "lat(us)", "Gbps", "lat(us)", "Gbps")
		for _, size := range harness.FrameSizes {
			cpuThr, cpuLat, err := harness.MeasureSingleNF(singleCfg(quick, harness.SingleNFConfig{
				Kind: kind, Mode: harness.CPUOnly, FrameSize: size}))
			if err != nil {
				return err
			}
			dhlThr, dhlLat, err := harness.MeasureSingleNF(singleCfg(quick, harness.SingleNFConfig{
				Kind: kind, Mode: harness.DHL, FrameSize: size}))
			if err != nil {
				return err
			}
			ioThr, err := harness.RunSingleNF(singleCfg(quick, harness.SingleNFConfig{
				Kind: kind, Mode: harness.IOOnly, FrameSize: size}))
			if err != nil {
				return err
			}
			fmt.Printf("%-7d | %9.2f %11.2f | %9.2f %11.2f | %9.2f\n",
				size,
				cpuThr.Throughput.InputBps/1e9, cpuLat.Latency.MeanUs,
				dhlThr.Throughput.InputBps/1e9, dhlLat.Latency.MeanUs,
				ioThr.Throughput.InputBps/1e9)
		}
	}
	fmt.Println("\nClickNP comparison (reported values, Fig. 6(a)/(b)): ~37-40 Gbps across sizes,")
	fmt.Println("latency higher than DHL's; not reproducible (closed source), see EXPERIMENTS.md.")
	return nil
}

func runFig7(quick bool) error {
	header("Figure 7: multiple NFs (4x10G ports, shared FPGA)")
	win := 20 * eventsim.Millisecond
	if quick {
		win = 8 * eventsim.Millisecond
	}
	fmt.Printf("%-7s | %-23s | %-23s\n", "size", "(a) IPsec1 / IPsec2", "(b) IPsec / NIDS")
	for _, size := range harness.FrameSizes {
		a, err := harness.RunMultiNF(harness.MultiNFConfig{SharedAccelerator: true, FrameSize: size, Window: win})
		if err != nil {
			return err
		}
		b, err := harness.RunMultiNF(harness.MultiNFConfig{SharedAccelerator: false, FrameSize: size, Window: win})
		if err != nil {
			return err
		}
		fmt.Printf("%-7d | %9.2f / %9.2f   | %9.2f / %9.2f   (Gbps wire)\n",
			size, a.NF1.WireBps/1e9, a.NF2.WireBps/1e9, b.NF1.WireBps/1e9, b.NF2.WireBps/1e9)
	}
	return nil
}

func runTable5(bool) error {
	header("Table V: reconfiguration time of accelerator modules")
	rows, err := harness.RunTable5()
	if err != nil {
		return err
	}
	fmt.Printf("%-18s %-18s %-10s %s\n", "Accelerator", "PR Bitstream", "PR Time", "Running NF (before -> during)")
	for _, r := range rows {
		fmt.Printf("%-18s %-18s %-10s %.2f -> %.2f Gbps\n",
			r.Module, fmt.Sprintf("%.1f MB", float64(r.BitstreamBytes)/1024/1024),
			fmt.Sprintf("%.0f ms", r.PRTimeMs),
			r.RunningNFBeforeBps/1e9, r.RunningNFDuringBps/1e9)
	}
	return nil
}

func runTable6(bool) error {
	header("Table VI: accelerator modules and static region utilization")
	res, err := harness.RunTable6()
	if err != nil {
		return err
	}
	fmt.Printf("%-18s %-18s %-18s %-12s %s\n", "Module", "LUTs", "BRAM", "Throughput", "Delay")
	for _, r := range res.Rows {
		thr, delay := "N/A", "N/A"
		if r.Gbps > 0 {
			thr = fmt.Sprintf("%.2f Gbps", r.Gbps)
			delay = fmt.Sprintf("%d cycles", r.DelayCycles)
		}
		fmt.Printf("%-18s %-18s %-18s %-12s %s\n", r.Name,
			fmt.Sprintf("%d (%.2f%%)", r.LUTs, r.LUTsPct),
			fmt.Sprintf("%d (%.2f%%)", r.BRAM, r.BRAMPct), thr, delay)
	}
	fmt.Printf("packing bound: %d x ipsec-crypto or %d x pattern-matching per board\n",
		res.MaxIPsecCrypto, res.MaxPatternMatching)
	return nil
}

func runTable7(bool) error {
	header("Table VII: lines of code to shift the CPU-only NF into DHL")
	for _, r := range harness.RunTable7() {
		fmt.Printf("%-18s %d LoC\n", r.Module, r.LoC)
	}
	return nil
}

// runTelemetry measures the DHL IPsec gateway's capacity at 512B frames,
// replays the run at 80% of that load with the stage clock armed, and
// prints where each batch's time goes: the EXPERIMENTS.md per-stage
// latency breakdown.
func runTelemetry(quick bool) error {
	header("Telemetry: per-stage latency breakdown (DHL IPsec, 512B, 80% capacity)")
	capRes, err := harness.RunSingleNF(singleCfg(quick, harness.SingleNFConfig{
		Kind: harness.IPsecGateway, Mode: harness.DHL, FrameSize: 512}))
	if err != nil {
		return err
	}
	capBps := capRes.Throughput.WireBps
	tel := telemetry.New(0)
	res, err := harness.RunSingleNF(singleCfg(quick, harness.SingleNFConfig{
		Kind: harness.IPsecGateway, Mode: harness.DHL, FrameSize: 512,
		OfferedWireBps: 0.8 * capBps, Telemetry: tel}))
	if err != nil {
		return err
	}
	snap := tel.Snapshot()
	fmt.Printf("capacity %.2f Gbps wire; offered %.2f Gbps (80%%), carried %.2f Gbps\n",
		capBps/1e9, 0.8*capBps/1e9, res.Throughput.WireBps/1e9)
	fmt.Printf("%d batches, %d packets, %d bytes through the FPGA chain\n",
		snap.CounterTotal(telemetry.CounterBatches), snap.CounterTotal(telemetry.CounterPackets),
		snap.CounterTotal(telemetry.CounterBytes))
	fmt.Printf("%-12s %9s %10s %10s %10s\n", "stage", "count", "p50(ns)", "p99(ns)", "mean(ns)")
	for s := telemetry.StageIBQWait; s < telemetry.NumStages; s++ {
		h := snap.Stages[s]
		if h.Count == 0 {
			continue
		}
		fmt.Printf("%-12s %9d %10.0f %10.0f %10.0f\n",
			s, h.Count, h.QuantileNs(0.50), h.QuantileNs(0.99), h.MeanNs())
	}
	fmt.Printf("%-12s %9d %10.0f %10.0f %10.0f  (pcie service)\n",
		"dma_h2c", snap.DMAH2C.Count, snap.DMAH2C.QuantileNs(0.50), snap.DMAH2C.QuantileNs(0.99), snap.DMAH2C.MeanNs())
	fmt.Printf("%-12s %9d %10.0f %10.0f %10.0f  (pcie service)\n",
		"dma_c2h", snap.DMAC2H.Count, snap.DMAC2H.QuantileNs(0.50), snap.DMAC2H.QuantileNs(0.99), snap.DMAC2H.MeanNs())
	fmt.Printf("%-12s %9d %10.0f %10.0f %10.0f  (dispatcher service)\n",
		"dispatch", snap.Dispatch.Count, snap.Dispatch.QuantileNs(0.50), snap.Dispatch.QuantileNs(0.99), snap.Dispatch.MeanNs())
	return nil
}

// flowScalePoint is one row of the flowscale sweep in the BENCH_pr8.json
// document.
type flowScalePoint struct {
	Flows        int           `json:"flows"`
	GoodputBps   float64       `json:"goodput_bps"`
	WireBps      float64       `json:"wire_bps"`
	Pkts         uint64        `json:"pkts"`
	HitRate      float64       `json:"hit_rate"`
	BytesPerFlow float64       `json:"bytes_per_flow"`
	Births       uint64        `json:"births"`
	Deaths       uint64        `json:"deaths"`
	NFDropped    uint64        `json:"nf_dropped"`
	Table        flowtab.Stats `json:"table"`
}

// runFlowScaleBench sweeps the stateful flow-aware firewall across flow
// populations from 10k to 2M under Zipf traffic with churn: the
// flows-vs-goodput and bytes-per-flow series. Conservation of every
// generated frame is enforced inside the sweep.
func runFlowScaleBench(quick bool) error {
	counts := []int{10_000, 100_000, 1_000_000, 2_000_000}
	base := harness.FlowScaleConfig{
		ZipfSkew:       1.1,
		ChurnPerSec:    2e6,
		Window:         30 * eventsim.Millisecond,
		FlowTTL:        20 * eventsim.Millisecond,
		MemBudgetBytes: 512 << 20,
	}
	if quick {
		base.Window = 6 * eventsim.Millisecond
		base.FlowTTL = 5 * eventsim.Millisecond
	}
	results, err := harness.RunFlowScaleSweep(counts, base)
	if err != nil {
		return err
	}
	points := make([]flowScalePoint, 0, len(results))
	for _, r := range results {
		p := flowScalePoint{
			Flows:        r.Config.Flows,
			GoodputBps:   r.Throughput.GoodBps,
			WireBps:      r.Throughput.WireBps,
			Pkts:         r.Throughput.Pkts,
			HitRate:      r.HitRate,
			BytesPerFlow: r.BytesPerFlow,
			Births:       r.Births,
			Deaths:       r.Deaths,
			NFDropped:    r.NFDropped,
		}
		if len(r.Tables) > 0 {
			p.Table = r.Tables[0].Stats
		}
		points = append(points, p)
	}
	if emitJSON {
		doc := struct {
			Bench  string `json:"bench"`
			Config struct {
				ZipfSkew       float64 `json:"zipf_skew"`
				ChurnPerSec    float64 `json:"churn_per_sec"`
				WindowMs       float64 `json:"window_ms"`
				FlowTTLMs      float64 `json:"flow_ttl_ms"`
				MemBudgetBytes int     `json:"mem_budget_bytes"`
				FrameSize      int     `json:"frame_size"`
			} `json:"config"`
			Points []flowScalePoint `json:"points"`
		}{Bench: "pr8_flowscale", Points: points}
		doc.Config.ZipfSkew = base.ZipfSkew
		doc.Config.ChurnPerSec = base.ChurnPerSec
		doc.Config.WindowMs = base.Window.Seconds() * 1e3
		doc.Config.FlowTTLMs = base.FlowTTL.Seconds() * 1e3
		doc.Config.MemBudgetBytes = base.MemBudgetBytes
		doc.Config.FrameSize = 128
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}
	header("Flow scale: stateful firewall, Zipf+churn, flows vs goodput (40G, 128B)")
	fmt.Printf("%-10s %10s %10s %10s %10s %12s %10s\n",
		"flows", "Gbps", "hit rate", "entries", "B/flow", "mem", "evicted")
	for _, p := range points {
		fmt.Printf("%-10d %10.2f %10.3f %10d %10.1f %12d %10d\n",
			p.Flows, p.GoodputBps/1e9, p.HitRate, p.Table.Entries,
			p.BytesPerFlow, p.Table.MemBytes, p.Table.EvictedIdle+p.Table.EvictedPressure)
	}
	return nil
}

func runAblation(bool) error {
	header("Ablation A1: transfer batching policy (DHL IPsec, 512B frames)")
	rows, err := harness.RunBatchingAblation()
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-8s %-12s %-12s\n", "policy", "load", "Gbps", "lat(us)")
	for _, r := range rows {
		fmt.Printf("%-12s %-8s %-12.2f %-12.2f\n", r.Label,
			fmt.Sprintf("%.0f%%", r.OfferedPct), r.Throughput.InputBps/1e9, r.Latency.MeanUs)
	}

	header("Ablation A2: driver mode / NUMA placement (DHL IPsec, 512B)")
	drv, err := harness.RunDriverAblation()
	if err != nil {
		return err
	}
	for _, r := range drv {
		fmt.Printf("%-20s %8.2f Gbps   %8.2f us\n", r.Label, r.Throughput.InputBps/1e9, r.Latency.MeanUs)
	}

	header("Ablation A3: vertical scaling (§VI.1)")
	vert, err := harness.RunVerticalScaling()
	if err != nil {
		return err
	}
	for _, r := range vert {
		fmt.Printf("%-22s %8.2f Gbps aggregate DMA ceiling\n", r.Label, r.AggregateGbps)
	}
	return nil
}

// diurnalSeries is one run (fixed or autotuned) of the T5 sweep in the
// BENCH_pr10.json document.
type diurnalSeries struct {
	Label           string  `json:"label"`
	PeakGoodputBps  float64 `json:"peak_goodput_bps"`
	PeakP50Us       float64 `json:"peak_p50_us"`
	PeakP99Us       float64 `json:"peak_p99_us"`
	TroughGoodBps   float64 `json:"trough_goodput_bps"`
	TroughP50Us     float64 `json:"trough_p50_us"`
	TroughP99Us     float64 `json:"trough_p99_us"`
	SilentDrops     uint64  `json:"silent_drops"`
	IBQRejected     uint64  `json:"ibq_rejected"`
	PressureEvents  uint64  `json:"pressure_events"`
	TunerWindows    uint64  `json:"tuner_windows"`
	GrowDecisions   uint64  `json:"tuner_grow_decisions"`
	ShrinkDecisions uint64  `json:"tuner_shrink_decisions"`
}

func diurnalSeriesOf(label string, r harness.DiurnalResult) diurnalSeries {
	return diurnalSeries{
		Label:           label,
		PeakGoodputBps:  r.Peak.Throughput.GoodBps,
		PeakP50Us:       r.Peak.Latency.P50Us,
		PeakP99Us:       r.Peak.Latency.P99Us,
		TroughGoodBps:   r.Trough.Throughput.GoodBps,
		TroughP50Us:     r.Trough.Latency.P50Us,
		TroughP99Us:     r.Trough.Latency.P99Us,
		SilentDrops:     r.SilentDrops,
		IBQRejected:     r.IBQRejected,
		PressureEvents:  r.PressureEvents,
		TunerWindows:    r.Tuner.Windows,
		GrowDecisions:   r.Tuner.GrowDecisions,
		ShrinkDecisions: r.Tuner.ShrinkDecisions,
	}
}

// runDiurnalBench runs the T5 diurnal load sweep: the same DHL IPsec
// gateway under a peak/trough offered-load swing, fixed 6 KB batching
// vs. the adaptive batching autotuner, with the gate ratios the PR's
// acceptance criteria check.
func runDiurnalBench(quick bool) error {
	cfg := harness.DiurnalConfig{}
	if quick {
		cfg.Warmup = 2 * eventsim.Millisecond
		cfg.Window = 5 * eventsim.Millisecond
	}
	cmp, err := harness.RunDiurnalComparison(cfg)
	if err != nil {
		return err
	}
	if emitJSON {
		doc := struct {
			Bench  string `json:"bench"`
			Config struct {
				NF            string  `json:"nf"`
				FrameSize     int     `json:"frame_size"`
				PeakWireBps   float64 `json:"peak_wire_bps"`
				TroughWireBps float64 `json:"trough_wire_bps"`
				WarmupMs      float64 `json:"warmup_ms"`
				WindowMs      float64 `json:"window_ms"`
			} `json:"config"`
			Series []diurnalSeries `json:"series"`
			Gates  struct {
				PeakGoodputRatio float64 `json:"peak_goodput_ratio"`
				TroughP99Cut     float64 `json:"trough_p99_cut"`
				SilentDrops      uint64  `json:"silent_drops"`
			} `json:"gates"`
		}{Bench: "pr10_diurnal"}
		dc := cmp.Fixed.Config
		doc.Config.NF = dc.Kind.String()
		doc.Config.FrameSize = dc.FrameSize
		doc.Config.PeakWireBps = dc.PeakWireBps
		doc.Config.TroughWireBps = dc.TroughWireBps
		doc.Config.WarmupMs = dc.Warmup.Seconds() * 1e3
		doc.Config.WindowMs = dc.Window.Seconds() * 1e3
		doc.Series = []diurnalSeries{
			diurnalSeriesOf("fixed-6KB", cmp.Fixed),
			diurnalSeriesOf("autotuned", cmp.Tuned),
		}
		doc.Gates.PeakGoodputRatio = cmp.PeakGoodputRatio
		doc.Gates.TroughP99Cut = cmp.TroughP99Cut
		doc.Gates.SilentDrops = cmp.Fixed.SilentDrops + cmp.Tuned.SilentDrops
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}
	header("Diurnal sweep: adaptive batching autotuner vs fixed 6 KB (DHL IPsec, 1024B)")
	fmt.Printf("offered: peak %.0f Gbps, trough %.1f Gbps (burst 1, %.0f ms windows)\n\n",
		cmp.Fixed.Config.PeakWireBps/1e9, cmp.Fixed.Config.TroughWireBps/1e9, cmp.Fixed.Config.Window.Seconds()*1e3)
	fmt.Printf("%-12s | %-28s | %-28s\n", "", "peak", "trough")
	fmt.Printf("%-12s | %9s %8s %8s | %9s %8s %8s\n", "run", "Gbps", "p50(us)", "p99(us)", "Gbps", "p50(us)", "p99(us)")
	for _, s := range []diurnalSeries{diurnalSeriesOf("fixed-6KB", cmp.Fixed), diurnalSeriesOf("autotuned", cmp.Tuned)} {
		fmt.Printf("%-12s | %9.2f %8.2f %8.2f | %9.3f %8.2f %8.2f\n",
			s.Label, s.PeakGoodputBps/1e9, s.PeakP50Us, s.PeakP99Us,
			s.TroughGoodBps/1e9, s.TroughP50Us, s.TroughP99Us)
	}
	fmt.Printf("\ngates: peak goodput ratio %.3f (>= 0.98), trough p99 cut %.0f%% (>= 30%%), silent drops %d (= 0)\n",
		cmp.PeakGoodputRatio, cmp.TroughP99Cut*100, cmp.Fixed.SilentDrops+cmp.Tuned.SilentDrops)
	fmt.Printf("tuner: %d windows, %d grow / %d shrink decisions\n",
		cmp.Tuned.Tuner.Windows, cmp.Tuned.Tuner.GrowDecisions, cmp.Tuned.Tuner.ShrinkDecisions)
	return nil
}

func runBoardFailoverBench(quick bool) error {
	header("Board failover: whole-board loss, live migration vs warm replica")
	cfg := harness.BoardFailoverConfig{}
	if quick {
		cfg.Buckets = 30
	}
	res, err := harness.RunBoardFailover(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("baseline goodput: %.1f Mbps (two-board fleet, ipsec-crypto)\n\n", res.BaselineGoodBps/1e6)
	fmt.Printf("%-24s %10s %10s %12s %8s %12s\n",
		"run", "MTTR(us)", "min(Mbps)", "recov(Mbps)", "board", "migrated-in")
	for _, run := range []*harness.BoardFailoverRun{&res.Baseline, &res.NoReplica, &res.Replica} {
		fmt.Printf("%-24s %10.0f %10.1f %12.1f %8d %12d\n",
			run.Label, run.MTTRUs, run.MinRateBps/1e6, run.RecoveredGoodBps/1e6,
			run.FinalBoard, run.MigratedIn)
	}
	fmt.Println("\nMTTR 0 = no measurable outage; the replica run's board loss is absorbed")
	fmt.Println("by an instant routing-table promotion, while the no-replica run pays the")
	fmt.Println("~29 ms ICAP re-place of the 5.6 MB ipsec bitstream on the surviving board.")
	return nil
}
