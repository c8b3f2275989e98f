// Command perfbench is the repository benchmark. It measures what running
// the DHL reproduction costs the host per simulated packet, on three
// open-loop workloads, and with -trace 1 attributes that cost to the
// repo's layers.
//
//	go run . -workload ipsec-64-busy -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A run that fails a correctness
// check prints no result and exits non-zero. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// spanDir receives the traced run's span file, relative to the checkout
// root the benchmark runs from.
var spanDir = filepath.Join(".bench_build", "traces")

// heldOutSeed is reserved for confirming a claimed gain on a seed the
// change was not tuned on.
const heldOutSeed = 424242

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: ipsec-64-busy, nids-1500-trough or fw-1m-churn")
	seed := fs.Uint64("seed", 1, "seed for the traffic source")
	seconds := fs.Float64("seconds", 20, "timed wall seconds the timed window lasts at least")
	trace := fs.Int("trace", 0, "1: traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	fmt.Fprintf(stdout, "workload %s seed %d (held-out seed %d): %s\n", w.name, *seed, heldOutSeed, w.why)
	var res *result
	if *trace == 0 {
		res, err = runEndToEnd(w, *seed, *seconds, stdout)
	} else {
		spans := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		res, err = runTraced(w, *seed, *seconds, spans, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: FAIL:", err)
		return 1
	}
	if err := res.write(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metric is one reported value. A metric whose layer the workload does
// not exercise is reported as 0 and marked absent.
type metric struct {
	name   string
	unit   string
	value  float64
	absent bool
}

type result struct {
	attempted uint64
	failed    uint64
	metrics   []metric
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: finite(v)})
}

// addIf adds a metric that only some workloads exercise.
func (r *result) addIf(applies bool, name, unit string, v float64) {
	if !applies {
		v = 0
	}
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: finite(v), absent: !applies})
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// write prints every metric by name with its unit, then the result line.
func (r *result) write(w io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, m := range r.metrics {
		note := ""
		if m.absent {
			note = "  (layer absent on this workload)"
		}
		fmt.Fprintf(w, "metric %-40s %16.6g %s%s\n", m.name, m.value, m.unit, note)
		out.Metrics[m.name] = value{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func printSim(w io.Writer, win *window, lat *latSamples) {
	s := win.sim
	fmt.Fprintf(w, "simulated window: %v virtual, %d offered, %d delivered, loss_ratio %g\n",
		win.b.at-win.a.at, s.Offered, s.Delivered, s.LossRatio)
	fmt.Fprintf(w, "latency from due time: %d samples, p50 %.4f us, p99 %.4f us, highest supported percentile p%g\n",
		s.Samples, s.P50Us, s.P99Us, s.TailPct)
	fmt.Fprint(w, "latency ladder (us):")
	for _, q := range []float64{0.1, 0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999} {
		if supports(q*100, s.Samples) {
			fmt.Fprintf(w, " p%g=%.4f", q*100, lat.quantileUs(q))
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "timed window: %v virtual, %d packets offered, %.3f s wall; whole run: %d offered, %d lost\n",
		win.hostSpan, win.hostPkts, win.host.wall.Seconds(), win.offered, win.failed)
	fmt.Fprintln(w, "checks passed:", win.checked)
}

// runEndToEnd is the untraced run: it times set-up several times, then
// measures host cost over the timed window. Host times are scaled to the
// reference speed by the kernel in speedref.go; the raw times are
// printed beside them.
func runEndToEnd(w *workload, seed uint64, seconds float64, out io.Writer) (res *result, err error) {
	ref, err := newSpeedRef()
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := ref.close(); err == nil && cerr != nil {
			res, err = nil, cerr
		}
	}()
	tb, rawSetups, setups, err := setupTimes(w, seed, w.setups, nil, ref)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	win, err := tb.measure(runOpts{hostSeconds: seconds, ref: ref})
	if err != nil {
		return nil, err
	}
	printSim(out, win, tb.lat)
	fmt.Fprintf(out, "set-up times (s): raw %v, scaled %v\n", rawSetups, setups)
	pkts := float64(win.hostPkts)
	slices := win.host.perSlice()
	var walls, cpus, rawWalls, rawCPUs []float64
	for _, c := range slices {
		walls, cpus = append(walls, c.scaledWall), append(cpus, c.scaledCPU)
		rawWalls, rawCPUs = append(rawWalls, c.wall), append(rawCPUs, c.cpu)
	}
	fmt.Fprintf(out, "host ns/pkt over the whole timed window: wall %.1f, cpu %.1f; median of %d slices raw: wall %.1f, cpu %.1f; scaled (reported): wall %.1f, cpu %.1f\n",
		ratio(float64(win.host.wall.Nanoseconds()), pkts), ratio(float64(win.host.cpu.Nanoseconds()), pkts), len(slices),
		median(rawWalls), median(rawCPUs), median(walls), median(cpus))
	fmt.Fprint(out, "slices wall/cpu/scaled wall ns per pkt:")
	for _, c := range slices {
		fmt.Fprintf(out, " %.0f/%.0f/%.0f", c.wall, c.cpu, c.scaledWall)
	}
	fmt.Fprintln(out)
	r := &result{attempted: win.offered, failed: win.failed}
	r.add("host_ns_per_pkt", "ns", median(walls))
	r.add("cpu_ns_per_pkt", "ns", median(cpus))
	r.add("peak_rss_mb", "MiB", peakRSSBytes()/(1<<20))
	r.add("setup_s", "s", median(setups))
	r.add("sim_goodput_gbps", "Gbps", win.sim.GoodputGbps)
	r.add("sim_p50_us", "us", win.sim.P50Us)
	r.add("sim_p99_us", "us", win.sim.P99Us)
	// These three can be exactly zero on a workload, so they carry no
	// relative bound and stay out of the result line's metrics.
	fmt.Fprintf(out, "metric %-40s %16.6g %s\n", "allocs_per_pkt", ratio(float64(win.host.allocs), pkts), "count")
	fmt.Fprintf(out, "metric %-40s %16.6g %s\n", "alloc_bytes_per_pkt", ratio(float64(win.host.bytes), pkts), "B")
	fmt.Fprintf(out, "metric %-40s %16.6g %s  (result line: failed/attempted)\n", "loss_ratio", win.sim.LossRatio, "ratio")
	return r, nil
}

// runTraced measures the workload untraced for half the time, then
// replays the same seed with spans recorded to exactly the same virtual
// time. The two must agree on every simulated output; the difference in
// host time is the tracing overhead.
func runTraced(w *workload, seed uint64, seconds float64, spanFile string, out io.Writer) (*result, error) {
	tbA, _, _, err := setupTimes(w, seed, 1, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	winA, err := tbA.measure(runOpts{hostSeconds: seconds / 2})
	if err != nil {
		return nil, fmt.Errorf("untraced: %w", err)
	}
	tbA = nil
	runtime.GC()
	tr := newTracer()
	tbB, _, _, err := setupTimes(w, seed, 1, tr, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	winB, err := tbB.measure(runOpts{until: winA.end})
	if err != nil {
		return nil, fmt.Errorf("traced: %w", err)
	}
	if err := sameSimulation(winA, winB); err != nil {
		return nil, err
	}
	printSim(out, winB, tbB.lat)
	share := tr.printAttribution(out, winB.hostPkts)
	if math.Abs(share-1) > attributionTolerance {
		return nil, checkf("attribution rows sum to %.4f of the root span, outside %.2f", share, attributionTolerance)
	}
	if err := tr.writeSpans(spanFile); err != nil {
		fmt.Fprintln(out, "span file not written:", err)
	} else {
		fmt.Fprintln(out, "spans of the last chunk written to", spanFile)
	}
	r := perLayer(w, winA, winB, tr, share)
	r.attempted, r.failed = winB.offered, winB.failed
	return r, nil
}

// attributionTolerance is how far the attribution rows may sum from the
// root span: only clock reads between a parent's and a child's edges are
// unattributed.
const attributionTolerance = 0.01

// sameSimulation checks that tracing left the simulation untouched.
func sameSimulation(a, b *window) error {
	pairs := [][2]any{{a.sim, b.sim}, {a.a, b.a}, {a.b, b.b}, {a.inUse, b.inUse}, {a.setupEvents, b.setupEvents}}
	for _, p := range pairs {
		if x, y := fmt.Sprintf("%+v", p[0]), fmt.Sprintf("%+v", p[1]); x != y {
			return checkf("traced and untraced runs differ:\n  untraced %s\n  traced   %s", x, y)
		}
	}
	return nil
}

// perLayer computes every per-layer metric. Host times come from the
// traced window; counts and simulated ratios from the layers' public
// stats over the simulated window; Go runtime figures from the untraced
// window.
func perLayer(w *workload, winA, winB *window, tr *tracer, share float64) *result {
	a, b := winB.a, winB.b
	pkts := winB.hostPkts
	simPkts := float64(b.cnt.delivered - a.cnt.delivered)
	offered := float64(b.offered - a.offered)
	simSpan := float64(b.at - a.at)
	dhl := w.kind == kindIPsec || w.kind == kindNIDS
	fw := w.kind == kindFirewall
	ns := func(n spanName) float64 { return tr.nsPerPkt(n, pkts) }
	r := &result{}

	r.add("eventsim.events_per_pkt", "count", ratio(float64(b.events-a.events), simPkts))
	r.add("eventsim.idle_poll_ratio", "ratio", ratio(float64(b.cnt.idlePolls-a.cnt.idlePolls), float64(b.cnt.polls-a.cnt.polls)))
	r.add("eventsim.self_ns_per_pkt", "ns", ns(spRun))
	r.add("eventsim.virtual_us_per_wall_ms", "us/ms", ratio(winA.hostSpan.Micros(), float64(winA.host.wall.Microseconds())/1e3))
	r.add("eventsim.setup_events", "count", float64(winB.setupEvents))

	r.add("netdev.rx_ns_per_pkt", "ns", ns(spRx))
	r.add("netdev.tx_ns_per_pkt", "ns", ns(spTx))
	r.add("netdev.deliver_ns_per_pkt", "ns", ns(spDeliver))
	r.add("netdev.rx_dropped", "count", float64(b.rx.RxDropped-a.rx.RxDropped))
	r.add("netdev.tx_dropped", "count", float64(b.tx.TxDropped-a.tx.TxDropped))

	r.add("mbuf.alloc_ns_per_pkt", "ns", ns(spAlloc))
	r.add("mbuf.in_use_max", "count", float64(winB.inUse))
	r.add("mbuf.alloc_failures", "count", float64(b.poolFails-a.poolFails))

	r.addIf(fw, "ring.ns_per_pkt", "ns", ns(spRingEnq)+ns(spRingDeq))
	r.addIf(fw, "ring.full_drops", "count", float64(b.cnt.ringLoss-a.cnt.ringLoss))

	r.addIf(dhl, "nf.pre_ns_per_pkt", "ns", ns(spPre))
	r.addIf(dhl, "nf.post_ns_per_pkt", "ns", ns(spPost))
	r.addIf(fw, "nf.process_ns_per_pkt", "ns", ns(spProcess))
	r.add("nf.verdict_drop_ratio", "ratio", ratio(float64(b.cnt.verdictDrops-a.cnt.verdictDrops), offered))

	fa, fb := a.flow, b.flow
	r.addIf(fw, "flowtab.hit_ratio", "ratio", ratio(float64(fb.Hits-fa.Hits), float64(fb.Lookups-fa.Lookups)))
	r.addIf(fw, "flowtab.inserts_per_pkt", "count", ratio(float64(fb.Inserts-fa.Inserts), offered))
	r.addIf(fw, "flowtab.evictions", "count", float64(fb.EvictedIdle+fb.EvictedPressure-fa.EvictedIdle-fa.EvictedPressure))
	r.addIf(fw, "flowtab.rehashes", "count", float64(fb.Rehashes-fa.Rehashes))
	r.addIf(fw, "flowtab.tick_ns_per_call", "ns", ratio(float64(tr.self[spTick]), float64(tr.calls[spTick])))
	r.addIf(fw, "flowtab.bytes_per_flow", "B", ratio(float64(fb.MemBytes), float64(fb.Entries)))
	r.addIf(fw, "flowtab.full_drops", "count", float64(fb.FullDrops-fa.FullDrops))

	ta, tb := a.transfer, b.transfer
	batches := float64(tb.BatchesSent - ta.BatchesSent)
	r.addIf(dhl, "core.send_ns_per_pkt", "ns", ns(spSend))
	r.addIf(dhl, "core.recv_ns_per_pkt", "ns", ns(spRecv))
	r.addIf(dhl, "core.pkts_per_batch", "count", ratio(float64(tb.PktsPacked-ta.PktsPacked), batches))
	r.addIf(dhl, "core.flush_timeout_ratio", "ratio", ratio(float64(tb.FlushByTimeout-ta.FlushByTimeout), batches))
	r.addIf(dhl, "core.ibq_rejected", "count", float64(tb.IBQRejected-ta.IBQRejected))
	r.addIf(dhl, "core.transfer_drops", "count", float64(transferDrops(tb)-transferDrops(ta)))
	tel := w.autotune
	for _, st := range []struct {
		name  string
		stage int
	}{{"core.ibq_wait_p99_ns", 0}, {"core.pack_p99_ns", 1}, {"core.distribute_p99_ns", 5}} {
		r.addIf(tel, st.name, "ns", b.stages[st.stage].Delta(a.stages[st.stage]).QuantileNs(0.99))
	}

	r.addIf(dhl, "pcie.h2c_bytes_per_transfer", "B", ratio(float64(b.h2c.Bytes-a.h2c.Bytes), float64(b.h2c.Transfers-a.h2c.Transfers)))
	r.addIf(dhl, "pcie.h2c_busy_ratio", "ratio", ratio(float64(b.h2c.BusyPs-a.h2c.BusyPs), simSpan))
	r.addIf(dhl, "pcie.c2h_busy_ratio", "ratio", ratio(float64(b.c2h.BusyPs-a.c2h.BusyPs), simSpan))
	r.addIf(dhl, "fpga.region_busy_ratio", "ratio", ratio(float64(b.regionBusy-a.regionBusy), simSpan))
	r.addIf(dhl, "fpga.dispatch_batches", "count", float64(b.regionBatches-a.regionBatches))

	hwCalls := float64(tr.calls[spIPsecHW] + tr.calls[spPatternHW])
	r.addIf(w.kind == kindIPsec, "hwfunc.ipsec-crypto.ns_per_pkt", "ns", ns(spIPsecHW))
	r.addIf(w.kind == kindNIDS, "hwfunc.pattern-matching.ns_per_pkt", "ns", ns(spPatternHW))
	r.addIf(dhl, "hwfunc.ns_per_batch", "ns", ratio(float64(tr.self[spIPsecHW]+tr.self[spPatternHW]), hwCalls))

	r.addIf(w.autotune, "tuner.windows", "count", float64(b.tunerWindows))
	r.addIf(w.autotune, "tuner.shrink_decisions", "count", float64(b.tunerShrink))
	r.addIf(w.autotune, "tuner.grow_decisions", "count", float64(b.tunerGrow))
	r.addIf(w.autotune, "tuner.batch_bytes_final", "B", float64(b.batchTarget))

	h := winA.host
	r.add("goruntime.allocs_per_pkt", "count", ratio(float64(h.allocs), float64(winA.hostPkts)))
	r.add("goruntime.alloc_bytes_per_pkt", "B", ratio(float64(h.bytes), float64(winA.hostPkts)))
	r.add("goruntime.gc_cycles", "count", float64(h.gcCycles))
	r.add("goruntime.gc_cpu_ratio", "ratio", ratio(h.gcCPU, h.allCPU))
	r.add("goruntime.heap_live_mb", "MiB", float64(h.heapLive)/(1<<20))

	var benchNs int64
	for n := spanName(0); n < numSpanNames; n++ {
		if n.layer() == "bench" {
			benchNs += tr.self[n]
		}
	}
	r.add("bench.ns_per_pkt", "ns", ratio(float64(benchNs), float64(pkts)))
	untraced := ratio(float64(winA.host.wall.Nanoseconds()), float64(winA.hostPkts))
	traced := ratio(float64(winB.host.wall.Nanoseconds()), float64(pkts))
	r.add("trace.untraced_host_ns_per_pkt", "ns", untraced)
	r.add("trace.overhead_ns_per_pkt", "ns", traced-untraced)
	r.add("trace.attributed_share", "ratio", share)
	return r
}
