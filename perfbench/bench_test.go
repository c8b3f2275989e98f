package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/harness"
)

// short returns a copy of the named workload with windows small enough
// for a test, still long enough for p99 to have ten samples beyond it.
func short(t *testing.T, name string) *workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	c := *w
	c.setups = 1
	switch c.kind {
	case kindIPsec:
		c.warmup, c.simWindow = eventsim.Millisecond, eventsim.Millisecond
	case kindNIDS:
		c.warmup, c.simWindow = 2*eventsim.Millisecond, 40*eventsim.Millisecond
	case kindFirewall:
		c.warmup, c.simWindow = 5*eventsim.Millisecond, 2*eventsim.Millisecond
	}
	return &c
}

func measureOnce(t *testing.T, w *workload, seed uint64, tr *tracer) *window {
	t.Helper()
	tb, _, _, err := setupTimes(w, seed, 1, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	win, err := tb.measure(runOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return win
}

// The driver must measure the same testbed as the Figure 6 rig: at line
// rate its DHL IPsec 64 B pipeline saturates at the simulated capacity
// harness.RunSingleNF reports.
func TestFidelityIPsecLineRate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both testbeds at line rate")
	}
	const tolerance = 0.02
	ref, err := harness.RunSingleNF(harness.SingleNFConfig{Kind: harness.IPsecGateway, Mode: harness.DHL, FrameSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	w := short(t, "ipsec-64-busy")
	w.offeredWireBps = 40e9
	w.warmup, w.simWindow = 4*eventsim.Millisecond, 20*eventsim.Millisecond
	win := measureOnce(t, w, 1, nil)
	got, want := win.sim.GoodputGbps, ref.Throughput.GoodBps/1e9
	t.Logf("driver %.3f Gbps, harness %.3f Gbps goodput at line rate", got, want)
	if math.Abs(got-want)/want > tolerance {
		t.Fatalf("driver capacity %.3f Gbps differs from harness %.3f Gbps by more than %.0f%%", got, want, tolerance*100)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1},   // 0: root
		{start: 10, end: 40, parent: 0},    // 1: child
		{start: 30, end: 60, parent: 0},    // 2: overlaps child 1
		{start: 35, end: 50, parent: 2},    // 3: nested in 2
		{start: 90, end: 120, parent: 0},   // 4: sticks out of the root
		{start: 70, end: 80, parent: 0},    // 5: recorded out of start order
		{start: 200, end: 210, parent: -1}, // 6: second root
	}
	self, _ := selfTimes(spans, nil, nil)
	// Root: children cover [10,60] + [70,80] + [90,100] = 70 of 100.
	want := []int64{30, 30, 15, 15, 30, 10, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d: self %d, want %d (all %v)", i, self[i], want[i], self)
		}
	}
	// Sorted input takes the single-sweep path and must agree.
	sorted := append([]span(nil), spans[:5]...)
	self, _ = selfTimes(sorted, nil, nil)
	if self[0] != 40 { // children cover [10,60] and [90,100]
		t.Errorf("sorted root self %d, want 40", self[0])
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		want float64
	}{{5, 0}, {20, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	l := newLatSamples(0)
	for i := int64(100); i >= 1; i-- {
		l.add(i * 1e6) // 1..100 us
	}
	if got := l.quantileUs(0.5); got != 50 {
		t.Errorf("p50 = %g, want 50", got)
	}
	if got := l.quantileUs(0.99); got != 99 {
		t.Errorf("p99 = %g, want 99", got)
	}
	if got := l.quantileUs(1); got != 100 {
		t.Errorf("p100 = %g, want 100", got)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// Every workload must print exactly the metrics BENCHMARK.json declares,
// with names in the contract's alphabet, and the traced run must agree
// with the untraced one on every simulated output.
func TestMetricNamesAndTracedRuns(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	declared := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+" "+m.Unit)
		}
		sort.Strings(out)
		return out
	}
	emitted := func(r *result) []string {
		var out []string
		for _, m := range r.metrics {
			if !nameRE.MatchString(m.name) {
				t.Errorf("metric name %q outside [A-Za-z0-9_.-]+", m.name)
			}
			out = append(out, m.name+" "+m.unit)
		}
		sort.Strings(out)
		return out
	}
	for n := spanName(0); n < numSpanNames; n++ {
		if !nameRE.MatchString(n.String()) {
			t.Errorf("span name %q outside [A-Za-z0-9_.-]+", n)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		t.Run(sw.Name, func(t *testing.T) {
			w := short(t, sw.Name)
			var out bytes.Buffer
			r, err := runEndToEnd(w, 3, 0, &out)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := emitted(r), declared(spec.EndToEnd); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("trace 0 emits %v, BENCHMARK.json declares %v", got, want)
			}
			r, err = runTraced(w, 3, 0, t.TempDir()+"/spans.jsonl", &out)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := emitted(r), declared(spec.PerLayer); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("trace 1 emits %v, BENCHMARK.json declares %v", got, want)
			}
			if !strings.Contains(out.String(), "rows sum to") {
				t.Error("traced run printed no attribution table")
			}
			var line bytes.Buffer
			if err := r.write(&line); err != nil {
				t.Fatal(err)
			}
			last := strings.TrimSpace(line.String())
			last = last[strings.LastIndexByte(last, '\n')+1:]
			var res map[string]any
			if err := json.Unmarshal([]byte(last), &res); err != nil {
				t.Fatalf("result line %q: %v", last, err)
			}
			if len(res) != 4 || res["correct"] != true {
				t.Errorf("result line %q", last)
			}
		})
	}
}

// One seed gives byte-identical simulated outputs and layer counts; a
// second seed gives different traffic.
func TestSeedDeterminism(t *testing.T) {
	for _, name := range []string{"ipsec-64-busy", "fw-1m-churn"} {
		t.Run(name, func(t *testing.T) {
			w := short(t, name)
			a, b := measureOnce(t, w, 7, nil), measureOnce(t, w, 7, newTracer())
			if err := sameSimulation(a, b); err != nil {
				t.Fatal(err)
			}
			c := measureOnce(t, w, heldOutSeed, nil)
			if fmt.Sprintf("%+v", a.sim) == fmt.Sprintf("%+v", c.sim) {
				t.Errorf("seeds 7 and %d gave identical simulated results %+v", heldOutSeed, a.sim)
			}
		})
	}
}

// Each correctness check must fail a run whose output is wrong.
func TestChecksCatchBadOutput(t *testing.T) {
	w := short(t, "ipsec-64-busy")
	c := newChecker(w, 1)
	frame := make([]byte, w.frameSize+20)
	frame[14+9] = 50 // ESP
	c.frames = append(c.frames, frame...)
	c.offs = append(c.offs, 0)
	if err := c.openFrames(1); err == nil {
		t.Error("an unauthenticated frame passed the decrypt check")
	}
	if !aclDenies(0x0A080001) || aclDenies(0x0A420001) || !aclDenies(0x0A400001) || aclDenies(0x0A000001) {
		t.Error("linear ACL scan disagrees with the rule list")
	}
}

// A slice measured while the reference kernel ran at half the reference
// speed reports half its raw cost; a meter without a kernel reports raw.
func TestSliceScaling(t *testing.T) {
	m := &hostMeter{slices: []hostSlice{
		{wall: 4000, cpu: 3000, pkts: 2, ref: 2 * refNominal},
		{wall: 6000, cpu: 4000, pkts: 3, ref: refNominal / 2},
		{wall: 7000, cpu: 5000, pkts: 4},
	}}
	got := m.perSlice()
	want := []sliceCost{
		{wall: 2000, cpu: 1500, scaledWall: 1000, scaledCPU: 750},
		{wall: 2000, cpu: 1000, scaledWall: 4000, scaledCPU: 2000},
		{wall: 1000, cpu: 1000, scaledWall: 1000, scaledCPU: 1000},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("perSlice = %v, want %v", got, want)
	}
}
