package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// spanName identifies a call site the benchmark wraps. The text before
// the first '.' of its name is the layer it is attributed to.
type spanName uint8

const (
	spRun spanName = iota
	spSource
	spAlloc
	spDeliver
	spRx
	spTx
	spRingEnq
	spRingDeq
	spPre
	spPost
	spProcess
	spSend
	spRecv
	spIPsecHW
	spPatternHW
	spTick
	spIngress
	spEgress
	spWorker
	spTxLoop
	spCheck
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spRun:       "eventsim.run",
	spSource:    "bench.source",
	spAlloc:     "mbuf.alloc",
	spDeliver:   "netdev.deliver",
	spRx:        "netdev.rx",
	spTx:        "netdev.tx",
	spRingEnq:   "ring.enqueue",
	spRingDeq:   "ring.dequeue",
	spPre:       "nf.pre",
	spPost:      "nf.post",
	spProcess:   "nf.process",
	spSend:      "core.send",
	spRecv:      "core.recv",
	spIPsecHW:   "hwfunc.ipsec-crypto",
	spPatternHW: "hwfunc.pattern-matching",
	spTick:      "flowtab.tick",
	spIngress:   "bench.ingress",
	spEgress:    "bench.egress",
	spWorker:    "bench.worker",
	spTxLoop:    "bench.tx",
	spCheck:     "bench.check",
}

func (n spanName) String() string { return spanNames[n] }

// layer is the repo module a span is attributed to.
func (n spanName) layer() string {
	s := spanNames[n]
	if i := strings.IndexByte(s, '.'); i >= 0 {
		return s[:i]
	}
	return s
}

// span is one timed call. Times are nanoseconds since the tracer's epoch;
// parent indexes the enclosing span in the same buffer (-1 for a root);
// batch is the request id: every span under one top-level call shares it.
type span struct {
	start, end int64
	batch      uint64
	parent     int32
	name       spanName
}

// tracer records spans around the benchmark's calls into the layers. The
// buffer is preallocated; the driver folds it into per-name totals at
// every chunk boundary, when only finished spans remain. A nil *tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch     time.Time
	on        bool
	buf       []span
	stack     []int32
	nextBatch uint64
	scratch   []int64
	covered   []int64

	calls [numSpanNames]uint64
	idle  [numSpanNames]uint64
	self  [numSpanNames]int64
	total [numSpanNames]int64
	// last holds the spans of the most recent fold, for writeSpans.
	last []span
}

// traceBufCap is the preallocated span capacity of one chunk; a chunk
// holds a few tens of thousands of spans on every workload.
const traceBufCap = 1 << 18

func newTracer() *tracer {
	return &tracer{
		epoch:   time.Now(),
		buf:     make([]span, 0, traceBufCap),
		stack:   make([]int32, 0, 64),
		scratch: make([]int64, 0, traceBufCap),
		covered: make([]int64, 0, traceBufCap),
		last:    make([]span, 0, traceBufCap),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index, or -1 when not recording.
func (t *tracer) begin(n spanName) int32 {
	if t == nil || !t.on {
		return -1
	}
	return t.open(n)
}

func (t *tracer) open(n spanName) int32 {
	parent := int32(-1)
	var batch uint64
	if d := len(t.stack); d > 0 {
		parent = t.stack[d-1]
		batch = t.buf[parent].batch
		if t.buf[parent].parent < 0 {
			t.nextBatch++
			batch = t.nextBatch
		}
	}
	idx := int32(len(t.buf))
	t.buf = append(t.buf, span{name: n, parent: parent, batch: batch, start: t.now()})
	t.stack = append(t.stack, idx)
	return idx
}

// end closes span i.
func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	t.buf[i].end = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// fold adds the buffered spans to the per-name totals and empties the
// buffer. The folded spans stay readable in last until the next fold.
// Call it only when no span is open.
func (t *tracer) fold() {
	t.scratch, t.covered = selfTimes(t.buf, t.scratch, t.covered)
	for i, s := range t.buf {
		t.calls[s.name]++
		t.self[s.name] += t.scratch[i]
		t.total[s.name] += s.end - s.start
	}
	t.buf, t.last = t.last[:0], t.buf
}

// selfTimes returns, for each span, its duration minus the union of its
// children's intervals clipped to it. Children may nest further or
// overlap one another; the union counts overlapping time once. self and
// covered are scratch buffers reused across calls.
func selfTimes(spans []span, self, covered []int64) ([]int64, []int64) {
	self, covered = self[:0], covered[:0]
	sorted := true
	for i, s := range spans {
		self = append(self, s.end-s.start)
		covered = append(covered, math.MinInt64)
		if i > 0 && s.start < spans[i-1].start {
			sorted = false
		}
	}
	// Visiting each parent's children in start order makes the union a
	// single sweep: covered[p] is the end of the union seen so far. The
	// tracer appends spans as they open, so its buffer is already sorted.
	visit := func(i int) {
		s := spans[i]
		if s.parent < 0 {
			return
		}
		p := spans[s.parent]
		lo := max(s.start, p.start, covered[s.parent])
		hi := min(s.end, p.end)
		if hi > lo {
			self[s.parent] -= hi - lo
			covered[s.parent] = hi
		}
	}
	if sorted {
		for i := range spans {
			visit(i)
		}
		return self, covered
	}
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(spans[a].start, spans[b].start) })
	for _, i := range order {
		visit(i)
	}
	return self, covered
}

// nsPerPkt is a span's self time per delivered packet.
func (t *tracer) nsPerPkt(n spanName, pkts uint64) float64 {
	if pkts == 0 {
		return 0
	}
	return float64(t.self[n]) / float64(pkts)
}

// layerRow is one line of the attribution table.
type layerRow struct {
	Layer  string
	SelfNs int64
	Calls  uint64
	Idle   uint64
}

// attribution groups self time by layer, largest first. The rows sum to
// the root spans' total when every span lies inside its parent.
func (t *tracer) attribution() (rows []layerRow, rootNs int64) {
	byLayer := map[string]*layerRow{}
	for n := spanName(0); n < numSpanNames; n++ {
		if t.calls[n] == 0 && t.idle[n] == 0 {
			continue
		}
		l := n.layer()
		r := byLayer[l]
		if r == nil {
			r = &layerRow{Layer: l}
			byLayer[l] = r
		}
		r.SelfNs += t.self[n]
		r.Calls += t.calls[n]
		r.Idle += t.idle[n]
	}
	for _, r := range byLayer {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfNs != rows[j].SelfNs {
			return rows[i].SelfNs > rows[j].SelfNs
		}
		return rows[i].Layer < rows[j].Layer
	})
	return rows, t.total[spRun]
}

// printAttribution writes the per-layer and per-span tables.
func (t *tracer) printAttribution(w io.Writer, pkts uint64) (share float64) {
	rows, root := t.attribution()
	var sum int64
	fmt.Fprintf(w, "attribution (self time, traced window, %d packets delivered)\n", pkts)
	fmt.Fprintf(w, "  %-10s %14s %8s %12s %12s %12s\n", "layer", "self_ms", "share", "ns/pkt", "calls", "idle_calls")
	for _, r := range rows {
		sum += r.SelfNs
		fmt.Fprintf(w, "  %-10s %14.3f %7.2f%% %12.1f %12d %12d\n", r.Layer, float64(r.SelfNs)/1e6,
			100*float64(r.SelfNs)/float64(max(root, 1)), float64(r.SelfNs)/float64(max(pkts, 1)), r.Calls, r.Idle)
	}
	if root > 0 {
		share = float64(sum) / float64(root)
	}
	fmt.Fprintf(w, "  rows sum to %.4f of the root eventsim.run spans (%.3f ms)\n", share, float64(root)/1e6)
	fmt.Fprintf(w, "  %-26s %14s %12s %12s\n", "span", "self_ms", "ns/pkt", "calls")
	for n := spanName(0); n < numSpanNames; n++ {
		if t.calls[n] == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-26s %14.3f %12.1f %12d\n", n, float64(t.self[n])/1e6, t.nsPerPkt(n, pkts), t.calls[n])
	}
	return share
}

// writeSpans writes the last chunk's spans as JSON lines.
func (t *tracer) writeSpans(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type rec struct {
		Name    string `json:"name"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
		Parent  int32  `json:"parent"`
		Batch   uint64 `json:"batch"`
	}
	for _, s := range t.last {
		if err := enc.Encode(rec{Name: s.name.String(), StartNs: s.start, EndNs: s.end, Parent: s.parent, Batch: s.batch}); err != nil {
			return err
		}
	}
	return bw.Flush()
}
