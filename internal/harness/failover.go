package harness

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/faultinject"
	"github.com/opencloudnext/dhl-go/internal/fpga"
	"github.com/opencloudnext/dhl-go/internal/hwfunc"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/pcie"
	"github.com/opencloudnext/dhl-go/internal/stats"
)

// The failure-recovery experiment paces a fixed-rate packet source through
// the DHL ipsec-crypto accelerator and injects a persistent region fault
// (an SEU that garbles every response batch) about a sixth of the way
// through the run, plus a handful of transient DMA faults that the bounded
// retry must mask. Three runs share one seed:
//
//   - baseline: no fault plan, the fault-free goodput reference;
//   - no-fallback: the SEU drives the health FSM to quarantine and the
//     region reloads over ICAP (~29 ms for the 5.6 MB bitstream); until the
//     reload completes, traffic drains as StatusUnprocessed and goodput
//     collapses — the curve's dip width is the MTTR;
//   - fallback: identical schedule, but a software ipsec module is
//     registered as the quarantine fallback, so goodput barely dips.
//
// Goodput counts only bytes the pipeline actually processed (StatusOK or
// StatusFallback); unprocessed passthrough deliveries do not count.
const (
	failoverBurst      = 4
	failoverIntervalPs = 25 * eventsim.Microsecond
)

// FailoverConfig parameterizes RunFailover.
type FailoverConfig struct {
	// Seed drives the deterministic fault plan; all three runs derive
	// their schedule from it. 0 selects the default seed.
	Seed uint64
	// Packets is the total paced packet count per run (default 9600,
	// i.e. a 60 ms run at 4 packets / 25 us — long enough to fit the
	// ~29 ms ICAP reload with slack on both sides).
	Packets int
	// FrameSize is the plaintext frame size in bytes (default 256).
	FrameSize int
	// Buckets is the goodput-curve resolution (default 60).
	Buckets int
}

func (c FailoverConfig) withDefaults() FailoverConfig {
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Packets <= 0 {
		c.Packets = 9600
	}
	if c.FrameSize <= 0 {
		c.FrameSize = 256
	}
	if c.Buckets <= 0 {
		c.Buckets = 60
	}
	return c
}

// FailoverRun is the measured outcome of one paced run.
type FailoverRun struct {
	Label string
	// Curve is the per-bucket goodput in bits/s; BucketUs is the bucket
	// width in microseconds.
	Curve    []float64
	BucketUs float64
	// MTTRUs is the recovery time read off the curve: from the first
	// bucket below 50% of the baseline mean to the next bucket back at
	// >= 90%. 0 when the run never degraded, -1 when it never recovered.
	MTTRUs float64
	// MinRateBps is the lowest interior-bucket goodput.
	MinRateBps float64
	// RecoveredGoodBps is the mean goodput over the last quarter of the
	// run, after any reload has completed.
	RecoveredGoodBps float64

	DeliveredOK          uint64
	DeliveredFallback    uint64
	DeliveredUnprocessed uint64
	SourceDrops          uint64
	Leaked               int

	Stats  core.TransferStats
	Health core.HealthReport
}

// FailoverResult aggregates the three runs of the experiment.
type FailoverResult struct {
	Seed uint64
	// BaselineGoodBps is the fault-free mean goodput over the interior
	// buckets, the reference for the MTTR thresholds.
	BaselineGoodBps float64

	Baseline   FailoverRun
	NoFallback FailoverRun
	Fallback   FailoverRun
}

// faultAt is the dispatched-batch count about a sixth of the way into a
// paced run of packets (each burst packs into one batch).
func faultAt(packets int) uint64 {
	return uint64(max(1, packets/(failoverBurst*6)))
}

// failoverSpecs positions the persistent SEU about a sixth of the way into
// the run and sprinkles transient H2C faults for the DMA retry to absorb.
func failoverSpecs(packets int) []faultinject.Spec {
	return []faultinject.Spec{
		{Kind: faultinject.RegionSEU, EveryN: faultAt(packets), Count: 1},
		{Kind: faultinject.DMAH2CError, EveryN: 97, Count: 5},
	}
}

// RunFailover runs the failure-recovery experiment: a fault-free baseline,
// a fault run without fallback, and a fault run with the software ipsec
// fallback registered — all from one seed.
func RunFailover(cfg FailoverConfig) (*FailoverResult, error) {
	cfg = cfg.withDefaults()
	res := &FailoverResult{Seed: cfg.Seed}

	base, err := runFailoverOnce(cfg, nil, false, "baseline")
	if err != nil {
		return nil, fmt.Errorf("harness: failover baseline: %w", err)
	}
	res.Baseline = base
	res.BaselineGoodBps = interiorMean(base.Curve)

	for _, v := range []struct {
		label    string
		fallback bool
		dst      *FailoverRun
	}{
		{"fault/no-fallback", false, &res.NoFallback},
		{"fault/fallback", true, &res.Fallback},
	} {
		plan, err := faultinject.NewPlan(cfg.Seed, failoverSpecs(cfg.Packets)...)
		if err != nil {
			return nil, fmt.Errorf("harness: failover plan: %w", err)
		}
		run, err := runFailoverOnce(cfg, plan, v.fallback, v.label)
		if err != nil {
			return nil, fmt.Errorf("harness: failover %s: %w", v.label, err)
		}
		*v.dst = run
	}

	analyzeFailoverRun(&res.Baseline, res.BaselineGoodBps)
	analyzeFailoverRun(&res.NoFallback, res.BaselineGoodBps)
	analyzeFailoverRun(&res.Fallback, res.BaselineGoodBps)
	return res, nil
}

// runFailoverOnce paces one run through a single-board rig armed with
// plan, optionally with the software fallback registered.
func runFailoverOnce(cfg FailoverConfig, plan *faultinject.Plan, withFallback bool, label string) (FailoverRun, error) {
	rig, err := newIPsecRig(1, "failover-gen", core.Config{Faults: plan}, withFallback)
	if err != nil {
		return FailoverRun{Label: label}, err
	}
	return rig.paceFrames(cfg, label)
}

// ipsecRig is the paced IPsec fault rig the failure experiments share: a
// testbed whose runtime serves the ipsec-crypto accelerator to one source
// NF. The source offers failoverBurst request records every
// failoverIntervalPs; a drain before each burst empties the NF's OBQ and
// counts every packet by delivery status.
type ipsecRig struct {
	tb   *testbed
	rt   *core.Runtime
	devs []*fpga.Device
	nf   core.NFID
	acc  core.AccID

	// err is the first failure; it stops the source and the drain.
	err error
	// goodput buckets processed (OK or fallback) bits from t0 on; nil
	// when the run records no curve.
	goodput *stats.TimeSeries
	t0      eventsim.Time
	scratch []*mbuf.Mbuf

	ok, fallback, unprocessed, sourceDrops uint64
}

// newIPsecRig stands up the rig over boards FPGAs with coreCfg's fault
// plan and watchdog, registers the source NF as name, configures the
// accelerator (and, with fallback, its software fallback), and settles
// the initial ICAP load of the 5.6 MB bitstream.
func newIPsecRig(boards int, name string, coreCfg core.Config, fallback bool) (*ipsecRig, error) {
	tb, err := newTestbed(0)
	if err != nil {
		return nil, err
	}
	coreCfg.BatchBytes = 2048
	coreCfg.FlushTimeout = 5 * eventsim.Microsecond
	rt, devs, err := tb.newRuntime(boards, pcie.Config{}, coreCfg)
	if err != nil {
		return nil, err
	}
	nfID, err := rt.Register(name, 0)
	if err != nil {
		return nil, err
	}
	acc, err := rt.SearchByName(hwfunc.IPsecCryptoName, 0)
	if err != nil {
		return nil, err
	}
	var key [32]byte
	var authKey [20]byte
	for i := range key {
		key[i] = byte(i + 1)
	}
	for i := range authKey {
		authKey[i] = byte(0xa0 + i)
	}
	blob, err := hwfunc.EncodeIPsecCryptoConfig(key[:], authKey[:], 0x01020304)
	if err != nil {
		return nil, err
	}
	if err := rt.AccConfigure(acc, blob); err != nil {
		return nil, err
	}
	if fallback {
		spec := hwfunc.Specs()[hwfunc.IPsecCryptoName]
		if err := rt.RegisterFallback(hwfunc.IPsecCryptoName, 0, spec.New); err != nil {
			return nil, err
		}
	}
	tb.settle(40 * eventsim.Millisecond)
	return &ipsecRig{tb: tb, rt: rt, devs: devs, nf: nfID, acc: acc, scratch: make([]*mbuf.Mbuf, 64)}, nil
}

func (r *ipsecRig) fail(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

// drain empties the source NF's OBQ, counting each packet by delivery
// status.
func (r *ipsecRig) drain() {
	for r.err == nil {
		n, err := r.rt.ReceivePackets(r.nf, r.scratch)
		if err != nil {
			r.fail(err)
			return
		}
		if n == 0 {
			return
		}
		at := (r.tb.sim.Now() - r.t0).Seconds()
		for _, m := range r.scratch[:n] {
			switch m.Status {
			case mbuf.StatusUnprocessed:
				r.unprocessed++
			case mbuf.StatusFallback:
				r.fallback++
			default:
				r.ok++
			}
			if m.Status != mbuf.StatusUnprocessed && r.goodput != nil {
				r.goodput.Add(at, float64(m.Len()*8))
			}
			r.fail(r.tb.pool.Free(m))
		}
	}
}

// pace offers packets request records, failoverBurst every
// failoverIntervalPs. fill(i, m) writes record i into a fresh mbuf;
// false drops it. With buckets > 0 the drain records a goodput curve of
// that resolution over the pacing span.
func (r *ipsecRig) pace(packets, buckets int, fill func(i int, m *mbuf.Mbuf) (bool, error)) error {
	tb := r.tb
	duration := eventsim.Time((packets+failoverBurst-1)/failoverBurst) * failoverIntervalPs
	r.t0 = tb.sim.Now()
	if buckets > 0 {
		r.goodput = stats.NewTimeSeries(duration.Seconds(), buckets)
	}
	sent := 0
	batch := make([]*mbuf.Mbuf, 0, failoverBurst)
	var tick func()
	tick = func() {
		r.drain()
		if r.err != nil {
			return
		}
		batch = batch[:0]
		for b := 0; b < failoverBurst && sent < packets; b++ {
			i := sent
			sent++
			m, err := tb.pool.Alloc()
			if err != nil {
				r.sourceDrops++
				continue
			}
			keep, err := fill(i, m)
			if err != nil || !keep {
				r.fail(err)
				r.fail(tb.pool.Free(m))
				if err != nil {
					return
				}
				continue
			}
			m.AccID = uint16(r.acc)
			batch = append(batch, m)
		}
		n, err := r.rt.SendPackets(r.nf, batch)
		if err != nil {
			r.fail(err)
			n = 0
		}
		for _, m := range batch[n:] {
			r.sourceDrops++
			r.fail(tb.pool.Free(m))
		}
		if sent < packets {
			tb.sim.After(failoverIntervalPs, tick)
		}
	}
	tb.sim.After(0, tick)
	tb.sim.Run(r.t0 + duration)

	// Drain the tail: whatever is still in flight (including a pending
	// ICAP reload) gets another 60 ms to complete and deliver.
	deadline := tb.sim.Now() + 60*eventsim.Millisecond
	for tb.sim.Now() < deadline && tb.pool.InUse() > 0 && r.err == nil {
		tb.sim.Run(tb.sim.Now() + eventsim.Millisecond)
		r.drain()
	}
	r.drain()
	return r.err
}

// paceFrames paces cfg.Packets plaintext ipsec request records through
// the rig and reports the run's goodput curve and ledgers.
func (r *ipsecRig) paceFrames(cfg FailoverConfig, label string) (FailoverRun, error) {
	run := FailoverRun{Label: label}
	// The ipsec request record: 2-byte encryption offset (0: encrypt the
	// whole frame) followed by the plaintext frame.
	req := make([]byte, 0, hwfunc.IPsecReqPrefix+cfg.FrameSize)
	req = binary.BigEndian.AppendUint16(req, 0)
	for i := 0; i < cfg.FrameSize; i++ {
		req = append(req, byte(i))
	}
	if err := r.pace(cfg.Packets, cfg.Buckets, func(_ int, m *mbuf.Mbuf) (bool, error) {
		return true, m.AppendBytes(req)
	}); err != nil {
		return run, err
	}

	run.BucketUs = r.goodput.BucketWidth() * 1e6
	run.Curve = make([]float64, cfg.Buckets)
	for i := range run.Curve {
		run.Curve[i] = r.goodput.Rate(i)
	}
	run.DeliveredOK, run.DeliveredFallback, run.DeliveredUnprocessed = r.ok, r.fallback, r.unprocessed
	run.SourceDrops = r.sourceDrops
	run.Leaked = r.tb.pool.InUse()
	var err error
	if run.Stats, err = r.rt.Stats(0); err != nil {
		return run, err
	}
	run.Health, err = r.rt.AccHealth(r.acc)
	return run, err
}

// interiorMean averages a curve's interior buckets; the first and last
// bucket carry pipeline-fill and delivery-lag edge effects.
func interiorMean(curve []float64) float64 {
	if len(curve) <= 2 {
		return 0
	}
	var sum float64
	for _, r := range curve[1 : len(curve)-1] {
		sum += r
	}
	return sum / float64(len(curve)-2)
}

// analyzeFailoverRun derives the MTTR and recovery figures from a run's
// goodput curve against the baseline mean.
func analyzeFailoverRun(run *FailoverRun, baselineBps float64) {
	n := len(run.Curve)
	run.MinRateBps = math.Inf(1)
	for i := 1; i < n-1; i++ {
		if run.Curve[i] < run.MinRateBps {
			run.MinRateBps = run.Curve[i]
		}
	}
	if math.IsInf(run.MinRateBps, 1) {
		run.MinRateBps = 0
	}
	degraded := -1
	for i := 1; i < n-1; i++ {
		if run.Curve[i] < 0.5*baselineBps {
			degraded = i
			break
		}
	}
	run.MTTRUs = 0
	if degraded >= 0 {
		run.MTTRUs = -1
		for j := degraded + 1; j < n; j++ {
			if run.Curve[j] >= 0.9*baselineBps {
				run.MTTRUs = float64(j-degraded) * run.BucketUs
				break
			}
		}
	}
	q := 3 * n / 4
	var sum float64
	for _, r := range run.Curve[q:] {
		sum += r
	}
	if n-q > 0 {
		run.RecoveredGoodBps = sum / float64(n-q)
	}
}
