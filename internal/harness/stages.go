package harness

import (
	"slices"

	"github.com/opencloudnext/dhl-go/internal/core"
	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
	"github.com/opencloudnext/dhl-go/internal/netdev"
	"github.com/opencloudnext/dhl-go/internal/nf"
	"github.com/opencloudnext/dhl-go/internal/perf"
	"github.com/opencloudnext/dhl-go/internal/ring"
)

// The port stages every packet-path experiment builds its I/O cores
// from. rxBurst, preProcess and postProcess only compute: each adds its
// cycles to the poll body's running sum and returns what the body's
// commit must publish, so one poll body can chain several of them (the
// single-core multi-NF port, the pressure-aware ingress). The remaining
// helpers start one stage as a poll loop on a testbed core.

// rxBurst polls every RX queue of port for up to 32 frames each into buf
// and stamps them with the arrival time.
func (tb *testbed) rxBurst(port *netdev.Port, buf []*mbuf.Mbuf) []*mbuf.Mbuf {
	got := 0
	for q := 0; q < port.Queues() && got+32 <= len(buf); q++ {
		got += port.RxBurst(q, buf[got:got+32])
	}
	now := int64(tb.sim.Now())
	for _, m := range buf[:got] {
		m.RxTimestamp = now
	}
	return buf[:got]
}

// drop counts and frees a packet the pipeline discards.
func (tb *testbed) drop(m *mbuf.Mbuf, dropped *uint64) {
	*dropped++
	_ = tb.pool.Free(m)
}

// enqueue puts batch on r, dropping what the ring refuses.
func (tb *testbed) enqueue(r *ring.Ring[*mbuf.Mbuf], batch []*mbuf.Mbuf, dropped *uint64) {
	acc := r.EnqueueBurst(batch)
	for _, m := range batch[acc:] {
		tb.drop(m, dropped)
	}
}

// rxToRing starts an RX I/O core on c moving port's frames onto r.
func (tb *testbed) rxToRing(c *eventsim.Core, port *netdev.Port, r *ring.Ring[*mbuf.Mbuf], dropped *uint64) {
	buf := make([]*mbuf.Mbuf, 64)
	eventsim.NewPollLoop(tb.sim, c, perf.PollIdleCycles, func() (float64, func()) {
		rx := tb.rxBurst(port, buf)
		if len(rx) == 0 {
			return 0, nil
		}
		batch := slices.Clone(rx)
		return float64(len(rx)) * (perf.IORxCycles + perf.RingOpCycles), func() {
			tb.enqueue(r, batch, dropped)
		}
	}).Start()
}

// ringToTx starts a TX I/O core on c moving r's frames out of port.
func (tb *testbed) ringToTx(c *eventsim.Core, r *ring.Ring[*mbuf.Mbuf], port *netdev.Port) {
	buf := make([]*mbuf.Mbuf, 32)
	eventsim.NewPollLoop(tb.sim, c, perf.PollIdleCycles, func() (float64, func()) {
		n := r.DequeueBurst(buf)
		if n == 0 {
			return 0, nil
		}
		batch := slices.Clone(buf[:n])
		return float64(n) * (perf.RingOpCycles + perf.IOTxCycles), func() {
			port.TxBurst(batch, tb.pool)
		}
	}).Start()
}

// preProcess runs app's shallow processing over rx and appends the
// frames bound for the IBQ to send.
func (tb *testbed) preProcess(app dhlNF, rx []*mbuf.Mbuf, cycles float64, send []*mbuf.Mbuf, dropped *uint64) (float64, []*mbuf.Mbuf) {
	for _, m := range rx {
		verdict, c := app.PreProcess(m)
		cycles += perf.IORxCycles + c
		if verdict != nf.VerdictForward {
			tb.drop(m, dropped)
			continue
		}
		send = append(send, m)
	}
	return cycles, send
}

// sendIBQ hands send to the runtime's shared IBQ, dropping what it
// refuses.
func (tb *testbed) sendIBQ(rt *core.Runtime, app dhlNF, send []*mbuf.Mbuf, dropped *uint64) {
	acc, err := rt.SendPackets(app.ID(), send)
	if err != nil {
		acc = 0
	}
	for _, m := range send[acc:] {
		tb.drop(m, dropped)
	}
}

// postProcess drains app's OBQ into buf, runs its post-processing and
// returns the frames bound for TX: nil when the OBQ was empty.
func (tb *testbed) postProcess(rt *core.Runtime, app dhlNF, buf []*mbuf.Mbuf, cycles float64, dropped *uint64) (float64, []*mbuf.Mbuf) {
	n, err := rt.ReceivePackets(app.ID(), buf)
	if err != nil || n == 0 {
		return cycles, nil
	}
	tx := make([]*mbuf.Mbuf, 0, n)
	for _, m := range buf[:n] {
		verdict, c := app.PostProcess(m)
		cycles += perf.OBQPollCycles + c + perf.IOTxCycles
		if verdict != nf.VerdictForward {
			tb.drop(m, dropped)
			continue
		}
		tx = append(tx, m)
	}
	return cycles, tx
}

// dhlIngress starts an I/O core on a DHL NF's RX + shallow-processing +
// IBQ path.
func (tb *testbed) dhlIngress(rt *core.Runtime, app dhlNF, port *netdev.Port, dropped *uint64) {
	buf := make([]*mbuf.Mbuf, 64)
	eventsim.NewPollLoop(tb.sim, tb.core(), perf.PollIdleCycles, func() (float64, func()) {
		rx := tb.rxBurst(port, buf)
		if len(rx) == 0 {
			return 0, nil
		}
		cycles, send := tb.preProcess(app, rx, 0, make([]*mbuf.Mbuf, 0, len(rx)), dropped)
		return cycles, func() { tb.sendIBQ(rt, app, send, dropped) }
	}).Start()
}

// dhlEgress starts an I/O core on a DHL NF's OBQ + post-processing + TX
// path.
func (tb *testbed) dhlEgress(rt *core.Runtime, app dhlNF, port *netdev.Port, dropped *uint64) {
	buf := make([]*mbuf.Mbuf, 32)
	eventsim.NewPollLoop(tb.sim, tb.core(), perf.PollIdleCycles, func() (float64, func()) {
		cycles, tx := tb.postProcess(rt, app, buf, 0, dropped)
		if tx == nil {
			return 0, nil
		}
		return cycles, func() { port.TxBurst(tx, tb.pool) }
	}).Start()
}
