package core

import (
	"bytes"
	"testing"

	"github.com/opencloudnext/dhl-go/internal/eventsim"
	"github.com/opencloudnext/dhl-go/internal/fpga"
	"github.com/opencloudnext/dhl-go/internal/mbuf"
)

// TestSteadyStateZeroAllocs is the allocation-budget gate: once the
// freelists (batch arena, inflight pool, event queue, mbuf pool) are warm,
// a full Packer -> DMA -> Dispatcher -> module -> DMA -> Distributor burst
// must not touch the heap at all. A regression here means some hot-path
// object escaped its pool.
func TestSteadyStateZeroAllocs(t *testing.T) {
	r := newRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond},
		moduleSpec("rev", func() fpga.Module { return reverseModule{} }))
	nf, err := r.rt.Register("budget", 0)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()

	const nPkts = 32
	payload := bytes.Repeat([]byte{0x5A}, 200)
	pkts := make([]*mbuf.Mbuf, nPkts)
	out := make([]*mbuf.Mbuf, 2*nPkts)
	cycle := func() {
		for i := range pkts {
			m, aerr := r.pool.Alloc()
			if aerr != nil {
				t.Fatal(aerr)
			}
			if aerr := m.AppendBytes(payload); aerr != nil {
				t.Fatal(aerr)
			}
			m.AccID = uint16(acc)
			pkts[i] = m
		}
		n, serr := r.rt.SendPackets(nf, pkts)
		if serr != nil {
			t.Fatal(serr)
		}
		for _, m := range pkts[n:] {
			_ = r.pool.Free(m)
		}
		r.sim.Run(r.sim.Now() + 300*eventsim.Microsecond)
		got, _ := r.rt.ReceivePackets(nf, out)
		if got != nPkts {
			t.Fatalf("%d of %d packets returned", got, nPkts)
		}
		for i := 0; i < got; i++ {
			_ = r.pool.Free(out[i])
		}
	}

	// Warm every freelist on the path: staging areas, arena segments,
	// inflight objects, simulator events, poll-loop scratch.
	for i := 0; i < 50; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("steady-state burst allocates %.1f objects, want 0", avg)
	}

	// The arena must have stopped growing: every lease in steady state is
	// served from the freelist, and nothing stays leased between bursts.
	tx := r.rt.nodeTx[0]
	grown := tx.arena.grown
	for i := 0; i < 20; i++ {
		cycle()
	}
	if tx.arena.grown != grown {
		t.Errorf("arena grew %d -> %d segments in steady state", grown, tx.arena.grown)
	}
	if n := tx.arena.outstanding(); n != 0 {
		t.Errorf("%d arena segments leaked between bursts", n)
	}
	if tx.arena.doubleRet != 0 || tx.arena.foreign != 0 {
		t.Errorf("arena counters: doubleRet %d foreign %d", tx.arena.doubleRet, tx.arena.foreign)
	}
	if n := r.pool.InUse(); n != 0 {
		t.Errorf("%d mbufs leaked between bursts", n)
	}
}

// TestParkedIdleGapZeroAllocs is the allocation gate for parked poll
// loops: each cycle sends two bursts 150 us apart inside one Run, so the
// transfer cores park across the idle gap and wake for the second burst.
// Parking, waking and the flush doorbell must not touch the heap, and
// the gap must really be skipped rather than polled.
func TestParkedIdleGapZeroAllocs(t *testing.T) {
	r := newRig(t, Config{FlushTimeout: 5 * eventsim.Microsecond},
		moduleSpec("rev", func() fpga.Module { return reverseModule{} }))
	nf, err := r.rt.Register("gap", 0)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := r.rt.SearchByName("rev", 0)
	if err != nil {
		t.Fatal(err)
	}
	r.settle()

	const nPkts = 16
	payload := bytes.Repeat([]byte{0xA5}, 200)
	pkts := make([]*mbuf.Mbuf, nPkts)
	out := make([]*mbuf.Mbuf, 4*nPkts)
	send := func() {
		for i := range pkts {
			m, aerr := r.pool.Alloc()
			if aerr != nil {
				t.Fatal(aerr)
			}
			if aerr := m.AppendBytes(payload); aerr != nil {
				t.Fatal(aerr)
			}
			m.AccID = uint16(acc)
			pkts[i] = m
		}
		if n, serr := r.rt.SendPackets(nf, pkts); serr != nil || n != nPkts {
			t.Fatalf("sent %d of %d: %v", n, nPkts, serr)
		}
	}
	var events uint64
	cycle := func() {
		send()
		r.sim.At(r.sim.Now()+150*eventsim.Microsecond, send)
		before := r.sim.Processed()
		r.sim.Run(r.sim.Now() + 400*eventsim.Microsecond)
		events = r.sim.Processed() - before
		got, _ := r.rt.ReceivePackets(nf, out)
		if got != 2*nPkts {
			t.Fatalf("%d of %d packets returned", got, 2*nPkts)
		}
		for i := 0; i < got; i++ {
			_ = r.pool.Free(out[i])
		}
	}
	for i := 0; i < 50; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("burst-gap-burst cycle allocates %.1f objects, want 0", avg)
	}
	// Polling 400 us on two cores one empty poll at a time would take
	// about 28,000 events.
	if events > 1000 {
		t.Errorf("cycle ran %d events: the idle gap was polled, not parked", events)
	}
}
