package netsim

import (
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/packet"
	"repro/internal/rmt"
)

// TestFlooderPathAllocatesNothing pins the host → switch → host path at
// zero allocations in steady state: a flooder tick (ticker re-arm,
// NewPacket, header stamping, Host.Send, the switch pipeline and
// egress, delivery to the receiving host, release after Rx) reuses the
// packet the previous traversal released. A closure per scheduled
// event, or a packet that is not recycled, would add to it.
func TestFlooderPathAllocatesNothing(t *testing.T) {
	r := buildNet(t, rmt.DefaultConfig())
	a := r.net.AddHost(0, 1)
	b := r.net.AddHost(1, 2)
	r.route(t, 2, 1)
	delivered := 0
	b.Rx = func(*packet.Packet) { delivered++ }
	const rate, size = 10e9, 1500
	interval := time.Duration(size * 8 / rate * float64(time.Second))
	f := NewFlooder(a, r.sw.Program().Schema, testFM, 2, rate, size)
	f.Start()
	r.sim.RunFor(100 * interval) // fill the pipeline, grow the freelists

	sent, got := f.Sent, delivered
	const ticks = 200
	allocs := testing.AllocsPerRun(ticks, func() { r.sim.RunFor(interval) })
	// AllocsPerRun makes one extra warm-up call.
	if f.Sent-sent != ticks+1 || delivered-got != ticks+1 {
		t.Fatalf("one tick per run: sent %d delivered %d over %d runs", f.Sent-sent, delivered-got, ticks+1)
	}
	if allocs != 0 {
		t.Fatalf("%v allocs per flooded packet, want 0", allocs)
	}
}

// TestTrunkDeliveryAllocatesNothing pins a trunk crossing at zero
// allocations in steady state: fault draws, the delivery event,
// translation into a pooled packet of the peer's schema, release of the
// source, injection into the peer switch and delivery to its host.
// Each send hands the trunk a fresh packet from NewPacket, as the
// ownership contract requires.
func TestTrunkDeliveryAllocatesNothing(t *testing.T) {
	r := buildChain(t, []time.Duration{time.Microsecond}, []faults.LinkProfile{{}})
	delivered := 0
	r.b.Rx = func(*packet.Packet) { delivered++ }
	schema := r.nets[0].Sw.Program().Schema
	dst := schema.MustID(testFM.Dst)
	send := func() {
		pkt := r.nets[0].NewPacket(schema)
		pkt.Size = 200
		pkt.Set(dst, chainDstAddr)
		r.trunks[0].Inject(0, pkt)
		r.sim.RunFor(10 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		send()
	}

	allocs := testing.AllocsPerRun(100, send)
	if delivered != 10+101 {
		t.Fatalf("delivered %d of %d", delivered, 10+101)
	}
	if allocs != 0 {
		t.Fatalf("%v allocs per trunk crossing, want 0", allocs)
	}
}

// TestPacedTCPAllocatesNothing pins a paced flow at zero allocations
// per pacing interval in steady state: the data segment and its ACK
// come from the network's pool, and the pacing pump and RTO timers are
// bound once at construction.
func TestPacedTCPAllocatesNothing(t *testing.T) {
	r := buildNet(t, rmt.DefaultConfig())
	a := r.net.AddHost(0, 1)
	b := r.net.AddHost(1, 2)
	r.route(t, 2, 1)
	r.route(t, 1, 0)
	wireFlow(a, b)
	cfg := DefaultTCPConfig()
	cfg.PacedRate = 1e9
	interval := time.Duration(float64(cfg.MSS*8) / cfg.PacedRate * float64(time.Second))
	flow := NewTCPFlow(a, r.sw.Program().Schema, testFM, 2, cfg)
	flow.Start()
	r.sim.RunFor(2 * time.Millisecond) // past the first RTO checks

	delivered := flow.DeliveredBytes
	const runs = 400
	allocs := testing.AllocsPerRun(runs, func() { r.sim.RunFor(interval) })
	if segs := (flow.DeliveredBytes - delivered) / uint64(cfg.MSS); segs != runs+1 {
		t.Fatalf("delivered %d segments over %d pacing intervals", segs, runs+1)
	}
	if allocs != 0 {
		t.Fatalf("%v allocs per paced segment, want 0", allocs)
	}
}
