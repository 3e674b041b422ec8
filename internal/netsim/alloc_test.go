package netsim

import (
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/packet"
	"repro/internal/rmt"
)

var sinkPkt *packet.Packet

// packetAllocs is what creating one packet of schema s costs: the
// allocation floor of every per-packet path that makes a packet.
func packetAllocs(s *packet.Schema) float64 {
	return testing.AllocsPerRun(100, func() { sinkPkt = s.New() })
}

// TestFlooderPathAllocatesOnlyPackets pins the per-packet allocation
// floor of the host → switch → host path: in steady state a flooder tick
// (ticker re-arm, header stamping, Host.Send, the switch pipeline and
// egress, delivery to the receiving host) allocates only the packet
// itself. A closure per scheduled event would add to it.
func TestFlooderPathAllocatesOnlyPackets(t *testing.T) {
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
	if want := packetAllocs(r.sw.Program().Schema); allocs != want {
		t.Fatalf("%v allocs per flooded packet, want %v (the packet's own)", allocs, want)
	}
}

// TestTrunkDeliveryAllocatesOnlyTranslation pins the trunk's per-packet
// floor: carrying a packet across (fault draws, the delivery event,
// injection into the peer switch, delivery to its host) allocates only
// the packet wireXlat.translate builds in the peer's schema.
func TestTrunkDeliveryAllocatesOnlyTranslation(t *testing.T) {
	r := buildChain(t, []time.Duration{time.Microsecond}, []faults.LinkProfile{{}})
	delivered := 0
	r.b.Rx = func(*packet.Packet) { delivered++ }
	schema := r.nets[0].Sw.Program().Schema
	pkt := schema.New()
	pkt.Size = 200
	pkt.SetName(testFM.Dst, chainDstAddr)
	send := func() {
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
	if want := packetAllocs(r.nets[1].Sw.Program().Schema); allocs != want {
		t.Fatalf("%v allocs per trunk crossing, want %v (the translated packet)", allocs, want)
	}
}

// TestPacedTCPAllocatesOnlySegments pins a paced flow's floor: per
// pacing interval, one data segment and its ACK, with the pacing pump
// and RTO timers bound once at construction.
func TestPacedTCPAllocatesOnlySegments(t *testing.T) {
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
	if want := 2 * packetAllocs(r.sw.Program().Schema); allocs != want {
		t.Fatalf("%v allocs per paced segment, want %v (the segment and its ACK)", allocs, want)
	}
}
