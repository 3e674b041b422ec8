package netsim

import (
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/packet"
	"repro/internal/rmt"
)

// checkRecycled asserts that pkt's life ended in n exactly once: the
// next NewPacket of n's schema returns pkt, zeroed, and the one after
// it is another packet.
func checkRecycled(t *testing.T, n *Network, pkt *packet.Packet) {
	t.Helper()
	s := n.Sw.Program().Schema
	got := n.NewPacket(s)
	if got != pkt {
		t.Fatal("next NewPacket did not return the released packet")
	}
	for i := 0; i < s.NumFields(); i++ {
		if v := got.Get(packet.FieldID(i)); v != 0 {
			t.Fatalf("recycled packet keeps %s = %d", s.Name(packet.FieldID(i)), v)
		}
	}
	if got.Size != 0 || got.IngressPort != 0 || got.EgressPort != -1 || got.Dropped ||
		got.Recirculations != 0 || got.Priority != 0 || got.Payload != nil {
		t.Fatalf("recycled packet not zeroed: %+v", got)
	}
	if again := n.NewPacket(s); again == pkt {
		t.Fatal("packet released twice")
	}
}

// stampTest fills pkt with recognisable wire state from src to dst.
func stampTest(pkt *packet.Packet, src, dst uint64) {
	pkt.Size = 1500
	pkt.Priority = 3
	pkt.Payload = "payload"
	pkt.SetName(testFM.Src, src)
	pkt.SetName(testFM.Dst, dst)
	pkt.SetName(testFM.Seq, 77)
}

// checkIntact asserts that a callback sees the wire state stampTest
// wrote, in whatever schema pkt now has.
func checkIntact(t *testing.T, where string, pkt *packet.Packet, src, dst uint64) {
	t.Helper()
	if pkt.Size != 1500 || pkt.Priority != 3 || pkt.Payload != "payload" ||
		pkt.GetName(testFM.Src) != src || pkt.GetName(testFM.Dst) != dst || pkt.GetName(testFM.Seq) != 77 {
		t.Errorf("%s sees a changed packet: %+v", where, pkt)
	}
}

// TestHostPathReleasePoints drives one packet host → switch through
// each release point of a single network and checks that the packet
// returns to the pool exactly once, and that Rx sees it intact first.
func TestHostPathReleasePoints(t *testing.T) {
	cases := []struct {
		name  string
		dst   uint64
		setup func(t *testing.T, r *netRig, b *Host, rx *[]*packet.Packet)
		check func(t *testing.T, r *netRig)
	}{
		{"after Rx returns", 2, func(t *testing.T, r *netRig, b *Host, rx *[]*packet.Packet) {
			b.Rx = func(pkt *packet.Packet) {
				checkIntact(t, "Rx", pkt, 1, 2)
				*rx = append(*rx, pkt)
			}
		}, nil},
		{"host without Rx", 2, nil, nil},
		{"no peer on the egress port", 7, func(t *testing.T, r *netRig, _ *Host, _ *[]*packet.Packet) {
			r.route(t, 7, 5)
		}, func(t *testing.T, r *netRig) {
			if r.net.Stats().DroppedNoPeer != 1 {
				t.Fatalf("DroppedNoPeer = %d, want 1", r.net.Stats().DroppedNoPeer)
			}
		}},
		{"switch drop", 9, nil, func(t *testing.T, r *netRig) { // no route: the default action drops
			if r.sw.Stats().IngressDrops != 1 {
				t.Fatalf("IngressDrops = %d, want 1", r.sw.Stats().IngressDrops)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := buildNet(t, rmt.DefaultConfig())
			a := r.net.AddHost(0, 1)
			b := r.net.AddHost(1, 2)
			r.route(t, 2, 1)
			var rx []*packet.Packet
			if tc.setup != nil {
				tc.setup(t, r, b, &rx)
			}
			pkt := r.net.NewPacket(r.sw.Program().Schema)
			stampTest(pkt, 1, tc.dst)
			a.Send(pkt)
			r.sim.RunFor(time.Millisecond)
			if b.Rx != nil && (len(rx) != 1 || rx[0] != pkt) {
				t.Fatalf("Rx saw %d packets", len(rx))
			}
			if tc.check != nil {
				tc.check(t, r)
			}
			checkRecycled(t, r.net, pkt)
		})
	}
}

// TestTrunkDropReleasePoints checks each of a trunk's four drop
// reasons: the dropped packet returns to the sending network's pool
// exactly once.
func TestTrunkDropReleasePoints(t *testing.T) {
	cases := []struct {
		name  string
		prof  faults.LinkProfile
		setup func(*Trunk)
		count func(TrunkStats) uint64
	}{
		{"admin down", faults.LinkNone(), func(tr *Trunk) { tr.SetAdminDown(true) },
			func(s TrunkStats) uint64 { return s.AdminDownDrops }},
		{"partition", faults.LinkNone(), func(tr *Trunk) { tr.SetPartitioned(true) },
			func(s TrunkStats) uint64 { return s.PartitionDrops }},
		{"gray", faults.LinkNone(), func(tr *Trunk) { tr.SetGray(1) },
			func(s TrunkStats) uint64 { return s.GrayDrops }},
		{"profile loss", faults.LinkProfile{Loss: 1}, func(*Trunk) {},
			func(s TrunkStats) uint64 { return s.Lost }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := buildChain(t, []time.Duration{time.Microsecond}, []faults.LinkProfile{tc.prof})
			tc.setup(r.trunks[0])
			r.b.Rx = func(*packet.Packet) { t.Error("dropped packet delivered") }
			pkt := r.nets[0].NewPacket(r.nets[0].Sw.Program().Schema)
			stampTest(pkt, chainSrcAddr, chainDstAddr)
			r.a.Send(pkt)
			r.sim.RunFor(time.Millisecond)
			if got := tc.count(r.trunks[0].Stats(0)); got != 1 {
				t.Fatalf("drop counter = %d, want 1", got)
			}
			checkRecycled(t, r.nets[0], pkt)
		})
	}
}

// TestTrunkDeliveryReleasesSource checks a trunk crossing: Tap and the
// far host's Rx see the translated packet intact, the source returns to
// the sending network's pool once translation is done, and the
// translated packet to the receiving network's pool after Rx. Both a
// routed packet and one handed to Trunk.Inject are checked.
func TestTrunkDeliveryReleasesSource(t *testing.T) {
	for _, viaInject := range []bool{false, true} {
		r := buildChain(t, []time.Duration{time.Microsecond}, []faults.LinkProfile{faults.LinkNone()})
		var tapped, rx []*packet.Packet
		r.trunks[0].Tap = func(from int, pkt *packet.Packet) {
			checkIntact(t, "Tap", pkt, chainSrcAddr, chainDstAddr)
			tapped = append(tapped, pkt)
		}
		r.b.Rx = func(pkt *packet.Packet) {
			checkIntact(t, "Rx", pkt, chainSrcAddr, chainDstAddr)
			rx = append(rx, pkt)
		}
		src := r.nets[0].NewPacket(r.nets[0].Sw.Program().Schema)
		stampTest(src, chainSrcAddr, chainDstAddr)
		if viaInject {
			r.trunks[0].Inject(0, src)
		} else {
			r.a.Send(src)
		}
		r.sim.RunFor(time.Millisecond)
		if len(tapped) != 1 || len(rx) != 1 || tapped[0] != rx[0] {
			t.Fatalf("inject=%v: Tap saw %d packets, Rx %d", viaInject, len(tapped), len(rx))
		}
		if rx[0].Schema() != r.nets[1].Sw.Program().Schema {
			t.Fatalf("inject=%v: delivered packet not in the receiver's schema", viaInject)
		}
		checkRecycled(t, r.nets[0], src)
		checkRecycled(t, r.nets[1], rx[0])
	}
}

// TestForeignSchemaPacketBypassesPool: a packet of another switch's
// schema is made fresh by NewPacket and left to the collector at the
// end of its life, never put in this network's pool.
func TestForeignSchemaPacketBypassesPool(t *testing.T) {
	r := buildChain(t, []time.Duration{time.Microsecond}, []faults.LinkProfile{faults.LinkNone()})
	own, foreign := r.nets[0].Sw.Program().Schema, r.nets[1].Sw.Program().Schema
	delivered := 0
	r.b.Rx = func(*packet.Packet) { delivered++ }
	pkt := r.nets[0].NewPacket(foreign)
	if pkt.Schema() != foreign {
		t.Fatal("NewPacket ignored the requested schema")
	}
	stampTest(pkt, chainSrcAddr, chainDstAddr)
	r.a.Send(pkt) // same wire layout: sw0 forwards it onto the trunk
	r.sim.RunFor(time.Millisecond)
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1", delivered)
	}
	if got := r.nets[0].NewPacket(own); got == pkt {
		t.Fatal("foreign-schema packet entered the pool")
	}
}
