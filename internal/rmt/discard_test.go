package rmt

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// TestDiscardSeesEveryDropOnce drives each of the switch's drop sites
// and checks the Discard hook: it gets every dropped packet exactly
// once, after the packet is marked and the drop counted, and never a
// packet that went on to Tx.
func TestDiscardSeesEveryDropOnce(t *testing.T) {
	fwd := func(sw *Switch, port uint64) {
		if _, err := sw.AddEntry("forward", Entry{Keys: []KeySpec{ExactKey(1)}, Action: "set_egress", Data: []uint64{port}}); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		cfg  func(*Config)
		// setup configures the switch and returns the packets to
		// inject, all at time zero.
		setup func(sw *Switch) []*packet.Packet
	}{
		{"admission overload", func(c *Config) { c.IngressCapacityPPS = 1e6 }, func(sw *Switch) []*packet.Packet {
			fwd(sw, 2)
			var pkts []*packet.Packet
			for i := 0; i < 70; i++ {
				pkts = append(pkts, mkPacket(sw, 1, uint64(i), 64))
			}
			return pkts
		}},
		{"ingress drop()", nil, func(sw *Switch) []*packet.Packet {
			return []*packet.Packet{mkPacket(sw, 7, 1, 64)} // forward misses: do_drop
		}},
		{"egress port out of range", nil, func(sw *Switch) []*packet.Packet {
			fwd(sw, 500)
			return []*packet.Packet{mkPacket(sw, 1, 1, 64)}
		}},
		{"port down", nil, func(sw *Switch) []*packet.Packet {
			fwd(sw, 2)
			sw.SetPortUp(2, false)
			return []*packet.Packet{mkPacket(sw, 1, 1, 64)}
		}},
		{"queue full, arrival dropped", func(c *Config) { c.QueueCapacity, c.PortBandwidth = 2, 1e8 }, func(sw *Switch) []*packet.Packet {
			fwd(sw, 2)
			var pkts []*packet.Packet
			for i := 0; i < 5; i++ {
				pkts = append(pkts, mkPacket(sw, 1, uint64(i), 1500))
			}
			return pkts
		}},
		{"queue full, victim evicted", func(c *Config) { c.QueueCapacity, c.PortBandwidth = 2, 1e8 }, func(sw *Switch) []*packet.Packet {
			fwd(sw, 2)
			var pkts []*packet.Packet
			for i := 0; i < 5; i++ {
				p := mkPacket(sw, 1, uint64(i), 1500)
				p.Priority = i
				pkts = append(pkts, p)
			}
			return pkts
		}},
		{"egress drop()", nil, func(sw *Switch) []*packet.Packet {
			fwd(sw, 2)
			if _, err := sw.AddEntry("recirc_tbl", Entry{Keys: []KeySpec{ExactKey(42)}, Action: "do_drop"}); err != nil {
				t.Fatal(err)
			}
			p := mkPacket(sw, 1, 1, 64)
			p.SetName("ipv4.protocol", 42)
			return []*packet.Packet{p}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := testProgram(t)
			// Let the egress table drop, so the egress drop site is
			// reachable.
			prog.Tables["recirc_tbl"].ActionNames = append(prog.Tables["recirc_tbl"].ActionNames, "do_drop")
			cfg := DefaultConfig()
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			s := sim.New(1)
			sw, err := New(s, prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			pkts := tc.setup(sw)
			seen := map[*packet.Packet]int{}
			sw.Discard = func(p *packet.Packet) {
				seen[p]++
				st := sw.Stats()
				if !p.Dropped {
					t.Error("Discard got a packet not marked Dropped")
				}
				if drops := st.IngressDrops + st.QueueDrops + st.PortDownDrops; drops != uint64(len(seen)) {
					t.Errorf("Discard before the drop was counted: %d drops counted, %d discarded", drops, len(seen))
				}
			}
			sw.Tx = func(_ int, p *packet.Packet) {
				if seen[p] > 0 {
					t.Error("discarded packet transmitted")
				}
			}
			for _, p := range pkts {
				sw.Inject(0, p)
			}
			s.RunFor(10 * time.Millisecond)
			if len(seen) == 0 {
				t.Fatal("scenario dropped nothing")
			}
			for _, p := range pkts {
				if p.Dropped != (seen[p] == 1) || seen[p] > 1 {
					t.Fatalf("Dropped=%v but discarded %d times", p.Dropped, seen[p])
				}
			}
		})
	}
}
