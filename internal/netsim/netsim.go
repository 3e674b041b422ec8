// Package netsim provides the network-level simulation around the
// switch model: hosts attached to switch ports over links with
// bandwidth and propagation delay, a compact TCP implementation (slow
// start, AIMD congestion avoidance, duplicate-ACK fast retransmit, RTO
// fallback), a constant-rate UDP flooder, and heartbeat generators.
//
// These stand in for the paper's testbed servers: Fig. 15's 250
// legitimate TCP senders plus a DPDK UDP blaster, and Fig. 16's
// heartbeat generators at T_s = 1 µs.
package netsim

import (
	"time"

	"repro/internal/packet"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// FieldMap names the schema fields netsim reads/writes on packets. The
// program under test defines these headers; netsim fills them.
type FieldMap struct {
	Src   string // e.g. "ipv4.srcAddr"
	Dst   string // e.g. "ipv4.dstAddr"
	Proto string // e.g. "ipv4.protocol"
	Seq   string // data sequence number
	Ack   string // cumulative ACK number
	IsAck string // 1 for ACK segments
	// ECN, if non-empty, is a 1-bit congestion-experienced field the
	// switch may set and the receiver echoes on ACKs (DCTCP-style).
	ECN string
}

// ipFields is the Src/Dst/Proto part of a FieldMap resolved against
// one schema, so per-packet code stamps headers with Set instead of
// looking names up.
type ipFields struct{ src, dst, proto packet.FieldID }

// resolveIP resolves fm's address and protocol fields in s, panicking
// on a name s does not define: a bad FieldMap fails at setup.
func resolveIP(s *packet.Schema, fm FieldMap) ipFields {
	return ipFields{s.MustID(fm.Src), s.MustID(fm.Dst), s.MustID(fm.Proto)}
}

// stamp sets pkt's address and protocol fields.
func (f ipFields) stamp(pkt *packet.Packet, src, dst uint32, proto uint64) {
	pkt.Set(f.src, uint64(src))
	pkt.Set(f.dst, uint64(dst))
	pkt.Set(f.proto, proto)
}

// Protocol numbers used in traces.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// Host is an endpoint attached to one switch port.
type Host struct {
	net  *Network
	Port int
	Addr uint32
	// Rx is invoked for every packet delivered to this host.
	Rx func(pkt *packet.Packet)
	// linkBusyUntil paces the host's uplink.
	linkBusyUntil sim.Time
	// injectFn and rxFn are inject and rx bound once, so the
	// per-packet link events schedule without allocating a closure.
	injectFn, rxFn func(any)
}

// Network wires hosts to a switch.
type Network struct {
	Sim *sim.Simulator
	Sw  *rmt.Switch
	// LinkBandwidth is the host uplink rate in bits per second.
	LinkBandwidth float64
	// Propagation is the one-way link delay.
	Propagation time.Duration

	hosts  map[int]*Host        // by port
	trunks map[int]*trunkAttach // by port
	stats  NetworkStats
}

// NetworkStats counts network-level drop events.
type NetworkStats struct {
	// DroppedNoPeer counts packets the switch transmitted out a port
	// with neither a host nor a trunk attached. Such packets are a
	// wiring or routing mistake; they are dropped and counted, never
	// silently lost.
	DroppedNoPeer uint64
}

// New wires a network around sw. It takes over sw.Tx: a transmitted
// packet is delivered to the host on the egress port, carried over the
// trunk attached there to a peer switch, or — with neither — dropped
// and counted in Stats().DroppedNoPeer.
func New(s *sim.Simulator, sw *rmt.Switch, linkBW float64, prop time.Duration) *Network {
	n := &Network{
		Sim: s, Sw: sw, LinkBandwidth: linkBW, Propagation: prop,
		hosts:  make(map[int]*Host),
		trunks: make(map[int]*trunkAttach),
	}
	sw.Tx = func(portN int, pkt *packet.Packet) {
		if h, ok := n.hosts[portN]; ok {
			if h.Rx != nil {
				s.ScheduleCall(prop, h.rxFn, pkt)
			}
			return
		}
		if ta, ok := n.trunks[portN]; ok {
			ta.trunk.send(ta.side, pkt)
			return
		}
		n.stats.DroppedNoPeer++
	}
	return n
}

// Stats returns the network's drop counters.
func (n *Network) Stats() NetworkStats { return n.stats }

// AddHost attaches a host to a switch port.
func (n *Network) AddHost(port int, addr uint32) *Host {
	h := &Host{net: n, Port: port, Addr: addr}
	h.injectFn, h.rxFn = h.inject, h.rx
	n.hosts[port] = h
	return h
}

// Host returns the host on a port, or nil.
func (n *Network) Host(port int) *Host { return n.hosts[port] }

// Send transmits a packet from the host into the switch, modeling
// uplink serialization and propagation. Sends queue behind each other
// on the host's link.
func (h *Host) Send(pkt *packet.Packet) {
	now := h.net.Sim.Now()
	start := now
	if h.linkBusyUntil > start {
		start = h.linkBusyUntil
	}
	ser := time.Duration(float64(pkt.Size*8) / h.net.LinkBandwidth * float64(time.Second))
	if ser <= 0 {
		ser = time.Nanosecond
	}
	done := start.Add(ser)
	h.linkBusyUntil = done
	arrive := done.Add(h.net.Propagation)
	h.net.Sim.AtCall(arrive, h.injectFn, pkt)
}

// inject hands a packet that finished crossing the uplink to the switch.
func (h *Host) inject(arg any) { h.net.Sw.Inject(h.Port, arg.(*packet.Packet)) }

// rx delivers a packet that finished crossing the downlink.
func (h *Host) rx(arg any) { h.Rx(arg.(*packet.Packet)) }

// ---- UDP flooder ----

// Flooder blasts fixed-size UDP packets at a constant rate, the
// DPDK-blaster stand-in of Fig. 15.
type Flooder struct {
	host   *Host
	fields ipFields
	schema *packet.Schema
	Dst    uint32
	Rate   float64 // bits per second
	Size   int
	ticker *sim.Ticker
	Sent   uint64
}

// NewFlooder creates a flooder on h targeting dst at rate bps. It
// panics if fm's Src, Dst or Proto names a field schema lacks.
func NewFlooder(h *Host, schema *packet.Schema, fm FieldMap, dst uint32, rate float64, size int) *Flooder {
	return &Flooder{host: h, fields: resolveIP(schema, fm), schema: schema, Dst: dst, Rate: rate, Size: size}
}

// Start begins flooding at the configured rate.
func (f *Flooder) Start() {
	interval := time.Duration(float64(f.Size*8) / f.Rate * float64(time.Second))
	if interval <= 0 {
		interval = time.Nanosecond
	}
	f.ticker = f.host.net.Sim.Every(interval, func() {
		pkt := f.schema.New()
		pkt.Size = f.Size
		f.fields.stamp(pkt, f.host.Addr, f.Dst, ProtoUDP)
		f.host.Send(pkt)
		f.Sent++
	})
}

// Stop halts the flood.
func (f *Flooder) Stop() {
	if f.ticker != nil {
		f.ticker.Stop()
	}
}

// ---- Heartbeats ----

// Heartbeater emits small, high-priority heartbeat packets every
// period — the gray-failure detector's signal source (§8.3.2).
type Heartbeater struct {
	host   *Host
	schema *packet.Schema
	fields ipFields
	Dst    uint32
	Period time.Duration
	ticker *sim.Ticker
	Sent   uint64
	// Enabled gates emission; clearing it emulates a gray failure where
	// the link stays up but traffic silently dies.
	Enabled bool
}

// NewHeartbeater creates a heartbeat source on h. It panics if fm's
// Src, Dst or Proto names a field schema lacks.
func NewHeartbeater(h *Host, schema *packet.Schema, fm FieldMap, dst uint32, period time.Duration) *Heartbeater {
	return &Heartbeater{host: h, schema: schema, fields: resolveIP(schema, fm), Dst: dst, Period: period, Enabled: true}
}

// Start begins emitting heartbeats.
func (hb *Heartbeater) Start() {
	hb.ticker = hb.host.net.Sim.Every(hb.Period, func() {
		if !hb.Enabled {
			return
		}
		pkt := hb.schema.New()
		pkt.Size = 64
		pkt.Priority = 7
		hb.fields.stamp(pkt, hb.host.Addr, hb.Dst, 0xFD) // heartbeat protocol tag
		hb.host.Send(pkt)
		hb.Sent++
	})
}

// Stop halts the generator entirely.
func (hb *Heartbeater) Stop() {
	if hb.ticker != nil {
		hb.ticker.Stop()
	}
}
