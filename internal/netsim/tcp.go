package netsim

import (
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// TCPConfig tunes the compact TCP implementation.
type TCPConfig struct {
	// MSS is the data segment size in bytes.
	MSS int
	// InitialCwnd is the initial window in segments.
	InitialCwnd float64
	// RTO is the retransmission timeout.
	RTO time.Duration
	// AckSize is the ACK segment wire size.
	AckSize int
	// MaxCwnd caps the window (segments).
	MaxCwnd float64
	// DCTCP enables ECN-reaction: the sender maintains the DCTCP alpha
	// estimate of the marked fraction and cuts cwnd by alpha/2 once per
	// window. Requires FieldMap.ECN.
	DCTCP bool
	// DCTCPGain is the EWMA gain g for alpha (default 1/16).
	DCTCPGain float64
	// PacedRate, when positive, caps the flow's send rate (bits/s) —
	// an application-limited flow, used to model the Fig. 15 benign
	// senders that together hold the bottleneck at 20%.
	PacedRate float64
}

// DefaultTCPConfig returns datacenter-ish parameters: in a network with
// ~10 µs RTTs an RTO of 1 ms plays the role of the real-world min-RTO.
func DefaultTCPConfig() TCPConfig {
	return TCPConfig{MSS: 1500, InitialCwnd: 10, RTO: time.Millisecond, AckSize: 64, MaxCwnd: 256}
}

// TCPFlow is a one-directional TCP-like flow between two hosts through
// the switch: slow start, AIMD congestion avoidance, NewReno-style
// fast retransmit/fast recovery with partial-ACK retransmission, and
// RTO fallback. Sequence numbers count segments, not bytes.
type TCPFlow struct {
	cfg    TCPConfig
	sender *Host
	fm     FieldMap
	schema *packet.Schema
	dst    uint32
	// fields is fm resolved in schema. A segment that crossed a trunk
	// arrives re-serialized in another switch's schema; rxFields holds
	// fm resolved in each such schema, on first arrival.
	fields   tcpFields
	rxFields []schemaFields

	nextSeq    uint64 // next new segment to send
	highestAck uint64 // all segments < highestAck are delivered
	cwnd       float64
	ssthresh   float64
	dupAcks    int
	// NewReno recovery state: while inRecovery, partial ACKs below
	// recoverSeq trigger immediate hole retransmission.
	inRecovery   bool
	recoverSeq   uint64
	lastProgress sim.Time
	stopped      bool

	// DCTCP state
	dctcpAlpha   float64
	windowAcked  float64
	windowMarked float64
	// MarkedAcks counts ECN-echo ACKs observed (diagnostics).
	MarkedAcks uint64

	// pacing state
	nextSendAt  sim.Time
	pumpPending bool
	// rtoAsOf is lastProgress when the pending RTO check was armed;
	// one check is pending at a time.
	rtoAsOf sim.Time
	// resumeFn and checkRTOFn are bound once, so pacing and RTO
	// timers schedule without allocating a closure.
	resumeFn, checkRTOFn func()

	// receiver state
	rcvNext uint64          // next expected seq
	rcvBuf  map[uint64]bool // out-of-order segments

	// DeliveredBytes counts in-order data accepted by the receiver.
	DeliveredBytes uint64
	// Retransmits counts loss-recovery sends.
	Retransmits uint64
	// Timeouts counts RTO firings.
	Timeouts uint64
	// OnDeliver, if set, observes each in-order delivery.
	OnDeliver func(at sim.Time, bytes int)
}

// tcpFields is a FieldMap resolved against one schema.
type tcpFields struct {
	ipFields
	seq, ack, isAck packet.FieldID
	ecn             packet.FieldID // packet.Invalid when the FieldMap has no ECN
}

// schemaFields pairs a schema with the FieldMap resolved in it.
type schemaFields struct {
	schema *packet.Schema
	tcpFields
}

// resolveTCP resolves every field a TCP segment carries, panicking on a
// name s does not define.
func resolveTCP(s *packet.Schema, fm FieldMap) tcpFields {
	f := tcpFields{
		ipFields: resolveIP(s, fm),
		seq:      s.MustID(fm.Seq),
		ack:      s.MustID(fm.Ack),
		isAck:    s.MustID(fm.IsAck),
		ecn:      packet.Invalid,
	}
	if fm.ECN != "" {
		f.ecn = s.MustID(fm.ECN)
	}
	return f
}

// NewTCPFlow wires a flow from sender toward dst. Data packets carry
// the flow in Payload; endpoints dispatch via HandlePacket. It panics
// if fm names a field schema lacks (ECN may be empty).
func NewTCPFlow(sender *Host, schema *packet.Schema, fm FieldMap, dst uint32, cfg TCPConfig) *TCPFlow {
	if cfg.DCTCPGain == 0 {
		cfg.DCTCPGain = 1.0 / 16
	}
	f := &TCPFlow{
		cfg: cfg, sender: sender, fm: fm, schema: schema, dst: dst,
		fields: resolveTCP(schema, fm), cwnd: cfg.InitialCwnd, ssthresh: cfg.MaxCwnd,
		rcvBuf: make(map[uint64]bool),
	}
	f.resumeFn, f.checkRTOFn = f.resume, f.checkRTO
	return f
}

// fieldsIn returns the flow's fields resolved in s.
func (f *TCPFlow) fieldsIn(s *packet.Schema) *tcpFields {
	if s == f.schema {
		return &f.fields
	}
	for i := range f.rxFields {
		if f.rxFields[i].schema == s {
			return &f.rxFields[i].tcpFields
		}
	}
	f.rxFields = append(f.rxFields, schemaFields{s, resolveTCP(s, f.fm)})
	return &f.rxFields[len(f.rxFields)-1].tcpFields
}

// Start opens the flow and sends the initial window.
func (f *TCPFlow) Start() {
	f.lastProgress = f.sender.net.Sim.Now()
	f.armRTO()
	f.pump()
}

// Stop halts the flow (no new data).
func (f *TCPFlow) Stop() { f.stopped = true }

// outstanding is the un-ACKed segment count.
func (f *TCPFlow) outstanding() float64 { return float64(f.nextSeq - f.highestAck) }

func (f *TCPFlow) sendSegment(seq uint64, retx bool) {
	pkt := f.sender.net.NewPacket(f.schema)
	pkt.Size = f.cfg.MSS
	f.fields.stamp(pkt, f.sender.Addr, f.dst, ProtoTCP)
	pkt.Set(f.fields.seq, seq)
	pkt.Set(f.fields.isAck, 0)
	pkt.Payload = f
	if retx {
		f.Retransmits++
	}
	f.sender.Send(pkt)
}

// pump sends new segments while the window (and pacing budget) allows.
func (f *TCPFlow) pump() {
	if f.stopped {
		return
	}
	if f.cfg.PacedRate <= 0 {
		for f.outstanding() < f.cwnd {
			f.sendSegment(f.nextSeq, false)
			f.nextSeq++
		}
		return
	}
	now := f.sender.net.Sim.Now()
	interval := time.Duration(float64(f.cfg.MSS*8) / f.cfg.PacedRate * float64(time.Second))
	for f.outstanding() < f.cwnd {
		if f.nextSendAt > now {
			// Pacing-blocked with window open: resume at the token time.
			if !f.pumpPending {
				f.pumpPending = true
				f.sender.net.Sim.At(f.nextSendAt, f.resumeFn)
			}
			return
		}
		f.sendSegment(f.nextSeq, false)
		f.nextSeq++
		// Allow up to a small burst of accumulated credit so that late
		// pumps (ACK-clocked) do not permanently lose rate; without the
		// floor the paced rate decays over time.
		if floor := now.Add(-4 * interval); f.nextSendAt < floor {
			f.nextSendAt = floor
		}
		f.nextSendAt = f.nextSendAt.Add(interval)
	}
}

// resume is the paced pump's wakeup at its token time.
func (f *TCPFlow) resume() {
	f.pumpPending = false
	f.pump()
}

func (f *TCPFlow) armRTO() {
	f.rtoAsOf = f.lastProgress
	f.sender.net.Sim.Schedule(f.cfg.RTO, f.checkRTOFn)
}

func (f *TCPFlow) checkRTO() {
	if f.stopped {
		return
	}
	if f.lastProgress > f.rtoAsOf || f.outstanding() == 0 {
		f.armRTO()
		return
	}
	// Timeout: collapse to slow start and retransmit the hole.
	f.Timeouts++
	f.ssthresh = f.cwnd / 2
	if f.ssthresh < 2 {
		f.ssthresh = 2
	}
	f.cwnd = 1
	f.dupAcks = 0
	// Enter recovery so that partial ACKs retransmit subsequent holes at
	// RTT (not RTO) cadence — without this, a loss burst with many holes
	// would cost one RTO per hole.
	f.inRecovery = true
	f.recoverSeq = f.nextSeq
	f.lastProgress = f.sender.net.Sim.Now()
	f.sendSegment(f.highestAck, true)
	f.armRTO()
}

// HandlePacket processes a packet belonging to this flow at either
// endpoint: the receiving host for data, the sending host for ACKs.
func (f *TCPFlow) HandlePacket(pkt *packet.Packet, receiver *Host) {
	in := f.fieldsIn(pkt.Schema())
	if pkt.Get(in.isAck) == 1 {
		marked := in.ecn != packet.Invalid && pkt.Get(in.ecn) == 1
		f.onAck(pkt.Get(in.ack), marked)
		return
	}
	f.onData(pkt, in, receiver)
}

func (f *TCPFlow) onData(pkt *packet.Packet, in *tcpFields, receiver *Host) {
	seq := pkt.Get(in.seq)
	if seq == f.rcvNext {
		f.deliver(receiver)
		f.rcvNext++
		for f.rcvBuf[f.rcvNext] {
			delete(f.rcvBuf, f.rcvNext)
			f.deliver(receiver)
			f.rcvNext++
		}
	} else if seq > f.rcvNext {
		f.rcvBuf[seq] = true
	}
	// Cumulative ACK (a duplicate ACK when data arrived out of order).
	ack := receiver.net.NewPacket(f.schema)
	ack.Size = f.cfg.AckSize
	f.fields.stamp(ack, f.dst, f.sender.Addr, ProtoTCP)
	ack.Set(f.fields.isAck, 1)
	ack.Set(f.fields.ack, f.rcvNext)
	if f.fields.ecn != packet.Invalid {
		// Echo the congestion-experienced mark back to the sender.
		ack.Set(f.fields.ecn, pkt.Get(in.ecn))
	}
	ack.Payload = f
	receiver.Send(ack)
}

func (f *TCPFlow) deliver(receiver *Host) {
	f.DeliveredBytes += uint64(f.cfg.MSS)
	if f.OnDeliver != nil {
		f.OnDeliver(receiver.net.Sim.Now(), f.cfg.MSS)
	}
}

func (f *TCPFlow) onAck(ack uint64, marked bool) {
	if f.stopped {
		return
	}
	if marked {
		f.MarkedAcks++
	}
	switch {
	case ack > f.highestAck:
		newly := float64(ack - f.highestAck)
		f.highestAck = ack
		f.lastProgress = f.sender.net.Sim.Now()
		if f.cfg.DCTCP {
			f.dctcpWindow(newly, marked)
		}
		if f.inRecovery {
			if ack < f.recoverSeq {
				// Partial ACK: another hole was lost; retransmit it now
				// (NewReno) without leaving recovery.
				f.sendSegment(f.highestAck, true)
				f.pump()
				return
			}
			f.inRecovery = false
			f.cwnd = f.ssthresh
		}
		f.dupAcks = 0
		if f.cwnd < f.ssthresh {
			f.cwnd += newly // slow start
		} else {
			f.cwnd += newly / f.cwnd // congestion avoidance
		}
		if f.cwnd > f.cfg.MaxCwnd {
			f.cwnd = f.cfg.MaxCwnd
		}
		f.pump()
	case ack == f.highestAck && f.outstanding() > 0:
		f.dupAcks++
		if f.dupAcks == 3 && !f.inRecovery {
			// Fast retransmit, enter recovery.
			f.ssthresh = f.cwnd / 2
			if f.ssthresh < 2 {
				f.ssthresh = 2
			}
			f.cwnd = f.ssthresh
			f.inRecovery = true
			f.recoverSeq = f.nextSeq
			f.lastProgress = f.sender.net.Sim.Now()
			f.sendSegment(f.highestAck, true)
		} else if f.inRecovery {
			// Window inflation keeps the pipe full during recovery.
			if f.cwnd < f.cfg.MaxCwnd {
				f.cwnd++
			}
			f.pump()
		}
	}
}

// dctcpWindow accumulates per-window mark statistics and applies the
// DCTCP cut cwnd *= (1 - alpha/2) once per window of ACKed data.
func (f *TCPFlow) dctcpWindow(newly float64, marked bool) {
	f.windowAcked += newly
	if marked {
		f.windowMarked += newly
	}
	if f.windowAcked < f.cwnd {
		return
	}
	frac := f.windowMarked / f.windowAcked
	g := f.cfg.DCTCPGain
	f.dctcpAlpha = (1-g)*f.dctcpAlpha + g*frac
	if frac > 0 {
		f.cwnd *= 1 - f.dctcpAlpha/2
		if f.cwnd < 2 {
			f.cwnd = 2
		}
		// A mark episode ends slow start, as in real DCTCP: growth past
		// this point is additive, so the alpha/2 cuts can hold the queue
		// at the marking threshold.
		if f.ssthresh > f.cwnd {
			f.ssthresh = f.cwnd
		}
	}
	f.windowAcked, f.windowMarked = 0, 0
}

// DCTCPAlpha exposes the running marked-fraction estimate.
func (f *TCPFlow) DCTCPAlpha() float64 { return f.dctcpAlpha }

// Cwnd exposes the current congestion window (segments).
func (f *TCPFlow) Cwnd() float64 { return f.cwnd }
