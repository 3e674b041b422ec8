package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/compiler"
	"repro/internal/compiler/place"
	"repro/internal/core"
	"repro/internal/ctlchan"
	"repro/internal/ctlplane"
	"repro/internal/driver"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/rmt"
	"repro/internal/sim"
	"repro/internal/usecases"
)

// workload is one benchmark scenario. A round calls setup (timed as
// setup_s), begin, then runs the simulator for spec.span in spec.slice
// steps (timed as run_s), then finish.
type workload interface {
	// setup compiles the programs, builds the switches and their control
	// stacks, runs the prologue and the warm-up. traced puts the span
	// recorder under the agent's driver channel where one is reachable.
	setup(seed int64, traced bool) error
	simulator() *sim.Simulator
	// begin starts the measured span of the given virtual length.
	begin(span time.Duration)
	// counts reads every layer's cumulative counters; the round reports
	// their growth over the measured span.
	counts() counts
	// finish stops and drains the workload, checks its outputs and
	// records the virtual-time results; d is the growth of counts over
	// the measured span.
	finish(out *roundOut, d counts) error
	// tracer is the span recorder, nil when untraced or unreachable.
	tracer() *tracer
	// setupMs breaks down the host time of setup by layer.
	setupMs() counts
}

type spec struct {
	name  string
	span  time.Duration // measured virtual span
	slice time.Duration // virtual length of one timed RunFor
	make  func() workload
}

// The workload set. Each stresses different layers:
//   - ctl-churn: core, rcl, the driver ring, ctlplane and sim.Proc
//     handoffs; no packets, so rmt and netsim do nothing. Write-heavy.
//   - dos-flood: the rmt pipeline, netsim and the sim event queue; no
//     ctlplane sessions, ctlchan or fabric. Read-heavy driver traffic.
//   - fabric-gray: the only one with ctlchan retransmit/dedup,
//     coordinator fan-out, trunk translation and multi-agent reroutes;
//     allocation-heavy.
var specs = []spec{
	{"ctl-churn", 400 * time.Millisecond, 2 * time.Millisecond, func() workload { return &ctlChurn{} }},
	{"dos-flood", 400 * time.Millisecond, 2 * time.Millisecond, func() workload { return &dosFlood{} }},
	{"fabric-gray", 40 * time.Millisecond, 200 * time.Microsecond, func() workload { return &fabricGray{} }},
}

func lookup(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// counts maps a per-layer counter name to its value.
type counts map[string]float64

// iterRecorder is an agent's AfterIteration hook. While on, it records
// the virtual latency of every dialogue iteration, which core itself
// keeps only for the first LatencySamples iterations. The agents it
// hooks busy-loop (Pacing 0): an iteration starts where the previous
// one's hook returned, after a zero-length yield, so its latency is
// the distance between consecutive hooks. It also advances the
// tracer's parent iteration id.
type iterRecorder struct {
	tr   *tracer
	on   bool
	seen bool
	prev sim.Time
	lats []float64 // virtual ns
}

func (r *iterRecorder) hook(p *sim.Proc, _ *core.Agent) {
	now := p.Now()
	if r.on && r.seen {
		r.lats = append(r.lats, float64(now.Sub(r.prev)))
	}
	r.prev, r.seen = now, true
	if r.tr != nil {
		r.tr.iter++
	}
}

// compile compiles src and adds its host time to *ms.
func compile(src string, opts compiler.Options, ms *float64) (*compiler.Plan, error) {
	t0 := time.Now()
	plan, err := compiler.CompileSource(src, opts)
	*ms += float64(time.Since(t0).Nanoseconds()) / 1e6
	return plan, err
}

// coreCounts adds one agent's dialogue counters to c.
func coreCounts(c counts, st core.Stats) {
	c["core.iterations"] += float64(st.Iterations)
	c["core.commits"] += float64(st.Commits)
	c["core.retries"] += float64(st.Retries)
	c["core.rollbacks"] += float64(st.Rollbacks)
	c["core.abandoned"] += float64(st.Abandoned)
	c["core.degraded"] += float64(st.Degraded)
	c["rcl.reaction_errors"] += float64(st.ReactionErrors)
}

func driverCounts(c counts, st driver.Stats) {
	c["driver.table_ops"] += float64(st.TableOps)
	c["driver.memoized_ops"] += float64(st.MemoizedOps)
	c["driver.reg_reads"] += float64(st.RegReads)
	c["driver.reg_read_bytes"] += float64(st.RegReadBytes)
	c["driver.audit_reads"] += float64(st.AuditReads)
	c["driver.busy_ns"] += float64(st.Busy)
	c["driver.switches"]++
}

func ctlplaneCounts(c counts, svc *ctlplane.Service) {
	st, rs := svc.Stats(), svc.RingStats()
	c["ctlplane.dialogue_ops"] += float64(st.DialogueOps)
	c["ctlplane.bulk_ops"] += float64(st.BulkOps)
	c["ctlplane.write_txns"] += float64(st.WriteTransactions)
	c["ctlplane.writes_coalesced"] += float64(st.WritesCoalesced)
	c["ctlplane.reads_coalesced"] += float64(st.ReadsCoalesced)
	c["ctlplane.rejections"] += float64(st.Rejections)
	c["driver.ring_flushes"] += float64(rs.Flushes)
	c["driver.ring_ops"] += float64(rs.OpsFlushed)
}

func rmtCounts(c counts, st rmt.Stats) {
	c["rmt.rx_pkts"] += float64(st.RxPackets)
	c["rmt.ingress_drops"] += float64(st.IngressDrops)
	c["rmt.queue_drops"] += float64(st.QueueDrops)
}

func tcpCounts(c counts, flows []*netsim.TCPFlow) {
	for _, f := range flows {
		c["netsim.tcp_retransmits"] += float64(f.Retransmits)
		c["netsim.tcp_timeouts"] += float64(f.Timeouts)
	}
}

// senderStagger is Fig. 15's spacing of benign sender starts.
const senderStagger = 7 * time.Microsecond

// wireSenders attaches one paced TCP sender per (port, addr) pair to
// net, streaming to dst. Senders start senderStagger apart, as in
// Fig. 15, so the paced senders do not phase-lock; the seed shuffles
// which sender takes which start slot.
func wireSenders(net *netsim.Network, schema *packet.Schema, rng *rand.Rand, ports []int, addrs []uint32,
	dst uint32, bps float64, onDeliver func(at sim.Time, bytes int)) []*netsim.TCPFlow {
	cfg := netsim.DefaultTCPConfig()
	cfg.PacedRate = bps
	cfg.RTO = 500 * time.Microsecond
	var flows []*netsim.TCPFlow
	slots := rng.Perm(len(ports))
	for i, port := range ports {
		h := net.AddHost(port, addrs[i])
		h.Rx = tcpDispatch(h)
		f := netsim.NewTCPFlow(h, schema, usecases.FM, dst, cfg)
		f.OnDeliver = onDeliver
		flows = append(flows, f)
		net.Sim.Schedule(time.Duration(slots[i])*senderStagger, f.Start)
	}
	return flows
}

// tcpDispatch hands TCP segments arriving at h to their flow (ACKs
// back to the sender).
func tcpDispatch(h *netsim.Host) func(*packet.Packet) {
	return func(pkt *packet.Packet) {
		if f, ok := pkt.Payload.(*netsim.TCPFlow); ok {
			f.HandlePacket(pkt, h)
		}
	}
}

// ---- ctl-churn ----

// fig11Src is the Fig. 11 program: one malleable field flipped by the
// rcl reaction every iteration (so every iteration commits through the
// three-phase update), plus the legacy table the Fig. 12 controllers
// churn.
const fig11Src = `
header_type h_t { fields { a : 16; b : 16; } }
header h_t hdr;
malleable field fv { width : 16; init : hdr.a; alts { hdr.a, hdr.b } }
action use(port) {
  modify_field(standard_metadata.egress_spec, port);
  modify_field(hdr.a, ${fv});
}
malleable table t {
  actions { use; }
  size : 2;
}
action legacy_act(v) {
  modify_field(hdr.b, v);
}
table legacy {
  reads { hdr.a : exact; }
  actions { legacy_act; }
  size : 64;
}
reaction flip() {
  static int i = 0;
  i = i + 1;
  ${fv} = i & 1;
}
control ingress { apply(t); apply(legacy); }
`

const (
	churnClients = 4
	churnWarmup  = 20 * time.Millisecond
	// churnThinkNs bounds a legacy client's think time between
	// operations (uniform in [0, churnThinkNs]), the shape of Fig. 12x.
	churnThinkNs = 5000
)

// ctlChurn: one switch, no packets. The agent runs Fig. 11's flip()
// in a busy loop on a primary ctlplane session while churnClients
// legacy sessions each run a closed ModifyEntry loop, under the
// priority scheduler.
type ctlChurn struct {
	s     *sim.Simulator
	drv   *driver.Driver
	svc   *ctlplane.Service
	agent *core.Agent
	tr    *tracer
	rec   iterRecorder
	cms   float64

	stop bool
	on   bool
	ops  uint64 // legacy operations completed in the measured span
	errs uint64 // legacy operations failed at any time
	lats []float64
}

func (w *ctlChurn) simulator() *sim.Simulator { return w.s }
func (w *ctlChurn) tracer() *tracer           { return w.tr }
func (w *ctlChurn) setupMs() counts           { return counts{"compiler.compile_ms": w.cms} }

func (w *ctlChurn) setup(seed int64, traced bool) error {
	plan, err := compile(fig11Src, compiler.DefaultOptions(), &w.cms)
	if err != nil {
		return err
	}
	w.s = sim.New(seed)
	sw, err := rmt.New(w.s, plan.Prog, rmt.DefaultConfig())
	if err != nil {
		return err
	}
	w.drv = driver.New(w.s, sw, driver.DefaultCostModel())
	var ch driver.Channel = w.drv
	if traced {
		w.tr = newTracer(w.drv)
		w.rec.tr, ch = w.tr, w.tr
	}
	w.svc = ctlplane.New(w.s, ch, ctlplane.Options{Policy: ctlplane.PolicyPriority})
	w.agent, _, err = core.NewSessionAgent(w.s, w.svc, 1, plan, core.Options{AfterIteration: w.rec.hook})
	if err != nil {
		return err
	}
	w.agent.Start()
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < churnClients; c++ {
		sess, err := w.svc.Open(ctlplane.SessionOptions{Name: fmt.Sprintf("legacy%d", c), Role: ctlplane.RoleLegacy})
		if err != nil {
			return err
		}
		think := rand.New(rand.NewSource(rng.Int63()))
		key := uint64(c)
		w.s.Spawn(sess.Name(), func(p *sim.Proc) {
			h, err := sess.AddEntry(p, "legacy", rmt.Entry{
				Keys: []rmt.KeySpec{rmt.ExactKey(key)}, Action: "legacy_act", Data: []uint64{0},
			})
			if err != nil {
				w.errs++
				return
			}
			data := []uint64{0}
			for !w.stop {
				p.Sleep(time.Duration(think.Int63n(churnThinkNs + 1)))
				t0 := p.Now()
				data[0]++
				err := sess.ModifyEntry(p, "legacy", h, "legacy_act", data)
				if err != nil {
					w.errs++
				}
				if w.on {
					w.ops++
					if err == nil {
						w.lats = append(w.lats, float64(p.Now().Sub(t0)))
					}
				}
			}
		})
	}
	w.s.RunFor(churnWarmup)
	return nil
}

func (w *ctlChurn) begin(time.Duration) {
	w.on, w.rec.on = true, true
}

func (w *ctlChurn) counts() counts {
	c := counts{"sim.events": float64(w.s.Executed())}
	coreCounts(c, w.agent.Stats())
	driverCounts(c, w.drv.Stats())
	ctlplaneCounts(c, w.svc)
	rmtCounts(c, w.drv.Switch().Stats())
	return c
}

func (w *ctlChurn) finish(out *roundOut, d counts) error {
	w.on, w.rec.on = false, false
	st := w.agent.Stats()
	w.stop = true
	w.agent.Stop()
	w.s.RunFor(100 * time.Microsecond)
	if err := w.agent.Err(); err != nil {
		return fmt.Errorf("agent: %w", err)
	}
	var rejected uint64
	for _, sess := range w.svc.Sessions() {
		rejected += sess.SessionStats().Rejected
	}
	if w.errs > 0 || rejected > 0 {
		return fmt.Errorf("%d legacy operations failed, %d rejected", w.errs, rejected)
	}
	if st.Commits != st.Iterations {
		return fmt.Errorf("%d commits for %d iterations", st.Commits, st.Iterations)
	}
	out.Attempted = w.ops + uint64(d["core.iterations"])
	out.Failed = w.errs + rejected + uint64(d["core.abandoned"])
	reactOuts(out, w.rec.lats)
	out.Virtual["legacy_p99_vus"] = quantile(sorted(w.lats), 0.99) / 1e3
	return nil
}

// ---- dos-flood ----

const (
	dosSenders      = 25
	dosSenderBps    = 80e6
	dosBottleneck   = 10e9
	dosAttackBps    = 25e9
	dosWarmup       = 20 * time.Millisecond
	dosOnsetMax     = 200 * time.Microsecond
	dosVictimLinkBW = 25e9
)

// dosFlood: the Fig. 15 single switch built from its public parts so
// the agent's hooks are reachable. dosSenders paced TCP senders share
// the victim's bottleneck; at begin an open-loop UDP flood starts. The
// DoS reaction polls the per-sender statistics every iteration and
// writes only to block.
type dosFlood struct {
	s     *sim.Simulator
	drv   *driver.Driver
	agent *core.Agent
	det   *usecases.DosDetector
	flows []*netsim.TCPFlow
	flood *netsim.Flooder
	ad    usecases.DosAddressing
	tr    *tracer
	rec   iterRecorder
	cms   float64

	rng *rand.Rand

	on        bool
	beginAt   sim.Time
	floodAt   sim.Time
	delivered uint64 // benign bytes delivered in the measured span
}

func (w *dosFlood) simulator() *sim.Simulator { return w.s }
func (w *dosFlood) tracer() *tracer           { return w.tr }
func (w *dosFlood) setupMs() counts           { return counts{"compiler.compile_ms": w.cms} }

func (w *dosFlood) setup(seed int64, traced bool) error {
	plan, err := compile(usecases.DosP4R, compiler.DefaultOptions(), &w.cms)
	if err != nil {
		return err
	}
	w.ad = usecases.DefaultDosAddressing()
	w.s = sim.New(seed)
	sw, err := rmt.New(w.s, plan.Prog, rmt.DefaultConfig())
	if err != nil {
		return err
	}
	sw.SetPortBandwidth(w.ad.VictimPort, dosBottleneck)
	w.drv = driver.New(w.s, sw, driver.DefaultCostModel())
	var ch driver.Channel = w.drv
	if traced {
		w.tr = newTracer(w.drv)
		w.rec.tr, ch = w.tr, w.tr
	}
	routes := w.ad.Routes(dosSenders)
	dsts := make([]uint32, 0, len(routes))
	for dst := range routes {
		dsts = append(dsts, dst)
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	w.det = usecases.NewDosDetector(usecases.DefaultDosConfig())
	w.agent = core.NewAgent(w.s, ch, plan, core.Options{
		Prologue: func(p *sim.Proc, a *core.Agent) error {
			for _, dst := range dsts {
				if _, err := a.Driver().AddEntry(p, "route", rmt.Entry{
					Keys: []rmt.KeySpec{rmt.ExactKey(uint64(dst))}, Action: "route_pkt", Data: []uint64{uint64(routes[dst])},
				}); err != nil {
					return err
				}
			}
			return nil
		},
		AfterIteration: w.rec.hook,
	})
	if err := w.agent.RegisterNativeReaction("dos_react", w.det.React); err != nil {
		return err
	}
	net := netsim.New(w.s, sw, dosVictimLinkBW, time.Microsecond)
	usecases.WireDosVictim(net, w.ad)
	ports, addrs := make([]int, dosSenders), make([]uint32, dosSenders)
	for i := range ports {
		ports[i], addrs[i] = w.ad.SenderPort(i), w.ad.SenderAddr(i)
	}
	w.rng = rand.New(rand.NewSource(seed))
	w.flows = wireSenders(net, plan.Prog.Schema, w.rng, ports, addrs, w.ad.VictimAddr, dosSenderBps, w.onDeliver)
	w.flood = usecases.WireDosAttacker(net, plan.Prog.Schema, dosAttackBps, w.ad)
	w.agent.Start()
	w.s.RunFor(dosWarmup)
	return nil
}

func (w *dosFlood) onDeliver(_ sim.Time, bytes int) {
	if w.on {
		w.delivered += uint64(bytes)
	}
}

// begin starts the flood at a seed-drawn onset within dosOnsetMax.
func (w *dosFlood) begin(time.Duration) {
	w.on, w.rec.on = true, true
	w.beginAt = w.s.Now()
	w.floodAt = w.beginAt.Add(time.Duration(w.rng.Int63n(int64(dosOnsetMax))))
	w.s.At(w.floodAt, w.flood.Start)
}

func (w *dosFlood) counts() counts {
	c := counts{"sim.events": float64(w.s.Executed())}
	coreCounts(c, w.agent.Stats())
	driverCounts(c, w.drv.Stats())
	rmtCounts(c, w.drv.Switch().Stats())
	tcpCounts(c, w.flows)
	return c
}

func (w *dosFlood) finish(out *roundOut, _ counts) error {
	span := w.s.Now().Sub(w.beginAt)
	w.on, w.rec.on = false, false
	w.flood.Stop()
	w.agent.Stop()
	w.s.RunFor(100 * time.Microsecond)
	if err := w.agent.Err(); err != nil {
		return fmt.Errorf("agent: %w", err)
	}
	blockedAt, ok := w.det.Blocked[uint64(w.ad.AttackerAddr)]
	if !ok {
		return fmt.Errorf("attacker %#x never blocked", w.ad.AttackerAddr)
	}
	// The detector attributes each poll's marginal byte count to the
	// last source it sampled, so it can block a benign sender or the
	// victim itself (the source of the ACK stream). Both count.
	falseBlocks := uint64(0)
	for i := 0; i <= dosSenders; i++ {
		addr := w.ad.VictimAddr
		if i < dosSenders {
			addr = w.ad.SenderAddr(i)
		}
		if _, blocked := w.det.Blocked[uint64(addr)]; blocked {
			falseBlocks++
		}
	}
	out.Attempted, out.Failed = dosSenders+1, falseBlocks
	reactOuts(out, w.rec.lats)
	detect := float64(blockedAt.Sub(w.floodAt)) / 1e3
	out.Virtual["detect_vus"] = detect
	out.Virtual["usecases.attack_detect_vus"] = detect
	out.Virtual["usecases.false_blocks"] = float64(falseBlocks)
	out.Virtual["goodput_gbps"] = float64(w.delivered) * 8 / span.Seconds() / 1e9
	return nil
}

// ---- fabric-gray ----

const (
	grayLeaves     = 4
	graySpines     = 2
	graySenders    = 2 // per leaf
	graySenderBps  = 400e6
	grayRate       = 0.30
	grayCtlLoss    = 0.01
	grayWarmup     = 2 * time.Millisecond
	grayFailWindow = 1500 * time.Microsecond
	grayHealWindow = 1500 * time.Microsecond
	// grayOnsetMax bounds the seed-drawn delay from a cycle's start to
	// its gray onset.
	grayOnsetMax = 500 * time.Microsecond
)

// grayCycle is one fail/heal cycle on the gray trunk.
type grayCycle struct {
	failAt, healAt sim.Time
	// excludeFirst is when the first exclude reroute after the onset
	// triggered; excludeDone when its moves committed, zero if they had
	// not by the heal. restoreDone is when the restore reroutes after
	// it had all committed, zero if they had not by the cycle's end.
	excludeFirst, excludeDone, restoreDone sim.Time
	// earlyRestore marks a restore triggered while the trunk was still
	// gray: the detector cleared a link that was dropping 30%.
	earlyRestore bool
}

// fabricGray: a grayLeaves×graySpines leaf–spine fabric with ring TCP
// traffic and grayCtlLoss loss on every control link, through repeated
// fail/heal cycles that turn a seed-chosen leaf↔spine trunk gray.
// Fabric nodes build their agents and channels internally, so there is
// no AfterIteration hook or span recorder here: react_* comes from
// core's own latency samples, checked against their cap.
type fabricGray struct {
	s     *sim.Simulator
	f     *fabric.Fabric
	flows []*netsim.TCPFlow
	trunk *netsim.Trunk
	// grayLeaf and graySpine are the seed-chosen ends of trunk.
	grayLeaf, graySpine int
	rng                 *rand.Rand
	cms                 float64
	bms                 float64

	on        bool
	delivered uint64
	beginAt   sim.Time
	cycles    []*grayCycle
	iters0    []uint64 // per-agent iterations at begin
}

func (w *fabricGray) simulator() *sim.Simulator { return w.s }
func (w *fabricGray) tracer() *tracer           { return nil }
func (w *fabricGray) setupMs() counts {
	return counts{"compiler.compile_ms": w.cms, "fabric.build_ms": w.bms}
}

func (w *fabricGray) setup(seed int64, traced bool) error {
	if traced {
		// fabric.Build compiles internally; time the two compiles on
		// their own. Only traced rounds pay for this extra work.
		opts := compiler.DefaultOptions()
		opts.Target = place.DefaultTarget
		for _, src := range []string{fabric.LeafP4R, fabric.SpineP4R} {
			if _, err := compile(src, opts, &w.cms); err != nil {
				return err
			}
		}
	}
	w.s = sim.New(seed)
	w.rng = rand.New(rand.NewSource(seed))
	t0 := time.Now()
	f, err := fabric.Build(w.s, fabric.Config{
		Leaves: grayLeaves, Spines: graySpines, Seed: seed,
		CtlProfile: faults.LinkProfile{Name: "loss-1%", Loss: grayCtlLoss},
	})
	if err != nil {
		return err
	}
	w.bms = float64(time.Since(t0).Nanoseconds()) / 1e6
	w.f = f
	// The leaf program carries dos_react; all traffic here is
	// legitimate, so park the detector's threshold out of reach (as the
	// fabric's own reroute scenario does).
	for _, leaf := range f.Leaves {
		det := usecases.NewDosDetector(usecases.DosConfig{ThresholdBps: 1e12, MinDuration: 50 * time.Microsecond})
		if err := leaf.Agent.RegisterNativeReaction("dos_react", det.React); err != nil {
			return err
		}
	}
	schema := f.Leaves[0].Plan.Prog.Schema
	rcvPort := f.Cfg.HostPorts - 1
	for l, leaf := range f.Leaves {
		next := (l + 1) % grayLeaves
		rcvAddr := fabric.HostAddr(next, rcvPort)
		usecases.WireDosVictim(f.Leaves[next].Net, usecases.DosAddressing{VictimAddr: rcvAddr, VictimPort: rcvPort})
		ports, addrs := make([]int, graySenders), make([]uint32, graySenders)
		for i := range ports {
			ports[i], addrs[i] = i, fabric.HostAddr(l, i)
		}
		w.flows = append(w.flows, wireSenders(leaf.Net, schema, w.rng, ports, addrs, rcvAddr, graySenderBps, w.onDeliver)...)
	}
	w.grayLeaf, w.graySpine = w.rng.Intn(grayLeaves), w.rng.Intn(graySpines)
	w.trunk = f.Trunks[w.grayLeaf][w.graySpine]
	f.Start()
	w.s.RunFor(grayWarmup)
	return nil
}

func (w *fabricGray) onDeliver(_ sim.Time, bytes int) {
	if w.on {
		w.delivered += uint64(bytes)
	}
}

// begin schedules the fail/heal cycles that fit in the measured span.
// Each cycle's exclude reroute must be done by its heal and its restore
// reroute by the cycle's end; both are checked on the virtual clock.
func (w *fabricGray) begin(span time.Duration) {
	w.on = true
	w.beginAt = w.s.Now()
	end := w.beginAt.Add(span)
	for _, n := range w.f.Nodes() {
		w.iters0 = append(w.iters0, n.Agent.Stats().Iterations)
	}
	at := w.beginAt
	for {
		fail := at.Add(time.Duration(w.rng.Int63n(int64(grayOnsetMax))))
		heal := fail.Add(grayFailWindow)
		done := heal.Add(grayHealWindow)
		if done > end {
			break
		}
		c := &grayCycle{failAt: fail, healAt: heal}
		w.cycles = append(w.cycles, c)
		w.s.At(fail, func() { w.trunk.SetGray(grayRate) })
		w.s.At(heal, func() {
			for _, r := range w.trunkReroutes(c.failAt) {
				switch {
				case r.Exclude && c.excludeFirst == 0:
					c.excludeFirst, c.excludeDone = r.At, doneAt(r)
				case !r.Exclude && c.excludeFirst != 0:
					c.earlyRestore = true
				}
			}
			w.trunk.SetGray(0)
		})
		w.s.At(done, func() {
			// Every reroute since the exclude has committed, and the
			// latest is a restore: the trunk is back in use.
			rs := w.trunkReroutes(c.excludeFirst)
			if c.excludeFirst == 0 || len(rs) < 2 || rs[len(rs)-1].Exclude {
				return
			}
			for _, r := range rs {
				if doneAt(r) == 0 {
					return
				}
			}
			c.restoreDone = doneAt(rs[len(rs)-1])
		})
		at = done
	}
}

// trunkReroutes returns the coordinator's reroutes off and back onto
// the gray trunk triggered at or after from, in trigger order.
func (w *fabricGray) trunkReroutes(from sim.Time) []*fabric.Reroute {
	var out []*fabric.Reroute
	for _, r := range w.f.Coord.Reroutes() {
		if r.At >= from && r.Leaf == w.f.Leaves[w.grayLeaf].Name && r.Spine == w.graySpine {
			out = append(out, r)
		}
	}
	return out
}

// doneAt is when a reroute's last route move committed (its trigger
// time if it moved nothing), zero while moves are in flight.
func doneAt(r *fabric.Reroute) sim.Time {
	if r.Moves == 0 {
		return r.At
	}
	return r.DoneAt
}

func (w *fabricGray) counts() counts {
	c := counts{"sim.events": float64(w.s.Executed())}
	for _, n := range w.f.Nodes() {
		coreCounts(c, n.Agent.Stats())
		driverCounts(c, n.Drv.Stats())
		ctlplaneCounts(c, n.Svc)
		rmtCounts(c, n.Sw.Stats())
		c["netsim.no_peer_drops"] += float64(n.Net.Stats().DroppedNoPeer)
		for _, st := range []ctlchan.ClientStats{n.AgentCli.ChanStats(), n.CoordCli.ChanStats()} {
			c["ctlchan.ops"] += float64(st.Ops)
			c["ctlchan.sent"] += float64(st.Sent)
			c["ctlchan.retransmits"] += float64(st.Retransmits)
			c["ctlchan.timeouts"] += float64(st.Timeouts)
			c["ctlchan.degraded_entries"] += float64(st.DegradedLoss + st.DegradedPartition + st.DegradedPeerDead)
			c["ctlchan.window_waits"] += float64(st.WindowWaits)
		}
		c["ctlchan.dedup_hits"] += float64(n.Srv.Stats().DedupHits)
	}
	for _, row := range w.f.Trunks {
		for _, tr := range row {
			c["netsim.trunk_gray_drops"] += float64(tr.Stats(0).GrayDrops + tr.Stats(1).GrayDrops)
		}
	}
	tcpCounts(c, w.flows)
	st := w.f.Coord.Stats()
	c["fabric.coord_events"] = float64(st.Events)
	c["fabric.hh_reports"] = float64(st.HHReports)
	c["fabric.route_moves"] = float64(st.RouteMoves)
	c["fabric.route_reissues"] = float64(st.RouteReissues)
	c["fabric.install_errors"] = float64(st.InstallErrors)
	return c
}

func (w *fabricGray) finish(out *roundOut, d counts) error {
	span := w.s.Now().Sub(w.beginAt)
	w.on = false
	var lats []float64
	for i, n := range w.f.Nodes() {
		st := n.Agent.Stats()
		// core keeps only the first LatencySamples iteration latencies;
		// past that cap the tail of the run would silently go missing.
		if st.Iterations > uint64(len(st.Latencies)) {
			return fmt.Errorf("%s: %d iterations exceed core's %d retained latency samples",
				n.Name, st.Iterations, len(st.Latencies))
		}
		for _, d := range st.Latencies[w.iters0[i]:] {
			lats = append(lats, float64(d))
		}
	}
	w.f.Stop()
	w.s.RunFor(200 * time.Microsecond)
	if err := w.f.Err(); err != nil {
		return err
	}
	if err := w.f.Coord.Err(); err != nil {
		return fmt.Errorf("coordinator: %w", err)
	}
	if len(w.cycles) == 0 {
		return fmt.Errorf("no fail/heal cycle fits in the measured span")
	}
	var detects, reroutes []float64
	early := 0
	for i, c := range w.cycles {
		if c.excludeDone == 0 {
			return fmt.Errorf("cycle %d: exclude reroute after gray onset at %v missing or incomplete by heal", i, c.failAt)
		}
		if c.restoreDone == 0 {
			return fmt.Errorf("cycle %d: restore reroute after the exclude at %v missing or incomplete by the cycle's end", i, c.excludeFirst)
		}
		if c.earlyRestore {
			early++
		}
		detects = append(detects, float64(c.excludeDone.Sub(c.failAt))/1e3)
		reroutes = append(reroutes, float64(c.excludeDone.Sub(c.excludeFirst))/1e3)
	}
	reactOuts(out, lats)
	out.Virtual["detect_vus"] = quantile(sorted(detects), 0.5)
	out.Virtual["fabric.reroute_vus"] = quantile(sorted(reroutes), 0.5)
	out.Virtual["fabric.gray_cycles"] = float64(len(w.cycles))
	out.Virtual["fabric.early_restores"] = float64(early)
	out.Virtual["goodput_gbps"] = float64(w.delivered) * 8 / span.Seconds() / 1e9
	out.Attempted = uint64(d["ctlchan.ops"] + d["core.iterations"])
	out.Failed = uint64(d["ctlchan.timeouts"] + d["core.abandoned"] + d["fabric.install_errors"])
	return nil
}
