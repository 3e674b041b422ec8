package main

import (
	"flag"
	"fmt"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/ctlchan"
	"repro/internal/ctlplane"
	"repro/internal/driver"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/perf"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// microBenchtime is each µbenchmark's measuring time. The µbenchmarks
// are per-layer diagnostics with no bound, so they are kept short.
const microBenchtime = "100ms"

// hotPathLayer maps the repository's hot-path suite (perf.
// HotPathBenchmarks) onto the benchmark's layer metric names; suite
// entries not listed are not run.
var hotPathLayer = map[string]string{
	"pipeline_packet":            "rmt.pipeline_packet",
	"exact_lookup_1k":            "rmt.exact_lookup_1k",
	"ternary_lookup_bucketed_1k": "rmt.ternary_bucketed_1k",
	"ring_submit":                "driver.ring_submit",
	"poll_batch":                 "driver.poll_batch",
	"dialogue_iteration":         "core.dialogue_iteration",
	"reaction_dispatch":          "rcl.reaction_dispatch",
}

// localMicro covers the layer calls the hot-path suite does not.
var localMicro = map[string]func(*testing.B){
	"sim.proc_sleep":          benchProcSleep,
	"sim.schedule":            benchSchedule,
	"ctlplane.session_modify": benchSessionModify,
	"ctlchan.roundtrip":       benchCtlchanRoundtrip,
}

// runMicro runs every µbenchmark through testing.Benchmark and returns
// ns/op and allocs/op under <layer>.<name>_ns / _allocs.
func runMicro() counts {
	testing.Init()
	if err := flag.Set("test.benchtime", microBenchtime); err != nil {
		fatal(err)
	}
	m := counts{}
	record := func(name string, fn func(*testing.B)) {
		r := testing.Benchmark(fn)
		if r.N == 0 {
			fatal(fmt.Errorf("µbenchmark %s failed", name))
		}
		m[name+"_ns"] = float64(r.T.Nanoseconds()) / float64(r.N)
		m[name+"_allocs"] = float64(r.AllocsPerOp())
	}
	for _, nb := range perf.HotPathBenchmarks() {
		if name, ok := hotPathLayer[nb.Name]; ok {
			record(name, nb.Bench)
		}
	}
	for _, name := range microNames {
		if fn, ok := localMicro[name]; ok {
			record(name, fn)
		}
	}
	if len(m) != 2*len(microNames) {
		fatal(fmt.Errorf("%d µbenchmark metrics for %d names", len(m), len(microNames)))
	}
	return m
}

// benchProcSleep measures one sim.Proc sleep: a wakeup event plus the
// two goroutine handoffs between the simulator and the process.
func benchProcSleep(b *testing.B) {
	s := sim.New(1)
	s.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Nanosecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// benchSchedule measures scheduling and running one event with 64
// pending: 64 event chains, each rescheduling itself.
func benchSchedule(b *testing.B) {
	const chains = 64
	s := sim.New(1)
	left := b.N
	var fns [chains]func()
	for i := range fns {
		delay := time.Duration(i+1) * time.Nanosecond
		fns[i] = func() {
			if left > 0 {
				left--
				s.Schedule(delay, fns[i])
			}
		}
	}
	for i := range fns {
		s.Schedule(0, fns[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// legacySwitch builds the ctl-churn switch and driver and installs one
// legacy entry to modify.
func legacySwitch(b *testing.B) (*sim.Simulator, *driver.Driver, rmt.EntryHandle) {
	plan, err := compiler.CompileSource(fig11Src, compiler.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	s := sim.New(1)
	sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	h, err := sw.AddEntry("legacy", rmt.Entry{Keys: []rmt.KeySpec{rmt.ExactKey(1)}, Action: "legacy_act", Data: []uint64{0}})
	if err != nil {
		b.Fatal(err)
	}
	return s, driver.New(s, sw, driver.DefaultCostModel()), h
}

// benchSessionModify measures one synchronous legacy ModifyEntry
// through a ctlplane session and the service's dispatcher.
func benchSessionModify(b *testing.B) {
	s, drv, h := legacySwitch(b)
	svc := ctlplane.New(s, drv, ctlplane.Options{Policy: ctlplane.PolicyPriority})
	sess, err := svc.Open(ctlplane.SessionOptions{Name: "legacy", Role: ctlplane.RoleLegacy})
	if err != nil {
		b.Fatal(err)
	}
	data := []uint64{0}
	s.Spawn("legacy", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			data[0] = uint64(i)
			if err := sess.ModifyEntry(p, "legacy", h, "legacy_act", data); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// benchCtlchanRoundtrip measures one ModifyEntry round trip through a
// ctlchan client and server over a loss-free link.
func benchCtlchanRoundtrip(b *testing.B) {
	s, drv, h := legacySwitch(b)
	link := netsim.NewLink(s, time.Microsecond, faults.LinkNone(), 1)
	srv := ctlchan.NewServer(s)
	srv.Attach(link, netsim.LinkSideB, 1, 1, drv)
	cli := ctlchan.NewClient(s, link, netsim.LinkSideA, ctlchan.ClientOptions{Session: 1, Epoch: 1, Meta: drv})
	data := []uint64{0}
	s.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			data[0] = uint64(i)
			if err := cli.ModifyEntry(p, "legacy", h, "legacy_act", data); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}
