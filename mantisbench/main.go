// Command mantisbench is the repository's end-to-end benchmark. It runs
// one seeded workload on the real layers (rmt, driver, ctlplane, core,
// rcl, netsim, ctlchan, fabric, all on the sim clock) and prints its
// metrics, the last line being one JSON object:
//
//	bash mantisbench/run.sh --workload ctl-churn --seed 1 --seconds 10 --trace 0
//
// A run is a series of rounds, each a fresh child process that sets the
// workload up (timed as setup_s), simulates a fixed virtual span in
// fixed virtual slices (timed as run_s and slice_ms_*), checks its
// outputs and reports. Rounds repeat until --seconds have passed, and
// host-time metrics are medians over rounds. Every round of one seed
// must produce identical virtual-time outputs and counts; a difference,
// like a failed output check, fails the run.
//
// Rounds and µbenchmarks run with GOMAXPROCS=1.
//
// With --trace 1, rounds alternate between untraced and traced ones.
// Traced rounds record driver spans and a CPU profile; the run then
// reports per-layer metrics, the µbenchmarks of each layer's public
// call, and the tracing overhead.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

const (
	// heapEvery is how many slices pass between live-heap samples.
	heapEvery       = 10
	minPlainRounds  = 3
	minTracedRounds = 2
	maxRounds       = 40
)

// roundOut is one round's report, passed from the child process to
// the parent as JSON.
type roundOut struct {
	Traced     bool      `json:"traced"`
	SetupS     float64   `json:"setup_s"`
	RunS       float64   `json:"run_s"`
	SliceMs    []float64 `json:"slice_ms"`
	PeakHeapMB float64   `json:"peak_heap_mb"`
	AllocB     float64   `json:"alloc_b"`
	GCCycles   float64   `json:"gc_cycles"`
	GCPauseMs  float64   `json:"gc_pause_ms"`
	// SetupMs breaks setup_s down by layer (host time).
	SetupMs   counts `json:"setup_ms"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	// Virtual holds every virtual-time output and per-layer count of
	// the measured span. It is a pure function of the seed.
	Virtual counts `json:"virtual"`
	// Spans holds the traced driver-op latencies (virtual µs).
	Spans counts `json:"spans,omitempty"`
	// Err is the failed output check, if any.
	Err string `json:"err,omitempty"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: ctl-churn, dos-flood or fabric-gray")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
		seconds  = flag.Int("seconds", 10, "host seconds to keep running rounds for")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from traced rounds")
		out      = flag.String("out", ".bench_build", "directory for profiles and span files")
		// Child modes, used by the run itself.
		round     = flag.Bool("round", false, "run one round and print its report")
		traced    = flag.Bool("traced", false, "with -round: record spans and a CPU profile")
		micro     = flag.Bool("micro", false, "run the layer µbenchmarks and print their results")
		profile   = flag.String("cpuprofile", "", "with -round: write a CPU profile of the measured span")
		spansPath = flag.String("spans", "", "with -round -traced: write the driver spans as CSV")
	)
	flag.Parse()
	if *round || *micro {
		// The simulator runs one goroutine at a time; with more Ps every
		// sim.Proc handoff crosses cores and identical rounds' host times
		// swing by a quarter.
		runtime.GOMAXPROCS(1)
	}
	if *micro {
		if err := json.NewEncoder(os.Stdout).Encode(runMicro()); err != nil {
			fatal(err)
		}
		return
	}
	sp, ok := lookup(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "mantisbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *round {
		res, err := runRound(sp, *seed, *traced, *profile, *spansPath)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	os.Exit(run(sp, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mantisbench:", err)
	os.Exit(1)
}

// runRound runs one round in this process. A failed output check is
// reported in the result's Err; any other failure is an error.
func runRound(sp spec, seed int64, traced bool, profile, spansPath string) (*roundOut, error) {
	w := sp.make()
	out := &roundOut{Traced: traced, Virtual: counts{}}
	t0 := time.Now()
	if err := w.setup(seed, traced); err != nil {
		return nil, fmt.Errorf("%s setup: %w", sp.name, err)
	}
	out.SetupS = time.Since(t0).Seconds()
	out.SetupMs = w.setupMs()

	s := w.simulator()
	c0 := w.counts()
	if profile != "" {
		f, err := os.Create(profile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
	}
	n := int(sp.span / sp.slice)
	out.SliceMs = make([]float64, 0, n)
	gc := newGCStats()
	spanStart := s.Now()
	w.begin(sp.span)
	for i := 0; i < n; i++ {
		h := time.Now()
		s.RunFor(sp.slice)
		d := time.Since(h)
		out.RunS += d.Seconds()
		out.SliceMs = append(out.SliceMs, float64(d.Nanoseconds())/1e6)
		if (i+1)%heapEvery == 0 || i == n-1 {
			gc.sampleLive()
		}
	}
	if profile != "" {
		pprof.StopCPUProfile()
	}
	gc.finish(out)

	d := w.counts()
	for k, v := range c0 {
		if k != "driver.switches" {
			d[k] -= v
		}
	}
	if err := w.finish(out, d); err != nil {
		out.Err = err.Error()
		return out, nil
	}
	layerOuts(out.Virtual, d, sp.span)
	if out.Attempted > 0 {
		out.Virtual["fail_ratio"] = float64(out.Failed) / float64(out.Attempted)
	}
	if tr := w.tracer(); tr != nil {
		reads, writes := tr.latencies(spanStart)
		out.Spans = counts{
			"driver.read_vus_p50":  quantile(reads, 0.5) / 1e3,
			"driver.read_vus_p99":  quantile(reads, 0.99) / 1e3,
			"driver.write_vus_p50": quantile(writes, 0.5) / 1e3,
			"driver.write_vus_p99": quantile(writes, 0.99) / 1e3,
			"spans":                float64(len(tr.spans)),
		}
		if spansPath != "" {
			if err := tr.write(spansPath); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// reactOuts records the dialogue-iteration latency percentiles.
func reactOuts(out *roundOut, lats []float64) {
	lats = sorted(lats)
	out.Virtual["react_p50_vus"] = quantile(lats, 0.5) / 1e3
	out.Virtual["react_p99_vus"] = quantile(lats, 0.99) / 1e3
	out.Virtual["react_samples"] = float64(len(lats))
}

// layerOuts derives the per-layer counts and ratios of the measured
// span from the counter growth d.
func layerOuts(v, d counts, span time.Duration) {
	for _, k := range []string{
		"sim.events", "rmt.rx_pkts", "rmt.ingress_drops", "rmt.queue_drops",
		"netsim.tcp_retransmits", "netsim.tcp_timeouts", "netsim.trunk_gray_drops", "netsim.no_peer_drops",
		"driver.table_ops", "driver.reg_reads", "driver.reg_read_bytes", "driver.audit_reads",
		"ctlplane.dialogue_ops", "ctlplane.bulk_ops", "ctlplane.write_txns", "ctlplane.reads_coalesced", "ctlplane.rejections",
		"core.iterations", "core.retries", "core.rollbacks", "core.abandoned", "core.degraded", "rcl.reaction_errors",
		"ctlchan.ops", "ctlchan.timeouts", "ctlchan.dedup_hits", "ctlchan.degraded_entries", "ctlchan.window_waits",
		"fabric.coord_events", "fabric.hh_reports", "fabric.route_moves", "fabric.route_reissues", "fabric.install_errors",
	} {
		v[k] = d[k]
	}
	v["driver.memo_ratio"] = ratio(d["driver.memoized_ops"], d["driver.table_ops"])
	v["driver.busy_frac"] = ratio(d["driver.busy_ns"], float64(span)*d["driver.switches"])
	v["driver.ops_per_flush"] = ratio(d["driver.ring_ops"], d["driver.ring_flushes"])
	v["ctlplane.writes_per_txn"] = ratio(d["driver.ring_ops"]+d["ctlplane.writes_coalesced"], d["ctlplane.write_txns"])
	v["core.commit_ratio"] = ratio(d["core.commits"], d["core.iterations"])
	v["ctlchan.retransmit_ratio"] = ratio(d["ctlchan.retransmits"], d["ctlchan.ops"])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sorted(xs []float64) []float64 {
	sort.Float64s(xs)
	return xs
}

// quantile returns the q-quantile of ascending xs by linear
// interpolation between closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// medianOf returns the median over rounds of f.
func medianOf(rs []*roundOut, f func(*roundOut) float64) float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, f(r))
	}
	return median(xs)
}

// sliceQuantile returns the q-quantile of a round's slice times.
func sliceQuantile(r *roundOut, q float64) float64 {
	return quantile(sorted(append([]float64(nil), r.SliceMs...)), q)
}

func median(xs []float64) float64 {
	return quantile(sorted(append([]float64(nil), xs...)), 0.5)
}

// child runs one round (or, with args[0] == "-micro", the µbenchmarks)
// in a fresh process and decodes its JSON report into v.
func child(v any, args ...string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%v: %w", args, err)
	}
	return json.Unmarshal(stdout.Bytes(), v)
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is the parent: it runs rounds until the time budget is spent,
// checks them and prints the metrics. It returns the exit code.
func run(sp spec, seed int64, budget time.Duration, trace bool, outDir string) int {
	traceDir := filepath.Join(outDir, "trace")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "mantisbench:", err)
		return 1
	}
	start := time.Now()
	var plain, traced []*roundOut
	var profiles []string
	for i := 0; i < maxRounds; i++ {
		args := []string{"-round", "-workload", sp.name, "-seed", fmt.Sprint(seed)}
		tr := trace && i%2 == 1
		if tr {
			prof := filepath.Join(traceDir, fmt.Sprintf("%s-%d.cpu.pprof", sp.name, len(traced)))
			args = append(args, "-traced", "-cpuprofile", prof,
				"-spans", filepath.Join(traceDir, sp.name+".spans.csv"))
			profiles = append(profiles, prof)
		}
		r := new(roundOut)
		if err := child(r, args...); err != nil {
			fmt.Fprintln(os.Stderr, "mantisbench: round failed:", err)
			return 1
		}
		if r.Err != "" {
			return fail(sp, fmt.Errorf("output check failed: %s", r.Err))
		}
		if tr {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		enough := len(plain) >= minPlainRounds
		if trace {
			enough = len(plain) >= minTracedRounds && len(traced) >= minTracedRounds
		}
		if enough && time.Since(start) >= budget {
			break
		}
	}
	all := append(append([]*roundOut(nil), plain...), traced...)
	for _, r := range all[1:] {
		if !reflect.DeepEqual(r.Virtual, all[0].Virtual) {
			return fail(sp, fmt.Errorf("virtual-time outputs differ between rounds of seed %d (traced=%v): %v vs %v",
				seed, r.Traced, r.Virtual, all[0].Virtual))
		}
	}
	e2e := endToEnd(plain)
	first := all[0]
	fmt.Printf("workload %s, seed %d: %d untraced rounds, %d traced, %.1f s\n",
		sp.name, seed, len(plain), len(traced), time.Since(start).Seconds())
	printMetrics(e2e, workloadMetrics(sp.name))

	res := result{Correct: true, Attempted: first.Attempted, Failed: first.Failed, Metrics: map[string]metric{}}
	if !trace {
		for _, m := range endToEndMetrics {
			res.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
	} else {
		layers, err := perLayer(sp, plain, traced, profiles)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mantisbench:", err)
			return 1
		}
		for k, v := range e2e {
			layers[k] = v
		}
		if sp.name == "fabric-gray" {
			fmt.Println("note: fabric nodes build their agents and driver channels internally, so fabric-gray " +
				"has no span recorder (driver.*_vus_* read 0) and takes react_* from core's own latency samples; " +
				"its per-layer numbers are counters and the CPU profile only")
		}
		fmt.Println("per-layer:")
		printMetrics(layers, perLayerMetrics)
		for _, m := range perLayerMetrics {
			res.Metrics[m.name] = metric{layers[m.name], m.unit}
		}
	}
	return emit(res, 0)
}

// fail prints the failed check and a result marked incorrect.
func fail(sp spec, err error) int {
	fmt.Fprintf(os.Stderr, "mantisbench: %s: %v\n", sp.name, err)
	return emit(result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}}, 1)
}

func emit(res result, code int) int {
	buf, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mantisbench:", err)
		return 1
	}
	fmt.Println(string(buf))
	return code
}

// endToEnd aggregates the untraced rounds into the end-to-end metrics:
// medians over rounds of each round's host times and slice
// percentiles, so a burst of other load on the host that slows one
// round moves none of them, plus the virtual-time outputs (identical in
// every round).
func endToEnd(plain []*roundOut) counts {
	m := counts{
		"setup_s":      medianOf(plain, func(r *roundOut) float64 { return r.SetupS }),
		"run_s":        medianOf(plain, func(r *roundOut) float64 { return r.RunS }),
		"slice_ms_p50": medianOf(plain, func(r *roundOut) float64 { return sliceQuantile(r, 0.5) }),
		"slice_ms_p90": medianOf(plain, func(r *roundOut) float64 { return sliceQuantile(r, 0.9) }),
		"peak_heap_mb": medianOf(plain, func(r *roundOut) float64 { return r.PeakHeapMB }),
	}
	for _, k := range []string{"react_p50_vus", "react_p99_vus", "legacy_p99_vus", "detect_vus", "goodput_gbps", "fail_ratio"} {
		m[k] = plain[0].Virtual[k]
	}
	return m
}

// perLayer assembles the per-layer metrics of a traced run. Counts and
// virtual times are the (identical) values of every round; host times
// per event or iteration come from the untraced rounds; spans, the
// CPU profile and the tracing overhead from the traced ones.
func perLayer(sp spec, plain, traced []*roundOut, profiles []string) (counts, error) {
	m := counts{}
	for k, v := range plain[0].Virtual {
		m[k] = v
	}
	for k, v := range traced[0].Spans {
		m[k] = v
	}
	runS := medianOf(plain, func(r *roundOut) float64 { return r.RunS })
	ev := m["sim.events"]
	m["sim.host_ns_per_event"] = ratio(runS*1e9, ev)
	m["sim.alloc_b_per_event"] = ratio(medianOf(plain, func(r *roundOut) float64 { return r.AllocB }), ev)
	m["sim.gc_cycles"] = medianOf(plain, func(r *roundOut) float64 { return r.GCCycles })
	m["sim.gc_pause_ms"] = medianOf(plain, func(r *roundOut) float64 { return r.GCPauseMs })
	m["sim.slice_ms_p99"] = medianOf(plain, func(r *roundOut) float64 { return sliceQuantile(r, 0.99) })
	m["core.host_ns_per_iter"] = ratio(runS*1e9, m["core.iterations"])
	m["compiler.compile_ms"] = medianOf(traced, func(r *roundOut) float64 { return r.SetupMs["compiler.compile_ms"] })
	m["fabric.build_ms"] = medianOf(traced, func(r *roundOut) float64 { return r.SetupMs["fabric.build_ms"] })
	// Compare each side's fastest round: other load on the host only
	// ever slows a round, and it swamps the tracer's cost in medians of
	// the few rounds a traced run makes.
	fastest := func(rs []*roundOut) float64 {
		best := math.Inf(1)
		for _, r := range rs {
			best = math.Min(best, r.RunS)
		}
		return best
	}
	m["trace_overhead_pct"] = (fastest(traced)/fastest(plain) - 1) * 100

	self, err := selfPct(profiles)
	if err != nil {
		return nil, err
	}
	for k, v := range self {
		m[k] = v
	}
	micro := counts{}
	if err := child(&micro, "-micro"); err != nil {
		return nil, err
	}
	for k, v := range micro {
		m[k] = v
	}
	return m, nil
}

func printMetrics(vals counts, defs []metricDef) {
	for _, d := range defs {
		if v, ok := vals[d.name]; ok {
			fmt.Printf("  %-32s %14.6g %s\n", d.name, v, d.unit)
		}
	}
}
