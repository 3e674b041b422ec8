package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// metricDef names one reported metric and its unit. Units ending in
// "vus" are virtual microseconds: exact for a given seed.
type metricDef struct{ name, unit string }

// endToEndMetrics is what an untraced run reports in its JSON line:
// the host-time cost of simulating a workload. They apply to every
// workload, are never zero, and vary from run to run.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"slice_ms_p50", "ms"},
	{"slice_ms_p90", "ms"},
	{"peak_heap_mb", "MB"},
}

// workloadMetrics adds, for the human-readable lines, the virtual-time
// end-to-end metrics. They are exact for a seed, some workloads lack
// some of them, and some read the same for every seed, so a run's JSON
// line carries them only when traced, with the per-layer metrics.
func workloadMetrics(name string) []metricDef {
	defs := append(append([]metricDef(nil), endToEndMetrics...),
		metricDef{"react_p50_vus", "vus"}, metricDef{"react_p99_vus", "vus"})
	switch name {
	case "ctl-churn":
		defs = append(defs, metricDef{"legacy_p99_vus", "vus"})
	case "dos-flood", "fabric-gray":
		defs = append(defs, metricDef{"detect_vus", "vus"}, metricDef{"goodput_gbps", "Gbit/s"})
	}
	return append(defs, metricDef{"fail_ratio", "ratio"})
}

// micro names the layer µbenchmarks; each reports <name>_ns and
// <name>_allocs per operation.
var microNames = []string{
	"sim.proc_sleep", "sim.schedule",
	"rmt.pipeline_packet", "rmt.exact_lookup_1k", "rmt.ternary_bucketed_1k",
	"driver.ring_submit", "driver.poll_batch",
	"ctlplane.session_modify",
	"core.dialogue_iteration",
	"rcl.reaction_dispatch",
	"ctlchan.roundtrip",
}

// selfLayers are the packages whose share of CPU samples (flat) a
// traced run reports as <layer>.self_pct.
var selfLayers = []string{"sim", "rmt", "netsim", "driver", "ctlplane", "core", "rcl", "ctlchan", "fabric", "runtime"}

// perLayerMetrics is what a traced run reports in its JSON line, for
// every workload; a layer a workload does not exercise reads 0.
var perLayerMetrics = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"},
		{"sim.host_ns_per_event", "ns"},
		{"sim.alloc_b_per_event", "B"},
		{"sim.gc_cycles", "count"},
		{"sim.gc_pause_ms", "ms"},
		{"sim.slice_ms_p99", "ms"},
		{"sim.handoff_self_pct", "%"},
		{"rmt.rx_pkts", "count"},
		{"rmt.ingress_drops", "count"},
		{"rmt.queue_drops", "count"},
		{"netsim.tcp_retransmits", "count"},
		{"netsim.tcp_timeouts", "count"},
		{"netsim.trunk_gray_drops", "count"},
		{"netsim.no_peer_drops", "count"},
		{"driver.table_ops", "count"},
		{"driver.memo_ratio", "ratio"},
		{"driver.reg_reads", "count"},
		{"driver.reg_read_bytes", "B"},
		{"driver.audit_reads", "count"},
		{"driver.busy_frac", "ratio"},
		{"driver.ops_per_flush", "count"},
		{"driver.read_vus_p50", "vus"},
		{"driver.read_vus_p99", "vus"},
		{"driver.write_vus_p50", "vus"},
		{"driver.write_vus_p99", "vus"},
		{"ctlplane.dialogue_ops", "count"},
		{"ctlplane.bulk_ops", "count"},
		{"ctlplane.write_txns", "count"},
		{"ctlplane.writes_per_txn", "count"},
		{"ctlplane.reads_coalesced", "count"},
		{"ctlplane.rejections", "count"},
		{"core.iterations", "count"},
		{"core.commit_ratio", "ratio"},
		{"core.retries", "count"},
		{"core.rollbacks", "count"},
		{"core.abandoned", "count"},
		{"core.degraded", "count"},
		{"core.host_ns_per_iter", "ns"},
		{"rcl.reaction_errors", "count"},
		{"ctlchan.ops", "count"},
		{"ctlchan.retransmit_ratio", "ratio"},
		{"ctlchan.timeouts", "count"},
		{"ctlchan.dedup_hits", "count"},
		{"ctlchan.degraded_entries", "count"},
		{"ctlchan.window_waits", "count"},
		{"fabric.coord_events", "count"},
		{"fabric.hh_reports", "count"},
		{"fabric.route_moves", "count"},
		{"fabric.route_reissues", "count"},
		{"fabric.install_errors", "count"},
		{"fabric.reroute_vus", "vus"},
		{"fabric.gray_cycles", "count"},
		{"fabric.early_restores", "count"},
		{"fabric.build_ms", "ms"},
		{"compiler.compile_ms", "ms"},
		{"usecases.false_blocks", "count"},
		{"usecases.attack_detect_vus", "vus"},
		{"react_p50_vus", "vus"},
		{"react_p99_vus", "vus"},
		{"react_samples", "count"},
		{"legacy_p99_vus", "vus"},
		{"detect_vus", "vus"},
		{"goodput_gbps", "Gbit/s"},
		{"fail_ratio", "ratio"},
		{"trace_overhead_pct", "%"},
	}
	for _, l := range selfLayers {
		defs = append(defs, metricDef{l + ".self_pct", "%"})
	}
	for _, n := range microNames {
		defs = append(defs, metricDef{n + "_ns", "ns"}, metricDef{n + "_allocs", "count"})
	}
	return defs
}

// handoffFuncs are the functions whose cumulative CPU share is the
// cost of passing control between the simulator and its processes:
// the two channel handoffs of sim.Proc, plus the goroutine switch the
// runtime makes on the scheduler stack when one side parks.
var handoffFuncs = []string{
	"repro/internal/sim.(*Proc).handoff",
	"repro/internal/sim.(*Proc).block",
	"runtime.mcall",
}

// selfPct groups the CPU profiles' samples by package with
// `go tool pprof -top`: <layer>.self_pct is the flat share of the
// layer's package, sim.handoff_self_pct the cumulative share of
// handoffFuncs.
func selfPct(profiles []string) (counts, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000"}, profiles...)
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	return parseTop(stdout.String())
}

// parseTop reads the table of `pprof -top`: flat, flat%, sum%, cum,
// cum%, function name.
func parseTop(out string) (counts, error) {
	m := counts{}
	for _, l := range selfLayers {
		m[l+".self_pct"] = 0
	}
	m["sim.handoff_self_pct"] = 0
	inTable := false
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if !inTable {
			inTable = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err1 := pct(f[1])
		cum, err2 := pct(f[4])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("pprof -top line %q: unexpected format", line)
		}
		fn := f[5]
		if l := layerOf(fn); l != "" {
			if _, ok := m[l+".self_pct"]; ok {
				m[l+".self_pct"] += flat
			}
		}
		for _, h := range handoffFuncs {
			if fn == h {
				m["sim.handoff_self_pct"] += cum
			}
		}
	}
	if !inTable {
		return nil, fmt.Errorf("pprof -top printed no table:\n%s", out)
	}
	return m, nil
}

func pct(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
}

// layerOf maps a profiled function to its layer: the package under
// repro/internal (subpackages count toward their parent), or runtime.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return ""
	}
	if strings.HasPrefix(fn, "runtime.") {
		return "runtime"
	}
	return ""
}
