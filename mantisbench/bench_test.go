package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// short returns the named workload with its measured span cut to span.
func short(t *testing.T, name string, span time.Duration) spec {
	t.Helper()
	sp, ok := lookup(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	sp.span = span
	if sp.slice > span {
		sp.slice = span
	}
	return sp
}

func round(t *testing.T, sp spec, seed int64, traced bool) *roundOut {
	t.Helper()
	out, err := runRound(sp, seed, traced, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if out.Err != "" {
		t.Fatalf("%s seed %d: output check failed: %s", sp.name, seed, out.Err)
	}
	return out
}

func virtualJSON(t *testing.T, out *roundOut) []byte {
	t.Helper()
	buf, err := json.Marshal(out.Virtual)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// The span recorder must not change what is simulated: a traced round
// gives the same virtual-time outputs and event counts as an untraced
// one, and the agent above it keeps its allocation-free RangeReader
// poll path.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, name := range []string{"ctl-churn", "dos-flood"} {
		sp := short(t, name, 20*time.Millisecond)
		plain, traced := round(t, sp, 7, false), round(t, sp, 7, true)
		if !reflect.DeepEqual(plain.Virtual, traced.Virtual) {
			t.Errorf("%s: traced outputs differ:\n untraced %v\n traced   %v", name, plain.Virtual, traced.Virtual)
		}
		if traced.Spans["spans"] == 0 {
			t.Errorf("%s: traced round recorded no spans", name)
		}
	}
	w := &dosFlood{}
	if err := w.setup(7, true); err != nil {
		t.Fatal(err)
	}
	var into, batch int
	for _, s := range w.tr.spans {
		switch s.verb {
		case vBatchReadInto:
			into++
		case vBatchRead:
			batch++
		}
	}
	if into == 0 || batch != 0 {
		t.Fatalf("agent polls through the tracer: %d BatchReadInto, %d BatchRead; want only BatchReadInto", into, batch)
	}
}

// The seed drives the inputs: one seed reproduces byte-identical
// virtual outputs, two seeds give different ones.
func TestSeedDrivesInputs(t *testing.T) {
	spans := map[string]time.Duration{
		"ctl-churn":   10 * time.Millisecond,
		"dos-flood":   10 * time.Millisecond,
		"fabric-gray": 8 * time.Millisecond,
	}
	for _, s := range specs {
		sp := short(t, s.name, spans[s.name])
		a, b, c := virtualJSON(t, round(t, sp, 1, false)), virtualJSON(t, round(t, sp, 1, false)), virtualJSON(t, round(t, sp, 2, false))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 twice gave different outputs:\n%s\n%s", s.name, a, b)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave identical outputs:\n%s", s.name, a)
		}
	}
}

// The benchmark's own iteration recording agrees with core's latency
// samples where both exist (core keeps only the first LatencySamples).
func TestIterRecorderMatchesCore(t *testing.T) {
	plan, err := compiler.CompileSource(fig11Src, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	sw, err := rmt.New(s, plan.Prog, rmt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := &iterRecorder{on: true}
	agent := core.NewAgent(s, driver.New(s, sw, driver.DefaultCostModel()), plan,
		core.Options{MaxIterations: 200, AfterIteration: rec.hook})
	agent.Start()
	s.Run()
	lats := agent.Stats().Latencies
	if len(rec.lats) != len(lats)-1 {
		t.Fatalf("recorded %d iterations, core %d", len(rec.lats), len(lats))
	}
	for i, l := range rec.lats {
		if time.Duration(l) != lats[i+1] {
			t.Fatalf("iteration %d: recorded %v, core %v", i+1, time.Duration(l), lats[i+1])
		}
	}
}

// BENCHMARK.json declares exactly the workloads and metrics the
// benchmark prints.
func TestBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &cfg); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, s := range specs {
		want = append(want, s.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d] = %s %s, want %s %s", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", cfg.EndToEnd, endToEndMetrics)
	check("per_layer", cfg.PerLayer, perLayerMetrics)
}

// parseTop groups `pprof -top` rows by layer package.
func TestParseTop(t *testing.T) {
	out := `File: mantisbench
Type: cpu
Showing nodes accounting for 1.47s, 100% of 1.47s total
      flat  flat%   sum%        cum   cum%
     0.30s 20.41% 20.41%      0.30s 20.41%  runtime.futex
     0.10s  6.80% 27.21%      0.27s 18.37%  repro/internal/sim.(*Proc).block
     0.05s  3.40% 30.61%      0.16s 10.88%  repro/internal/sim.(*Proc).handoff
     0.02s  1.36% 31.97%      0.37s 25.17%  runtime.mcall
     0.04s  2.72% 34.69%      0.04s  2.72%  repro/internal/compiler/place.Place
     0.03s  2.04% 36.73%      0.05s  3.40%  repro/internal/rmt.(*Switch).applyTable (inline)
     0.01s  0.68% 37.41%      0.01s  0.68%  main.(*tracer).end
`
	m, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sim.self_pct": 10.20, "runtime.self_pct": 21.77, "rmt.self_pct": 2.04,
		"sim.handoff_self_pct": 54.42, "core.self_pct": 0,
	}
	for k, v := range want {
		if d := m[k] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
	if _, err := parseTop("no table here"); err == nil {
		t.Error("parseTop accepted output without a table")
	}
}
