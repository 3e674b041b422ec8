package main

import (
	"runtime"
	"runtime/metrics"
)

// gcStats follows the Go heap over a round's measured span. The live
// heap is sampled at slice edges, after a forced collection so that the
// sample is the live heap itself and not whatever garbage the last
// automatic cycle happened to leave; the forced cycles run outside the
// timed slices and are excluded from the GC counts and pauses.
type gcStats struct {
	peak        uint64
	forcedPause uint64
	samples     []metrics.Sample
	start       runtime.MemStats
}

func newGCStats() *gcStats {
	g := &gcStats{samples: []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/cycles/automatic:gc-cycles"},
	}}
	runtime.ReadMemStats(&g.start)
	metrics.Read(g.samples)
	return g
}

// sampleLive collects and records the live heap.
func (g *gcStats) sampleLive() {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runtime.GC()
	runtime.ReadMemStats(&after)
	g.forcedPause += after.PauseTotalNs - before.PauseTotalNs
	metrics.Read(g.samples[:1])
	if v := g.samples[0].Value.Uint64(); v > g.peak {
		g.peak = v
	}
}

// finish fills the round's heap and GC fields.
func (g *gcStats) finish(out *roundOut) {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	auto0 := g.samples[1].Value.Uint64()
	metrics.Read(g.samples[1:])
	out.PeakHeapMB = float64(g.peak) / (1 << 20)
	out.AllocB = float64(end.TotalAlloc - g.start.TotalAlloc)
	out.GCCycles = float64(g.samples[1].Value.Uint64() - auto0)
	out.GCPauseMs = float64(end.PauseTotalNs-g.start.PauseTotalNs-g.forcedPause) / 1e6
}
