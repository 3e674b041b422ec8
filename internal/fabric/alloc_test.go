package fabric

import (
	"testing"

	"repro/internal/rmt"
	"repro/internal/sim"
)

// TestProbeTickAllocatesNothing pins the gray-detection probe path at
// zero allocations in steady state: a probe tick makes one probe per
// live spine per leaf trunk, each crosses its trunk (translation into
// the leaf's schema) and dies at the leaf's hb_tbl, where its packet
// and the spine-side source return to their networks' pools.
func TestProbeTickAllocatesNothing(t *testing.T) {
	s := sim.New(1)
	f, err := Build(s, Config{Leaves: 2, Spines: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The agents' prologue installs the hb_tbl entry; install it
	// directly so only the probe path runs.
	for _, leaf := range f.Leaves {
		if _, err := leaf.Sw.AddEntry(HeartbeatTable, rmt.Entry{
			Keys: []rmt.KeySpec{rmt.ExactKey(HeartbeatProto)}, Action: HeartbeatAction,
		}); err != nil {
			t.Fatal(err)
		}
	}
	counted := func() (n uint64) {
		for _, leaf := range f.Leaves {
			for sp := range f.Spines {
				v, err := leaf.Sw.RegRead("hb_count", uint64(f.UplinkPort(sp)))
				if err != nil {
					t.Fatal(err)
				}
				n += v
			}
		}
		return n
	}
	ts := f.Cfg.Gray.Ts
	f.startHeartbeats()
	s.RunFor(100 * ts) // grow the pools and the event freelist

	before := counted()
	const ticks = 200
	allocs := testing.AllocsPerRun(ticks, func() { s.RunFor(ts) })
	// AllocsPerRun makes one extra warm-up call.
	if got, want := counted()-before, uint64((ticks+1)*len(f.Leaves)*len(f.Spines)); got != want {
		t.Fatalf("hb_tbl counted %d probes over %d ticks, want %d", got, ticks+1, want)
	}
	if allocs != 0 {
		t.Fatalf("%v allocs per probe tick, want 0", allocs)
	}
	f.Stop()
}
