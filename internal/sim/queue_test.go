package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// key is an event's position in the queue's total order.
type key struct {
	at  Time
	seq uint64
}

// queueOrderRun drives a seeded random mix of At, AtCall, Cancel,
// Spawn, Sleep, Park and Unpark, most of it landing on a handful of
// instants so equal-time ties are the common case, in RunFor slices of
// random length. Every event and process wakeup records its (at, seq)
// key when it runs. It returns the keys in execution order and the keys
// of every event that was queued and not cancelled.
func queueOrderRun(seed int64) (got, want []key) {
	const nprocs = 3
	s := New(seed)
	r := rand.New(rand.NewSource(seed))
	// last is the key of the most recently queued event: push assigns
	// seq s.seq and clamps the time to now.
	last := func(at Time) key { return key{max(at, s.now), s.seq} }
	type pending struct {
		id  EventID
		key key
	}
	var live []pending // plain events that may still be cancelled
	ran := make(map[uint64]bool)
	cancelled := make(map[uint64]bool)
	var queued []key
	record := func(k key) {
		ran[k.seq] = true
		got = append(got, k)
	}

	procs := make([]*Proc, nprocs)
	parked := make([]bool, nprocs)
	wake := make([]key, nprocs) // key of each process's pending wakeup
	unpark := func() {
		if i := r.Intn(nprocs); parked[i] {
			parked[i] = false
			procs[i].Unpark()
			wake[i] = last(s.now)
			queued = append(queued, wake[i])
		}
	}

	var add func()
	onCall := func(arg any) {
		record(*arg.(*key))
		switch r.Intn(3) {
		case 0:
			add()
		case 1:
			unpark()
		}
	}
	add = func() {
		if len(queued) > 4000 {
			return
		}
		at := s.now.Add(time.Duration(r.Intn(4)))
		k := new(key)
		var id EventID
		if r.Intn(2) == 0 {
			id = s.AtCall(at, onCall, k)
		} else {
			id = s.At(at, func() { onCall(k) })
		}
		*k = last(at)
		queued = append(queued, *k)
		live = append(live, pending{id, *k})
	}
	cancel := func() {
		if len(live) == 0 {
			return
		}
		p := live[r.Intn(len(live))]
		if !ran[p.key.seq] {
			cancelled[p.key.seq] = true
		}
		s.Cancel(p.id)
	}

	for i := range procs {
		procs[i] = s.Spawn(fmt.Sprint("p", i), func(p *Proc) {
			record(wake[i])
			for step := 0; step < 200; step++ {
				switch r.Intn(6) {
				case 0:
					// Sleep queues the wakeup with the next seq.
					d := time.Duration(r.Intn(3))
					wake[i] = key{s.now.Add(d), s.seq + 1}
					queued = append(queued, wake[i])
					p.Sleep(d)
					record(wake[i])
					continue
				case 1:
					parked[i] = true
					p.Park()
					record(wake[i])
					continue
				case 2:
					unpark()
				case 3:
					cancel()
				default:
					add()
				}
			}
		})
		wake[i] = last(s.now)
		queued = append(queued, wake[i])
	}
	for i := 0; i < 50; i++ {
		add()
	}
	for k := 0; k < 30; k++ {
		s.RunFor(time.Duration(r.Intn(3)))
		if r.Intn(2) == 0 {
			add()
		}
	}
	for {
		s.Run()
		woke := false
		for i := range procs {
			if parked[i] {
				parked[i] = false
				procs[i].Unpark()
				wake[i] = last(s.now)
				queued = append(queued, wake[i])
				woke = true
			}
		}
		if !woke {
			break
		}
	}
	for _, k := range queued {
		if !cancelled[k.seq] {
			want = append(want, k)
		}
	}
	slices.SortFunc(want, func(a, b key) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
	})
	return got, want
}

// TestQueueOrderMatchesSortedReference checks the heap against a sorted
// list: whatever mix of operations built the queue, events and process
// wakeups must run in strictly increasing (at, seq) order, and every
// queued event that was not cancelled must run exactly once.
func TestQueueOrderMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		got, want := queueOrderRun(seed)
		if len(want) < 500 {
			t.Fatalf("seed %d: only %d events queued", seed, len(want))
		}
		if !slices.Equal(got, want) {
			for i := range got {
				if i >= len(want) || got[i] != want[i] {
					t.Fatalf("seed %d: run order diverges at %d of %d (want %d): got %v", seed, i, len(got), len(want), got[i])
				}
			}
			t.Fatalf("seed %d: ran %d events, want %d", seed, len(got), len(want))
		}
	}
}

// BenchmarkEventQueue measures one step of the event loop in the hold
// model: with depth events pending, pop the earliest, run it, and queue
// its successor at a pseudo-random later time, so the depth stays
// fixed. Steady state must not allocate.
func BenchmarkEventQueue(b *testing.B) {
	for _, depth := range []int{16, 1 << 10, 1 << 16} {
		b.Run(fmt.Sprint("depth=", depth), func(b *testing.B) {
			s := New(1)
			delays := make([]time.Duration, 4096)
			r := rand.New(rand.NewSource(1))
			for i := range delays {
				delays[i] = time.Duration(r.Intn(2 * depth))
			}
			n := 0
			var again func(any)
			again = func(any) {
				s.ScheduleCall(delays[n%len(delays)], again, nil)
				n++
			}
			for i := 0; i < depth; i++ {
				again(nil)
			}
			s.until = math.MaxInt64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.step()
			}
		})
	}
}
