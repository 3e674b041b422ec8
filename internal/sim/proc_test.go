package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestProcSleepAdvancesClock(t *testing.T) {
	s := New(1)
	var times []Time
	s.Spawn("p", func(p *Proc) {
		times = append(times, p.Now())
		p.Sleep(10 * Microsecond)
		times = append(times, p.Now())
		p.Sleep(5 * Microsecond)
		times = append(times, p.Now())
	})
	s.Run()
	want := []Time{0, Time(10 * Microsecond), Time(15 * Microsecond)}
	if len(times) != 3 {
		t.Fatalf("times = %v", times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestProcInterleavesWithEvents(t *testing.T) {
	s := New(1)
	var order []string
	s.Schedule(5*Nanosecond, func() { order = append(order, "event@5") })
	s.Spawn("p", func(p *Proc) {
		order = append(order, "proc@0")
		p.Sleep(10 * Nanosecond)
		order = append(order, "proc@10")
	})
	s.Run()
	if len(order) != 3 || order[0] != "proc@0" || order[1] != "event@5" || order[2] != "proc@10" {
		t.Fatalf("order = %v", order)
	}
}

func TestTwoProcsDeterministic(t *testing.T) {
	runOnce := func() []string {
		s := New(1)
		var order []string
		s.Spawn("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				order = append(order, "a")
				p.Sleep(10 * Nanosecond)
			}
		})
		s.Spawn("b", func(p *Proc) {
			for i := 0; i < 3; i++ {
				order = append(order, "b")
				p.Sleep(15 * Nanosecond)
			}
		})
		s.Run()
		return order
	}
	first := runOnce()
	for i := 0; i < 10; i++ {
		again := runOnce()
		if len(again) != len(first) {
			t.Fatal("nondeterministic length")
		}
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", first, again)
			}
		}
	}
}

func TestProcWaitUntil(t *testing.T) {
	s := New(1)
	var at Time
	s.Spawn("p", func(p *Proc) {
		p.WaitUntil(Time(100))
		p.WaitUntil(Time(50)) // in the past: no-op
		at = p.Now()
	})
	s.Run()
	if at != Time(100) {
		t.Fatalf("at = %v, want 100ns", at)
	}
}

func TestProcYield(t *testing.T) {
	s := New(1)
	var order []string
	s.Spawn("p", func(p *Proc) {
		s.Schedule(0, func() { order = append(order, "event") })
		p.Yield()
		order = append(order, "after-yield")
	})
	s.Run()
	if len(order) != 2 || order[0] != "event" || order[1] != "after-yield" {
		t.Fatalf("order = %v", order)
	}
}

func TestProcSchedulingFromProc(t *testing.T) {
	s := New(1)
	hit := false
	s.Spawn("p", func(p *Proc) {
		p.Sim().Schedule(20*Nanosecond, func() { hit = true })
		p.Sleep(30 * Nanosecond)
		if !hit {
			t.Error("event scheduled from proc did not run during sleep")
		}
	})
	s.Run()
	if !hit {
		t.Fatal("scheduled event never ran")
	}
}

func TestProcParkUnpark(t *testing.T) {
	s := New(1)
	var order []string
	parked := false
	var worker *Proc
	worker = s.Spawn("worker", func(p *Proc) {
		order = append(order, "work@"+p.Now().String())
		parked = true
		p.Park()
		parked = false
		order = append(order, "woken@"+p.Now().String())
	})
	s.Spawn("waker", func(p *Proc) {
		p.Sleep(100 * Nanosecond)
		if !parked {
			t.Error("worker not parked at wake time")
		}
		worker.Unpark()
		order = append(order, "unpark@"+p.Now().String())
	})
	s.Run()
	want := []string{"work@0s", "unpark@100ns", "woken@100ns"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcParkedProcDoesNotBlockDrain(t *testing.T) {
	// A parked process holds no pending events, so the simulation can
	// drain and finish around it.
	s := New(1)
	reached := false
	s.Spawn("parked", func(p *Proc) {
		p.Park()
		t.Error("parked proc resumed without Unpark")
	})
	s.Schedule(50*Nanosecond, func() { reached = true })
	s.Run()
	if !reached || s.Pending() != 0 {
		t.Fatalf("reached=%v pending=%d", reached, s.Pending())
	}
}

func TestProcRunUntilPartial(t *testing.T) {
	s := New(1)
	steps := 0
	s.Spawn("p", func(p *Proc) {
		for i := 0; i < 10; i++ {
			steps++
			p.Sleep(10 * Nanosecond)
		}
	})
	s.RunUntil(Time(35 * time.Nanosecond))
	if steps != 4 { // at t=0,10,20,30
		t.Fatalf("steps = %d, want 4", steps)
	}
	s.Run()
	if steps != 10 {
		t.Fatalf("steps after full run = %d", steps)
	}
}

func TestProcRunUntilBoundReachedOnProcGoroutine(t *testing.T) {
	// The proc's goroutine runs the loop while it sleeps, so it is the
	// one that finds the next wakeup past the bound and hands control
	// back; a later RunUntil resumes it where it blocked. Plain events
	// record their time negated, to tell them from process steps.
	s := New(1)
	var wakes []Time
	s.Spawn("p", func(p *Proc) {
		for i := 0; i < 6; i++ {
			wakes = append(wakes, p.Now())
			s.Schedule(5*Nanosecond, func() { wakes = append(wakes, -s.Now()) })
			p.Sleep(10 * Nanosecond)
		}
	})
	s.RunUntil(Time(25))
	if s.Now() != Time(25) || len(wakes) != 6 {
		t.Fatalf("after RunUntil(25): now=%v wakes=%v", s.Now(), wakes)
	}
	s.RunUntil(Time(30))
	s.RunUntil(Time(100))
	want := []Time{0, -5, 10, -15, 20, -25, 30, -35, 40, -45, 50, -55}
	if fmt.Sprint(wakes) != fmt.Sprint(want) || s.Now() != Time(100) {
		t.Fatalf("wakes = %v, want %v (now %v)", wakes, want, s.Now())
	}
}

func TestProcStopFromEventRunOnProcGoroutine(t *testing.T) {
	s := New(1)
	steps := 0
	s.Spawn("p", func(p *Proc) {
		s.Schedule(25*Nanosecond, s.Stop)
		for i := 0; i < 10; i++ {
			steps++
			p.Sleep(10 * Nanosecond)
		}
	})
	s.RunUntil(Time(1000))
	if s.Now() != Time(25) || steps != 3 {
		t.Fatalf("after Stop: now=%v steps=%d, want 25ns and 3", s.Now(), steps)
	}
	s.Run()
	if steps != 10 || s.Now() != Time(100) {
		t.Fatalf("after resuming: now=%v steps=%d", s.Now(), steps)
	}
}

func TestProcFinishesHoldingControl(t *testing.T) {
	// a returns while it holds control; its goroutine runs the loop on
	// until b's wakeup and hands control to b before exiting.
	s := New(1)
	var order []string
	s.Spawn("a", func(p *Proc) {
		p.Sleep(10 * Nanosecond)
		order = append(order, "a done@"+p.Now().String())
	})
	s.Spawn("b", func(p *Proc) {
		p.Sleep(20 * Nanosecond)
		order = append(order, "b@"+p.Now().String())
		p.Sleep(5 * Nanosecond)
		order = append(order, "b done@"+p.Now().String())
	})
	s.Schedule(15*Nanosecond, func() { order = append(order, "event@"+s.Now().String()) })
	s.Run()
	want := "[a done@10ns event@15ns b@20ns b done@25ns]"
	if fmt.Sprint(order) != want {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestProcParkUnparkChain(t *testing.T) {
	// Three processes pass a token round a ring: each parks until it
	// holds the token, works for 1ns, then unparks the next, so control
	// travels a → b → c → a between process goroutines.
	s := New(1)
	var order []string
	var procs [3]*Proc
	for i := range procs {
		name := string(rune('a' + i))
		procs[i] = s.Spawn(name, func(p *Proc) {
			for round := 0; round < 3; round++ {
				p.Park()
				order = append(order, fmt.Sprintf("%s%d@%v", name, round, p.Now()))
				p.Sleep(Nanosecond)
				if round < 2 || i < 2 { // a has finished when c ends round 2
					procs[(i+1)%3].Unpark()
				}
			}
		})
	}
	s.Schedule(0, procs[0].Unpark) // runs after all three have parked
	s.Run()
	want := "[a0@0s b0@1ns c0@2ns a1@3ns b1@4ns c1@5ns a2@6ns b2@7ns c2@8ns]"
	if fmt.Sprint(order) != want {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// settledGoroutines yields until the goroutine count has held still for
// a while, so process goroutines that earlier tests left exiting are
// gone, and returns it. The count must hold for 20ms of wall time as
// well as 100 yields: on a loaded host the thread running an exiting
// goroutine can stall for longer than 100 yields take.
func settledGoroutines() int {
	n, still, since := runtime.NumGoroutine(), 0, time.Now()
	for deadline := since.Add(5 * time.Second); time.Now().Before(deadline); {
		runtime.Gosched()
		if m := runtime.NumGoroutine(); m != n {
			n, still, since = m, 0, time.Now()
		} else if still++; still >= 100 && time.Since(since) >= 20*time.Millisecond {
			break
		}
	}
	return n
}

// waitGoroutines waits for the goroutine count to fall to n: a
// finished process goroutine exits just after handing control away.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d", runtime.NumGoroutine(), n)
		}
		runtime.Gosched()
	}
}

func TestProcGoroutinesFlatAcrossSleeps(t *testing.T) {
	base := settledGoroutines()
	s := New(1)
	// p0 sleeps 10000 times for 1ns and p1 5000 times for 2ns, so both
	// live until 10µs.
	for i := 0; i < 2; i++ {
		period := time.Duration(i+1) * Nanosecond
		s.Spawn(fmt.Sprint("p", i), func(p *Proc) {
			for n := 0; n < 10000/(i+1); n++ {
				// Both process goroutines have started after p0's first sleep.
				if got := runtime.NumGoroutine(); n%1000 == 0 && n > 0 && got != base+2 {
					t.Errorf("sleep %d: %d goroutines, want %d", n, got, base+2)
				}
				p.Sleep(period)
			}
		})
	}
	for k := 0; k < 10; k++ {
		s.RunFor(1000 * Nanosecond)
	}
	s.Run()
	waitGoroutines(t, base)
}

func TestProcSwitchesDoNotAllocate(t *testing.T) {
	s := New(1)
	stop := false
	for i := 0; i < 2; i++ {
		period := time.Duration(i+1) * Nanosecond
		s.Spawn(fmt.Sprint("p", i), func(p *Proc) {
			for !stop {
				p.Sleep(period)
			}
		})
	}
	s.RunFor(10 * Nanosecond)
	if allocs := testing.AllocsPerRun(100, func() { s.RunFor(10 * Nanosecond) }); allocs != 0 {
		t.Errorf("%v allocs per RunFor slice, want 0", allocs)
	}
	stop = true
	s.Run()
}

func TestProcGoexitEndsRun(t *testing.T) {
	// runtime.Goexit on a process goroutine (t.FailNow in a test) makes
	// Run's caller exit too, instead of waiting for control forever.
	base := runtime.NumGoroutine()
	exited := make(chan struct{})
	returned := false
	go func() {
		defer close(exited)
		s := New(1)
		s.Spawn("p", func(p *Proc) {
			p.Sleep(Nanosecond)
			runtime.Goexit()
		})
		s.Run()
		returned = true
	}()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		t.Fatal("Run's caller still waiting after the process goroutine exited")
	}
	if returned {
		t.Fatal("Run returned normally after runtime.Goexit on a process")
	}
	waitGoroutines(t, base)
}

// BenchmarkProcSleep measures a sleep whose wakeup is the next event:
// the process runs it on its own goroutine, with no goroutine switch.
func BenchmarkProcSleep(b *testing.B) {
	s := New(1)
	s.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(Nanosecond)
		}
	})
	s.RunUntil(0) // start the process goroutine
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// BenchmarkProcPingPong measures one Park/Unpark round between two
// processes: two goroutine switches, one each way.
func BenchmarkProcPingPong(b *testing.B) {
	s := New(1)
	n := b.N
	var ping *Proc
	pong := s.Spawn("pong", func(p *Proc) {
		for {
			p.Park()
			if n == 0 {
				return
			}
			ping.Unpark()
		}
	})
	ping = s.Spawn("ping", func(p *Proc) {
		for ; n > 0; n-- {
			pong.Unpark()
			p.Park()
		}
		pong.Unpark()
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// schedulerTrace runs a seeded random mix of four processes and plain
// events (sleeps, yields, Park/Unpark pairs, scheduled and cancelled
// events) in RunFor slices of random length, and returns the executed
// (virtual time, label) trace.
func schedulerTrace(seed int64) []string {
	const nprocs = 4
	s := New(seed)
	r := rand.New(rand.NewSource(seed))
	var trace []string
	note := func(format string, args ...any) {
		trace = append(trace, fmt.Sprintf("%d ", s.Now())+fmt.Sprintf(format, args...))
	}
	procs := make([]*Proc, nprocs)
	parked := make([]bool, nprocs)
	unparkOne := func(by string) {
		if i := r.Intn(nprocs); parked[i] {
			parked[i] = false
			note("%s unpark p%d", by, i)
			procs[i].Unpark()
		}
	}
	var ids []EventID
	var schedule func(by string)
	schedule = func(by string) {
		n := len(ids)
		note("%s schedule e%d", by, n)
		ids = append(ids, s.Schedule(time.Duration(r.Intn(40)), func() {
			by := fmt.Sprintf("e%d", n)
			note(by)
			switch r.Intn(3) {
			case 0:
				unparkOne(by)
			case 1:
				if len(ids) < 3000 {
					schedule(by)
				}
			}
		}))
	}
	cancelOne := func(by string) {
		if len(ids) > 0 {
			k := r.Intn(len(ids))
			note("%s cancel e%d", by, k)
			s.Cancel(ids[k])
		}
	}
	for i := range procs {
		name := fmt.Sprintf("p%d", i)
		procs[i] = s.Spawn(name, func(p *Proc) {
			for step := 0; step < 150; step++ {
				note(name)
				switch r.Intn(7) {
				case 0, 1:
					p.Sleep(time.Duration(r.Intn(50)))
				case 2:
					p.Yield()
				case 3:
					parked[i] = true
					p.Park()
				case 4:
					unparkOne(name)
				case 5:
					schedule(name)
				case 6:
					cancelOne(name)
				}
			}
			note("%s done", name)
		})
	}
	for k := 0; k < 20; k++ {
		s.RunFor(time.Duration(r.Intn(100)))
		note("slice %d", k)
	}
	s.Run()
	// Wake every process still parked, until all have finished.
	for {
		woke := false
		for i, p := range procs {
			if parked[i] {
				parked[i] = false
				p.Unpark()
				woke = true
			}
		}
		if !woke {
			break
		}
		s.Run()
	}
	note("end executed=%d", s.Executed())
	return trace
}

// TestSchedulerDeterminismOracle pins digests of schedulerTrace. The
// digests were computed before the scheduler was reworked, so any change
// to event order or virtual timing shows up here.
func TestSchedulerDeterminismOracle(t *testing.T) {
	want := map[int64]uint64{1: 0x9ad4be82a2e21a1a, 2: 0xa6506eb654848e4c, 3: 0x41fa5bc838ccbca5}
	for seed := int64(1); seed <= 3; seed++ {
		trace := schedulerTrace(seed)
		h := fnv.New64a()
		h.Write([]byte(strings.Join(trace, "\n")))
		if got := h.Sum64(); got != want[seed] {
			t.Errorf("seed %d: trace digest %#x over %d lines, want %#x", seed, got, len(trace), want[seed])
		}
	}
}
