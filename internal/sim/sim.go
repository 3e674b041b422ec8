// Package sim provides a deterministic discrete-event simulation core.
//
// All Mantis components in this repository — the RMT switch model, the
// simulated PCIe driver, the network simulator, and the Mantis agent's
// dialogue loop — run against a shared virtual clock managed by a
// Simulator. Virtual time has nanosecond resolution, which is required to
// express the paper's latency scales faithfully: pipeline traversal is
// measured in 100s of nanoseconds, PCIe round trips in microseconds, and
// full reaction loops in 10s of microseconds.
//
// The simulator is intentionally single-threaded: events execute one at a
// time in (time, sequence) order, so every run is exactly reproducible
// given the same seed. Components that are conceptually concurrent (the
// data plane, the Mantis agent, a legacy control plane) interleave by
// scheduling events rather than by using goroutines. A blocking-style
// Proc has a goroutine of its own and runs events on it while it waits,
// but only one goroutine holds control at a time (see Proc).
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Common durations re-exported for readability at call sites.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
)

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t to a duration since time zero.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats the time as a duration since simulation start.
func (t Time) String() string { return time.Duration(t).String() }

// Event is a scheduled callback: either a plain closure fn, or an
// arg-passing afn(arg) pair (see ScheduleCall). The latter lets hot
// paths schedule per-packet work without allocating a capturing
// closure; combined with the simulator's event freelist the schedule
// operation itself is allocation-free in steady state. An event with
// neither is a process wakeup, and arg is the *Proc to resume.
type event struct {
	at        Time
	seq       uint64 // tie-break so equal-time events run FIFO
	fn        func()
	afn       func(any)
	arg       any
	id        EventID
	cancelled bool
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Simulator owns the virtual clock and the pending event queue.
type Simulator struct {
	now      Time
	queue    eventQueue
	seq      uint64
	stopped  bool
	rng      *rand.Rand
	executed uint64
	// events holds every event struct ever allocated, indexed by the
	// slot half of its EventID; free recycles them so steady-state
	// scheduling does not allocate (one event is reused as soon as it
	// has run).
	events []*event
	free   []*event
	// running is set for the duration of Run, whose event loop stops
	// at until. idle returns control to Run's caller from a process
	// goroutine that reached that bound; goexit says the goroutine is
	// exiting through runtime.Goexit instead.
	running bool
	until   Time
	idle    chan struct{}
	goexit  bool
}

// New returns a Simulator whose clock starts at 0 and whose deterministic
// RNG is seeded with seed.
func New(seed int64) *Simulator {
	return &Simulator{
		rng:  rand.New(rand.NewSource(seed)),
		idle: make(chan struct{}),
	}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulator's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// EventID identifies a scheduled event so it can be cancelled. The low
// 32 bits are the event struct's slot in the simulator, the high 32 a
// generation that advances each time the struct is released, so an ID
// whose event has run or been dropped no longer matches anything, even
// after its struct is reused.
type EventID uint64

const generation EventID = 1 << 32

// Schedule runs fn after delay of virtual time. A negative delay is
// treated as zero (run as soon as the current event completes).
func (s *Simulator) Schedule(delay time.Duration, fn func()) EventID {
	if delay < 0 {
		delay = 0
	}
	return s.At(s.now.Add(delay), fn)
}

// At runs fn at the absolute virtual time t. Scheduling in the past is an
// error in simulation logic; it is clamped to "now" to keep the clock
// monotonic, since a discrete-event clock must never run backwards.
func (s *Simulator) At(t Time, fn func()) EventID {
	e := s.newEvent(t)
	e.fn = fn
	heap.Push(&s.queue, e)
	return e.id
}

// ScheduleCall runs fn(arg) after delay of virtual time. Unlike
// Schedule it takes the callback and its argument separately, so
// callers on per-packet paths can pass a preallocated func(any) plus
// the packet itself and avoid a closure allocation per event.
func (s *Simulator) ScheduleCall(delay time.Duration, fn func(any), arg any) EventID {
	if delay < 0 {
		delay = 0
	}
	return s.AtCall(s.now.Add(delay), fn, arg)
}

// AtCall runs fn(arg) at the absolute virtual time t (clamped to now,
// like At).
func (s *Simulator) AtCall(t Time, fn func(any), arg any) EventID {
	e := s.newEvent(t)
	e.afn, e.arg = fn, arg
	heap.Push(&s.queue, e)
	return e.id
}

// wakeAt schedules p's wakeup at t (clamped to now, like At).
func (s *Simulator) wakeAt(t Time, p *Proc) {
	e := s.newEvent(t)
	e.arg = p
	heap.Push(&s.queue, e)
}

// newEvent takes an event from the freelist (or allocates one), stamps
// it with the next sequence number, and clamps t to now.
func (s *Simulator) newEvent(t Time) *event {
	if t < s.now {
		t = s.now
	}
	s.seq++
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		e = &event{id: EventID(len(s.events)) | generation}
		s.events = append(s.events, e)
	}
	e.at, e.seq = t, s.seq
	return e
}

// release clears an executed (or cancelled) event, advances its
// generation, and returns it to the freelist for reuse by the next
// schedule call. Generation 0 is skipped so the zero EventID never
// matches.
func (s *Simulator) release(e *event) {
	id := e.id + generation
	if id < generation {
		id += generation
	}
	*e = event{id: id}
	s.free = append(s.free, e)
}

// Cancel prevents a pending event from running. Cancelling an event that
// already ran is a no-op.
func (s *Simulator) Cancel(id EventID) {
	if slot := int(uint32(id)); slot < len(s.events) {
		if e := s.events[slot]; e.id == id {
			e.cancelled = true
		}
	}
}

// Pending reports the number of events waiting to run (including
// cancelled ones not yet drained).
func (s *Simulator) Pending() int { return len(s.queue) }

// Executed reports how many events have run so far.
func (s *Simulator) Executed() uint64 { return s.executed }

// Stop makes Run return after the current event finishes.
func (s *Simulator) Stop() { s.stopped = true }

// Run executes events until the queue is empty or Stop is called.
func (s *Simulator) Run() { s.run(math.MaxInt64) }

// RunUntil executes events with timestamps <= t, then advances the clock
// to exactly t (even if no event lands on it).
func (s *Simulator) RunUntil(t Time) {
	s.run(t)
	if !s.stopped && s.now < t {
		s.now = t
	}
}

// RunFor executes events for d of virtual time from the current instant.
func (s *Simulator) RunFor(d time.Duration) { s.RunUntil(s.now.Add(d)) }

// run executes events up to until on the calling goroutine. When an
// event wakes a process, control passes to the process goroutine, which
// runs the loop from there on (see Proc); run then waits until some
// goroutine reaches the bound and gives control back.
func (s *Simulator) run(until Time) {
	if s.running {
		panic("sim: Run, RunUntil or RunFor called from inside an event or a running Proc")
	}
	s.running, s.stopped, s.until = true, false, until
	if p := s.next(); p != nil {
		p.handoff()
		<-s.idle
		if s.goexit {
			runtime.Goexit()
		}
	}
	s.running = false
}

// next runs events in order until one is a process wakeup, and returns
// that process, or until the bound of the current Run is reached (queue
// empty, Stop called, or the next event past until), and returns nil.
func (s *Simulator) next() *Proc {
	for len(s.queue) > 0 && !s.stopped && s.queue[0].at <= s.until {
		if p := s.step(); p != nil {
			return p
		}
	}
	return nil
}

// yieldEvery is how many events run between calls into the Go
// scheduler. The goroutine holding control can run millions of events
// without blocking, and with GOMAXPROCS=1 the runtime's background GC
// mark worker only runs when the scheduler is entered: each mark phase
// then stretches, and everything allocated during it is kept as live,
// so collections come more often. Yielding every so often bounds that
// at a negligible cost per event.
const yieldEvery = 1024

// step pops the next event and runs it, unless it was cancelled or is a
// process wakeup: a wakeup is returned for the caller to resume.
func (s *Simulator) step() *Proc {
	e := heap.Pop(&s.queue).(*event)
	if e.cancelled {
		s.release(e)
		return nil
	}
	if e.at > s.now {
		s.now = e.at
	}
	s.executed++
	if s.executed%yieldEvery == 0 {
		runtime.Gosched()
	}
	// Copy the callback out and recycle the event before running it, so
	// events the callback schedules can reuse the struct immediately.
	fn, afn, arg := e.fn, e.afn, e.arg
	s.release(e)
	switch {
	case afn != nil:
		afn(arg)
	case fn != nil:
		fn()
	default:
		return arg.(*Proc)
	}
	return nil
}

// Every schedules fn to run repeatedly with the given period, starting
// after one period. The returned Ticker can be stopped. A period of zero
// or less panics: it would wedge the simulator at a single instant.
func (s *Simulator) Every(period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive ticker period %v", period))
	}
	t := &Ticker{sim: s, period: period, fn: fn}
	t.arm()
	return t
}

// Ticker is a repeating event created by Every.
type Ticker struct {
	sim     *Simulator
	period  time.Duration
	fn      func()
	pending EventID
	stopped bool
}

func (t *Ticker) arm() {
	t.pending = t.sim.Schedule(t.period, func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.arm()
		}
	})
}

// Stop cancels all future ticks.
func (t *Ticker) Stop() {
	t.stopped = true
	t.sim.Cancel(t.pending)
}
