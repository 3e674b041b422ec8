package sim

import (
	"fmt"
	"time"
)

// Proc is a simulated sequential process (e.g. a control-plane thread).
//
// The event loop of a discrete-event simulator is inconvenient for code
// that reads state, blocks for a device latency, then branches on the
// result — exactly the shape of the Mantis agent's dialogue loop and of
// a legacy control-plane application. Proc provides blocking-style
// execution on top of the event queue: the process body runs in its own
// goroutine, and exactly one goroutine — Run's caller or one process —
// holds control at a time, so execution remains deterministic.
//
// Scheduling is run-to-block. A process that blocks schedules its
// wakeup and runs the event loop itself, on its own goroutine. If the
// next wakeup is its own it simply returns, with no goroutine switch; if
// it belongs to another process, control passes straight to that
// process's goroutine (one switch); if the bound of the current Run is
// reached, control goes back to Run's caller. Events still execute one
// at a time in (time, sequence) order, so virtual time does not depend
// on which goroutine runs them.
//
// A Proc may only interact with the simulation between Spawn and the
// return of its body, and must block only via Sleep, WaitUntil, Yield or
// Park.
type Proc struct {
	sim  *Simulator
	name string
	// body is the process function until its goroutine starts; resume
	// gives the goroutine control after that.
	body   func(p *Proc)
	resume chan struct{}
	done   bool
}

// Spawn starts fn as a simulated process at the current virtual time.
// fn begins executing on its own goroutine when the scheduler reaches
// the process's first wakeup, queued behind already-scheduled events at
// this instant.
func (s *Simulator) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		sim:    s,
		name:   name,
		body:   fn,
		resume: make(chan struct{}),
	}
	s.wakeAt(s.now, p)
	return p
}

// main is the process goroutine. After the body returns it keeps
// running the event loop until control can go to another goroutine.
func (p *Proc) main(body func(p *Proc)) {
	exited := false
	defer func() {
		if exited {
			return
		}
		if r := recover(); r != nil {
			panic(r)
		}
		// The body, or an event run on this goroutine, called
		// runtime.Goexit (t.FailNow in a test). Run's caller exits the
		// same way instead of waiting for control forever.
		p.sim.goexit = true
		p.sim.idle <- struct{}{}
	}()
	body(p)
	p.done = true
	p.pass(p.sim.next())
	exited = true
}

// handoff gives control to p's goroutine, starting it on its first
// wakeup. The caller must then block or exit.
func (p *Proc) handoff() {
	if p.done {
		panic(fmt.Sprintf("sim: wakeup of finished proc %q", p.name))
	}
	if body := p.body; body != nil {
		p.body = nil
		go p.main(body)
		return
	}
	p.resume <- struct{}{}
}

// pass gives control from p's goroutine to next's, or back to Run's
// caller when next is nil.
func (p *Proc) pass(next *Proc) {
	if next == nil {
		p.sim.idle <- struct{}{}
		return
	}
	next.handoff()
}

// block waits until p's goroutine is given control.
func (p *Proc) block() { <-p.resume }

// suspend runs the event loop on p's goroutine until p's own wakeup
// comes up. If control must go elsewhere first, p passes it on and
// blocks until a goroutine reaches p's wakeup and hands control back.
func (p *Proc) suspend() {
	if next := p.sim.next(); next != p {
		p.pass(next)
		p.block()
	}
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.Now() }

// Sim returns the underlying simulator. Scheduling events from within a
// running process is safe: the process holds control, so no other
// goroutine touches the simulator until it blocks.
func (p *Proc) Sim() *Simulator { return p.sim }

// Sleep suspends the process for d of virtual time. Other events (data
// plane packets, other processes) run in the meantime.
func (p *Proc) Sleep(d time.Duration) {
	if p.done {
		panic(fmt.Sprintf("sim: Sleep on finished proc %q", p.name))
	}
	if d <= 0 {
		d = 0
	}
	p.sim.wakeAt(p.sim.now.Add(d), p)
	p.suspend()
}

// WaitUntil suspends the process until the absolute virtual time t. If
// t is in the past it returns immediately.
func (p *Proc) WaitUntil(t Time) {
	if t <= p.sim.Now() {
		return
	}
	p.Sleep(t.Sub(p.sim.Now()))
}

// Yield gives other same-time events a chance to run before continuing.
func (p *Proc) Yield() { p.Sleep(0) }

// Park suspends the process indefinitely, until some other component —
// an event or another process — calls Unpark. Unlike Sleep, no wakeup
// is scheduled: the process runs the event loop until control must go
// elsewhere, then blocks. A parked process consumes no events and the
// simulation may drain and finish around it (its goroutine is reclaimed
// at process exit only if it is eventually unparked).
//
// Park/Unpark is the blocking primitive service-style components are
// built from: a dispatcher parks while its queues are empty, and a
// requester parks while its request is in flight. The pairing
// discipline is the caller's responsibility: every Park must be matched
// by exactly one Unpark, and Unpark must never be called for a process
// that is not parked — trackers like an "idle" flag or a per-request
// waiter pointer make this trivial to maintain.
func (p *Proc) Park() {
	if p.done {
		panic(fmt.Sprintf("sim: Park on finished proc %q", p.name))
	}
	p.suspend()
}

// Unpark schedules a parked process to resume at the current virtual
// time (after already-queued same-time events). It must be called from
// simulator context: inside an event callback or from another running
// process.
func (p *Proc) Unpark() { p.sim.wakeAt(p.sim.now, p) }
