package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/driver"
	"repro/internal/p4"
	"repro/internal/rmt"
	"repro/internal/sim"
)

// verb names one driver.Channel operation in a span.
type verb uint8

const (
	vAddEntry verb = iota
	vModifyEntry
	vDeleteEntry
	vSetDefault
	vSetHashSeed
	vRegWrite
	vRegRead
	vBatchRead
	vBatchReadInto
	vUnbatchedRead
	vReadEntries
	vReadDefault
	numVerbs
)

var verbNames = [numVerbs]string{
	"add_entry", "modify_entry", "delete_entry", "set_default", "set_hash_seed", "reg_write",
	"reg_read", "batch_read", "batch_read_into", "unbatched_read", "read_entries", "read_default",
}

// isWrite reports whether the verb mutates switch state.
func (v verb) isWrite() bool { return v <= vRegWrite }

// span is one driver operation as seen from above the driver: virtual
// start/end on the simulator clock, host start/end in ns since the
// tracer was built, and the dialogue iteration in progress when it was
// issued (its parent).
type span struct {
	verb         verb
	parent       uint64
	vStart, vEnd sim.Time
	hStart, hEnd int64
}

// tracer is a driver.Channel interposer that records one span per
// operation and forwards everything to the channel beneath it. It also
// forwards driver.RangeReader, so an agent above it keeps its
// allocation-free poll path and the traced run executes the same
// program as the untraced one.
type tracer struct {
	inner driver.Channel
	rr    driver.RangeReader
	t0    time.Time
	// iter is the id of the dialogue iteration in progress; the agent's
	// AfterIteration hook advances it.
	iter  uint64
	spans []span
}

func newTracer(inner driver.Channel) *tracer {
	rr, _ := inner.(driver.RangeReader)
	return &tracer{inner: inner, rr: rr, t0: time.Now(), iter: 1, spans: make([]span, 0, 1<<16)}
}

var (
	_ driver.Channel     = (*tracer)(nil)
	_ driver.RangeReader = (*tracer)(nil)
)

func (t *tracer) begin(p *sim.Proc) (sim.Time, int64) {
	return p.Now(), time.Since(t.t0).Nanoseconds()
}

func (t *tracer) end(p *sim.Proc, v verb, vs sim.Time, hs int64) {
	t.spans = append(t.spans, span{
		verb: v, parent: t.iter, vStart: vs, vEnd: p.Now(),
		hStart: hs, hEnd: time.Since(t.t0).Nanoseconds(),
	})
}

func (t *tracer) AddEntry(p *sim.Proc, table string, e rmt.Entry) (rmt.EntryHandle, error) {
	vs, hs := t.begin(p)
	h, err := t.inner.AddEntry(p, table, e)
	t.end(p, vAddEntry, vs, hs)
	return h, err
}

func (t *tracer) ModifyEntry(p *sim.Proc, table string, h rmt.EntryHandle, action string, data []uint64) error {
	vs, hs := t.begin(p)
	err := t.inner.ModifyEntry(p, table, h, action, data)
	t.end(p, vModifyEntry, vs, hs)
	return err
}

func (t *tracer) DeleteEntry(p *sim.Proc, table string, h rmt.EntryHandle) error {
	vs, hs := t.begin(p)
	err := t.inner.DeleteEntry(p, table, h)
	t.end(p, vDeleteEntry, vs, hs)
	return err
}

func (t *tracer) SetDefaultAction(p *sim.Proc, table string, call *p4.ActionCall) error {
	vs, hs := t.begin(p)
	err := t.inner.SetDefaultAction(p, table, call)
	t.end(p, vSetDefault, vs, hs)
	return err
}

func (t *tracer) SetHashSeed(p *sim.Proc, name string, seed uint64) error {
	vs, hs := t.begin(p)
	err := t.inner.SetHashSeed(p, name, seed)
	t.end(p, vSetHashSeed, vs, hs)
	return err
}

func (t *tracer) RegWrite(p *sim.Proc, reg string, idx uint64, v uint64) error {
	vs, hs := t.begin(p)
	err := t.inner.RegWrite(p, reg, idx, v)
	t.end(p, vRegWrite, vs, hs)
	return err
}

func (t *tracer) RegRead(p *sim.Proc, reg string, idx uint64) (uint64, error) {
	vs, hs := t.begin(p)
	v, err := t.inner.RegRead(p, reg, idx)
	t.end(p, vRegRead, vs, hs)
	return v, err
}

func (t *tracer) BatchRead(p *sim.Proc, reqs []driver.ReadReq) ([][]uint64, error) {
	vs, hs := t.begin(p)
	out, err := t.inner.BatchRead(p, reqs)
	t.end(p, vBatchRead, vs, hs)
	return out, err
}

// BatchReadInto forwards to the inner channel's RangeReader. Without
// one it falls back to BatchRead and copies, which is what the agent
// itself would do on such a channel.
func (t *tracer) BatchReadInto(p *sim.Proc, reqs []driver.ReadReq, dst [][]uint64) error {
	vs, hs := t.begin(p)
	var err error
	if t.rr != nil {
		err = t.rr.BatchReadInto(p, reqs, dst)
	} else {
		var rows [][]uint64
		if rows, err = t.inner.BatchRead(p, reqs); err == nil {
			for i := range dst {
				dst[i] = append(dst[i][:0], rows[i]...)
			}
		}
	}
	t.end(p, vBatchReadInto, vs, hs)
	return err
}

func (t *tracer) UnbatchedRead(p *sim.Proc, reqs []driver.ReadReq) ([][]uint64, error) {
	vs, hs := t.begin(p)
	out, err := t.inner.UnbatchedRead(p, reqs)
	t.end(p, vUnbatchedRead, vs, hs)
	return out, err
}

func (t *tracer) ReadEntries(p *sim.Proc, table string) ([]rmt.Entry, error) {
	vs, hs := t.begin(p)
	out, err := t.inner.ReadEntries(p, table)
	t.end(p, vReadEntries, vs, hs)
	return out, err
}

func (t *tracer) ReadDefaultAction(p *sim.Proc, table string) (*p4.ActionCall, error) {
	vs, hs := t.begin(p)
	out, err := t.inner.ReadDefaultAction(p, table)
	t.end(p, vReadDefault, vs, hs)
	return out, err
}

func (t *tracer) Memoize(table string, handle rmt.EntryHandle) { t.inner.Memoize(table, handle) }
func (t *tracer) Switch() *rmt.Switch                          { return t.inner.Switch() }
func (t *tracer) Stats() driver.Stats                          { return t.inner.Stats() }

// latencies returns the virtual durations of the read and the write
// spans that started at or after from, each sorted ascending.
func (t *tracer) latencies(from sim.Time) (reads, writes []float64) {
	for _, s := range t.spans {
		if s.vStart < from {
			continue
		}
		d := float64(s.vEnd - s.vStart)
		if s.verb.isWrite() {
			writes = append(writes, d)
		} else {
			reads = append(reads, d)
		}
	}
	sort.Float64s(reads)
	sort.Float64s(writes)
	return reads, writes
}

// write saves every span as one CSV line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "verb,parent_iter,v_start_ns,v_end_ns,h_start_ns,h_end_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d\n", verbNames[s.verb], s.parent, s.vStart, s.vEnd, s.hStart, s.hEnd)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
