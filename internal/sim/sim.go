// Package sim provides a deterministic discrete-event simulation kernel.
//
// All FaaSFlow substrates (network fabric, container pool, storage, workflow
// engines) run on top of a single Env: a virtual clock plus an event queue.
// Events scheduled for the same instant fire in scheduling order, so a run
// with the same inputs always produces the same trace.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is an absolute instant of virtual time, in nanoseconds since the
// start of the simulation.
type Time int64

// Duration converts a virtual instant to the elapsed time.Duration since
// the simulation epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports the instant as floating-point seconds since the epoch.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// Milliseconds reports the instant as floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(time.Millisecond) }

func (t Time) String() string { return time.Duration(t).String() }

// MaxTime is the largest representable virtual instant.
const MaxTime = Time(math.MaxInt64)

// Event is a scheduled callback. The zero value is meaningless; events are
// created with Env.Schedule or Env.At.
type Event struct {
	at       Time
	seq      uint64
	fn       func()
	canceled bool
}

// At reports the virtual instant the event will fire.
func (ev *Event) At() Time { return ev.at }

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled event is a no-op.
func (ev *Event) Cancel() { ev.canceled = true }

// Canceled reports whether Cancel was called on the event.
func (ev *Event) Canceled() bool { return ev.canceled }

// before reports whether ev fires before o: earlier instant first, then
// scheduling order.
func (ev *Event) before(o *Event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

// eventQueue is a binary min-heap of events ordered by (at, seq). The
// sift loops are written out over the concrete slice so the kernel's
// hottest path makes no interface calls and boxes nothing.
type eventQueue []*Event

func (q *eventQueue) push(ev *Event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	*q = h
}

// pop removes and returns the earliest event. The queue must be non-empty.
func (q *eventQueue) pop() *Event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	if n > 0 {
		h.down(0)
	}
	*q = h
	return top
}

// down sifts h[i] toward the leaves until the heap order holds below it.
func (h eventQueue) down(i int) {
	ev := h[i]
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(ev) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = ev
}

// sweep drops cancelled events and restores the heap order. Pop order is
// fixed by the total (at, seq) order, so dropping tombstones early changes
// nothing but the queue length.
func (q *eventQueue) sweep() {
	h := *q
	live := h[:0]
	for _, ev := range h {
		if !ev.canceled {
			live = append(live, ev)
		}
	}
	clear(h[len(live):])
	for i := len(live)/2 - 1; i >= 0; i-- {
		live.down(i)
	}
	*q = live
}

// minSweep is the queue length below which At never sweeps.
const minSweep = 64

// Env is a discrete-event simulation environment. It is not safe for
// concurrent use; the whole simulation is single-threaded by design so that
// every run is reproducible.
type Env struct {
	now     Time
	queue   eventQueue
	nextSeq uint64
	fired   uint64
	running bool
	// sweepAt is the queue length at which At next sweeps out cancelled
	// events: twice the live count left by the last sweep. A cancelled
	// timer far in the future (a keep-alive expiry, say) would otherwise
	// sit in the heap until its instant; sweeping keeps tombstones to
	// about the live count, at O(1) amortized cost per At.
	sweepAt int
}

// NewEnv returns an environment with the clock at zero and an empty queue.
func NewEnv() *Env { return &Env{} }

// Now reports the current virtual time.
func (e *Env) Now() Time { return e.now }

// Pending reports how many events are queued (including canceled ones that
// have not yet been discarded).
func (e *Env) Pending() int { return len(e.queue) }

// Fired reports how many events have executed so far.
func (e *Env) Fired() uint64 { return e.fired }

// Schedule queues fn to run after delay. A negative delay is treated as
// zero. It returns the event so the caller may cancel it.
func (e *Env) Schedule(delay time.Duration, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+Time(delay), fn)
}

// At queues fn to run at absolute virtual instant t. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Env) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	ev := &Event{at: t, seq: e.nextSeq, fn: fn}
	e.nextSeq++
	if len(e.queue) >= max(e.sweepAt, minSweep) {
		e.queue.sweep()
		e.sweepAt = 2 * len(e.queue)
	}
	e.queue.push(ev)
	return ev
}

// Step fires the next event. It reports false when the queue is empty.
func (e *Env) Step() bool {
	for len(e.queue) > 0 {
		ev := e.queue.pop()
		if ev.canceled {
			continue
		}
		e.now = ev.at
		e.fired++
		ev.fn()
		return true
	}
	return false
}

// Run fires events until the queue is empty.
func (e *Env) Run() {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for e.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline, then advances the clock
// to the deadline (if the simulation hasn't already passed it).
func (e *Env) RunUntil(deadline Time) {
	if e.running {
		panic("sim: RunUntil called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for {
		next, ok := e.peek()
		if !ok || next > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// peek returns the timestamp of the next live event.
func (e *Env) peek() (Time, bool) {
	for len(e.queue) > 0 {
		if e.queue[0].canceled {
			e.queue.pop()
			continue
		}
		return e.queue[0].at, true
	}
	return 0, false
}

// NextAt reports the timestamp of the next pending event, or MaxTime when
// the queue is empty.
func (e *Env) NextAt() Time {
	if t, ok := e.peek(); ok {
		return t
	}
	return MaxTime
}
