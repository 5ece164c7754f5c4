// Package sim provides a deterministic discrete-event simulation kernel.
//
// All protocol experiments in this repository run on virtual time: events
// (message deliveries, timer expirations, scripted failures) are ordered in
// a priority queue keyed by (time, sequence number), so a given seed and
// scenario always replays identically. The same protocol automata also run
// under the live goroutine runtime (package live); only the scheduler
// differs.
//
// Cost model: a pending event is one slot of a typed binary heap — its time,
// its sequence number and its Runner — and scheduling or dispatching one
// allocates nothing once the heap has grown to the run's peak. A Func
// wrapping an existing function value boxes without allocating; the hot
// event bodies (simnet deliveries, engine timer expiries) are pooled
// Runners, so a warm simulation schedules without touching the allocator.
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenience duration units mirroring package time.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// String renders the time in milliseconds for trace output.
func (t Time) String() string { return fmt.Sprintf("%.3fms", float64(t)/1e6) }

// Add returns the time advanced by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Runner is the body of a scheduled event.
type Runner interface{ Run() }

// Func adapts a function to Runner. A func value is one pointer, so
// converting it to a Runner allocates nothing.
type Func func()

// Run calls f.
func (f Func) Run() { f() }

// slot is one pending event.
type slot struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among same-time events
	r   Runner
}

func (a *slot) before(b *slot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// EventID identifies a scheduled event so it can be cancelled. Sequence
// numbers are never reused, so an EventID outlives its event safely: once
// the event runs or is cancelled, Cancel is a no-op. The zero EventID names
// no event.
type EventID struct{ seq uint64 }

// Scheduler is the simulation event loop. It is not safe for concurrent use;
// all simulated activity happens inside callbacks run by the scheduler.
type Scheduler struct {
	now   Time
	seq   uint64 // last sequence number issued; the first event gets 1
	heap  []slot // binary min-heap in (at, seq) order
	seed  int64
	steps uint64
	// MaxSteps bounds the number of dispatched events to guard against
	// livelock in buggy scenarios; 0 means unlimited.
	MaxSteps uint64
}

// NewScheduler returns a scheduler for a run seeded with seed. The
// scheduler draws nothing from it; layers that vary with the seed (simnet's
// delay hash) read it with Seed.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{seed: seed}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Seed returns the run's seed.
func (s *Scheduler) Seed() int64 { return s.seed }

// Steps returns the number of events dispatched so far.
func (s *Scheduler) Steps() uint64 { return s.steps }

// Schedule arranges for r.Run to be called at absolute virtual time t.
// Scheduling in the past (t < Now) runs the event at the current time,
// preserving FIFO order. It is the one way an event enters the queue.
func (s *Scheduler) Schedule(t Time, r Runner) EventID {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.heap = append(s.heap, slot{at: t, seq: s.seq, r: r})
	s.up(len(s.heap) - 1)
	return EventID{s.seq}
}

// At schedules fn to run at absolute virtual time t (see Schedule).
func (s *Scheduler) At(t Time, fn func()) EventID { return s.Schedule(t, Func(fn)) }

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d Duration, fn func()) EventID {
	return s.Schedule(s.now.Add(d), Func(fn))
}

// Cancel prevents a scheduled event from running. Cancelling an already-run
// or already-cancelled event is a no-op. It reports whether the event was
// still pending. It searches the queue, so it costs O(Pending); no
// simulated layer cancels on a hot path (engine timers are fenced by
// generation instead).
func (s *Scheduler) Cancel(id EventID) bool {
	for i := range s.heap {
		if s.heap[i].seq == id.seq {
			s.remove(i)
			return true
		}
	}
	return false
}

// Pending returns the number of events waiting to run.
func (s *Scheduler) Pending() int { return len(s.heap) }

// up moves the slot at i toward the root until its parent precedes it.
func (s *Scheduler) up(i int) {
	h := s.heap
	e := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// down moves the slot at i toward the leaves until it precedes its
// children.
func (s *Scheduler) down(i int) {
	h := s.heap
	n := len(h)
	e := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&e) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}

// remove takes the slot at i out of the heap and returns it.
func (s *Scheduler) remove(i int) slot {
	h := s.heap
	n := len(h) - 1
	e := h[i]
	last := h[n]
	h[n] = slot{} // drop the Runner so the heap does not keep it alive
	s.heap = h[:n]
	if i < n {
		h[i] = last
		s.down(i)
		s.up(i)
	}
	return e
}

// step dispatches the earliest event. It reports false when no events remain
// or MaxSteps is exhausted.
func (s *Scheduler) step() bool {
	if len(s.heap) == 0 {
		return false
	}
	if s.MaxSteps != 0 && s.steps >= s.MaxSteps {
		return false
	}
	e := s.remove(0)
	s.now = e.at
	s.steps++
	e.r.Run()
	return true
}

// Run dispatches events until none remain (or MaxSteps is reached) and
// returns the final virtual time.
func (s *Scheduler) Run() Time {
	for s.step() {
	}
	return s.now
}

// RunUntil dispatches events with time ≤ deadline and then advances the clock
// to the deadline. Events scheduled beyond the deadline stay pending.
func (s *Scheduler) RunUntil(deadline Time) Time {
	for len(s.heap) > 0 && s.heap[0].at <= deadline {
		if !s.step() {
			break
		}
	}
	if s.now < deadline {
		s.now = deadline
	}
	return s.now
}

// RunFor advances virtual time by d, dispatching due events.
func (s *Scheduler) RunFor(d Duration) Time { return s.RunUntil(s.now.Add(d)) }
