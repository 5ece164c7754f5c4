package sim

import (
	"container/heap"
	"testing"
)

// refEvent and refHeap are the reference scheduler FuzzSchedulerMatchesReference
// holds the typed heap to: container/heap over pointers in (at, seq) order.
type refEvent struct {
	at    Time
	seq   uint64
	label int
	child Duration // scheduled from the event's body when ≥ 0
	idx   int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	ev.idx = -1
	return ev
}

type refSched struct {
	now Time
	seq uint64
	h   refHeap
	log []dispatch
}

type dispatch struct {
	at    Time
	label int
}

func (r *refSched) at(t Time, label int, child Duration) *refEvent {
	if t < r.now {
		t = r.now
	}
	r.seq++
	ev := &refEvent{at: t, seq: r.seq, label: label, child: child}
	heap.Push(&r.h, ev)
	return ev
}

func (r *refSched) cancel(ev *refEvent) bool {
	if ev.idx < 0 {
		return false
	}
	heap.Remove(&r.h, ev.idx)
	return true
}

func (r *refSched) runUntil(deadline Time) {
	for len(r.h) > 0 && r.h[0].at <= deadline {
		ev := heap.Pop(&r.h).(*refEvent)
		r.now = ev.at
		r.log = append(r.log, dispatch{ev.at, ev.label})
		if ev.child >= 0 {
			r.at(r.now.Add(ev.child), -ev.label-1, -1)
		}
	}
	if r.now < deadline {
		r.now = deadline
	}
}

// FuzzSchedulerMatchesReference drives the scheduler and a container/heap
// reference with the same At/After/Cancel/RunUntil sequence, including
// events scheduled in the past and from inside other events, and requires
// the same dispatch order, the same Cancel answers and the same backlog.
func FuzzSchedulerMatchesReference(f *testing.F) {
	f.Add([]byte{0, 5, 0, 5, 1, 3, 2, 0, 3, 9})
	f.Add([]byte{0, 200, 1, 7, 0, 1, 2, 1, 2, 1, 3, 255, 0, 0, 3, 0})
	f.Add([]byte{1, 0, 1, 0, 1, 0, 2, 2, 3, 1, 0, 130, 3, 50, 2, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := NewScheduler(1)
		ref := &refSched{}
		var log []dispatch
		var ids []EventID
		var refs []*refEvent
		schedule := func(label int, at Time, child Duration, after bool) {
			body := func() {
				log = append(log, dispatch{s.Now(), label})
				if child >= 0 {
					s.After(child, func() { log = append(log, dispatch{s.Now(), -label - 1}) })
				}
			}
			if after {
				ids = append(ids, s.After(Duration(at-s.Now()), body))
			} else {
				ids = append(ids, s.At(at, body))
			}
			refs = append(refs, ref.at(at, label, child))
		}
		for i := 0; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			switch ops[i] % 4 {
			case 0, 1: // At / After, up to 64 ns in the past, sometimes with a child
				at := s.Now().Add(Duration(arg%128 - 64))
				child := Duration(-1)
				if arg%3 == 0 {
					child = Duration(arg % 7)
				}
				schedule(len(ids), at, child, ops[i]%4 == 1)
			case 2:
				if len(ids) == 0 {
					continue
				}
				k := arg % len(ids)
				if got, want := s.Cancel(ids[k]), ref.cancel(refs[k]); got != want {
					t.Fatalf("op %d: Cancel(event %d) = %v, reference %v", i/2, k, got, want)
				}
			case 3:
				deadline := s.Now().Add(Duration(arg % 40))
				s.RunUntil(deadline)
				ref.runUntil(deadline)
			}
			if s.Pending() != len(ref.h) || s.Now() != ref.now {
				t.Fatalf("op %d: pending %d at %v, reference %d at %v", i/2, s.Pending(), s.Now(), len(ref.h), ref.now)
			}
		}
		s.RunUntil(1 << 40)
		ref.runUntil(1 << 40)
		if s.Cancel(EventID{}) {
			t.Fatal("the zero EventID cancelled an event")
		}
		if len(log) != len(ref.log) {
			t.Fatalf("dispatched %d events, reference %d", len(log), len(ref.log))
		}
		for i := range log {
			if log[i] != ref.log[i] {
				t.Fatalf("dispatch %d = %+v, reference %+v", i, log[i], ref.log[i])
			}
		}
	})
}
