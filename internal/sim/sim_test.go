package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSchedulerOrdersByTime(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
	if s.Now() != 30 {
		t.Errorf("final time = %v, want 30", s.Now())
	}
}

func TestSchedulerFIFOAmongEqualTimes(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestSchedulerAfterAndNesting(t *testing.T) {
	s := NewScheduler(1)
	var hits []Time
	s.After(10, func() {
		hits = append(hits, s.Now())
		s.After(5, func() { hits = append(hits, s.Now()) })
	})
	s.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Errorf("hits = %v, want [10 15]", hits)
	}
}

func TestSchedulerPastSchedulingClamps(t *testing.T) {
	s := NewScheduler(1)
	var at Time = -1
	s.At(10, func() {
		s.At(3, func() { at = s.Now() }) // in the past: runs "now"
	})
	s.Run()
	if at != 10 {
		t.Errorf("past event ran at %v, want clamped to 10", at)
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler(1)
	ran := false
	id := s.At(10, func() { ran = true })
	if !s.Cancel(id) {
		t.Error("first Cancel should report true")
	}
	if s.Cancel(id) {
		t.Error("second Cancel should report false")
	}
	s.Run()
	if ran {
		t.Error("cancelled event ran")
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler(1)
	var ran []Time
	s.At(10, func() { ran = append(ran, 10) })
	s.At(20, func() { ran = append(ran, 20) })
	s.At(30, func() { ran = append(ran, 30) })
	s.RunUntil(20)
	if len(ran) != 2 {
		t.Errorf("RunUntil(20) ran %v, want two events", ran)
	}
	if s.Now() != 20 {
		t.Errorf("Now = %v, want 20", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d, want 1", s.Pending())
	}
	s.Run()
	if len(ran) != 3 {
		t.Errorf("final ran = %v", ran)
	}
}

func TestSchedulerRunFor(t *testing.T) {
	s := NewScheduler(1)
	hits := 0
	s.At(5, func() { hits++ })
	s.RunFor(3)
	if hits != 0 || s.Now() != 3 {
		t.Errorf("after RunFor(3): hits=%d now=%v", hits, s.Now())
	}
	s.RunFor(3)
	if hits != 1 || s.Now() != 6 {
		t.Errorf("after RunFor(6): hits=%d now=%v", hits, s.Now())
	}
}

func TestSchedulerMaxSteps(t *testing.T) {
	s := NewScheduler(1)
	s.MaxSteps = 100
	var loop func()
	loop = func() { s.After(1, loop) }
	s.After(1, loop)
	s.Run()
	if s.Steps() != 100 {
		t.Errorf("steps = %d, want clamped at 100", s.Steps())
	}
}

func TestSchedulerDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		s := NewScheduler(seed)
		rng := rand.New(rand.NewSource(seed))
		var log []Time
		for i := 0; i < 50; i++ {
			s.After(Duration(rng.Int63n(1000)), func() { log = append(log, s.Now()) })
		}
		s.Run()
		return log
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestSchedulerDispatchOrderProperty: events always dispatch in
// non-decreasing time order, regardless of insertion order.
func TestSchedulerDispatchOrderProperty(t *testing.T) {
	f := func(seed int64, times []uint32) bool {
		s := NewScheduler(seed)
		var dispatched []Time
		for _, tm := range times {
			at := Time(tm % 10000)
			s.At(at, func() { dispatched = append(dispatched, s.Now()) })
		}
		s.Run()
		if len(dispatched) != len(times) {
			return false
		}
		for i := 1; i < len(dispatched); i++ {
			if dispatched[i] < dispatched[i-1] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestTimeHelpers(t *testing.T) {
	if Time(1_500_000).String() != "1.500ms" {
		t.Errorf("Time string = %q", Time(1_500_000).String())
	}
	if Time(10).Add(5) != 15 {
		t.Error("Add wrong")
	}
	if Second != 1000*Millisecond || Millisecond != 1000*Microsecond {
		t.Error("unit ratios wrong")
	}
}
