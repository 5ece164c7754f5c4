// Package trace records protocol events and renders message ladders, the
// textual equivalent of the paper's Figures 1, 2 and 9.
package trace

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"qcommit/internal/sim"
	"qcommit/internal/types"
)

// Event is one recorded protocol event.
type Event struct {
	At   sim.Time
	Site types.SiteID
	// From/To/Label are set for message events (Label = message kind);
	// plain annotations leave From/To zero.
	From, To types.SiteID
	Label    string
	Text     string
}

// IsMessage reports whether the event is a message delivery.
func (e Event) IsMessage() bool { return e.Label != "" }

// Recorder accumulates events. It is safe for concurrent use so the live
// runtime can share one recorder across site goroutines.
type Recorder struct {
	mu     sync.Mutex
	events []Event
	// disabled gates recording without the mutex; a nil Recorder is also
	// valid and records nothing.
	disabled atomic.Bool
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Disable turns the recorder off (events are discarded).
func (r *Recorder) Disable() {
	if r != nil {
		r.disabled.Store(true)
	}
}

// Enabled reports whether the recorder keeps events. A caller that must
// build an event's label or arguments checks it first, so a disabled
// recorder costs one atomic load.
func (r *Recorder) Enabled() bool { return r != nil && !r.disabled.Load() }

// Annotate records a free-form event at a site.
func (r *Recorder) Annotate(at sim.Time, site types.SiteID, format string, args ...any) {
	if !r.Enabled() {
		return
	}
	text := fmt.Sprintf(format, args...)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, Event{At: at, Site: site, Text: text})
}

// Message records a message delivery event.
func (r *Recorder) Message(at sim.Time, from, to types.SiteID, label string) {
	if !r.Enabled() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, Event{At: at, Site: to, From: from, To: to, Label: label})
}

// Events returns a snapshot of the recorded events in order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Reset clears the recorder.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = r.events[:0]
}

// Ladder renders the recorded events as a time-ordered message ladder:
//
//	t=3.201ms   site1 --VOTE-REQ--> site3
//	t=9.114ms   site3 --VOTE(yes)--> site1
//	t=12.000ms  [site3] enters PC
//
// Only events matching filter (nil = all) are included.
func (r *Recorder) Ladder(filter func(Event) bool) string {
	var b strings.Builder
	for _, e := range r.Events() {
		if filter != nil && !filter(e) {
			continue
		}
		if e.IsMessage() {
			fmt.Fprintf(&b, "t=%-11s %s --%s--> %s\n", e.At, e.From, e.Label, e.To)
		} else {
			fmt.Fprintf(&b, "t=%-11s [%s] %s\n", e.At, e.Site, e.Text)
		}
	}
	return b.String()
}

// MessagesOnly is a Ladder filter keeping only message events.
func MessagesOnly(e Event) bool { return e.IsMessage() }
