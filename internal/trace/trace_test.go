package trace

import (
	"strings"
	"sync"
	"testing"

	"qcommit/internal/sim"
	"qcommit/internal/types"
)

func TestRecorderAnnotateAndMessage(t *testing.T) {
	r := NewRecorder()
	r.Annotate(5, 1, "hello %d", 42)
	r.Message(10, 1, 2, "COMMIT")
	evs := r.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].IsMessage() || evs[0].Text != "hello 42" {
		t.Errorf("event 0 = %+v", evs[0])
	}
	if !evs[1].IsMessage() || evs[1].From != 1 || evs[1].To != 2 {
		t.Errorf("event 1 = %+v", evs[1])
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Annotate(0, 1, "x")
	r.Message(0, 1, 2, "y")
	r.Reset()
	r.Disable()
	if got := r.Events(); got != nil {
		t.Errorf("nil recorder events = %v", got)
	}
	if s := r.Ladder(nil); s != "" {
		t.Errorf("nil recorder ladder = %q", s)
	}
}

func TestDisable(t *testing.T) {
	r := NewRecorder()
	if !r.Enabled() {
		t.Fatal("a new recorder is not enabled")
	}
	r.Disable()
	r.Annotate(0, 1, "dropped %s", "x")
	r.Message(0, 1, 2, "dropped")
	if len(r.Events()) != 0 || r.Enabled() {
		t.Errorf("disabled recorder recorded %v (enabled = %v)", r.Events(), r.Enabled())
	}
	if (*Recorder)(nil).Enabled() {
		t.Error("a nil recorder reports enabled")
	}
	// Off, a record costs the check and nothing else: no formatting.
	if n := testing.AllocsPerRun(100, func() { r.Annotate(0, 1, "%s %s", "a", "b") }); n != 0 {
		t.Errorf("a disabled Annotate allocates %v times", n)
	}
}

func TestLadderRendering(t *testing.T) {
	r := NewRecorder()
	r.Message(sim.Time(3*sim.Millisecond), 1, 3, "VOTE-REQ")
	r.Annotate(sim.Time(4*sim.Millisecond), 3, "enters PC")
	out := r.Ladder(nil)
	if !strings.Contains(out, "site1 --VOTE-REQ--> site3") {
		t.Errorf("ladder missing arrow:\n%s", out)
	}
	if !strings.Contains(out, "[site3] enters PC") {
		t.Errorf("ladder missing annotation:\n%s", out)
	}
	msgsOnly := r.Ladder(MessagesOnly)
	if strings.Contains(msgsOnly, "enters PC") {
		t.Errorf("filter not applied:\n%s", msgsOnly)
	}
}

func TestReset(t *testing.T) {
	r := NewRecorder()
	r.Annotate(0, 1, "x")
	r.Reset()
	if len(r.Events()) != 0 {
		t.Error("reset did not clear")
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Annotate(sim.Time(i), 1, "g%d i%d", g, i)
				_ = r.Events()
			}
		}(g)
	}
	wg.Wait()
	if len(r.Events()) != 800 {
		t.Errorf("got %d events, want 800", len(r.Events()))
	}
}

func TestDiagramRendering(t *testing.T) {
	r := NewRecorder()
	sites := []types.SiteID{1, 2, 3}
	r.Message(sim.Time(3*sim.Millisecond), 1, 3, "VOTE-REQ")
	r.Message(sim.Time(5*sim.Millisecond), 3, 1, "yes")
	r.Message(sim.Time(6*sim.Millisecond), 2, 2, "STATE-REQ") // self-delivery
	r.Annotate(sim.Time(7*sim.Millisecond), 2, "enters PC")
	r.Annotate(sim.Time(8*sim.Millisecond), 0, "PARTITION") // cluster-level

	out := r.Diagram(sites, 14)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("expected header + 5 rows, got %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "site1") || !strings.Contains(lines[0], "site3") {
		t.Errorf("header missing sites: %q", lines[0])
	}
	if !strings.Contains(lines[1], "o") || !strings.Contains(lines[1], ">") || !strings.Contains(lines[1], "VOTE-REQ") {
		t.Errorf("arrow row malformed: %q", lines[1])
	}
	if !strings.Contains(lines[2], "<") {
		t.Errorf("reverse arrow missing: %q", lines[2])
	}
	if !strings.Contains(lines[3], "@") {
		t.Errorf("self-delivery glyph missing: %q", lines[3])
	}
	if !strings.Contains(lines[4], "*enters PC") {
		t.Errorf("annotation missing: %q", lines[4])
	}
	if !strings.Contains(lines[5], "== PARTITION ==") {
		t.Errorf("cluster note missing: %q", lines[5])
	}
}

func TestDiagramSkipsUnknownSites(t *testing.T) {
	r := NewRecorder()
	r.Message(1, 9, 10, "X") // neither site in the diagram
	out := r.Diagram([]types.SiteID{1, 2}, 10)
	if strings.Contains(out, "X") {
		t.Errorf("unknown-site message rendered:\n%s", out)
	}
}
