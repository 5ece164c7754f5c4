package site

import (
	"testing"

	"qcommit/internal/msg"
	"qcommit/internal/protocol"
	"qcommit/internal/types"
	"qcommit/internal/wal"
)

// probe is a test automaton that records the envs it is handed and, when
// next is set, has the kernel install next in its own role from inside its
// next dispatch, then arms a timer with token 77 on its own (superseded) env.
type probe struct {
	k    *Kernel[string]
	c    *Txn[string]
	role protocol.Role
	next protocol.Automaton
	// startToken, if non-zero, is a timer Start arms.
	startToken int
	envs       []protocol.Env
}

func (p *probe) Start(env protocol.Env) {
	p.envs = append(p.envs, env)
	if p.startToken != 0 {
		env.SetTimer(1, p.startToken)
	}
}

func (p *probe) OnMessage(_ types.SiteID, _ msg.Message, env protocol.Env) { p.dispatch(env) }
func (p *probe) OnTimer(_ int, env protocol.Env)                           { p.dispatch(env) }

func (p *probe) dispatch(env protocol.Env) {
	p.envs = append(p.envs, env)
	if next := p.next; next != nil {
		p.next = nil
		p.k.install(p.c, p.role, next)
		env.SetTimer(1, 77)
	}
}

// TestWarmDispatchAllocatesNoEnv pins that an installed automaton's env is
// made once, at installation: a warm delivery and a warm timer fire on an
// installed participant allocate nothing in the kernel, and every dispatch
// hands the automaton the env it started with.
func TestWarmDispatchAllocatesNoEnv(t *testing.T) {
	t.Run("threephase participant", func(t *testing.T) {
		// A participant rejoined in q ignores PREPARE-TO-COMMIT and a
		// superseded timer token, so the only cost left is the kernel's.
		k, _ := newKernel(2)
		c := k.Adopt(5, wsX, both, 1)
		k.Resume(c, &wal.TxnImage{Txn: 5, State: types.StateInitial, Coord: 1, Participants: both, Writeset: wsX})
		ptc := from(1, msg.PrepareToCommit{Txn: 5})
		tm := Timer{Txn: 5, Role: protocol.RoleParticipant, Gen: c.gen[protocol.RoleParticipant], Token: 99}
		if n := testing.AllocsPerRun(100, func() { k.Handle(ptc) }); n != 0 {
			t.Errorf("warm delivery: %v allocs, want 0", n)
		}
		if n := testing.AllocsPerRun(100, func() { k.Fire(tm) }); n != 0 {
			t.Errorf("warm timer fire: %v allocs, want 0", n)
		}
	})

	t.Run("same env every dispatch", func(t *testing.T) {
		k, _ := newKernel(2)
		c := k.Adopt(6, wsX, both, 1)
		p := &probe{k: k, c: c, role: protocol.RoleParticipant, envs: make([]protocol.Env, 0, 256)}
		k.install(c, protocol.RoleParticipant, p)
		ptc := from(1, msg.PrepareToCommit{Txn: 6})
		tm := Timer{Txn: 6, Role: protocol.RoleParticipant, Gen: c.gen[protocol.RoleParticipant]}
		if n := testing.AllocsPerRun(50, func() { k.Handle(ptc); k.Fire(tm) }); n != 0 {
			t.Errorf("warm delivery + fire: %v allocs, want 0", n)
		}
		if len(p.envs) < 3 {
			t.Fatalf("the probe saw %d dispatches", len(p.envs)-1)
		}
		for i, e := range p.envs {
			if e != p.envs[0] {
				t.Fatalf("dispatch %d handed a different env than Start", i)
			}
		}
	})
}

// TestReinstallFencesOutgoingEnv pins the generation fence inside a dispatch:
// when an automaton's own message or timer makes the kernel install its
// successor in the same role, whatever the outgoing automaton still asks of
// its env — here a SetTimer — arms nothing, while the successor's timer is
// armed under the new generation. One env per role whose generation were
// reset at each dispatch would hand the outgoing automaton the successor's
// generation and arm the stale timer.
func TestReinstallFencesOutgoingEnv(t *testing.T) {
	for _, tc := range []struct {
		name     string
		dispatch func(k *Kernel[string], c *Txn[string])
	}{
		{"message", func(k *Kernel[string], _ *Txn[string]) {
			k.Handle(from(1, msg.PrepareToCommit{Txn: 7}))
		}},
		{"timer", func(k *Kernel[string], c *Txn[string]) {
			k.Fire(Timer{Txn: 7, Role: protocol.RoleParticipant, Gen: c.gen[protocol.RoleParticipant]})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, h := newKernel(2)
			c := k.Adopt(7, wsX, both, 1)
			successor := &probe{startToken: 5}
			outgoing := &probe{k: k, c: c, role: protocol.RoleParticipant, next: successor}
			k.install(c, protocol.RoleParticipant, outgoing)
			gen := c.gen[protocol.RoleParticipant]
			tc.dispatch(k, c)
			if c.Automaton(protocol.RoleParticipant) != successor {
				t.Fatal("the successor was not installed")
			}
			var armed []Timer
			for _, ft := range h.timers {
				armed = append(armed, ft.t)
			}
			want := Timer{Txn: 7, Role: protocol.RoleParticipant, Gen: gen + 1, Token: 5}
			if len(armed) != 1 || armed[0] != want {
				t.Fatalf("armed %+v, want only the successor's %+v", armed, want)
			}
			if outgoing.envs[len(outgoing.envs)-1] == successor.envs[0] {
				t.Error("the outgoing automaton was handed the successor's env")
			}
		})
	}
}
