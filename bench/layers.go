package main

import (
	"fmt"
	"runtime"
	"time"

	"qcommit/internal/core"
	"qcommit/internal/lockmgr"
	"qcommit/internal/msg"
	"qcommit/internal/protocol"
	"qcommit/internal/protocoltest"
	"qcommit/internal/types"
	"qcommit/internal/voting"
)

// The probes in this file time one layer's public functions directly, on
// inputs the workload produced (the envelopes its transport carried, the keys
// its transactions locked). They run after the traced window, single
// goroutine, for a fixed number of calls.

// probeCalls is the least number of calls a probe times.
const probeCalls = 200_000

// probeMsg times msg.Marshal and msg.Unmarshal over the captured envelopes.
func probeMsg(captured []msg.Envelope, layer map[string]float64) error {
	if len(captured) == 0 {
		return fmt.Errorf("msg probe: the transport wrapper captured no envelopes")
	}
	frames := make([][]byte, len(captured))
	var bytes int
	for i, env := range captured {
		f, err := msg.Marshal(env.Msg)
		if err != nil {
			return fmt.Errorf("msg probe: %w", err)
		}
		frames[i] = f
		bytes += len(f)
	}
	rounds := probeCalls/len(captured) + 1
	calls := float64(rounds * len(captured))

	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, env := range captured {
			if _, err := msg.Marshal(env.Msg); err != nil {
				return err
			}
		}
	}
	layer["msg.marshal_ns"] = float64(time.Since(t0)) / calls

	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for _, f := range frames {
			if _, err := msg.Unmarshal(f); err != nil {
				return err
			}
		}
	}
	layer["msg.unmarshal_ns"] = float64(time.Since(t0)) / calls
	layer["msg.bytes_per_msg"] = float64(bytes) / float64(len(captured))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, env := range captured {
		f, _ := msg.Marshal(env.Msg)
		_, _ = msg.Unmarshal(f)
	}
	runtime.ReadMemStats(&after)
	layer["msg.allocs_per_roundtrip"] = float64(after.Mallocs-before.Mallocs) / float64(len(captured))
	return nil
}

// probeLocks times TryAcquire of every key of a transaction plus ReleaseAll,
// uncontended, on a fresh sharded manager, over the workload's key sequence;
// the figure is per key.
func probeLocks(recs []opRec, layer map[string]float64) {
	if len(recs) == 0 {
		return
	}
	m := lockmgr.NewSharded(1, 0)
	keys := make([][]types.ItemID, len(recs))
	perRound := 0
	for i, r := range recs {
		keys[i] = r.ws.Items()
		perRound += len(keys[i])
	}
	rounds := probeCalls/perRound + 1
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for i, ks := range keys {
			txn := types.TxnID(i + 1)
			for _, k := range ks {
				_ = m.TryAcquire(txn, k, lockmgr.Exclusive) // uncontended: one txn holds at a time
			}
			m.ReleaseAll(txn)
		}
	}
	layer["lockmgr.acquire_release_ns"] = float64(time.Since(t0)) / float64(rounds*perRound)
}

// probeStep drives a QC1 coordinator and its participants through a scripted
// failure-free commit on recording fake environments and reports the mean
// time of one automaton step (Start, OnMessage).
func probeStep(asgn *voting.Assignment, sites []types.SiteID, ws types.Writeset, layer map[string]float64) error {
	spec := core.Spec{Variant: core.Protocol1}
	envs := map[types.SiteID]*protocoltest.Env{}
	for _, id := range sites {
		envs[id] = protocoltest.New(id, asgn)
	}
	coordSite := sites[0]
	const commits = 2000
	var steps int
	parts := map[types.SiteID]protocol.Automaton{}
	next := map[types.SiteID]int{} // per sender, how many of its sends are delivered
	t0 := time.Now()
	for i := 0; i < commits; i++ {
		txn := types.TxnID(i + 1)
		coord := spec.NewCoordinator(txn, ws, sites)
		clear(parts)
		clear(next)
		for _, id := range sites {
			envs[id].Reset()
		}
		coord.Start(envs[coordSite])
		steps++
		// Pump messages between the automata until none is left.
		for moved := true; moved; {
			moved = false
			for _, from := range sites {
				env := envs[from]
				for next[from] < len(env.Sends) {
					s := env.Sends[next[from]]
					next[from]++
					moved = true
					switch s.Msg.(type) {
					case msg.VoteResp, msg.PCAck, msg.PAAck, msg.Done:
						coord.OnMessage(from, s.Msg, envs[s.To])
					default:
						p := parts[s.To]
						if p == nil {
							p = spec.NewParticipant(txn, nil)
							parts[s.To] = p
							p.Start(envs[s.To])
							steps++
						}
						p.OnMessage(from, s.Msg, envs[s.To])
					}
					steps++
				}
			}
		}
		for _, id := range sites {
			if len(envs[id].Committed) == 0 {
				return fmt.Errorf("protocol probe: scripted commit did not commit at site %d", id)
			}
		}
	}
	layer["protocol.step_ns"] = float64(time.Since(t0)) / float64(steps)
	return nil
}
