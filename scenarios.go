package qcommit

import (
	"qcommit/internal/core"
	"qcommit/internal/engine"
	"qcommit/internal/voting"
)

// Canonical scenario constructors for the paper's figures and examples,
// shared by the figures tool, the benchmarks and the examples.

// PaperItems returns the replica layout of the paper's Examples 1, 2 and 4:
// item x with single-vote copies at sites 1–4, item y at sites 5–8, and
// r(x)=r(y)=2, w(x)=w(y)=3.
func PaperItems() []ReplicatedItem {
	return []ReplicatedItem{
		{Name: "x", Sites: []SiteID{1, 2, 3, 4}, R: 2, W: 3, Initial: 100},
		{Name: "y", Sites: []SiteID{5, 6, 7, 8}, R: 2, W: 3, Initial: 200},
	}
}

// Example1States is the interrupted configuration of Fig. 3: the coordinator
// (site1) is about to crash, site5 is in PC and every other participant is
// in W.
func Example1States() map[SiteID]State {
	return map[SiteID]State{
		1: StateWait, 2: StateWait, 3: StateWait, 4: StateWait,
		5: StatePC,
		6: StateWait, 7: StateWait, 8: StateWait,
	}
}

// Example1Partition is Fig. 3's split: G1={1,2,3}, G2={4,5}, G3={6,7,8}.
func Example1Partition() [][]SiteID {
	return [][]SiteID{{1, 2, 3}, {4, 5}, {6, 7, 8}}
}

// SetupExample1 builds the Fig. 3 scenario under the given protocol: the
// interrupted transaction, the coordinator crash and the three-way
// partition. Run the cluster to let the termination protocol act, then use
// Availability for the per-partition table.
func SetupExample1(proto Protocol, seed int64) (*Cluster, TxnID, error) {
	opts := Options{Protocol: proto, Seed: seed}
	if proto == ProtoSkeenQuorum {
		opts.SkeenVc, opts.SkeenVa = 5, 4 // the paper's Example 1 quorums
	}
	c, err := NewCluster(PaperItems(), opts)
	if err != nil {
		return nil, 0, err
	}
	txn := c.SetupInterrupted(1, map[ItemID]int64{"x": 1, "y": 2}, Example1States())
	c.Crash(1)
	c.Partition(Example1Partition()...)
	return c, txn, nil
}

// Example3Items is Fig. 7's layout: x and y each with single-vote copies at
// sites 2–5, r=2, w=3; site1 is a pure coordinator.
func Example3Items() []ReplicatedItem {
	return []ReplicatedItem{
		{Name: "x", Sites: []SiteID{2, 3, 4, 5}, R: 2, W: 3},
		{Name: "y", Sites: []SiteID{2, 3, 4, 5}, R: 2, W: 3},
	}
}

// Example3ViolatingSeed is a seed at which SetupExample3(true, seed) breaks
// atomicity (see engine.Example3ViolatingSeed).
const Example3ViolatingSeed = engine.Example3ViolatingSeed

// SetupExample3 builds the two-coordinator counterexample of Example 3 /
// Fig. 7: coordinator site1 crashed leaving site5 in PC and sites 2–4 in W,
// with all messages between site2 and site3 and from site2 to site5 lost.
// With buggy=true participants violate the buffer-state rule (respond to
// PREPARE-TO-COMMIT in PA and PREPARE-TO-ABORT in PC), which lets the two
// concurrent termination coordinators terminate the transaction
// inconsistently for some interleavings.
func SetupExample3(buggy bool, seed int64) (*Cluster, TxnID, error) {
	opts := Options{Protocol: ProtoQC1, Seed: seed, ExtraSites: []SiteID{1}}
	c, err := NewCluster(Example3Items(), opts)
	if err != nil {
		return nil, 0, err
	}
	if buggy {
		// Rebuild with the buggy participant via the engine-level spec knob.
		c, err = newExample3Buggy(seed)
		if err != nil {
			return nil, 0, err
		}
	}
	c.DropMessages(func(from, to SiteID) bool {
		between23 := (from == 2 && to == 3) || (from == 3 && to == 2)
		from2to5 := from == 2 && to == 5
		return between23 || from2to5
	})
	txn := c.SetupInterrupted(1, map[ItemID]int64{"x": 10, "y": 20}, map[SiteID]State{
		2: StateWait, 3: StateWait, 4: StateWait,
		5: StatePC,
	})
	c.Crash(1)
	return c, txn, nil
}

// newExample3Buggy wires the engine directly because the buggy
// buffer-crossing participant is deliberately not reachable through Options
// — it exists only to reproduce the counterexample.
func newExample3Buggy(seed int64) (*Cluster, error) {
	asgn, err := voting.NewAssignment(
		voting.Uniform("x", 2, 3, 2, 3, 4, 5),
		voting.Uniform("y", 2, 3, 2, 3, 4, 5),
	)
	if err != nil {
		return nil, err
	}
	eng := engine.New(engine.Config{
		Seed:       seed,
		Assignment: asgn,
		Spec:       core.Spec{Variant: core.Protocol1, BuggyBufferCrossing: true},
		ExtraSites: []SiteID{1},
	})
	return &Cluster{eng: eng, opts: Options{Protocol: ProtoQC1, Seed: seed}}, nil
}
