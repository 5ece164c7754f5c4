package qcommit

import (
	"math"
	"strings"
	"testing"
	"time"
)

func liveItems() []ReplicatedItem {
	return []ReplicatedItem{
		{Name: "x", Sites: []SiteID{1, 2, 3, 4}, R: 2, W: 3, Initial: 10},
		{Name: "y", Sites: []SiteID{2, 3, 4, 5}, R: 2, W: 3, Initial: 20},
	}
}

func TestLiveClusterPublicAPI(t *testing.T) {
	c, err := NewLiveCluster(liveItems(), LiveOptions{
		Protocol:    ProtoQC2,
		Seed:        1,
		TimeoutBase: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	txn := c.Submit(1, map[ItemID]int64{"x": 11, "y": 22})
	if got := c.WaitOutcome(txn, 5*time.Second); got != OutcomeCommitted {
		t.Fatalf("outcome = %v", got)
	}
	if c.Violated(txn) {
		t.Fatal("violated")
	}
	if v, _, err := c.CopyAt(2, "x"); err != nil || v != 11 {
		t.Errorf("x at site2 = %d, %v", v, err)
	}
	if got := c.OutcomeAt(3, txn); got != OutcomeCommitted {
		t.Errorf("site3 = %v", got)
	}

	// Partition: a cross-partition transaction must not commit.
	c.Partition([]SiteID{1, 2}, []SiteID{3, 4, 5})
	txn2 := c.Submit(1, map[ItemID]int64{"x": 99})
	if got := c.WaitOutcome(txn2, 5*time.Second); got == OutcomeCommitted {
		t.Error("committed without a full vote across the partition")
	}
	c.Heal()

	// Crash + restart: the site catches up.
	c.Crash(5)
	c.Restart(5)
	txn3 := c.Submit(2, map[ItemID]int64{"y": 33})
	if got := c.WaitOutcome(txn3, 5*time.Second); got != OutcomeCommitted {
		t.Fatalf("post-restart txn = %v", got)
	}
}

// badNet lists network settings both facades must refuse, each with the
// options field its error must name.
var badNet = []struct {
	name      string
	min, max  time.Duration
	loss, dup float64
	field     string
}{
	{name: "negative MinDelay", min: -time.Millisecond, field: "MinDelay"},
	{name: "negative MaxDelay", max: -time.Millisecond, field: "MaxDelay"},
	{name: "MaxDelay < MinDelay", min: 2 * time.Millisecond, max: time.Millisecond, field: "MaxDelay"},
	{name: "MinDelay without MaxDelay", min: 5 * time.Millisecond, field: "MinDelay"},
	{name: "MinDelay above the default T", min: 20 * time.Millisecond, field: "MinDelay"},
	{name: "LossProb above 1", loss: 1.5, field: "LossProb"},
	{name: "negative LossProb", loss: -0.1, field: "LossProb"},
	{name: "NaN LossProb", loss: math.NaN(), field: "LossProb"},
	{name: "DupProb above 1", dup: 2, field: "DupProb"},
	{name: "negative DupProb", dup: -0.1, field: "DupProb"},
	{name: "NaN DupProb", dup: math.NaN(), field: "DupProb"},
}

func TestLiveClusterValidation(t *testing.T) {
	if _, err := NewLiveCluster(nil, LiveOptions{}); err == nil {
		t.Error("empty items accepted")
	}
	if _, err := NewLiveCluster([]ReplicatedItem{
		{Name: "x", Sites: []SiteID{1, 2}, Votes: []int{1}},
	}, LiveOptions{}); err == nil {
		t.Error("votes length mismatch accepted")
	}
	if _, err := NewLiveCluster(liveItems(), LiveOptions{Protocol: "bogus"}); err == nil {
		t.Error("unknown protocol accepted")
	}
	// A dropped ParseStrategy error yields StrategyInvalid; constructors
	// must reject it rather than fall back to quorum silently.
	//qlint:allow droppederr the test deliberately drops the error to obtain the invalid zero value it checks constructors against
	bad, _ := ParseStrategy("bogus")
	if _, err := NewLiveCluster(liveItems(), LiveOptions{Strategy: bad}); err == nil {
		t.Error("invalid strategy accepted by NewLiveCluster")
	}
	// Delay bounds: negative durations would reach time.AfterFunc, an
	// inverted window would silently collapse to its lower bound, and a
	// MinDelay without a MaxDelay used to run with T = 0. LiveOptions has no
	// loss or duplication, so those rows are NewCluster's alone.
	for _, tc := range badNet {
		if tc.loss != 0 || tc.dup != 0 {
			continue
		}
		c, err := NewLiveCluster(liveItems(), LiveOptions{MinDelay: tc.min, MaxDelay: tc.max})
		if err == nil {
			c.Stop()
			t.Errorf("%s accepted", tc.name)
		} else if !strings.Contains(err.Error(), "LiveOptions."+tc.field) {
			t.Errorf("%s: error %q does not name LiveOptions.%s", tc.name, err, tc.field)
		}
	}
	// A negative T would arm timers that fire at once.
	if c, err := NewLiveCluster(liveItems(), LiveOptions{TimeoutBase: -time.Millisecond}); err == nil {
		c.Stop()
		t.Error("negative TimeoutBase accepted")
	} else if !strings.Contains(err.Error(), "LiveOptions.TimeoutBase") {
		t.Errorf("negative TimeoutBase: error %q does not name LiveOptions.TimeoutBase", err)
	}
	if _, err := NewLiveCluster(liveItems(), LiveOptions{Transport: "carrier-pigeon"}); err == nil {
		t.Error("unknown transport accepted")
	}
	// Skeen quorums under any other protocol are refused, not ignored.
	for _, tc := range []struct {
		opts  LiveOptions
		field string
	}{
		{LiveOptions{Protocol: Proto2PC, SkeenVc: 3}, "LiveOptions.SkeenVc"},
		{LiveOptions{Protocol: ProtoQC2, SkeenVa: 2}, "LiveOptions.SkeenVa"},
	} {
		c, err := NewLiveCluster(liveItems(), tc.opts)
		if err == nil {
			c.Stop()
			t.Errorf("%+v accepted", tc.opts)
		} else if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%+v: error %q does not name %s", tc.opts, err, tc.field)
		}
	}
}

// TestLiveClusterTCPTransport runs the public live API over real loopback
// sockets: same protocols, same assignment, every frame through the stream
// codec and the kernel.
func TestLiveClusterTCPTransport(t *testing.T) {
	c, err := NewLiveCluster(liveItems(), LiveOptions{
		Protocol:  ProtoQC1,
		Transport: "tcp",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	txn := c.Submit(1, map[ItemID]int64{"x": 11, "y": 22})
	if got := c.WaitOutcome(txn, 10*time.Second); got != OutcomeCommitted {
		t.Fatalf("outcome over tcp = %v", got)
	}
	if v, _, err := c.CopyAt(3, "y"); err != nil || v != 22 {
		t.Errorf("y at site3 = %d, %v", v, err)
	}
}
