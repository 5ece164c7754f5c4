package simnet

import (
	"math/rand"
	"slices"
	"testing"

	"qcommit/internal/msg"
	"qcommit/internal/sim"
	"qcommit/internal/types"
)

// TestMessageDelayModel pins the delay hash's contract: in range,
// deterministic, sensitive to every key component, and what the network
// actually delivers.
func TestMessageDelayModel(t *testing.T) {
	var c Config
	maxDelay := c.MaxDelayOrDefault()
	seen := map[sim.Duration]int{}
	for i := 0; i < 2000; i++ {
		d := c.Delay(42, types.SiteID(i%7+1), types.SiteID(i%5+1), sim.Time(i*1000))
		if d < 0 || d > maxDelay {
			t.Fatalf("delay %v outside [0, %v]", d, maxDelay)
		}
		seen[d]++
	}
	if len(seen) < 100 {
		t.Errorf("only %d distinct delays in 2000 draws — model looks degenerate", len(seen))
	}
	base := c.Delay(1, 2, 3, 4)
	if c.Delay(1, 2, 3, 4) != base {
		t.Error("delay model not deterministic")
	}
	diffs := 0
	for _, other := range []sim.Duration{
		c.Delay(2, 2, 3, 4), c.Delay(1, 3, 3, 4),
		c.Delay(1, 2, 2, 4), c.Delay(1, 2, 3, 5),
	} {
		if other != base {
			diffs++
		}
	}
	if diffs == 0 {
		t.Error("delay model insensitive to seed, endpoints, and time")
	}

	dc := DefaultConfig()
	for i := 0; i < 200; i++ {
		if d := dc.Delay(7, 1, 2, sim.Time(i)); d < dc.MinDelay || d > dc.MaxDelay {
			t.Fatalf("delay %v outside [%v, %v]", d, dc.MinDelay, dc.MaxDelay)
		}
	}
	sched := sim.NewScheduler(7)
	n := New(sched, dc)
	var at sim.Time
	n.Register(1, func(msg.Envelope) {})
	n.Register(2, func(msg.Envelope) { at = sched.Now() })
	sched.At(3, func() { n.Send(1, 2, msg.Commit{Txn: 1}) })
	sched.Run()
	if want := sim.Time(3).Add(dc.Delay(7, 1, 2, 3)); at != want {
		t.Errorf("delivered at %v, Delay says %v", at, want)
	}
}

// frame is one scheduled send of a traffic script. Its transaction ID is
// its identity: no two frames of a script share one.
type frame struct {
	from, to types.SiteID
	at       sim.Time
	m        msg.Message
}

// scriptFrames turns bytes into frames, four bytes each, on four sites and
// eight send instants, so that links and instants collide often.
func scriptFrames(data []byte) []frame {
	var out []frame
	for i := 0; i+4 <= len(data) && len(out) < 64; i += 4 {
		txn := types.TxnID(len(out) + 1)
		var m msg.Message
		switch data[i+3] % 4 {
		case 0:
			m = msg.Commit{Txn: txn}
		case 1:
			m = msg.Abort{Txn: txn}
		case 2:
			m = msg.PCAck{Txn: txn}
		default:
			m = msg.VoteResp{Txn: txn}
		}
		out = append(out, frame{
			from: types.SiteID(data[i]%4 + 1),
			to:   types.SiteID(data[i+1]%4 + 1),
			at:   sim.Time(data[i+2]%8) * sim.Time(sim.Millisecond),
			m:    m,
		})
	}
	return out
}

// deliveries runs the frames through a lossy, duplicating network and
// returns each frame's delivery instants by transaction ID: none when it was
// lost, two when it was duplicated.
func deliveries(seed int64, cfg Config, frames []frame) map[types.TxnID][]sim.Time {
	sched := sim.NewScheduler(seed)
	n := New(sched, cfg)
	got := map[types.TxnID][]sim.Time{}
	for id := types.SiteID(1); id <= 4; id++ {
		n.Register(id, func(e msg.Envelope) {
			txn := msg.TxnOf(e.Msg)
			got[txn] = append(got[txn], sched.Now())
		})
	}
	for _, f := range frames {
		sched.At(f.at, func() { n.Send(f.from, f.to, f.m) })
	}
	sched.Run()
	for _, ts := range got {
		slices.Sort(ts)
	}
	return got
}

// checkIndependent removes frame k from the script and checks that no other
// frame's delivery instants, loss or duplicate fate moved.
func checkIndependent(t *testing.T, seed int64, cfg Config, frames []frame, k int) {
	t.Helper()
	full := deliveries(seed, cfg, frames)
	without := deliveries(seed, cfg, slices.Delete(slices.Clone(frames), k, k+1))
	gone := msg.TxnOf(frames[k].m)
	for _, f := range frames {
		txn := msg.TxnOf(f.m)
		if txn == gone {
			continue
		}
		if !slices.Equal(full[txn], without[txn]) {
			t.Fatalf("seed %d: removing frame %d (%+v) moved frame %+v: %v → %v",
				seed, k, frames[k], f, full[txn], without[txn])
		}
	}
	if len(without[gone]) != 0 {
		t.Fatalf("removed frame %d still delivered", k)
	}
}

var fateConfig = Config{MinDelay: sim.Millisecond, MaxDelay: 4 * sim.Millisecond, LossProb: 0.3, DupProb: 0.3, Codec: true}

// TestDeliveryIndependentOfOtherTraffic: a frame's delay, loss and duplicate
// fate are a hash of the frame, so adding or removing any other frame moves
// none of them.
func TestDeliveryIndependentOfOtherTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seed := int64(1); seed <= 20; seed++ {
		data := make([]byte, 4*40)
		rng.Read(data)
		frames := scriptFrames(data)
		for _, k := range []int{0, len(frames) / 2, len(frames) - 1} {
			checkIndependent(t, seed, fateConfig, frames, k)
		}
	}
}

// TestFramesOnOneLinkAtOneInstantHaveOwnFates: loss and duplication are
// keyed by the frame's kind and transaction too, so a burst on one link at
// one instant is neither all lost nor all duplicated.
func TestFramesOnOneLinkAtOneInstantHaveOwnFates(t *testing.T) {
	var frames []frame
	for i := 1; i <= 200; i++ {
		frames = append(frames, frame{from: 1, to: 2, m: msg.Commit{Txn: types.TxnID(i)}})
	}
	got := deliveries(3, fateConfig, frames)
	count := map[int]int{}
	for _, f := range frames {
		count[len(got[msg.TxnOf(f.m)])]++
	}
	if count[0] == 0 || count[1] == 0 || count[2] == 0 {
		t.Errorf("frames lost/once/twice = %d/%d/%d: fates are shared", count[0], count[1], count[2])
	}
	if a, b := fateHash(3, saltLoss, msg.Envelope{From: 1, To: 2, Msg: msg.Commit{Txn: 1}}, 0),
		fateHash(3, saltLoss, msg.Envelope{From: 1, To: 2, Msg: msg.Abort{Txn: 1}}, 0); a == b {
		t.Error("loss hash ignores the frame's kind")
	}
}

func FuzzDeliveryIndependentOfOtherTraffic(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 0, 2, 2, 3, 5, 3}, uint8(1))
	f.Add(int64(36), []byte{3, 2, 7, 0, 3, 2, 7, 0, 3, 2, 7, 1, 1, 1, 1, 1}, uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, data []byte, drop uint8) {
		frames := scriptFrames(data)
		if len(frames) == 0 {
			return
		}
		checkIndependent(t, seed, fateConfig, frames, int(drop)%len(frames))
	})
}
