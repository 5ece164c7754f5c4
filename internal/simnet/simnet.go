// Package simnet models the communication network between database sites on
// top of the deterministic simulation kernel.
//
// The model captures exactly the failure classes the paper's protocols are
// designed for: site failures (crash/recover), lost messages, and network
// partitioning (the network splits into disjoint components with no
// communication between them), plus message duplication and variable delay.
// The longest end-to-end propagation delay T of the paper maps to
// Config.MaxDelay.
//
// Delay model: a frame's delay, and whether it is lost or duplicated, is a
// hash of the frame itself — the run's seed, its link, its send instant and,
// for loss and duplication, its kind and transaction — never a draw in send
// order. Adding or removing one frame therefore moves no other frame's
// delivery time or fate, and a simulation of any subset of the traffic sees
// the same timing on every frame it shares with the full run (the property
// the hybrid churn engine's replay fallback relies on).
//
// Cost model: a message in flight is one scheduler heap slot whose body is a
// pooled delivery, and the topology (handlers, crashed sites, partition
// groups) is a types.SiteTable, so a warm send → deliver allocates nothing
// and makes no map lookup (with Config.Codec off; the codec round trip
// allocates the decoded message).
package simnet

import (
	"fmt"
	"slices"
	"sort"

	"qcommit/internal/msg"
	"qcommit/internal/sim"
	"qcommit/internal/types"
)

// Handler consumes a delivered message at a site.
type Handler func(env msg.Envelope)

// DropFilter can veto delivery of specific envelopes (for scripted message
// loss, e.g. Example 3's "messages between site2 and site3 are lost").
// Returning true drops the message.
type DropFilter func(env msg.Envelope) bool

// Config parameterizes the network.
type Config struct {
	// MinDelay and MaxDelay bound per-message propagation delay; Delay
	// spreads delays uniformly over [MinDelay, MaxDelay]. MaxDelay is the
	// paper's T.
	MinDelay sim.Duration
	MaxDelay sim.Duration
	// LossProb is the independent probability that any message is lost.
	LossProb float64
	// DupProb is the probability a delivered message is delivered twice.
	DupProb float64
	// Codec, when true, round-trips every message through the binary wire
	// codec, exercising Marshal/Unmarshal on every hop.
	Codec bool
}

// DefaultConfig returns the configuration used by most experiments:
// 1–10 ms delay, lossless, codec enabled.
func DefaultConfig() Config {
	return Config{
		MinDelay: 1 * sim.Millisecond,
		MaxDelay: 10 * sim.Millisecond,
		Codec:    true,
	}
}

// MaxDelayOrDefault returns MaxDelay, defaulting to 10ms if unset.
func (c Config) MaxDelayOrDefault() sim.Duration {
	if c.MaxDelay <= 0 {
		return 10 * sim.Millisecond
	}
	return c.MaxDelay
}

// Delay is the propagation delay of a message sent from → to at instant at
// in a run seeded with seed: MinDelay + hash(seed, from, to, at) mod
// (MaxDelayOrDefault − MinDelay + 1). It is the model's one delay function;
// the hybrid churn engine's arithmetic calls it too.
func (c Config) Delay(seed int64, from, to types.SiteID, at sim.Time) sim.Duration {
	return c.spread(linkHash(seed, from, to, at))
}

// spread maps a hash onto [MinDelay, MaxDelayOrDefault()].
func (c Config) spread(h uint64) sim.Duration {
	lo, hi := max(c.MinDelay, 0), c.MaxDelayOrDefault()
	if hi <= lo {
		return lo
	}
	return lo + sim.Duration(h%uint64(hi-lo+1))
}

// mix64 is the splitmix64 finalizer, the usual way to turn structured
// integers into well-distributed hash bits.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// linkHash is the delay key: the run's seed, the link and the send instant.
func linkHash(seed int64, from, to types.SiteID, at sim.Time) uint64 {
	h := mix64(uint64(seed))
	h = mix64(h ^ uint64(uint32(from)))
	h = mix64(h ^ uint64(uint32(to)))
	return mix64(h ^ uint64(at))
}

// Salts that give loss and duplication their own hash of a frame.
const (
	saltLoss uint64 = 0x6c6f7373 // "loss"
	saltDup  uint64 = 0x00647570 // "dup"
)

// fateHash keys a frame's loss or duplicate fate by its link, send instant,
// kind and transaction, so frames sent at one instant on one link do not
// share a fate.
func fateHash(seed int64, salt uint64, env msg.Envelope, at sim.Time) uint64 {
	h := mix64(linkHash(seed, env.From, env.To, at) ^ salt)
	h = mix64(h ^ uint64(env.Msg.Kind()))
	return mix64(h ^ uint64(msg.TxnOf(env.Msg)))
}

// chance reports whether a hash falls in the lowest fraction p of its range.
func chance(h uint64, p float64) bool { return float64(h>>11)/(1<<53) < p }

// Stats counts network activity.
type Stats struct {
	Sent             uint64
	Delivered        uint64
	Duplicated       uint64
	DroppedLoss      uint64
	DroppedPartition uint64
	DroppedDown      uint64
	DroppedFilter    uint64
	Bytes            uint64
}

// Network routes messages between sites under the configured failure model.
type Network struct {
	sched    *sim.Scheduler
	cfg      Config
	ids      []types.SiteID // registered sites, ascending
	handlers types.SiteTable[Handler]
	down     types.SiteTable[bool]
	group    types.SiteTable[int] // partition group; all zero = fully connected
	filter   DropFilter
	stats    Stats
	free     []*delivery // bodies of delivered messages, reused by later sends
}

// New creates a network on the given scheduler.
func New(sched *sim.Scheduler, cfg Config) *Network {
	return &Network{sched: sched, cfg: cfg}
}

// Scheduler returns the underlying simulation scheduler.
func (n *Network) Scheduler() *sim.Scheduler { return n.sched }

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Stats returns a snapshot of the network counters.
func (n *Network) Stats() Stats { return n.stats }

// Register installs the message handler for a site. Registering a site marks
// it up.
func (n *Network) Register(id types.SiteID, h Handler) {
	if i, found := slices.BinarySearch(n.ids, id); !found {
		n.ids = slices.Insert(n.ids, i, id)
	}
	n.handlers.Set(id, h)
	n.down.Set(id, false)
}

// Sites returns the registered site IDs in ascending order.
func (n *Network) Sites() []types.SiteID {
	return append(make([]types.SiteID, 0, len(n.ids)), n.ids...)
}

// Crash marks a site down: it receives nothing and its sends are dropped.
func (n *Network) Crash(id types.SiteID) { n.down.Set(id, true) }

// Recover marks a site up again.
func (n *Network) Recover(id types.SiteID) { n.down.Set(id, false) }

// Down reports whether a site is crashed.
func (n *Network) Down(id types.SiteID) bool { return n.down.Get(id) }

// SetFilter installs (or clears, with nil) a scripted drop filter.
func (n *Network) SetFilter(f DropFilter) { n.filter = f }

// Partition splits the network into the given disjoint groups. Sites not
// listed in any group form an implicit final group together. Heal() undoes
// the split.
func (n *Network) Partition(groups ...[]types.SiteID) {
	n.group = types.SiteTable[int]{}
	for gi, g := range groups {
		for _, s := range g {
			n.group.Set(s, gi+1)
		}
	}
}

// Heal reconnects all sites.
func (n *Network) Heal() { n.group = types.SiteTable[int]{} }

// Connected reports whether a and b can currently exchange messages
// (same partition group and both up).
func (n *Network) Connected(a, b types.SiteID) bool {
	if n.down.Get(a) || n.down.Get(b) {
		return false
	}
	return n.group.Get(a) == n.group.Get(b)
}

// GroupOf returns the partition group identifier of a site. Sites in the
// implicit residual group return 0.
func (n *Network) GroupOf(id types.SiteID) int { return n.group.Get(id) }

// Groups returns the current partition as a list of site groups in
// deterministic order. A fully connected network returns one group.
func (n *Network) Groups() [][]types.SiteID {
	byGroup := make(map[int][]types.SiteID)
	for _, id := range n.ids {
		g := n.group.Get(id)
		byGroup[g] = append(byGroup[g], id)
	}
	keys := make([]int, 0, len(byGroup))
	for k := range byGroup {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([][]types.SiteID, 0, len(keys))
	for _, k := range keys {
		out = append(out, byGroup[k])
	}
	return out
}

// Send routes one message. Delivery (or loss) is decided at send time against
// the current partition/crash state; delivery happens after the frame's
// hashed delay.
// Messages already in flight when a partition forms are still delivered —
// checked again at delivery time, modeling messages cut off mid-flight.
func (n *Network) Send(from, to types.SiteID, m msg.Message) {
	n.stats.Sent++
	env := msg.Envelope{From: from, To: to, Msg: m}
	if n.down.Get(from) {
		n.stats.DroppedDown++
		return
	}
	if n.cfg.Codec {
		frame, err := msg.Marshal(m)
		if err != nil {
			panic(fmt.Sprintf("simnet: marshal %T: %v", m, err))
		}
		n.stats.Bytes += uint64(len(frame))
		decoded, err := msg.Unmarshal(frame)
		if err != nil {
			panic(fmt.Sprintf("simnet: unmarshal %s: %v", m.Kind(), err))
		}
		env.Msg = decoded
	}
	if n.filter != nil && n.filter(env) {
		n.stats.DroppedFilter++
		return
	}
	if !n.Connected(from, to) {
		n.stats.DroppedPartition++
		return
	}
	seed, now := n.sched.Seed(), n.sched.Now()
	if n.cfg.LossProb > 0 && chance(fateHash(seed, saltLoss, env, now), n.cfg.LossProb) {
		n.stats.DroppedLoss++
		return
	}
	n.deliverAfter(env, n.cfg.Delay(seed, from, to, now))
	if n.cfg.DupProb > 0 {
		// The duplicate's delay comes from the same salted hash, remixed so
		// it does not correlate with the fate.
		if h := fateHash(seed, saltDup, env, now); chance(h, n.cfg.DupProb) {
			n.stats.Duplicated++
			n.deliverAfter(env, n.cfg.spread(mix64(h)))
		}
	}
}

// Broadcast sends m from one site to each destination.
func (n *Network) Broadcast(from types.SiteID, tos []types.SiteID, m msg.Message) {
	for _, to := range tos {
		if to == from {
			continue
		}
		n.Send(from, to, m)
	}
}

// delivery is a message in flight, the body of its scheduler event. A
// delivered message's delivery returns to the network's free list, so once
// the pool covers the peak number in flight a send allocates nothing.
type delivery struct {
	n   *Network
	env msg.Envelope
}

func (n *Network) deliverAfter(env msg.Envelope, d sim.Duration) {
	var dv *delivery
	if k := len(n.free); k > 0 {
		dv = n.free[k-1]
		n.free = n.free[:k-1]
	} else {
		dv = &delivery{n: n}
	}
	dv.env = env
	n.sched.Schedule(n.sched.Now().Add(d), dv)
}

// Run delivers the message, first returning dv to the pool: the handler may
// send, and its sends may reuse dv.
func (dv *delivery) Run() {
	n, env := dv.n, dv.env
	dv.env = msg.Envelope{}
	n.free = append(n.free, dv)
	// Re-check at delivery time: the receiver may have crashed or the
	// partition may have separated sender and receiver mid-flight.
	if n.down.Get(env.To) || !n.Connected(env.From, env.To) {
		n.stats.DroppedPartition++
		return
	}
	h := n.handlers.Get(env.To)
	if h == nil {
		return
	}
	n.stats.Delivered++
	h(env)
}
