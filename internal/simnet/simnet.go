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
// Cost model: a message in flight is one scheduler heap slot whose body is a
// pooled delivery, and the topology (handlers, crashed sites, partition
// groups) is a types.SiteTable, so a warm send → deliver allocates nothing
// and hashes nothing (with Config.Codec off; the codec round trip allocates
// the decoded message).
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
	// MinDelay and MaxDelay bound per-message propagation delay; delays are
	// drawn uniformly from [MinDelay, MaxDelay]. MaxDelay is the paper's T.
	MinDelay sim.Duration
	MaxDelay sim.Duration
	// LossProb is the independent probability that any message is lost.
	LossProb float64
	// DupProb is the probability a delivered message is delivered twice.
	DupProb float64
	// Codec, when true, round-trips every message through the binary wire
	// codec, exercising Marshal/Unmarshal on every hop.
	Codec bool
	// DelayFn, when non-nil, replaces the random draw: the propagation delay
	// of a message is DelayFn(from, to, sendTime) and the scheduler RNG is
	// never consulted. A pure DelayFn makes per-message timing a function of
	// the message alone rather than of the global send order, so a
	// simulation of any subset of the traffic sees identical delays for the
	// messages it shares with the full run — the property the hybrid churn
	// engine's replay fallback relies on. The returned delay is clamped
	// to [0, MaxDelayOrDefault()].
	DelayFn func(from, to types.SiteID, at sim.Time) sim.Duration
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
// the current partition/crash state; delivery happens after a random delay.
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
	if n.cfg.LossProb > 0 && n.sched.Rand().Float64() < n.cfg.LossProb {
		n.stats.DroppedLoss++
		return
	}
	n.deliverAfter(env, n.delayFor(from, to))
	if n.cfg.DupProb > 0 && n.sched.Rand().Float64() < n.cfg.DupProb {
		n.stats.Duplicated++
		n.deliverAfter(env, n.delayFor(from, to))
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

func (n *Network) delayFor(from, to types.SiteID) sim.Duration {
	hi := n.cfg.MaxDelayOrDefault()
	if fn := n.cfg.DelayFn; fn != nil {
		d := fn(from, to, n.sched.Now())
		if d < 0 {
			d = 0
		}
		if d > hi {
			d = hi
		}
		return d
	}
	lo := n.cfg.MinDelay
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		return lo
	}
	return lo + sim.Duration(n.sched.Rand().Int63n(int64(hi-lo)+1))
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
