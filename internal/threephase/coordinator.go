package threephase

import (
	"sort"

	"qcommit/internal/msg"
	"qcommit/internal/protocol"
	"qcommit/internal/types"
	"qcommit/internal/wal"
)

// AckRule decides when the coordinator may send COMMIT before all PC-ACKs
// have arrived — the knob that distinguishes plain 3PC from Skeen's quorum
// commit protocol and from the paper's commit protocols 1 and 2 (Fig. 9).
type AckRule interface {
	// Name identifies the rule in traces.
	Name() string
	// Satisfied reports whether the acknowledged sites suffice to commit.
	Satisfied(env protocol.Env, acked []types.SiteID) bool
}

// AckTimeoutPolicy selects what the coordinator does when the ack window
// closes with the rule unsatisfied.
type AckTimeoutPolicy uint8

// Policies.
const (
	// AckTimeoutCommit commits anyway, presuming silent participants failed
	// (plain 3PC, which assumes a reliable network and only site failures).
	AckTimeoutCommit AckTimeoutPolicy = iota
	// AckTimeoutTerminate hands the transaction to the termination protocol
	// (the quorum-based protocols).
	AckTimeoutTerminate
)

type coordPhase uint8

const (
	cpVoting coordPhase = iota
	cpPreparing
	cpDone
)

// Timer tokens.
const (
	tokVotes = iota + 1
	tokAcks
)

// Coordinator drives the commit protocol for one transaction. It follows the
// three-phase skeleton of Figs. 2 and 9: distribute VOTE-REQ, collect votes,
// distribute PREPARE-TO-COMMIT on unanimous yes, collect PC-ACKs until the
// AckRule is satisfied, then distribute COMMIT. Any no vote or vote timeout
// aborts.
type Coordinator struct {
	txn          types.TxnID
	ws           types.Writeset
	participants []types.SiteID
	rule         AckRule
	policy       AckTimeoutPolicy

	phase coordPhase
	votes map[types.SiteID]types.Vote
	acked map[types.SiteID]bool
	// DecidedAtAck is set when the commit decision was reached (for latency
	// measurements): number of PC-ACKs received at decision time.
	DecidedAtAck int
}

// AcksAtDecision returns how many PC-ACKs the coordinator had received when
// it decided to commit (0 if it has not committed). The engine exposes this
// for the claim-C2 benchmarks.
func (c *Coordinator) AcksAtDecision() int { return c.DecidedAtAck }

// NewCoordinator builds a coordinator for txn with the given early-commit
// rule and timeout policy.
func NewCoordinator(txn types.TxnID, ws types.Writeset, participants []types.SiteID, rule AckRule, policy AckTimeoutPolicy) *Coordinator {
	return &Coordinator{
		txn:          txn,
		ws:           ws,
		participants: participants,
		rule:         rule,
		policy:       policy,
		votes:        make(map[types.SiteID]types.Vote),
		acked:        make(map[types.SiteID]bool),
	}
}

// Start implements protocol.Automaton: phase 1, distribute the update values
// and request votes.
func (c *Coordinator) Start(env protocol.Env) {
	env.Append(wal.Record{
		Type:         wal.RecBegin,
		Txn:          c.txn,
		Coord:        env.Self(),
		Participants: c.participants,
		Writeset:     c.ws,
	})
	env.Tracef("%s: coordinator %s starts commit (%s rule)", c.txn, env.Self(), c.rule.Name())
	req := msg.VoteReq{Txn: c.txn, Coord: env.Self(), Participants: c.participants, Writeset: c.ws}
	for _, p := range c.participants {
		env.Send(p, req)
	}
	env.SetTimer(protocol.AckWindow(env), tokVotes)
}

// OnMessage implements protocol.Automaton.
func (c *Coordinator) OnMessage(from types.SiteID, m msg.Message, env protocol.Env) {
	switch v := m.(type) {
	case msg.VoteResp:
		if c.phase != cpVoting {
			return
		}
		c.votes[from] = v.Vote
		if v.Vote == types.VoteNo {
			c.decideAbort(env, "participant voted no")
			return
		}
		if c.allYes() {
			c.beginPrepare(env)
		}
	case msg.PCAck:
		if c.phase != cpPreparing {
			return
		}
		c.acked[from] = true
		if c.rule.Satisfied(env, c.ackedSites()) {
			c.DecidedAtAck = len(c.acked)
			c.decideCommit(env)
		}
	}
}

// Finished reports that the coordinator has decided or handed the transaction
// to the termination protocol; it ignores everything from then on.
func (c *Coordinator) Finished() bool { return c.phase == cpDone }

// OnTimer implements protocol.Automaton.
func (c *Coordinator) OnTimer(token int, env protocol.Env) {
	switch token {
	case tokVotes:
		if c.phase == cpVoting {
			c.decideAbort(env, "vote timeout")
		}
	case tokAcks:
		if c.phase != cpPreparing {
			return
		}
		if c.rule.Satisfied(env, c.ackedSites()) {
			c.decideCommit(env)
			return
		}
		switch c.policy {
		case AckTimeoutCommit:
			env.Tracef("%s: ack window closed, committing anyway (3PC site-failure assumption)", c.txn)
			c.decideCommit(env)
		case AckTimeoutTerminate:
			env.Tracef("%s: ack window closed without a quorum, invoking termination", c.txn)
			c.phase = cpDone
			env.RequestTermination(c.txn)
		}
	}
}

func (c *Coordinator) allYes() bool {
	for _, p := range c.participants {
		v, ok := c.votes[p]
		if !ok || v != types.VoteYes {
			return false
		}
	}
	return true
}

func (c *Coordinator) ackedSites() []types.SiteID {
	out := make([]types.SiteID, 0, len(c.acked))
	for s := range c.acked {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (c *Coordinator) beginPrepare(env protocol.Env) {
	c.phase = cpPreparing
	env.Tracef("%s: all votes yes, distributing PREPARE-TO-COMMIT", c.txn)
	for _, p := range c.participants {
		env.Send(p, msg.PrepareToCommit{Txn: c.txn})
	}
	env.SetTimer(protocol.AckWindow(env), tokAcks)
}

func (c *Coordinator) decideCommit(env protocol.Env) {
	if c.phase == cpDone {
		return
	}
	c.phase = cpDone
	env.Tracef("%s: coordinator decides COMMIT after %d PC-ACKs", c.txn, len(c.acked))
	for _, p := range c.participants {
		env.Send(p, msg.Commit{Txn: c.txn})
	}
	if !contains(c.participants, env.Self()) {
		// Pure coordinator (holds no copies): record its own decision.
		env.Commit(c.txn)
	}
}

func (c *Coordinator) decideAbort(env protocol.Env, why string) {
	if c.phase == cpDone {
		return
	}
	c.phase = cpDone
	env.Tracef("%s: coordinator decides ABORT (%s)", c.txn, why)
	for _, p := range c.participants {
		env.Send(p, msg.Abort{Txn: c.txn})
	}
	if !contains(c.participants, env.Self()) {
		env.Abort(c.txn)
	}
}

func contains(ss []types.SiteID, x types.SiteID) bool {
	for _, s := range ss {
		if s == x {
			return true
		}
	}
	return false
}

// --- ack rules ---

// AllAcks is plain 3PC: every participant must acknowledge.
type AllAcks struct {
	Participants []types.SiteID
}

// Name implements AckRule.
func (AllAcks) Name() string { return "all-acks" }

// Satisfied implements AckRule.
func (r AllAcks) Satisfied(env protocol.Env, acked []types.SiteID) bool {
	if len(acked) < len(r.Participants) {
		return false
	}
	set := make(map[types.SiteID]bool, len(acked))
	for _, s := range acked {
		set[s] = true
	}
	for _, p := range r.Participants {
		if !set[p] {
			return false
		}
	}
	return true
}

// WriteQuorumEvery is the paper's commit protocol 1: the coordinator only
// has to wait for PC-ACKs worth w(x) votes for every data item x in the
// writeset, because those acknowledgements ensure an abort quorum can never
// be formed any more.
type WriteQuorumEvery struct {
	Items []types.ItemID
}

// Name implements AckRule.
func (WriteQuorumEvery) Name() string { return "CP1 w(x)-every" }

// Satisfied implements AckRule.
func (r WriteQuorumEvery) Satisfied(env protocol.Env, acked []types.SiteID) bool {
	return env.Assignment().WriteQuorumForEvery(r.Items, acked)
}

// ReadQuorumSome is the paper's commit protocol 2: PC-ACKs worth r(x) votes
// for some item x in the writeset suffice, for the symmetric reason. This
// makes commit protocol 2 faster than commit protocol 1.
type ReadQuorumSome struct {
	Items []types.ItemID
}

// Name implements AckRule.
func (ReadQuorumSome) Name() string { return "CP2 r(x)-some" }

// Satisfied implements AckRule.
func (r ReadQuorumSome) Satisfied(env protocol.Env, acked []types.SiteID) bool {
	return env.Assignment().ReadQuorumForSome(r.Items, acked)
}

// SiteVoteQuorum is Skeen's quorum commit rule: acknowledged sites must
// carry at least Vc site votes.
type SiteVoteQuorum struct {
	Votes  map[types.SiteID]int
	Quorum int
}

// Name implements AckRule.
func (SiteVoteQuorum) Name() string { return "SkeenQ Vc" }

// Satisfied implements AckRule.
func (r SiteVoteQuorum) Satisfied(env protocol.Env, acked []types.SiteID) bool {
	total := 0
	for _, s := range acked {
		total += r.Votes[s]
	}
	return total >= r.Quorum
}
