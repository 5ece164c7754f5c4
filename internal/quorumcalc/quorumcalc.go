// Package quorumcalc owns the termination rules of the three-phase protocol
// families and the arithmetic that decides a transaction's fate from them.
//
// The paper's point is that Termination Protocol 1 (Fig. 5), Termination
// Protocol 2 (Fig. 8) and Skeen's quorum protocol are the same five-way
// ladder — commit / abort / try-commit / try-abort / block — over one
// commit-side quorum Qc and one abort-side quorum Qa, and that the commit
// protocols of Fig. 9 release COMMIT as soon as the PC-ACKs satisfy that same
// Qc. A Rule names that pair, declared once per protocol (TP1Rule, TP2Rule,
// SkeenRule); ThreePCRule is 3PC's site-failure rule, the one table that is
// deliberately different: its quorums demand nothing and any participant in
// PC commits. TwoPCRule is 2PC's cooperative termination rule, the same
// ladder with quorums that never hold, over a commit protocol with no
// PREPARE round. The automata in package threephase and the analytic engines
// (packages avail and churn) all run the same compiled rules, so the live
// terminator, the simulators and the arithmetic agree by construction.
//
// # The compiled form
//
// A rule is compiled once per transaction into Quorums, over a Frame: the
// transaction's participants numbered densely by their position in the
// participant list, and for each distinct written item x the votes v_x(i) of
// its copies at participants i together with r(x) and w(x). Every set of
// participants the protocols test — a state class of a Tally, the PC-ACKs,
// the confirmations — is a Set of those indices, one bit each, and every
// quorum is a weighted sum over a Set against a threshold, as in Gifford's
// weighted voting:
//
//   - TP1: Qc is Σ_{i∈S} v_x(i) ≥ w(x) for every x, Qa is ≥ r(x) for some x;
//   - TP2: the same two sums with the sides swapped;
//   - Skeen: one row of site weights (one vote per participant, or the
//     Spec's votes), ≥ Vc to commit and ≥ Va to abort;
//   - 3PC: Qc and Qa hold for every S, its ack quorum is every participant;
//   - 2PC: no quorum holds for any S.
//
// The compiled rule is exact, not an approximation of the per-call
// arithmetic over site lists it replaced: the protocols only ever tally,
// count acknowledgements from, or confirm participants, each at most once —
// a terminator keys replies by site, a coordinator counts one ACK per site —
// so a site list there is a set of participants, and a copy held outside the
// participants never enters a sum. Summing each item's votes over the
// participant bits is then the same sum term for term. The sums are monotone
// in S, which the hybrid churn engine uses to find the first ack prefix that
// holds with one bit set per ack.
//
// Quorums.Outcome is the analytic counterpart of a termination attempt: the
// outcome a partition group reaches, computed from its state tally with no
// discrete-event engine, no messages, no WAL. See its comment for the model
// under which that is exact.
package quorumcalc

import (
	"math/bits"

	"qcommit/internal/types"
	"qcommit/internal/voting"
)

// Verdict is the phase-2 classification of a termination coordinator after
// polling local states (the five-way branch of Figs. 5 and 8).
type Verdict uint8

// Verdicts.
const (
	// VerdictCommit terminates immediately with COMMIT.
	VerdictCommit Verdict = iota
	// VerdictAbort terminates immediately with ABORT.
	VerdictAbort
	// VerdictTryCommit attempts to establish a commit quorum via
	// PREPARE-TO-COMMIT.
	VerdictTryCommit
	// VerdictTryAbort attempts to establish an abort quorum via
	// PREPARE-TO-ABORT.
	VerdictTryAbort
	// VerdictBlock blocks the transaction in this partition.
	VerdictBlock
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictCommit:
		return "commit"
	case VerdictAbort:
		return "abort"
	case VerdictTryCommit:
		return "try-commit"
	case VerdictTryAbort:
		return "try-abort"
	default:
		return "block"
	}
}

// numStates is the size of the per-state tables (q, W, PC, PA, C, A).
const numStates = int(types.StateAborted) + 1

// Set is a set of participants, bit i standing for the frame's participant
// i. The zero Set is empty and grows on Add, for any number of participants.
type Set []uint64

// Has reports whether i is in the set.
func (s Set) Has(i int) bool {
	w := i >> 6
	return w < len(s) && s[w]&(1<<(uint(i)&63)) != 0
}

// Add puts i in the set.
func (s *Set) Add(i int) {
	for len(*s) <= i>>6 {
		*s = append(*s, 0)
	}
	(*s)[i>>6] |= 1 << (uint(i) & 63)
}

// Remove takes i out of the set.
func (s Set) Remove(i int) {
	if w := i >> 6; w < len(s) {
		s[w] &^= 1 << (uint(i) & 63)
	}
}

// Len returns the number of members.
func (s Set) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clear empties the set, keeping its words. (It zeroes only the words in
// use: a tally's sets are mostly one word, where a memclr call costs more.)
func (s Set) Clear() {
	for i, w := range s {
		if w != 0 {
			s[i] = 0
		}
	}
}

// Next returns the smallest member ≥ i, or -1 if there is none: members
// ascend as for i := s.Next(0); i >= 0; i = s.Next(i + 1).
func (s Set) Next(i int) int {
	w := i >> 6
	if w >= len(s) {
		return -1
	}
	if m := s[w] >> (uint(i) & 63); m != 0 {
		return i + bits.TrailingZeros64(m)
	}
	for w++; w < len(s); w++ {
		if s[w] != 0 {
			return w<<6 + bits.TrailingZeros64(s[w])
		}
	}
	return -1
}

// Weight is one copy of a written item in a frame: the index of the
// participant holding it and its votes.
type Weight struct{ At, Votes int32 }

// row is one distinct written item of a frame: its copies at participants
// are weights[lo:hi], and r, w its read and write quorums.
type row struct {
	item   types.ItemID
	copies []voting.Copy
	r, w   int
	lo, hi int32
}

// Frame is a transaction compiled for its quorums: its participants with
// dense indices — a participant's index is its position in the list — and,
// per distinct written item, the votes of its copies among them. It is
// protocol independent: the five rules of one transaction share it.
type Frame struct {
	sites   []types.SiteID
	rows    []row
	weights []Weight
}

// NewFrame compiles ws's items over participants under a. participants is
// kept by reference and must not change afterwards.
func NewFrame(a *voting.Assignment, ws types.Writeset, participants []types.SiteID) *Frame {
	f := new(Frame)
	f.Init(a, ws, participants)
	return f
}

// Init recompiles f in place, reusing its storage. A Tally or Quorums bound
// to f sees the new frame.
//
// An item that a does not configure gets a row no set reaches, as no vote
// for it exists; a copy at a site outside participants is left out, since no
// tally, ack or confirmation ever holds such a site.
func (f *Frame) Init(a *voting.Assignment, ws types.Writeset, participants []types.SiteID) {
	f.sites, f.rows = participants, f.rows[:0]
	if cap(f.rows) == 0 {
		f.rows = make([]row, 0, len(ws))
	}
	n := 0
	for i, u := range ws {
		if ws[:i].Contains(u.Item) {
			continue
		}
		r := row{item: u.Item, r: 1, w: 1}
		if ic, ok := a.Item(u.Item); ok {
			r.r, r.w, r.copies = ic.R, ic.W, ic.Copies
			n += len(ic.Copies)
		}
		f.rows = append(f.rows, r)
	}
	if cap(f.weights) < n {
		f.weights = make([]Weight, 0, n)
	}
	f.weights = f.weights[:0]
	for k := range f.rows {
		r := &f.rows[k]
		r.lo = int32(len(f.weights))
		for _, cp := range r.copies {
			if at := f.Index(cp.Site); at >= 0 {
				f.weights = append(f.weights, Weight{At: int32(at), Votes: int32(cp.Votes)})
			}
		}
		r.hi = int32(len(f.weights))
	}
}

// Len returns the number of participants.
func (f *Frame) Len() int { return len(f.sites) }

// Site returns participant i.
func (f *Frame) Site(i int) types.SiteID { return f.sites[i] }

// Index returns s's participant index, or -1 if s is not a participant.
func (f *Frame) Index(s types.SiteID) int {
	for i, p := range f.sites {
		if p == s {
			return i
		}
	}
	return -1
}

// Size makes each of sets an empty set with room for every participant of
// f, all from one allocation.
func (f *Frame) Size(sets ...*Set) {
	words := (len(f.sites) + 63) / 64
	buf := make([]uint64, words*len(sets))
	for i, s := range sets {
		*s = buf[i*words : (i+1)*words : (i+1)*words]
	}
}

// Items returns the number of distinct written items.
func (f *Frame) Items() int { return len(f.rows) }

// Item returns the k-th distinct written item, in writeset order, and its
// copies at participants.
func (f *Frame) Item(k int) (types.ItemID, []Weight) {
	r := &f.rows[k]
	return r.item, f.weights[r.lo:r.hi]
}

// votes sums r's copy votes over the participants in s, without a branch
// on membership.
func (f *Frame) votes(r *row, s Set) int {
	n := 0
	for _, c := range f.weights[r.lo:r.hi] {
		if w := int(c.At >> 6); w < len(s) {
			n += int(c.Votes) & -int(s[w]>>(uint(c.At)&63)&1)
		}
	}
	return n
}

// every reports whether s holds w(x) votes for every written item; no
// transaction writes nothing.
func (f *Frame) every(s Set) bool {
	for k := range f.rows {
		if r := &f.rows[k]; f.votes(r, s) < r.w {
			return false
		}
	}
	return len(f.rows) > 0
}

// some reports whether s holds r(x) votes for some written item.
func (f *Frame) some(s Set) bool {
	for k := range f.rows {
		if r := &f.rows[k]; f.votes(r, s) >= r.r {
			return true
		}
	}
	return false
}

// Tally is the termination-relevant summary of one partition group: which
// participants occupy each local protocol state — what a termination
// coordinator's phase-1 poll collects — as one participant Set per state.
// It is shaped for reuse across trials (Reset keeps the sets' words).
//
// A tally is bound to the frame of the rule that reads it (Bind, or the
// first rule to read it). Before that it numbers the sites it is given in
// order of arrival, and binding re-numbers them; a site outside the bound
// frame is not a participant, holds no vote, and is not tallied.
type Tally struct {
	f *Frame
	// own numbers the sites of an unbound tally.
	own Frame
	in  [numStates]Set
	// all is the union of in: every tallied participant.
	all Set
	// scratch backs union and re-binding, so deciding allocates nothing
	// once warm.
	scratch Set
}

// Reset clears the tally for a new group, keeping its frame and storage.
func (t *Tally) Reset() {
	for i := range t.in {
		t.in[i].Clear()
	}
	t.all.Clear()
	t.own.sites = t.own.sites[:0]
}

// Bind numbers the tally by f's participants, keeping every tallied
// participant of f.
func (t *Tally) Bind(f *Frame) {
	if t.f == f {
		return
	}
	from := t.frame()
	t.f = f
	t.all.Clear()
	for st := range t.in {
		old := t.in[st]
		if old.Len() == 0 {
			continue
		}
		t.scratch = append(t.scratch[:0], old...)
		t.in[st].Clear()
		for i := t.scratch.Next(0); i >= 0; i = t.scratch.Next(i + 1) {
			if j := f.Index(from.sites[i]); j >= 0 {
				t.in[st].Add(j)
				t.all.Add(j)
			}
		}
	}
	t.own.sites = t.own.sites[:0]
}

func (t *Tally) frame() *Frame {
	if t.f != nil {
		return t.f
	}
	return &t.own
}

// Add records site in the given local state, which must be one of the six
// defined states (types.State.Valid). A site added again keeps only its
// latest state.
func (t *Tally) Add(site types.SiteID, st types.State) {
	f := t.frame()
	i := f.Index(site)
	if i < 0 {
		if t.f != nil {
			return
		}
		i = len(f.sites)
		f.sites = append(f.sites, site)
	}
	if t.all.Has(i) {
		for s := range t.in {
			t.in[s].Remove(i)
		}
	}
	t.all.Add(i)
	t.in[st].Add(i)
}

// AddAll resets the tally to every participant of its bound frame in the
// given state.
func (t *Tally) AddAll(st types.State) {
	t.Reset()
	for i := range t.f.Len() {
		t.in[st].Add(i)
		t.all.Add(i)
	}
}

// Count returns the number of participants tallied in the given state.
func (t *Tally) Count(st types.State) int { return t.in[st].Len() }

// Len returns the number of participants tallied, over all states.
func (t *Tally) Len() int { return t.all.Len() }

// In returns the participants tallied in the given state, as indices into
// the tally's frame. The set is the tally's and valid until its next change.
func (t *Tally) In(st types.State) Set { return t.in[st] }

// Answered reports whether participant i of the tally's frame is tallied.
func (t *Tally) Answered(i int) bool { return t.all.Has(i) }

// union returns the participants tallied in either state, valid until the
// next union or Reset.
func (t *Tally) union(a, b types.State) Set {
	x, y := t.in[a], t.in[b]
	if len(x) < len(y) {
		x, y = y, x
	}
	t.scratch = append(t.scratch[:0], x...)
	for i, w := range y {
		t.scratch[i] |= w
	}
	return t.scratch
}

// uncertain reports participants holding locks while awaiting a decision (W,
// PC or PA) — the states whose presence makes an undecided group report
// "blocked".
func (t *Tally) uncertain() bool {
	return t.Count(types.StateWait)+t.Count(types.StatePC)+t.Count(types.StatePA) > 0
}

// kind is which of the five rule tables a Rule is.
type kind uint8

const (
	tp1 kind = iota
	tp2
	skeen
	threePC
	twoPC
)

// Rule is one protocol's termination rule together with the early-commit rule
// of its commit protocol, as declared: which table, and for Skeen's protocol
// its site votes and quorums. Compile it over a transaction's Frame to
// evaluate it (Over, or Quorums.Compile).
type Rule struct {
	kind kind
	// votes, vc and va are Skeen's site weights (nil: one per participant)
	// and commit and abort quorums.
	votes  map[types.SiteID]int
	vc, va int
}

// names holds each table's termination rule name and commit rule name.
var names = [...][2]string{
	tp1:     {"TP1", "CP1 w(x)-every"},
	tp2:     {"TP2", "CP2 r(x)-some"},
	skeen:   {"SkeenQ-term", "SkeenQ Vc"},
	threePC: {"3PC-term", "all-acks"},
	twoPC:   {"2PC-term", "unanimous yes"},
}

// Name identifies the termination rule in traces: "TP1", "TP2",
// "SkeenQ-term", "3PC-term" or "2PC-term".
func (r Rule) Name() string { return names[r.kind][0] }

// AckName identifies the coordinator's commit rule in traces: "CP1
// w(x)-every", "CP2 r(x)-some", "SkeenQ Vc", "all-acks" or "unanimous yes".
func (r Rule) AckName() string { return names[r.kind][1] }

// TP1Rule is Termination Protocol 1 (Fig. 5) with commit protocol 1 (Fig. 9)
// over the transaction's written items: the commit side needs w(x) replica
// votes for every x ∈ W(TR), the abort side r(x) votes for some x. Once the
// PC-ACKs carry the commit quorum an abort quorum can never be formed any
// more, which is why the coordinator need not wait for the rest.
func TP1Rule() Rule { return Rule{kind: tp1} }

// TP2Rule is Termination Protocol 2 (Fig. 8) with commit protocol 2: TP1 with
// the r/w roles swapped, so commit protocol 2 releases COMMIT sooner than
// commit protocol 1.
func TP2Rule() Rule { return Rule{kind: tp2} }

// SkeenRule is Skeen's quorum protocol with the given per-site vote weights
// (nil: one vote per participant; a site absent from the map has none) and
// commit/abort quorums Vc, Va.
func SkeenRule(votes map[types.SiteID]int, vc, va int) Rule {
	return Rule{kind: skeen, votes: votes, vc: vc, va: va}
}

// ThreePCRule is 3PC's site-failure termination rule, quoted in the paper's
// Example 2: "if there exists a site in PC state or commit state, then the
// transaction should be committed; else the transaction should be aborted".
// Its confirmations demand nothing and its coordinator waits for every
// participant's PC-ACK but commits anyway when the window closes — which is
// exactly why 3PC terminates every partition and violates atomicity across
// them.
func ThreePCRule() Rule { return Rule{kind: threePC} }

// TwoPCRule is 2PC's cooperative termination rule (Fig. 1): the ladder with
// no quorum — COMMIT on a committed reporter, ABORT on an aborted or
// never-voted one, block otherwise, since a participant in W cannot know
// what the coordinator decided. Its quorums never hold, so Decide never
// returns a try verdict, and its coordinator commits on unanimous yes without
// a PREPARE-TO-COMMIT round.
func TwoPCRule() Rule { return Rule{kind: twoPC} }

// CommitsOnAckTimeout reports what the commit coordinator does when the ack
// window closes short of Ack: 3PC commits anyway, presuming the silent
// participants failed; the quorum family hands the transaction to the
// termination protocol.
func (r Rule) CommitsOnAckTimeout() bool { return r.kind == threePC }

// Prepares reports whether the commit coordinator runs a PREPARE-TO-COMMIT
// round between the votes and COMMIT: every rule but 2PC's does.
func (r Rule) Prepares() bool { return r.kind != twoPC }

// Over compiles r over f. Only Skeen's protocol with explicit site votes
// allocates (its weight row).
func (r Rule) Over(f *Frame) Quorums {
	q := Quorums{Rule: r, f: f}
	if r.kind == skeen && r.votes != nil {
		q.siteWeights = make([]int, f.Len())
		for i, s := range f.sites {
			q.siteWeights[i] = r.votes[s]
		}
	}
	return q
}

// Quorums is one transaction's Rule compiled over its Frame. A Quorums whose
// Rule is set but which is not yet compiled compiles on its first Compile, so
// one Quorums can be shared by every automaton of the transaction at a site.
type Quorums struct {
	Rule
	f *Frame
	// siteWeights is the Skeen row of explicit site votes, by participant
	// index; nil gives each participant one vote.
	siteWeights []int
}

// Compile compiles q's Rule for the transaction writing ws at participants,
// unless q is compiled already.
func (q *Quorums) Compile(a *voting.Assignment, ws types.Writeset, participants []types.SiteID) {
	if q.f == nil {
		*q = q.Rule.Over(NewFrame(a, ws, participants))
	}
}

// Frame returns the frame q is compiled over.
func (q *Quorums) Frame() *Frame { return q.f }

// Index returns s's participant index, or -1 if s is not a participant.
func (q *Quorums) Index(s types.SiteID) int { return q.f.Index(s) }

// Qc reports whether the participants in s hold the commit-side quorum:
// what a try-commit round must confirm, and what Decide tests the tally
// against.
func (q *Quorums) Qc(s Set) bool {
	switch q.kind {
	case tp1:
		return q.f.every(s)
	case tp2:
		return q.f.some(s)
	case skeen:
		return q.siteVotes(s) >= q.vc
	}
	return q.kind == threePC
}

// Qa reports whether the participants in s hold the abort-side quorum.
func (q *Quorums) Qa(s Set) bool {
	switch q.kind {
	case tp1:
		return q.f.some(s)
	case tp2:
		return q.f.every(s)
	case skeen:
		return q.siteVotes(s) >= q.va
	}
	return q.kind == threePC
}

// Ack reports whether the PC-ACKs of the participants in acked let the
// commit coordinator send COMMIT: Qc itself for the quorum family, every
// participant for 3PC.
func (q *Quorums) Ack(acked Set) bool {
	if q.kind == threePC {
		return acked.Len() >= q.f.Len()
	}
	return q.Qc(acked)
}

// siteVotes sums the site votes of the participants in s.
func (q *Quorums) siteVotes(s Set) int {
	if q.siteWeights == nil {
		return s.Len()
	}
	n := 0
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		n += q.siteWeights[i]
	}
	return n
}

// Decide classifies a phase-1 tally. For the quorum family (Figs. 5 and 8):
//
//   - immediate COMMIT if a participant committed, or those in PC hold Qc;
//   - immediate ABORT if a participant aborted or never voted, or those in PA
//     hold Qa;
//   - commit quorum possible if some participant is in PC and those not in PA
//     hold Qc;
//   - abort quorum possible if those not in PC hold Qa;
//   - otherwise block.
//
// Past the immediate branches every responder is in W, PC or PA, so "not in
// PA" is W∪PC and "not in PC" is W∪PA.
func (q *Quorums) Decide(t *Tally) Verdict {
	t.Bind(q.f)
	aborted, anyPC := t.Count(types.StateAborted) > 0, t.Count(types.StatePC) > 0
	switch {
	case q.commits(t):
		return VerdictCommit
	case q.kind == threePC:
		if !aborted && anyPC {
			// Move waiting participants to PC first, then commit.
			return VerdictTryCommit
		}
		return VerdictAbort
	case aborted || t.Count(types.StateInitial) > 0 || q.Qa(t.in[types.StatePA]):
		return VerdictAbort
	case anyPC && q.Qc(t.union(types.StateWait, types.StatePC)):
		return VerdictTryCommit
	case q.Qa(t.union(types.StateWait, types.StatePA)):
		return VerdictTryAbort
	default:
		return VerdictBlock
	}
}

// commits is Decide's first branch, the one no other reply outranks: a
// participant committed, or (quorum family) those in PC hold Qc. Both are
// monotone in the tally, so once true they stay true whatever else reports.
func (q *Quorums) commits(t *Tally) bool {
	return t.Count(types.StateCommitted) > 0 || q.kind != threePC && q.Qc(t.in[types.StatePC])
}

// Settled reports whether a phase-1 poll of polled participants may stop
// waiting: no reply still outstanding could change Decide's verdict on t.
// That is so when every polled participant has answered, and when the verdict
// is already COMMIT (see commits). polled counts the participants the poll
// waits for; the three-phase terminator leaves out the unanswered suspects
// (protocol.Env.Suspected). It is deliberately not so for an abort or
// initial-state reply while someone is silent — a later C outranks it — nor
// for any try or block verdict, which more replies can turn either way.
func (q *Quorums) Settled(t *Tally, polled int) bool {
	t.Bind(q.f)
	return t.Len() >= polled || q.commits(t)
}

// Confirmed reports whether a confirm round attempting try (VerdictTryCommit
// or VerdictTryAbort) may distribute its decision: confirmed — the phase-1
// reporters already in the target state plus the participants that
// acknowledged the PREPARE — holds the attempted quorum. waiting says some
// prepared site may still acknowledge (the window is open and not all have).
// The quorum family needs the quorum and nothing else, the early commit of
// Fig. 9 applied to termination; 3PC's quorum demands nothing, and what its
// site-failure rule needs instead is every operational participant in PC
// before anyone commits, so it is done exactly when nobody is left to wait
// for.
func (q *Quorums) Confirmed(try Verdict, confirmed Set, waiting bool) bool {
	if q.kind == threePC {
		return !waiting
	}
	if try == VerdictTryAbort {
		return q.Qa(confirmed)
	}
	return q.Qc(confirmed)
}

// Decider computes the outcome one partition group's termination attempt
// reaches, given the group's state tally.
//
// The returned outcome is what engine.Cluster.GroupOutcome reports after the
// simulation quiesces: OutcomeCommitted/OutcomeAborted when the group
// terminates, OutcomeBlocked when participants keep holding locks, and
// OutcomeUnknown when no tallied participant ever voted (nothing to
// terminate, nothing locked).
type Decider func(a *voting.Assignment, t *Tally) types.Outcome

// passiveOutcome is the group outcome when no site can initiate termination:
// states are frozen, so the group reports whatever its terminal sites
// already decided, blocked if undecided participants hold locks, and unknown
// when only unvoted (q) participants — or none at all — are present.
func passiveOutcome(t *Tally) types.Outcome {
	switch {
	case t.Count(types.StateCommitted) > 0:
		return types.OutcomeCommitted
	case t.Count(types.StateAborted) > 0:
		return types.OutcomeAborted
	case t.uncertain():
		return types.OutcomeBlocked
	default:
		return types.OutcomeUnknown
	}
}

// Outcome folds the poll → classify → confirm → distribute ladder into a
// single decision over the tally. It is exact under the "interrupted commit"
// model the availability Monte Carlo (package avail) replays — a static
// partition, the commit coordinator crashed, every other site up, reliable
// intra-group delivery — because then the event-driven termination protocol
// is fully determined by the group's initial tally:
//
//   - any participant in W, PC or PA arms a patience timer and eventually
//     elects a termination coordinator; without one the group stays passive;
//   - phase 1 always collects the local state of every up participant in the
//     group (reachable sites answer within the 2T window, nothing is lost);
//   - a VerdictTryCommit round moves every waiting (W) participant to PC and
//     collects their PC-ACKs, so the confirmation set equals exactly the
//     site set whose votes satisfied the try-commit condition — the quorum
//     is always confirmed, and symmetrically for VerdictTryAbort;
//   - a VerdictBlock round changes no state, so re-entering the election
//     yields the same verdict until the round budget runs out.
//
// The discrete-event engine remains the oracle — package avail's differential
// tests assert count-for-count equality between the two — and stays required
// whenever the model does not hold: lossy or duplicating networks, mid-round
// crashes or heals, the buggy buffer-crossing participant of Example 3, or
// whenever message ladders and violation traces are wanted.
func (q *Quorums) Outcome(t *Tally) types.Outcome {
	t.Bind(q.f)
	if !t.uncertain() {
		return passiveOutcome(t)
	}
	switch q.Decide(t) {
	case VerdictCommit, VerdictTryCommit:
		return types.OutcomeCommitted
	case VerdictAbort, VerdictTryAbort:
		return types.OutcomeAborted
	default:
		return types.OutcomeBlocked
	}
}

// TP1 is TP1Rule's analytic decider over the transaction writing items,
// whose participants are the sites holding their copies. It compiles on its
// first call, and again whenever it is handed another assignment.
func TP1(items []types.ItemID) Decider {
	var (
		asgn *voting.Assignment
		q    Quorums
	)
	return func(a *voting.Assignment, t *Tally) types.Outcome {
		if a != asgn {
			ws := make(types.Writeset, len(items))
			for i, x := range items {
				ws[i].Item = x
			}
			asgn, q = a, TP1Rule().Over(NewFrame(a, ws, a.Participants(items)))
		}
		return q.Outcome(t)
	}
}
