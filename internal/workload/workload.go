// Package workload generates synthetic transaction streams over a
// replicated-item assignment, for throughput and availability experiments.
// The generator is deterministic in its seed, so protocol comparisons replay
// identical workloads.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"qcommit/internal/types"
	"qcommit/internal/voting"
)

// Mix parameterizes the transaction stream.
type Mix struct {
	// WritesPerTxn is how many distinct items each transaction updates.
	WritesPerTxn int
	// HotFraction in [0,1) sends that share of writes to the first item
	// ("hot spot"); the remainder spread uniformly. Zero means uniform.
	HotFraction float64
	// ZipfS > 1 draws items from a zipfian distribution over their rank in
	// the assignment's item order (rank 0 hottest), the standard model for
	// skewed key popularity; smaller s is closer to uniform. Zero disables
	// the zipfian draw. Mutually exclusive with HotFraction.
	ZipfS float64
	// ValueRange bounds generated values ([0, ValueRange)). Default 1000.
	ValueRange int64
}

// DefaultMix is two writes per transaction, uniform access.
func DefaultMix() Mix { return Mix{WritesPerTxn: 2, ValueRange: 1000} }

func (m Mix) withDefaults() Mix {
	if m.WritesPerTxn <= 0 {
		m.WritesPerTxn = 1
	}
	if m.ValueRange <= 0 {
		m.ValueRange = 1000
	}
	return m
}

// Txn is one generated transaction: a coordinator, a writeset and the
// writeset's participants (ascending, as voting.Assignment.Participants
// returns them).
type Txn struct {
	Coord        types.SiteID
	Writeset     types.Writeset
	Participants []types.SiteID
}

// Generator produces transactions over an assignment.
type Generator struct {
	asgn  *voting.Assignment
	items []types.ItemID
	mix   Mix
	rng   *rand.Rand
	zipf  *rand.Zipf
	// Next's scratch: drawn[i] == round marks items[i] as already in the
	// writeset being drawn, and written lists that writeset's items.
	drawn   []uint64
	round   uint64
	written []types.ItemID
}

// NewGenerator validates the mix against the assignment.
func NewGenerator(asgn *voting.Assignment, mix Mix, seed int64) (*Generator, error) {
	mix = mix.withDefaults()
	items := asgn.Items()
	if len(items) == 0 {
		return nil, fmt.Errorf("workload: assignment has no items")
	}
	if mix.WritesPerTxn > len(items) {
		return nil, fmt.Errorf("workload: WritesPerTxn %d exceeds item count %d", mix.WritesPerTxn, len(items))
	}
	// The open-interval check must also reject NaN, which compares false
	// against everything and would otherwise slip through and silently turn
	// the hot-spot draw uniform.
	if math.IsNaN(mix.HotFraction) || mix.HotFraction < 0 || mix.HotFraction >= 1 {
		return nil, fmt.Errorf("workload: HotFraction %v out of [0,1)", mix.HotFraction)
	}
	// rand.Zipf requires s > 1; anything else in a non-zero ZipfS is a
	// configuration error, as is combining the two skew models.
	if mix.ZipfS != 0 && (math.IsNaN(mix.ZipfS) || mix.ZipfS <= 1) {
		return nil, fmt.Errorf("workload: ZipfS %v must be > 1 (or 0 to disable)", mix.ZipfS)
	}
	if mix.ZipfS != 0 && mix.HotFraction != 0 {
		return nil, fmt.Errorf("workload: ZipfS and HotFraction are mutually exclusive")
	}
	g := &Generator{asgn: asgn, items: items, mix: mix, rng: rand.New(rand.NewSource(seed)), drawn: make([]uint64, len(items))}
	if mix.ZipfS != 0 {
		g.zipf = rand.NewZipf(g.rng, mix.ZipfS, 1, uint64(len(items)-1))
	}
	return g, nil
}

// Next draws one transaction. The coordinator is a random participant of the
// writeset (the paper's convention: the transaction is issued at a site that
// stores data it touches).
func (g *Generator) Next() Txn {
	ws := make(types.Writeset, 0, g.mix.WritesPerTxn)
	g.written = g.written[:0]
	g.round++
	for len(ws) < g.mix.WritesPerTxn {
		var i int
		switch {
		case g.zipf != nil:
			i = int(g.zipf.Uint64())
		case g.mix.HotFraction > 0 && g.rng.Float64() < g.mix.HotFraction:
			i = 0
		default:
			i = g.rng.Intn(len(g.items))
		}
		if g.drawn[i] == g.round {
			continue
		}
		g.drawn[i] = g.round
		item := g.items[i]
		g.written = append(g.written, item)
		ws = append(ws, types.Update{Item: item, Value: g.rng.Int63n(g.mix.ValueRange)})
	}
	participants := g.asgn.Participants(g.written)
	return Txn{
		Coord:        participants[g.rng.Intn(len(participants))],
		Writeset:     ws,
		Participants: participants,
	}
}

// Batch draws n transactions.
func (g *Generator) Batch(n int) []Txn {
	out := make([]Txn, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}
