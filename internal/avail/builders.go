package avail

import (
	"fmt"

	"qcommit/internal/core"
	"qcommit/internal/protocol"
	"qcommit/internal/protocols"
	"qcommit/internal/quorumcalc"
	"qcommit/internal/twopc"
)

// StandardBuilders returns the five protocol columns every comparison table
// in EXPERIMENTS.md uses: 2PC, 3PC (site-failure termination), Skeen's
// quorum protocol with majority site-vote quorums over each transaction's
// participants, and the paper's protocols 1 and 2.
func StandardBuilders() []SpecBuilder {
	var out []SpecBuilder
	for _, spec := range protocols.Standard(nil) {
		spec := spec
		out = append(out, SpecBuilder{Label: spec.Name(), Build: func(Scenario) protocol.Spec { return spec }})
	}
	return out
}

// deciderFor derives the analytic decision kernel equivalent to the spec's
// termination automaton: the fold of its rule table for the three-phase
// protocols (core.Spec), 2PC's own decider for 2PC.
func deciderFor(spec protocol.Spec, sc Scenario) (quorumcalc.Decider, error) {
	switch s := spec.(type) {
	case twopc.Spec:
		return quorumcalc.TwoPC(), nil
	case core.Spec:
		return s.Rule(sc.Items, sc.Participants).Outcome, nil
	default:
		return nil, fmt.Errorf("avail: %s has no analytic decider; use EngineReplay", spec.Name())
	}
}
