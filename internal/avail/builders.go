package avail

import (
	"fmt"

	"qcommit/internal/core"
	"qcommit/internal/protocol"
	"qcommit/internal/protocols"
	"qcommit/internal/quorumcalc"
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
// termination automaton: the fold of its rule table.
func deciderFor(spec protocol.Spec, sc Scenario) (quorumcalc.Decider, error) {
	s, ok := spec.(core.Spec)
	if !ok {
		return nil, fmt.Errorf("avail: %s has no analytic decider; use EngineReplay", spec.Name())
	}
	return s.Rule(sc.Items, sc.Participants).Outcome, nil
}
