package avail

import "qcommit/internal/core"

// StandardBuilders returns the five protocol columns every comparison table
// in EXPERIMENTS.md uses: 2PC, 3PC (site-failure termination), Skeen's
// quorum protocol with majority site-vote quorums over each transaction's
// participants, and the paper's protocols 1 and 2.
func StandardBuilders() []SpecBuilder {
	var out []SpecBuilder
	for _, spec := range core.Standard(nil) {
		spec := spec
		out = append(out, SpecBuilder{Label: spec.Name(), Build: func(Scenario) core.Spec { return spec }})
	}
	return out
}
