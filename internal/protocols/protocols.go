// Package protocols names the five commit + termination protocols the
// repository compares, so every entry point (the root facade, the daemons
// and load generators under cmd/, the availability and churn studies) builds
// them the same way.
package protocols

import (
	"fmt"
	"strings"

	"qcommit/internal/core"
	"qcommit/internal/protocol"
	"qcommit/internal/types"
)

// Standard returns the five protocols in comparison order: 2PC, 3PC, Skeen's
// quorum protocol, and the paper's protocols 1 and 2. Skeen's protocol gets
// one vote per site and majority quorums — over the given sites, or, when
// none are given, per transaction over its participants
// (core.PerTransaction, the convention of the studies).
func Standard(sites []types.SiteID) []protocol.Spec {
	var out []protocol.Spec
	for _, s := range standard(sites) {
		out = append(out, s)
	}
	return out
}

func standard(sites []types.SiteID) []core.Spec {
	skeen := core.PerTransaction()
	if len(sites) > 0 {
		vc, va := core.Majority(len(sites))
		skeen = core.Uniform(sites, vc, va)
	}
	return []core.Spec{
		{Variant: core.TwoPC},
		{Variant: core.ThreePC},
		skeen,
		{Variant: core.Protocol1},
		{Variant: core.Protocol2},
	}
}

// ByName returns the Standard protocol over the given cluster sites with the
// given name (2PC, 3PC, SkeenQ, QC1 or QC2, in any letter case), validated.
func ByName(name string, sites []types.SiteID) (protocol.Spec, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("protocol %q: no sites to size its quorums over", name)
	}
	for _, spec := range standard(sites) {
		if !strings.EqualFold(spec.Name(), name) {
			continue
		}
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		return spec, nil
	}
	return nil, fmt.Errorf("unknown protocol %q (want 2PC, 3PC, SkeenQ, QC1 or QC2)", name)
}
