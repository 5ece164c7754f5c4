package engine

import (
	"fmt"
	"sort"

	"qcommit/internal/storage"
	"qcommit/internal/types"
	"qcommit/internal/wal"
)

// CheckStores audits every copy of every item against the cluster's WALs and
// returns human-readable issues. The invariants are the storage-level
// consequences of atomic commitment plus versioned replication:
//
//  1. a copy's version is either 1 (initial) or txn+1 for a transaction
//     that committed at some site — values written by aborted or undecided
//     transactions must never be visible;
//  2. the value stored equals what that committed transaction wrote to the
//     item (no cross-item or cross-transaction smearing);
//  3. two copies of the same item at the same version hold the same value.
//
// A correct protocol yields no issues in any reachable state; the checker is
// used by the randomized sweeps and is also a debugging aid.
func (cl *Cluster) CheckStores() []string {
	var issues []string

	// Gather global commit/abort knowledge and writesets from all WALs.
	// Records are scanned in place — the per-record fold only needs the
	// terminal markers plus one writeset per transaction, so replaying full
	// per-site transaction images here would be pure allocation churn.
	type txnInfo struct {
		committed bool
		aborted   bool
		ws        types.Writeset
	}
	txns := make(map[types.TxnID]*txnInfo)
	fold := func(r *wal.Record) {
		if r.Type != wal.RecCommit && r.Type != wal.RecAbort && r.Type != wal.RecVotedNo && len(r.Writeset) == 0 {
			return
		}
		info := txns[r.Txn]
		if info == nil {
			info = &txnInfo{}
			txns[r.Txn] = info
		}
		switch r.Type {
		case wal.RecCommit:
			info.committed = true
		case wal.RecAbort, wal.RecVotedNo:
			info.aborted = true
		}
		if len(r.Writeset) > 0 && len(info.ws) == 0 {
			info.ws = r.Writeset
		}
	}
	for _, id := range cl.siteIDs {
		if mem, ok := cl.sites.Get(id).log.(*wal.MemLog); ok {
			mem.Scan(fold)
			continue
		}
		recs, _ := cl.sites.Get(id).log.Records()
		for i := range recs {
			fold(&recs[i])
		}
	}

	// Values seen per (item, version) for cross-copy agreement.
	type iv struct {
		item types.ItemID
		ver  uint64
	}
	seen := make(map[iv]int64)

	for _, id := range cl.siteIDs {
		id := id
		site := cl.sites.Get(id)
		// Only written copies can break an invariant: a seeded copy no write
		// reached is still the initial value. ScanWritten visits copies in
		// map order; the trailing sort restores a deterministic issue list,
		// and the divergence message orders its value pair itself so it
		// reads the same either way around.
		site.store.ScanWritten(func(item types.ItemID, v storage.Versioned) {
			if v.Version == 1 {
				return // initial value
			}
			txn := types.TxnID(v.Version - 1)
			info := txns[txn]
			switch {
			case info == nil:
				issues = append(issues, fmt.Sprintf(
					"site %s: item %s at version %d from unknown transaction %s", id, item, v.Version, txn))
			case !info.committed:
				state := "undecided"
				if info.aborted {
					state = "aborted"
				}
				issues = append(issues, fmt.Sprintf(
					"site %s: item %s holds value of %s transaction %s", id, item, state, txn))
			default:
				want, ok := info.ws.ValueOf(item)
				if !ok {
					issues = append(issues, fmt.Sprintf(
						"site %s: item %s at version of %s, which never wrote it", id, item, txn))
				} else if want != v.Value {
					issues = append(issues, fmt.Sprintf(
						"site %s: item %s = %d, but %s wrote %d", id, item, v.Value, txn, want))
				}
			}
			key := iv{item, v.Version}
			if prev, ok := seen[key]; ok && prev != v.Value {
				lo, hi := prev, v.Value
				if lo > hi {
					lo, hi = hi, lo
				}
				issues = append(issues, fmt.Sprintf(
					"item %s version %d has divergent values %d and %d", item, v.Version, lo, hi))
			}
			seen[key] = v.Value
		})
	}
	sort.Strings(issues)
	return issues
}
