package engine

import (
	"testing"

	"qcommit/internal/site"
)

// TestTimerExpiryAllocs pins the cost model of a kernel timer: once the
// cluster's expiry pool is warm, arming a timer and dispatching its expiry
// allocates nothing. The timer names no transaction, so the kernel's fence
// drops it; what is measured is the host's part.
func TestTimerExpiryAllocs(t *testing.T) {
	cl := New(Config{Assignment: paperAssignment(t)})
	h := (*siteHost)(cl.Site(1))
	timer := site.Timer{Txn: 1 << 40}
	expire := func() {
		h.AfterFunc(cl.T(), timer)
		cl.Run()
	}
	expire()
	if allocs := testing.AllocsPerRun(1000, expire); allocs != 0 {
		t.Errorf("timer arm → expiry allocates %v times, want 0", allocs)
	}
	if got := cl.Scheduler().Steps(); got != 1002 {
		t.Errorf("dispatched %d expiries, want 1002", got)
	}
}
