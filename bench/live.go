package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"qcommit/internal/core"
	"qcommit/internal/live"
	"qcommit/internal/obs"
	"qcommit/internal/transport/tcp"
	"qcommit/internal/types"
	"qcommit/internal/voting"
	"qcommit/internal/wal"
	"qcommit/internal/workload"
)

// liveSpec is one live-cluster workload: QC1 over a loopback TCP fabric,
// every item replicated at every site with one vote each and majority
// quorums, one group-commit WAL per site.
type liveSpec struct {
	sites    int
	items    int
	mix      workload.Mix
	T        time.Duration // protocol timeout unit
	warmup   int           // warm-up operations, a fixed count so set-up is real work
	rate     float64       // open-loop arrivals per second; 0 means closed loop
	inflight int           // closed-loop clients (also drives the warm-up)
}

// liveCluster is a running cluster plus the handles the benchmark reads
// layers through.
type liveCluster struct {
	spec  liveSpec
	sites []types.SiteID
	asgn  *voting.Assignment
	cl    *live.Cluster
	fab   *tcp.Fabric
	logs  map[types.SiteID]*wal.GroupLog
	files []*os.File // in-memory WAL files, kept open for their lifetime
	walFS string     // where the WAL bytes go: "memfd" or "checkout"
	walAt map[types.SiteID]string
	tr    *tracer // nil on the untraced run
}

// opRec is one measured operation.
type opRec struct {
	txn     types.TxnID
	ws      types.Writeset
	outcome types.Outcome
	start   time.Time // due time (open loop) or submit time (closed loop)
	end     time.Time
	lag     time.Duration // open loop: how late the generator submitted
}

// assignment replicates every item at every site, one vote each, majority
// read and write quorums.
func (spec liveSpec) assignment() ([]types.SiteID, *voting.Assignment, error) {
	var sites []types.SiteID
	for i := 1; i <= spec.sites; i++ {
		sites = append(sites, types.SiteID(i))
	}
	r, w := voting.MajorityQuorums(spec.sites)
	configs := make([]voting.ItemConfig, spec.items)
	for i := range configs {
		configs[i] = voting.Uniform(types.ItemID(fmt.Sprintf("k%04d", i)), r, w, sites...)
	}
	asgn, err := voting.NewAssignment(configs...)
	return sites, asgn, err
}

// newLiveCluster builds the fabric, the per-site WALs and the cluster. With a
// tracer, the transport and every WAL are wrapped and the obs registry and
// span recorder are attached; without one Obs stays nil, as in production.
func newLiveCluster(spec liveSpec, seed int64, tr *tracer) (*liveCluster, error) {
	lc := &liveCluster{spec: spec, tr: tr, logs: map[types.SiteID]*wal.GroupLog{}, walAt: map[types.SiteID]string{}}
	var err error
	if lc.sites, lc.asgn, err = spec.assignment(); err != nil {
		return nil, err
	}

	for _, id := range lc.sites {
		if err := lc.openWAL(id); err != nil {
			lc.close()
			return nil, err
		}
	}
	fab, err := tcp.NewFabric(lc.sites, tcp.Options{})
	if err != nil {
		lc.close()
		return nil, err
	}
	lc.fab = fab

	cfg := live.Config{
		Assignment:  lc.asgn,
		Spec:        core.Spec{Variant: core.Protocol1},
		TimeoutBase: spec.T,
		Seed:        seed,
		Transport:   fab,
		WAL:         func(id types.SiteID) wal.Log { return lc.logs[id] },
	}
	if tr != nil {
		cfg.Obs = &obs.Observer{Registry: tr.reg, Spans: obs.NewSpans(spanSampleEvery, 4096, seed)}
		fab.RegisterMetrics(tr.reg)
		cfg.Transport = &tracedTransport{Transport: fab, tr: tr}
		for _, id := range lc.sites {
			// live registers a GroupLog's histograms only when it sees the
			// concrete type; the wrapper hides it, so register here.
			lc.logs[id].RegisterMetrics(tr.reg, id)
		}
		cfg.WAL = func(id types.SiteID) wal.Log { return &tracedWAL{GroupLog: lc.logs[id], tr: tr, site: id} }
	}
	lc.cl = live.New(cfg)
	return lc, nil
}

// openWAL opens site id's group-commit log on an anonymous in-memory file,
// falling back to a file under .bench_build/wal in the checkout where the
// kernel offers none. The choice is reported as wal_dir_fs: on "checkout" the
// numbers include the device's fsync and are not comparable with "memfd".
func (lc *liveCluster) openWAL(id types.SiteID) error {
	path := ""
	f, p, err := newMemFile(fmt.Sprintf("qbench-wal-site%d", id))
	if err == nil {
		lc.files = append(lc.files, f)
		path, lc.walFS = p, "memfd"
	} else {
		dir := filepath.Join(".bench_build", "wal")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		tmp, err := os.CreateTemp(dir, fmt.Sprintf("site%d-*.wal", id))
		if err != nil {
			return err
		}
		tmp.Close()
		path, lc.walFS = tmp.Name(), "checkout"
	}
	gl, err := wal.OpenGroupLog(path)
	if err != nil {
		return fmt.Errorf("site %d wal: %w", id, err)
	}
	lc.logs[id] = gl
	lc.walAt[id] = path
	return nil
}

// walBytes is the total size of every site's log file.
func (lc *liveCluster) walBytes() int64 {
	var n int64
	for _, p := range lc.walAt {
		if st, err := os.Stat(p); err == nil {
			n += st.Size()
		}
	}
	return n
}

// close stops the cluster and releases the logs and their files.
func (lc *liveCluster) close() {
	if lc.cl != nil {
		lc.cl.Stop() // also closes the fabric
	} else if lc.fab != nil {
		lc.fab.Close()
	}
	for _, gl := range lc.logs {
		gl.Close()
	}
	for _, f := range lc.files {
		f.Close()
	}
	if lc.walFS == "checkout" {
		for _, p := range lc.walAt {
			os.Remove(p)
		}
	}
}

// waitDeadline bounds one WaitOutcome: an operation still unresolved after it
// counts as failed.
func (lc *liveCluster) waitDeadline() time.Duration { return 10*lc.spec.T + 2*time.Second }

// generator returns the seeded transaction stream for one client.
func (lc *liveCluster) generator(seed int64) (*workload.Generator, error) {
	return workload.NewGenerator(lc.asgn, lc.spec.mix, seed)
}

// one runs a single operation — one attempt, no retry — and returns its record.
func (lc *liveCluster) one(t workload.Txn) opRec {
	began := time.Now()
	id := lc.cl.Begin(t.Coord, t.Writeset)
	lc.tr.opBegin(id, began)
	o := lc.cl.WaitOutcome(id, lc.waitDeadline())
	end := time.Now()
	lc.tr.opEnd(id, end)
	return opRec{txn: id, ws: t.Writeset, outcome: o, start: began, end: end}
}

// closedLoop runs clients goroutines, each submitting its next transaction
// only after the previous outcome is known, until more() says stop. Client c
// draws from its own generator seeded from (seed, c), so no lock sits on the
// submit path and the stream is a function of the seed alone.
func (lc *liveCluster) closedLoop(clients int, seed int64, more func() bool) ([]opRec, error) {
	gens := make([]*workload.Generator, clients)
	for c := range gens {
		g, err := lc.generator(seed*1000 + int64(c))
		if err != nil {
			return nil, err
		}
		gens[c] = g
	}
	per := make([][]opRec, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for more() {
				per[c] = append(per[c], lc.one(gens[c].Next()))
			}
		}(c)
	}
	wg.Wait()
	var all []opRec
	for _, p := range per {
		all = append(all, p...)
	}
	return all, nil
}

// warmUp commits one probe transaction and checks every site applied it, then
// runs the fixed warm-up count closed loop. It returns an error if the
// cluster does not serve.
func (lc *liveCluster) warmUp(seed int64) error {
	g, err := lc.generator(seed - 1)
	if err != nil {
		return err
	}
	probe := lc.one(g.Next())
	if probe.outcome != types.OutcomeCommitted {
		return fmt.Errorf("pre-check transaction ended %v", probe.outcome)
	}
	if bad := lc.verify([]opRec{probe}, true); bad != 0 {
		return fmt.Errorf("pre-check transaction not applied identically on every site")
	}
	var n atomic.Int64
	recs, err := lc.closedLoop(lc.spec.inflight, seed+7919, func() bool { return n.Add(1) <= int64(lc.spec.warmup) })
	if err != nil {
		return err
	}
	for _, r := range recs {
		if r.outcome != types.OutcomeCommitted && r.outcome != types.OutcomeAborted {
			return fmt.Errorf("warm-up transaction %d ended %v", r.txn, r.outcome)
		}
	}
	return nil
}

// verify is the correctness gate: every operation reported committed is
// committed on every site, no transaction is committed at one site and
// aborted at another, the newest committed write of every item is what each
// site's store holds (value and version), and each site's durable log replays
// to the outcome the client saw. It returns the number of operations that
// fail any of these.
//
// With strict false (the crash workload) a site may have missed a
// transaction altogether — the coordinator that crashed before it voted — so
// such a site may know nothing of a commit and hold a stale copy, as long as
// a write quorum of sites holds the newest one.
func (lc *liveCluster) verify(recs []opRec, strict bool) int {
	bad := map[types.TxnID]bool{}
	type last struct {
		txn   types.TxnID
		value int64
	}
	newest := map[types.ItemID]last{}
	for _, r := range recs {
		if lc.cl.Violated(r.txn) {
			bad[r.txn] = true
		}
		if r.outcome != types.OutcomeCommitted {
			continue
		}
		for _, id := range lc.sites {
			if o := lc.cl.OutcomeAt(id, r.txn); o != types.OutcomeCommitted && (strict || o != types.OutcomeUnknown) {
				bad[r.txn] = true
			}
		}
		for _, u := range r.ws {
			if r.txn > newest[u.Item].txn {
				newest[u.Item] = last{r.txn, u.Value}
			}
		}
	}
	for item, want := range newest {
		holders := 0
		for _, id := range lc.sites {
			v, err := lc.cl.Node(id).Store().Read(item)
			switch version := uint64(want.txn) + 1; {
			case err != nil:
				bad[want.txn] = true
			case v.Version == version && v.Value == want.value:
				holders++
			case v.Version > version:
				// A later committed write from outside recs (the warm-up,
				// when only the probe is checked) is legitimately newer.
				holders++
			case v.Version == version || strict:
				bad[want.txn] = true
			}
		}
		if holders < lc.asgn.WriteQuorum(item) {
			bad[want.txn] = true
		}
	}
	for _, id := range lc.sites {
		logged, err := lc.logs[id].Records()
		if err != nil {
			return len(recs)
		}
		images := wal.Replay(logged)
		for _, r := range recs {
			im := images[r.txn]
			switch {
			case im == nil:
				if strict && r.outcome == types.OutcomeCommitted {
					bad[r.txn] = true
				}
			case r.outcome == types.OutcomeCommitted && im.State != types.StateCommitted,
				r.outcome == types.OutcomeAborted && im.State == types.StateCommitted:
				bad[r.txn] = true
			}
		}
	}
	return len(bad)
}

// tally reduces the operation records of one measured window.
type tally struct {
	attempted, succeeded, aborted, failed int
	win                                   window
	lagMs                                 []float64
}

// tallyOps counts the operations by outcome. The window runs from start to
// the last completion, as measured, and holds the committed ones.
func tallyOps(recs []opRec, start time.Time) tally {
	var t tally
	for _, r := range recs {
		t.attempted++
		switch r.outcome {
		case types.OutcomeCommitted:
			t.succeeded++
			t.win.latMs = append(t.win.latMs, float64(r.end.Sub(r.start))/float64(time.Millisecond))
		case types.OutcomeAborted:
			t.aborted++
		default:
			t.failed++
		}
		t.lagMs = append(t.lagMs, float64(r.lag)/float64(time.Millisecond))
		t.win.seconds = max(t.win.seconds, r.end.Sub(start).Seconds())
	}
	return t
}
