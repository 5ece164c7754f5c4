// Package e2e drives real qcommitd processes over real TCP sockets: it
// builds the binary, spawns one process per site, submits transactions
// through the client protocol, and injects the paper's failures for real —
// kill -9 on the coordinator mid-commit and network partitions installed on
// every node.
//
// The headline test is the paper's motivating scenario made literal: with
// the coordinator SIGKILLed in the window after every participant has voted
// and before any decision-phase message escapes, two-phase commit leaves
// every survivor blocked, while the quorum-based protocol QC1 terminates the
// transaction on all of them.
package e2e

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"qcommit/client"
	"qcommit/internal/types"
)

var daemonBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "qcommitd-e2e")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	daemonBin = filepath.Join(dir, "qcommitd")
	build := exec.Command("go", "build", "-o", daemonBin, "qcommit/cmd/qcommitd")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building qcommitd: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// daemon is one running qcommitd process.
type daemon struct {
	site   types.SiteID
	cmd    *exec.Cmd
	out    *output
	exited chan error
}

// output is a daemon's stdout+stderr sink: it keeps everything for failure
// messages and hands the metrics address named by the ready line to ready.
type output struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	ready chan string // buffered 1; receives once
	sent  bool
}

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.buf.Write(p)
	if !o.sent {
		if _, rest, ok := strings.Cut(o.buf.String(), "; metrics on "); ok {
			if addr, _, ok := strings.Cut(rest, "\n"); ok {
				o.ready <- addr
				o.sent = true
			}
		}
	}
	return len(p), nil
}

// Bytes returns everything the daemon has printed so far.
func (o *output) Bytes() []byte {
	o.mu.Lock()
	defer o.mu.Unlock()
	return bytes.Clone(o.buf.Bytes())
}

// cluster is a set of qcommitd processes plus one client per site.
type cluster struct {
	t       *testing.T
	peers   map[types.SiteID]string
	metrics map[types.SiteID]string
	daemons map[types.SiteID]*daemon
	clients map[types.SiteID]*client.Client
}

// startCluster reserves loopback peer ports, spawns n qcommitd processes
// running proto over items x and y, reads each one's metrics address from its
// ready line, and connects a client to each. failpointSite (0 for none) gets
// -failpoint crash-before-decision.
func startCluster(t *testing.T, n int, proto string, failpointSite types.SiteID) *cluster {
	t.Helper()
	c := &cluster{
		t:       t,
		peers:   make(map[types.SiteID]string),
		metrics: make(map[types.SiteID]string),
		daemons: make(map[types.SiteID]*daemon),
		clients: make(map[types.SiteID]*client.Client),
	}
	// Peer ports must be agreed before startup: every daemon's -peers names
	// every site's address. Each reservation stays open until all n are
	// chosen, so the kernel cannot hand one port out twice; what remains is
	// the window between closing them and the daemons binding. Metrics ports
	// take no part in it: each daemon binds :0 and reports the address.
	var peersArg string
	reserved := make([]net.Listener, 0, n)
	for i := 1; i <= n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		reserved = append(reserved, ln)
		addr := ln.Addr().String()
		c.peers[types.SiteID(i)] = addr
		if peersArg != "" {
			peersArg += ","
		}
		peersArg += fmt.Sprintf("%d=%s", i, addr)
	}
	for _, ln := range reserved {
		ln.Close()
	}
	for i := 1; i <= n; i++ {
		site := types.SiteID(i)
		args := []string{
			"-site", fmt.Sprint(i),
			"-peers", peersArg,
			"-items", "x,y",
			"-protocol", proto,
			"-timeout-base", "100ms",
			"-metrics", "127.0.0.1:0",
		}
		if site == failpointSite {
			args = append(args, "-failpoint", "crash-before-decision")
		}
		d := &daemon{site: site, cmd: exec.Command(daemonBin, args...), out: &output{ready: make(chan string, 1)}, exited: make(chan error, 1)}
		d.cmd.Stdout = d.out
		d.cmd.Stderr = d.out
		if err := d.cmd.Start(); err != nil {
			t.Fatalf("starting site %d: %v", i, err)
		}
		go func() { d.exited <- d.cmd.Wait() }()
		c.daemons[site] = d
	}
	t.Cleanup(c.stop)
	for i := 1; i <= n; i++ {
		site := types.SiteID(i)
		d := c.daemons[site]
		select {
		case c.metrics[site] = <-d.out.ready:
		case err := <-d.exited:
			d.exited <- err // keep stop() from blocking
			t.Fatalf("site %d exited before its ready line: %v\n%s", i, err, d.out.Bytes())
		case <-time.After(10 * time.Second):
			t.Fatalf("site %d printed no ready line\n%s", i, d.out.Bytes())
		}
		c.clients[site] = c.dial(site)
	}
	return c
}

// dial connects to a site's daemon, retrying while it boots.
func (c *cluster) dial(site types.SiteID) *client.Client {
	c.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		cl, err := client.Dial(c.peers[site], site)
		if err == nil {
			return cl
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("dialing site %d at %s: %v\n%s", site, c.peers[site], err, c.daemons[site].out.Bytes())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func (c *cluster) stop() {
	for _, cl := range c.clients {
		cl.Close()
	}
	for _, d := range c.daemons {
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// awaitKill blocks until site's process has died (the failpoint fired) and
// fails the test if it is still alive after the deadline.
func (c *cluster) awaitKill(site types.SiteID, d time.Duration) {
	c.t.Helper()
	select {
	case err := <-c.daemons[site].exited:
		c.daemons[site].exited <- err // keep stop() from blocking
		c.t.Logf("site %d exited: %v", site, err)
	case <-time.After(d):
		c.t.Fatalf("site %d still alive after %v; failpoint never fired\n%s",
			site, d, c.daemons[site].out.Bytes())
	}
}

// partitionAll installs the same partition view on every surviving node.
func (c *cluster) partitionAll(groups ...[]types.SiteID) {
	c.t.Helper()
	for site, cl := range c.clients {
		if err := cl.Partition(groups...); err != nil {
			c.t.Fatalf("installing partition on site %d: %v", site, err)
		}
	}
}

// TestCoordinatorKill9 is the paper's Example made literal, over real
// sockets and real processes: the coordinator is SIGKILLed after every
// participant voted and before any decision escapes. Under QC1 the four
// survivors run the quorum-based termination protocol and all abort; under
// 2PC cooperative termination finds only uncertain peers and every survivor
// stays blocked, holding its locks.
func TestCoordinatorKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	for _, tc := range []struct {
		proto string
		want  types.Outcome
	}{
		{proto: "qc1", want: types.OutcomeAborted},
		{proto: "2pc", want: types.OutcomeBlocked},
	} {
		t.Run(tc.proto, func(t *testing.T) {
			t.Parallel()
			c := startCluster(t, 5, tc.proto, 1)
			txn, err := c.clients[1].Begin(map[types.ItemID]int64{"x": 42})
			if err != nil {
				t.Fatalf("Begin at the doomed coordinator: %v", err)
			}
			c.awaitKill(1, 20*time.Second)
			// Survivors are polled concurrently: the blocked-2PC arm only
			// resolves at its deadline, by design.
			type res struct {
				site types.SiteID
				got  types.Outcome
				err  error
			}
			resCh := make(chan res, 4)
			for site := types.SiteID(2); site <= 5; site++ {
				go func(site types.SiteID) {
					got, err := c.clients[site].WaitOutcome(txn, 8*time.Second)
					resCh <- res{site, got, err}
				}(site)
			}
			for i := 0; i < 4; i++ {
				r := <-resCh
				if r.err != nil {
					t.Fatalf("WaitOutcome at site %d: %v\n%s", r.site, r.err, c.daemons[r.site].out.Bytes())
				}
				if r.got != tc.want {
					t.Errorf("%s survivor %d: outcome = %v, want %v", tc.proto, r.site, r.got, tc.want)
				}
			}
			// The aborted write must not have reached any surviving copy;
			// a blocked one must not either.
			for site := types.SiteID(2); site <= 5; site++ {
				if v, _, found, err := c.clients[site].Read("x"); err != nil || !found || v != 0 {
					t.Errorf("site %d copy of x = (%d, found=%v, err=%v), want untouched 0", site, v, found, err)
				}
			}
			if tc.proto == "qc1" {
				// The survivors' metrics must show the termination protocol:
				// every one of them reported the abort above, and at least one
				// election round ran — at whichever survivor campaigned; the
				// others may only ever have joined passively.
				vals := c.scrape(2)
				if got := metricSum(vals, "qcommit_txns_aborted_total"); got < 1 {
					t.Errorf("survivor aborted_total = %v, want >= 1", got)
				}
				rounds := 0.0
				for site := types.SiteID(2); site <= 5; site++ {
					rounds += metricSum(c.scrape(site), "qcommit_term_rounds_total")
				}
				if rounds < 1 {
					t.Errorf("term_rounds_total over the survivors = %v, want >= 1 (termination protocol ran)", rounds)
				}
				if got := metricSum(vals, "qcommit_net_frames_total"); got == 0 {
					t.Error("survivor exchanged no frames according to /metrics")
				}
			}
		})
	}
}

// TestPartition drives a real multi-process partition through the control
// protocol. With every copy a participant, the unanimous vote phase cannot
// complete across the cut, so coordinators on both sides time out and abort
// — the point is that they *terminate* (abort is a safe pre-decision: no
// PREPARE-TO-COMMIT ever escaped) instead of wedging, and after the harness
// heals every node's view the cluster commits across all five sites again.
func TestPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e")
	}
	t.Parallel()
	c := startCluster(t, 5, "qc1", 0)
	c.partitionAll([]types.SiteID{1, 2}, []types.SiteID{3, 4, 5})

	minTxn, err := c.clients[1].Begin(map[types.ItemID]int64{"x": 99})
	if err != nil {
		t.Fatal(err)
	}
	majTxn, err := c.clients[3].Begin(map[types.ItemID]int64{"x": 7})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.clients[1].WaitOutcome(minTxn, 15*time.Second); err != nil || got != types.OutcomeAborted {
		t.Fatalf("minority coordinator: outcome = %v (err %v), want Aborted", got, err)
	}
	if got, err := c.clients[3].WaitOutcome(majTxn, 15*time.Second); err != nil || got != types.OutcomeAborted {
		t.Fatalf("majority coordinator: outcome = %v (err %v), want Aborted", got, err)
	}
	// The cut held: nothing crossed it, and nothing is blocked or locked.
	if v, _, found, err := c.clients[4].Read("x"); err != nil || !found || v != 0 {
		t.Errorf("partitioned copy of x = (%d, found=%v, err=%v), want untouched 0", v, found, err)
	}

	// Heal every node's view and show the cluster commits again everywhere.
	c.partitionAll()
	yTxn, err := c.clients[2].Begin(map[types.ItemID]int64{"y": 5})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.clients[2].WaitOutcome(yTxn, 15*time.Second); err != nil || got != types.OutcomeCommitted {
		t.Fatalf("post-heal transaction: outcome = %v (err %v), want Committed", got, err)
	}
	// The coordinator decides on a write quorum of PC-acks; remote copies
	// apply the Commit asynchronously, so the read converges rather than
	// being instant.
	for _, site := range []types.SiteID{1, 3, 5} {
		c.readEventually(site, "y", 5, 10*time.Second)
	}

	// The metrics catalogue must reflect the story the clients saw: both
	// partition-era coordinators counted their abort, the post-heal
	// coordinator counted its commit, and its commit latency histogram has
	// exactly the transactions it coordinated.
	for _, site := range []types.SiteID{1, 3} {
		if got := metricSum(c.scrape(site), "qcommit_txns_aborted_total"); got < 1 {
			t.Errorf("site %d aborted_total = %v, want >= 1", site, got)
		}
	}
	vals := c.scrape(2)
	if got := metricSum(vals, "qcommit_txns_committed_total"); got < 1 {
		t.Errorf("post-heal coordinator committed_total = %v, want >= 1", got)
	}
	if got := metricSum(vals, "qcommit_commit_ns_count"); got < 1 {
		t.Errorf("post-heal coordinator commit_ns samples = %v, want >= 1", got)
	}
}

// scrape fetches a site's /metrics endpoint and parses the Prometheus text
// into full-series values, keyed by name-with-labels.
func (c *cluster) scrape(site types.SiteID) map[string]float64 {
	c.t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", c.metrics[site]))
	if err != nil {
		c.t.Fatalf("scraping site %d: %v", site, err)
	}
	defer resp.Body.Close()
	vals := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		vals[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		c.t.Fatalf("reading site %d metrics: %v", site, err)
	}
	return vals
}

// metricSum adds up every series of base across its label sets.
func metricSum(vals map[string]float64, base string) float64 {
	var sum float64
	for name, v := range vals {
		if name == base || strings.HasPrefix(name, base+"{") {
			sum += v
		}
	}
	return sum
}

// readEventually polls site's copy of item until it holds want or the
// deadline passes.
func (c *cluster) readEventually(site types.SiteID, item types.ItemID, want int64, d time.Duration) {
	c.t.Helper()
	deadline := time.Now().Add(d)
	for {
		v, _, found, err := c.clients[site].Read(item)
		if err == nil && found && v == want {
			return
		}
		if time.Now().After(deadline) {
			c.t.Errorf("copy of %s at site %d = (%d, found=%v, err=%v), want %d", item, site, v, found, err, want)
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}
