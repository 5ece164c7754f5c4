// Command qcommitd serves ONE database site of a replicated qcommit cluster
// as a real networked process: protocol frames travel over TCP to the peer
// qcommitd processes, clients drive transactions over the same wire, and
// kill -9 is a genuine site failure. Every process of a deployment must be
// started with the same -sites/-items/-protocol configuration, since the
// weighted-voting assignment is part of the protocol contract.
//
// A three-site cluster on one machine:
//
//	qcommitd -site 1 -peers '1=:7001,2=:7002,3=:7003' -items x,y &
//	qcommitd -site 2 -peers '1=:7001,2=:7002,3=:7003' -items x,y &
//	qcommitd -site 3 -peers '1=:7001,2=:7002,3=:7003' -items x,y &
//
// Each item is replicated at every site with one vote per copy and majority
// read/write quorums. The -failpoint flag deterministically injects the
// paper's motivating failure for the e2e harness: crash-before-decision
// SIGKILLs this process the instant its coordinator is about to send the
// first decision-phase message, after every participant has voted — the
// exact window where two-phase commit blocks all survivors and the paper's
// quorum-based protocols terminate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"qcommit/internal/core"
	"qcommit/internal/live"
	"qcommit/internal/msg"
	"qcommit/internal/obs"
	"qcommit/internal/transport"
	"qcommit/internal/transport/tcp"
	"qcommit/internal/types"
	"qcommit/internal/voting"
	"qcommit/internal/wal"
)

func main() {
	var (
		site       = flag.Int("site", 0, "site ID served by this process (required)")
		peersFlag  = flag.String("peers", "", "comma-separated site=host:port map for every site, e.g. '1=127.0.0.1:7001,2=127.0.0.1:7002' (required)")
		itemsFlag  = flag.String("items", "x", "comma-separated item names, each replicated at every site with majority quorums")
		protoFlag  = flag.String("protocol", "qc1", "commit protocol: qc1, qc2, 2pc, 3pc or skeenq")
		stratFlag  = flag.String("strategy", "quorum", "data-access strategy (only 'quorum' is supported across processes)")
		timeout    = flag.Duration("timeout-base", 50*time.Millisecond, "protocol timeout unit T (must be positive)")
		waldir     = flag.String("waldir", "", "directory for the on-disk group-commit WAL qcommitd-site<N>.wal, reused across restarts for recovery; empty keeps the log in memory (lost on process exit)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables. The /metrics and /debug/txns handlers ride the same mux when -metrics is off")
		metrics    = flag.String("metrics", "", "serve Prometheus-text /metrics and the /debug/txns slow-transaction view on this address (e.g. localhost:9090, or :0 for any free port; the ready line names the bound address); empty disables the HTTP endpoint but -pprof still exposes the handlers")
		traceEvery = flag.Int("trace-sample", 16, "record a commit-path span for every Nth transaction this site coordinates (at least 1; 1 traces everything; used by /debug/txns)")
		failpoint  = flag.String("failpoint", "", "deterministic fault injection: 'crash-before-decision' SIGKILLs the process when its coordinator first sends a decision-phase message")
	)
	flag.Parse()
	if err := run(*site, *peersFlag, *itemsFlag, *protoFlag, *stratFlag, *timeout, *waldir, *pprofAddr, *metrics, *traceEvery, *failpoint); err != nil {
		fmt.Fprintln(os.Stderr, "qcommitd:", err)
		os.Exit(1)
	}
}

// openWAL opens this site's log: the in-memory log when dir is empty (the
// returned closer is then nil), else a group-commit log in dir.
func openWAL(dir string, site int) (wal.AsyncLog, func() error, error) {
	if dir == "" {
		return nil, nil, nil // NewServer defaults to a fresh MemLog
	}
	l, err := wal.OpenGroupLog(filepath.Join(dir, fmt.Sprintf("qcommitd-site%d.wal", site)))
	if err != nil {
		return nil, nil, err
	}
	return l, l.Close, nil
}

func run(site int, peersFlag, itemsFlag, protoFlag, stratFlag string, timeoutBase time.Duration, waldir, pprofAddr, metricsAddr string, traceEvery int, failpoint string) error {
	if site <= 0 {
		return fmt.Errorf("-site is required and must be positive")
	}
	if timeoutBase <= 0 {
		return fmt.Errorf("-timeout-base %v: must be positive", timeoutBase)
	}
	if traceEvery < 1 {
		return fmt.Errorf("-trace-sample %d: must be at least 1", traceEvery)
	}
	self := types.SiteID(site)
	peers, err := parsePeers(peersFlag)
	if err != nil {
		return err
	}
	listen, ok := peers[self]
	if !ok {
		return fmt.Errorf("-peers does not list site %d", site)
	}
	if stratFlag != "quorum" {
		return fmt.Errorf("strategy %q: only 'quorum' works across processes (the adaptive strategies track cluster-global state this deployment shape cannot share)", stratFlag)
	}
	sites := make([]types.SiteID, 0, len(peers))
	for s := range peers {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	asgn, err := buildAssignment(itemsFlag, sites)
	if err != nil {
		return err
	}
	spec, err := core.ByName(protoFlag, sites)
	if err != nil {
		return err
	}

	log, closeWAL, err := openWAL(waldir, site)
	if err != nil {
		return err
	}
	if closeWAL != nil {
		defer closeWAL()
	}

	// The observer is always built: its registry backs /metrics on both the
	// -metrics and -pprof muxes, and the span recorder backs /debug/txns.
	// The hooks are nil-safe throughout, so a deployment that never scrapes
	// pays one atomic per recording; the seed ties the sampling phase to the
	// site so multi-site traces do not all sample the same ordinals.
	ob := &obs.Observer{
		Registry: obs.NewRegistry(),
		Spans:    obs.NewSpans(traceEvery, 256, int64(site)),
	}
	// DefaultServeMux also carries the net/http/pprof handlers, so -pprof
	// alone exposes the full observability surface. Both addresses are bound
	// here, before the ready line: a taken port is a startup error, not a
	// daemon that serves on without the endpoints it was asked for.
	http.HandleFunc("/metrics", metricsHandler(ob))
	http.HandleFunc("/debug/txns", txnsHandler(ob))
	if pprofAddr != "" {
		ln, err := net.Listen("tcp", pprofAddr)
		if err != nil {
			return fmt.Errorf("-pprof: %w", err)
		}
		go func() {
			if err := http.Serve(ln, nil); err != nil {
				fmt.Fprintln(os.Stderr, "qcommitd: pprof:", err)
			}
		}()
	}
	var metricsSrv *http.Server
	var metricsLn net.Listener
	if metricsAddr != "" {
		if metricsLn, err = net.Listen("tcp", metricsAddr); err != nil {
			return fmt.Errorf("-metrics: %w", err)
		}
		metricsSrv = &http.Server{Handler: http.DefaultServeMux}
		go func() {
			if err := metricsSrv.Serve(metricsLn); err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "qcommitd: metrics:", err)
			}
		}()
	}

	ep, err := tcp.New(self, listen, peers, tcp.Options{})
	if err != nil {
		return err
	}
	ep.RegisterMetrics(ob.Reg())
	var tr transport.Transport = ep
	if failpoint != "" {
		if failpoint != "crash-before-decision" {
			return fmt.Errorf("unknown failpoint %q", failpoint)
		}
		tr = &crashBeforeDecision{Transport: ep}
	}

	// The client handler needs the server, which needs the bound transport;
	// the pointer closes the loop. Frames racing the startup window see nil
	// and are dropped — clients connect after the ready line below.
	var srv atomic.Pointer[live.Server]
	ep.BindClient(func(env msg.Envelope, reply func(msg.Message) error) {
		if s := srv.Load(); s != nil {
			handleClient(s, ep, env, reply)
		}
	})
	s, err := live.NewServer(self, live.ServerConfig{
		Assignment:  asgn,
		Spec:        spec,
		TimeoutBase: timeoutBase,
		WAL:         log,
		Obs:         ob,
	}, tr)
	if err != nil {
		return err
	}
	srv.Store(s)
	ready := fmt.Sprintf("qcommitd: site %d serving %s on %s (%d sites, T=%v)",
		site, protoFlag, ep.Addr(), len(sites), timeoutBase)
	if metricsLn != nil {
		ready += "; metrics on " + metricsLn.Addr().String()
	}
	fmt.Println(ready)

	// Graceful shutdown: stop accepting new work first (the client handler
	// sheds requests once the server pointer is cleared), then stop the node
	// — which drains its flusher and closes the transport — then flush and
	// close the WAL, and finally let the metrics listener finish in-flight
	// scrapes. Second signal exits immediately.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("qcommitd: site %d shutting down\n", site)
	srv.Store(nil)
	done := make(chan struct{})
	go func() {
		s.Stop()
		if closeWAL != nil {
			closeWAL()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-sig:
		return fmt.Errorf("forced exit on second signal")
	}
	if metricsSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		metricsSrv.Shutdown(ctx)
	}
	return nil
}

// metricsHandler serves the registry in Prometheus text exposition format.
func metricsHandler(ob *obs.Observer) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		ob.Reg().WritePrometheus(w)
	}
}

// txnsHandler serves the recent sampled commit-path spans as JSON, slowest
// first — the "why was that transaction slow" view. ?n= bounds the count
// (default 32).
func txnsHandler(ob *obs.Observer) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		n := 32
		if v, err := strconv.Atoi(r.URL.Query().Get("n")); err == nil && v > 0 {
			n = v
		}
		started, finished := ob.Spanner().Stats()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Started  uint64     `json:"spans_started"`
			Finished uint64     `json:"spans_finished"`
			Slowest  []obs.Span `json:"slowest"`
		}{started, finished, ob.Spanner().Slowest(n)})
	}
}

// handleClient serves one client request. ClientWait blocks for up to the
// request's own deadline, so it answers from a goroutine; the connection
// reply path is safe from any goroutine.
func handleClient(s *live.Server, ep *tcp.Endpoint, env msg.Envelope, reply func(msg.Message) error) {
	switch m := env.Msg.(type) {
	case msg.ClientBegin:
		txn := s.Begin(m.Writeset)
		reply(msg.ClientBeginAck{Req: m.Req, Txn: txn})
	case msg.ClientWait:
		go func() {
			o := s.WaitOutcome(m.Txn, m.Timeout)
			reply(msg.ClientOutcome{Req: m.Req, Txn: m.Txn, Outcome: o})
		}()
	case msg.ClientRead:
		v, ver, ok := s.ReadItem(m.Item)
		reply(msg.ClientValue{Req: m.Req, Item: m.Item, Value: v, Version: ver, Found: ok})
	case msg.CtrlPartition:
		if len(m.Groups) == 0 {
			ep.Heal()
		} else {
			ep.Partition(m.Groups...)
		}
		reply(msg.CtrlAck{Req: m.Req})
	}
}

// parsePeers parses '1=host:port,2=host:port,...'. It refuses a site listed
// twice and an empty address.
func parsePeers(s string) (map[types.SiteID]string, error) {
	if s == "" {
		return nil, fmt.Errorf("-peers is required")
	}
	peers := make(map[types.SiteID]string)
	for _, part := range strings.Split(s, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("-peers entry %q is not site=addr", part)
		}
		n, err := strconv.Atoi(id)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("-peers entry %q: bad site ID", part)
		}
		if strings.TrimSpace(addr) == "" {
			return nil, fmt.Errorf("-peers entry %q: empty address", part)
		}
		if _, dup := peers[types.SiteID(n)]; dup {
			return nil, fmt.Errorf("-peers lists site %d twice", n)
		}
		peers[types.SiteID(n)] = addr
	}
	return peers, nil
}

// buildAssignment replicates every named item at every site, one vote per
// copy, majority read/write quorums.
func buildAssignment(itemsFlag string, sites []types.SiteID) (*voting.Assignment, error) {
	var configs []voting.ItemConfig
	for _, name := range strings.Split(itemsFlag, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		copies := make([]voting.Copy, len(sites))
		for i, s := range sites {
			copies[i] = voting.Copy{Site: s, Votes: 1}
		}
		w := len(sites)/2 + 1
		r := len(sites) + 1 - w
		configs = append(configs, voting.ItemConfig{Item: types.ItemID(name), Copies: copies, R: r, W: w})
	}
	if len(configs) == 0 {
		return nil, fmt.Errorf("-items names no items")
	}
	return voting.NewAssignment(configs...)
}

// crashBeforeDecision SIGKILLs the process the moment the hosted coordinator
// tries to send its first decision-phase message. Coordinators only reach
// that point after collecting every vote, so the kill lands in the exact
// window the paper studies: all participants are prepared and none has heard
// a decision. kill(2) with SIGKILL means no deferred cleanup, no WAL flush
// ordering tricks — the process is simply gone, as in a power failure.
type crashBeforeDecision struct {
	transport.Transport
}

func (t *crashBeforeDecision) Send(env msg.Envelope) {
	switch env.Msg.Kind() {
	case msg.KindPrepareToCommit, msg.KindPrepareToAbort, msg.KindCommit, msg.KindAbort:
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
		select {} // unreachable: SIGKILL cannot be handled
	}
	t.Transport.Send(env)
}
