// Package tcp is the real-socket transport: length-prefixed internal/msg
// frames over persistent TCP connections, with dial-on-demand, reconnect
// backoff, and a bounded write queue per peer. One Endpoint serves one site —
// the shape the qcommitd node binary deploys — and a Fabric bundles one
// endpoint per site for single-process clusters and conformance tests.
//
// Failure semantics: Send is best-effort. A message is dropped when the
// local topology view says the route is cut (crash/partition), when the
// peer's write queue is full, or when the connection dies mid-write; the
// commit protocols recover through their timeout machinery, exactly as they
// do under the simulated fabric. Inbound frames are filtered by the same
// local topology view, so a partition installed on every node of a cluster
// cuts traffic in both directions even if one side's view lags.
package tcp

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"qcommit/internal/msg"
	"qcommit/internal/obs"
	"qcommit/internal/transport"
	"qcommit/internal/types"
)

// Options tunes an endpoint.
type Options struct {
	// QueueLen caps buffered outbound frames per peer (default 1024).
	QueueLen int
	// DialTimeout bounds one connection attempt (default 1s).
	DialTimeout time.Duration
	// BackoffMin/BackoffMax bound the reconnect backoff between failed
	// dials (defaults 10ms and 500ms).
	BackoffMin, BackoffMax time.Duration
}

func (o Options) withDefaults() Options {
	if o.QueueLen <= 0 {
		o.QueueLen = 1024
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = time.Second
	}
	if o.BackoffMin <= 0 {
		o.BackoffMin = 10 * time.Millisecond
	}
	if o.BackoffMax < o.BackoffMin {
		o.BackoffMax = 500 * time.Millisecond
	}
	return o
}

// Endpoint is one site's socket endpoint.
type Endpoint struct {
	transport.Topology

	self types.SiteID
	opts Options
	ln   net.Listener
	done chan struct{}

	mu      sync.Mutex
	addrs   map[types.SiteID]string
	h       transport.Handler
	clientH ClientHandler
	peers   map[types.SiteID]*peer
	conns   map[net.Conn]bool
	closed  bool

	frames  atomic.Uint64
	batches atomic.Uint64
	shed    atomic.Uint64

	// met holds the optional observability handles; loaded atomically so the
	// Send fast path never takes e.mu. Nil means recording is off and costs
	// one atomic load.
	met atomic.Pointer[epMetrics]

	wg sync.WaitGroup
}

// epMetrics is the endpoint's handle set: the enqueue→write latency per
// frame and the number of frames sitting in peer queues right now.
type epMetrics struct {
	enqToWrite *obs.Histogram
	queueDepth *obs.Gauge
}

// RegisterMetrics publishes the endpoint's outbound counters on reg under
// canonical qcommit_net_* names labelled by site, and turns on per-frame
// enqueue→write latency and queue-depth tracking. A nil registry is a
// no-op; without it the endpoint records nothing beyond the atomic counters
// it always kept.
func (e *Endpoint) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	site := e.self
	reg.RegisterCounterFunc(fmt.Sprintf(`qcommit_net_frames_total{site="%d"}`, site), e.frames.Load)
	reg.RegisterCounterFunc(fmt.Sprintf(`qcommit_net_batches_total{site="%d"}`, site), e.batches.Load)
	reg.RegisterCounterFunc(fmt.Sprintf(`qcommit_net_shed_total{site="%d"}`, site), e.shed.Load)
	e.met.Store(&epMetrics{
		enqToWrite: reg.Histogram(fmt.Sprintf(`qcommit_net_enqueue_to_write_ns{site="%d"}`, site), obs.LatencyBounds()),
		queueDepth: reg.Gauge(fmt.Sprintf(`qcommit_net_queue_depth{site="%d"}`, site)),
	})
}

// WriteStats counts outbound write activity on an endpoint. Frames/Batches
// is the average coalescing factor: how many frames each write call
// carried.
type WriteStats struct {
	// Frames handed to the kernel.
	Frames uint64
	// Batches is the number of write calls — one per batch, each carrying
	// its frames as one contiguous buffer.
	Batches uint64
	// Shed counts frames dropped at a full peer queue.
	Shed uint64
}

// WriteStats returns a snapshot of the endpoint's outbound counters.
func (e *Endpoint) WriteStats() WriteStats {
	return WriteStats{
		Frames:  e.frames.Load(),
		Batches: e.batches.Load(),
		Shed:    e.shed.Load(),
	}
}

// ClientHandler receives one client-link request (Envelope.From ==
// transport.ClientID) together with a reply function bound to the inbound
// connection. reply is safe to call from any goroutine; the handler itself
// runs on the connection's read goroutine and must not block.
type ClientHandler func(env msg.Envelope, reply func(m msg.Message) error)

var _ transport.Transport = (*Endpoint)(nil)

// peer is the outbound side of one link: a bounded queue of stream frames
// drained by a writer goroutine that dials on demand and redials with
// backoff. The queue is one contiguous byte stream under a mutex: Send
// marshals into scratch and frames it onto the end of buf, and the writer
// claims the whole stream in one step, swapping in the buffer it wrote
// last, so a warm link queues and writes without allocating.
type peer struct {
	mu      sync.Mutex
	addr    string // where the writer dials; SetPeers may move it
	cond    *sync.Cond
	buf     []byte  // queued stream frames, back to back
	frames  int     // frames in buf; the queue bound counts these
	scratch []byte  // Send's marshal buffer, reused under mu
	stamps  []int64 // enqueue times (ns) backing enqToWrite; only fed while metrics are on
	closed  bool
}

// New builds an endpoint for site self listening on listen (empty means an
// ephemeral loopback port; read it back with Addr). peers maps every site to
// its peer address and may be nil if SetPeers is called before Bind.
func New(self types.SiteID, listen string, peers map[types.SiteID]string, opts Options) (*Endpoint, error) {
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("tcp: site%d listen %s: %w", self, listen, err)
	}
	e := &Endpoint{
		self:  self,
		opts:  opts.withDefaults(),
		ln:    ln,
		done:  make(chan struct{}),
		addrs: make(map[types.SiteID]string),
		peers: make(map[types.SiteID]*peer),
		conns: make(map[net.Conn]bool),
	}
	for id, a := range peers {
		e.addrs[id] = a
	}
	return e, nil
}

// Addr returns the listener's actual address.
func (e *Endpoint) Addr() string { return e.ln.Addr().String() }

// Self returns the hosted site.
func (e *Endpoint) Self() types.SiteID { return e.self }

// SetPeers installs the peer address map: before Bind when the addresses
// were not known at construction (ephemeral-port fabrics), or later to move
// a peer that restarted elsewhere. A moved peer's writer drops its link and
// dials the new address before its next write.
func (e *Endpoint) SetPeers(addrs map[types.SiteID]string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for id, a := range addrs {
		e.addrs[id] = a
		if p := e.peers[id]; p != nil {
			p.mu.Lock()
			p.addr = a
			p.mu.Unlock()
		}
	}
}

// BindClient installs the client-link handler; call before Bind. Without
// one, client frames are dropped (peer-only endpoints).
func (e *Endpoint) BindClient(h ClientHandler) {
	e.mu.Lock()
	e.clientH = h
	e.mu.Unlock()
}

// Bind implements transport.Transport: installs the delivery callback and
// starts accepting inbound connections.
func (e *Endpoint) Bind(h transport.Handler) {
	e.mu.Lock()
	e.h = h
	e.mu.Unlock()
	e.wg.Add(1)
	go e.acceptLoop()
}

func (e *Endpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			conn.Close()
			return
		}
		e.conns[conn] = true
		e.mu.Unlock()
		e.wg.Add(1)
		go e.readLoop(conn)
	}
}

func (e *Endpoint) readLoop(conn net.Conn) {
	defer e.wg.Done()
	defer func() {
		conn.Close()
		e.mu.Lock()
		delete(e.conns, conn)
		e.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	var wmu sync.Mutex // serializes replies on this client connection
	reply := func(m msg.Message) error {
		wmu.Lock()
		defer wmu.Unlock()
		return msg.WriteEnvelope(conn, msg.Envelope{From: e.self, To: transport.ClientID, Msg: m})
	}
	for {
		env, err := msg.ReadEnvelope(br)
		if err != nil {
			return
		}
		if env.To != e.self {
			continue // misrouted frame
		}
		if env.From == transport.ClientID {
			// Client link: bypasses the site topology filters (see
			// transport.ClientID) and answers over this connection.
			e.mu.Lock()
			ch := e.clientH
			e.mu.Unlock()
			if ch != nil {
				ch(env, reply)
			}
			continue
		}
		if !e.Connected(env.From, e.self) {
			continue // partitioned or crashed in the local view
		}
		e.mu.Lock()
		h := e.h
		e.mu.Unlock()
		if h != nil {
			h(env)
		}
	}
}

// Send implements transport.Transport. A message that does not marshal
// (a control message, KindInvalid) is dropped on every path: it stays
// local by construction.
func (e *Endpoint) Send(env msg.Envelope) {
	if !e.Connected(env.From, env.To) {
		return
	}
	if env.To == e.self {
		// Loopback: decode the wire bytes back, proving the same
		// serialization boundary the remote path crosses.
		frame, err := msg.Marshal(env.Msg)
		if err != nil {
			return
		}
		decoded, err := msg.Unmarshal(frame)
		if err != nil {
			return
		}
		e.mu.Lock()
		h, closed := e.h, e.closed
		e.mu.Unlock()
		if h != nil && !closed {
			h(msg.Envelope{From: env.From, To: env.To, Msg: decoded})
		}
		return
	}
	p := e.peer(env.To)
	if p == nil {
		return
	}
	met := e.met.Load()
	p.mu.Lock()
	frame, err := msg.AppendMarshal(p.scratch[:0], env.Msg)
	if err != nil {
		p.mu.Unlock()
		return
	}
	p.scratch = frame
	if p.closed || p.frames >= e.opts.QueueLen {
		p.mu.Unlock()
		// Queue full: shed. The protocols' timeout machinery recovers.
		e.shed.Add(1)
		return
	}
	p.buf = msg.AppendFrame(p.buf, env.From, env.To, frame)
	p.frames++
	if met != nil {
		p.stamps = append(p.stamps, time.Now().UnixNano())
		met.queueDepth.Add(1)
	}
	p.mu.Unlock()
	p.cond.Signal()
}

// peer returns (lazily creating) the outbound link to site id.
func (e *Endpoint) peer(id types.SiteID) *peer {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	if p, ok := e.peers[id]; ok {
		return p
	}
	addr, ok := e.addrs[id]
	if !ok {
		return nil
	}
	p := &peer{addr: addr}
	p.cond = sync.NewCond(&p.mu)
	e.peers[id] = p
	e.wg.Add(1)
	go e.writeLoop(p)
	return p
}

// link is the writer's dialled connection to one peer.
type link struct {
	conn net.Conn
	addr string
	// gone is closed once a read on conn returns. A peer never writes on
	// a link it accepted, so a returning read means the peer closed it:
	// a restarted peer's old process is gone, and a write would land in
	// the dead connection's socket buffer with nothing to read it.
	gone chan struct{}
}

// watch blocks in a read on l's connection until it fails, then closes
// l.gone. It costs one parked goroutine per link and nothing per frame.
func (e *Endpoint) watch(l *link) {
	defer e.wg.Done()
	var b [64]byte
	for {
		if _, err := l.conn.Read(b[:]); err != nil {
			close(l.gone)
			return
		}
	}
}

// usable reports whether l can carry the next batch to addr: its peer
// has neither hung up nor moved.
func (l *link) usable(addr string) bool {
	select {
	case <-l.gone:
		return false
	default:
		return l.addr == addr
	}
}

// writeLoop drains one peer's queue: dial on demand, claim the whole queued
// stream in one step — swapping in the buffers the previous batch used —
// and write it with one Write call, then redial with exponential backoff
// after failures. Frames queued while a batch is in flight form the next
// batch, so coalescing deepens exactly when the link is the bottleneck.
// A link whose peer hung up or moved is replaced before the write, so a
// restarted peer gets the frames queued for it.
func (e *Endpoint) writeLoop(p *peer) {
	defer e.wg.Done()
	var l *link
	defer func() {
		if l != nil {
			l.conn.Close()
		}
	}()
	var spare []byte
	var spareStamps []int64
	backoff := e.opts.BackoffMin
	for {
		p.mu.Lock()
		for p.frames == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		batch, frames, stamps, addr := p.buf, p.frames, p.stamps, p.addr
		p.buf, p.frames, p.stamps = spare[:0], 0, spareStamps[:0]
		p.mu.Unlock()
		spare, spareStamps = batch, stamps
		if met := e.met.Load(); met != nil {
			met.queueDepth.Add(-int64(len(stamps)))
		}
		if l != nil && !l.usable(addr) {
			l.conn.Close()
			l = nil
		}
		for l == nil {
			c, err := net.DialTimeout("tcp", addr, e.opts.DialTimeout)
			if err != nil {
				select {
				case <-e.done:
					return
				case <-time.After(backoff):
				}
				if backoff *= 2; backoff > e.opts.BackoffMax {
					backoff = e.opts.BackoffMax
				}
				continue
			}
			l = &link{conn: c, addr: addr, gone: make(chan struct{})}
			e.wg.Add(1)
			go e.watch(l)
			backoff = e.opts.BackoffMin
		}
		if _, err := l.conn.Write(batch); err != nil {
			l.conn.Close()
			l = nil // batch dropped; redial on the next frame
			continue
		}
		e.frames.Add(uint64(frames))
		e.batches.Add(1)
		if met := e.met.Load(); met != nil && len(stamps) > 0 {
			now := time.Now().UnixNano()
			for _, t0 := range stamps {
				met.enqToWrite.ObserveNS(now - t0)
			}
		}
	}
}

// Close implements transport.Transport.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.done)
	conns := make([]net.Conn, 0, len(e.conns))
	for c := range e.conns {
		conns = append(conns, c)
	}
	peers := make([]*peer, 0, len(e.peers))
	for _, p := range e.peers {
		peers = append(peers, p)
	}
	e.mu.Unlock()
	for _, p := range peers {
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		p.cond.Broadcast()
	}
	err := e.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	e.wg.Wait()
	return err
}

// Fabric bundles one endpoint per site in a single process, so a live
// cluster (or a conformance test) can run every site over real loopback
// sockets. It implements transport.Transport by routing Send through the
// sender's endpoint and applying every control to all endpoints, keeping
// their local topology views consistent.
type Fabric struct {
	order []types.SiteID
	eps   map[types.SiteID]*Endpoint
}

var _ transport.Transport = (*Fabric)(nil)

// NewFabric builds endpoints for the given sites on ephemeral loopback
// ports and cross-wires their peer address maps.
func NewFabric(sites []types.SiteID, opts Options) (*Fabric, error) {
	f := &Fabric{eps: make(map[types.SiteID]*Endpoint, len(sites))}
	addrs := make(map[types.SiteID]string, len(sites))
	for _, s := range sites {
		ep, err := New(s, "", nil, opts)
		if err != nil {
			f.Close()
			return nil, err
		}
		f.eps[s] = ep
		f.order = append(f.order, s)
		addrs[s] = ep.Addr()
	}
	for _, ep := range f.eps {
		ep.SetPeers(addrs)
	}
	return f, nil
}

// WriteStats sums the outbound counters of every endpoint in the fabric.
func (f *Fabric) WriteStats() WriteStats {
	var total WriteStats
	for _, ep := range f.eps {
		s := ep.WriteStats()
		total.Frames += s.Frames
		total.Batches += s.Batches
		total.Shed += s.Shed
	}
	return total
}

// RegisterMetrics publishes every endpoint's outbound counters and latency
// histograms on reg (each labelled by its own site).
func (f *Fabric) RegisterMetrics(reg *obs.Registry) {
	for _, ep := range f.eps {
		ep.RegisterMetrics(reg)
	}
}

// Addrs returns each site's listen address.
func (f *Fabric) Addrs() map[types.SiteID]string {
	out := make(map[types.SiteID]string, len(f.eps))
	for s, ep := range f.eps {
		out[s] = ep.Addr()
	}
	return out
}

// Bind implements transport.Transport.
func (f *Fabric) Bind(h transport.Handler) {
	for _, ep := range f.eps {
		ep.Bind(h)
	}
}

// Send implements transport.Transport.
func (f *Fabric) Send(env msg.Envelope) {
	if ep := f.eps[env.From]; ep != nil {
		ep.Send(env)
	}
}

// Crash implements transport.Transport.
func (f *Fabric) Crash(id types.SiteID) {
	for _, ep := range f.eps {
		ep.Crash(id)
	}
}

// Restart implements transport.Transport.
func (f *Fabric) Restart(id types.SiteID) {
	for _, ep := range f.eps {
		ep.Restart(id)
	}
}

// Partition implements transport.Transport.
func (f *Fabric) Partition(groups ...[]types.SiteID) {
	for _, ep := range f.eps {
		ep.Partition(groups...)
	}
}

// Heal implements transport.Transport.
func (f *Fabric) Heal() {
	for _, ep := range f.eps {
		ep.Heal()
	}
}

// Connected implements transport.Transport (all endpoints share one view).
func (f *Fabric) Connected(a, b types.SiteID) bool {
	if len(f.order) == 0 {
		return false
	}
	return f.eps[f.order[0]].Connected(a, b)
}

// Down implements transport.Transport.
func (f *Fabric) Down(id types.SiteID) bool {
	if len(f.order) == 0 {
		return false
	}
	return f.eps[f.order[0]].Down(id)
}

// Close implements transport.Transport.
func (f *Fabric) Close() error {
	var first error
	for _, ep := range f.eps {
		if err := ep.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
