package transport_test

// Conformance suite: every transport.Transport implementation must route,
// filter and shed identically — the protocols' correctness arguments lean on
// these semantics, not on any one fabric's internals. Each test runs against
// the inproc fabric and a tcp.Fabric over real loopback sockets.

import (
	"sync"
	"testing"
	"time"

	"qcommit/internal/msg"
	"qcommit/internal/transport"
	"qcommit/internal/transport/inproc"
	"qcommit/internal/transport/tcp"
	"qcommit/internal/types"
)

var sites = []types.SiteID{1, 2, 3}

// fabrics enumerates the implementations under test.
func fabrics(t *testing.T) map[string]transport.Transport {
	tcpFab, err := tcp.NewFabric(sites, tcp.Options{})
	if err != nil {
		t.Fatalf("tcp fabric: %v", err)
	}
	return map[string]transport.Transport{
		"inproc": inproc.New(inproc.Options{MaxDelay: time.Millisecond, Seed: 1}),
		"tcp":    tcpFab,
	}
}

// collector buffers deliveries and wakes waiters.
type collector struct {
	mu   sync.Mutex
	got  []msg.Envelope
	cond *sync.Cond
}

func newCollector() *collector {
	c := &collector{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *collector) handle(env msg.Envelope) {
	c.mu.Lock()
	c.got = append(c.got, env)
	c.cond.Broadcast()
	c.mu.Unlock()
}

// waitN blocks until n envelopes arrived or the deadline passed, returning a
// snapshot.
func (c *collector) waitN(n int, d time.Duration) []msg.Envelope {
	deadline := time.Now().Add(d)
	timer := time.AfterFunc(d, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer timer.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.got) < n && time.Now().Before(deadline) {
		c.cond.Wait()
	}
	return append([]msg.Envelope(nil), c.got...)
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func send(tr transport.Transport, from, to types.SiteID, txn types.TxnID) {
	tr.Send(msg.Envelope{From: from, To: to, Msg: msg.Commit{Txn: txn}})
}

func TestConformanceDelivery(t *testing.T) {
	for name, tr := range fabrics(t) {
		t.Run(name, func(t *testing.T) {
			defer tr.Close()
			c := newCollector()
			tr.Bind(c.handle)
			send(tr, 1, 2, 7)
			got := c.waitN(1, 5*time.Second)
			if len(got) != 1 {
				t.Fatalf("delivered %d envelopes, want 1", len(got))
			}
			if got[0].From != 1 || got[0].To != 2 {
				t.Errorf("routing = %v->%v, want 1->2", got[0].From, got[0].To)
			}
			if m, ok := got[0].Msg.(msg.Commit); !ok || m.Txn != 7 {
				t.Errorf("payload = %#v, want Commit{Txn:7}", got[0].Msg)
			}
		})
	}
}

func TestConformancePartitionCutsAndHealRestores(t *testing.T) {
	for name, tr := range fabrics(t) {
		t.Run(name, func(t *testing.T) {
			defer tr.Close()
			c := newCollector()
			tr.Bind(c.handle)
			tr.Partition([]types.SiteID{1}, []types.SiteID{2, 3})
			if tr.Connected(1, 2) {
				t.Error("Connected(1,2) across a partition")
			}
			if !tr.Connected(2, 3) {
				t.Error("!Connected(2,3) within a group")
			}
			send(tr, 1, 2, 1) // must be cut
			send(tr, 3, 2, 2) // same group: must arrive
			got := c.waitN(1, 5*time.Second)
			if len(got) != 1 || msg.TxnOf(got[0].Msg) != 2 {
				t.Fatalf("partitioned delivery = %v, want only txn 2", got)
			}
			tr.Heal()
			if !tr.Connected(1, 2) {
				t.Error("!Connected(1,2) after Heal")
			}
			send(tr, 1, 2, 3)
			got = c.waitN(2, 5*time.Second)
			if len(got) != 2 || msg.TxnOf(got[1].Msg) != 3 {
				t.Fatalf("post-heal delivery = %v, want txn 3 appended", got)
			}
		})
	}
}

func TestConformanceCrashShedsBothDirections(t *testing.T) {
	for name, tr := range fabrics(t) {
		t.Run(name, func(t *testing.T) {
			defer tr.Close()
			c := newCollector()
			tr.Bind(c.handle)
			tr.Crash(2)
			if !tr.Down(2) || tr.Down(1) {
				t.Errorf("Down view = {1:%v 2:%v}, want {false true}", tr.Down(1), tr.Down(2))
			}
			send(tr, 1, 2, 1) // to a crashed site
			send(tr, 2, 1, 2) // from a crashed site
			send(tr, 3, 1, 3) // bystanders still talk
			got := c.waitN(1, 5*time.Second)
			if len(got) != 1 || msg.TxnOf(got[0].Msg) != 3 {
				t.Fatalf("post-crash delivery = %v, want only txn 3", got)
			}
			tr.Restart(2)
			send(tr, 1, 2, 4)
			got = c.waitN(2, 5*time.Second)
			if len(got) != 2 || msg.TxnOf(got[1].Msg) != 4 {
				t.Fatalf("post-restart delivery = %v, want txn 4 appended", got)
			}
		})
	}
}

// localOnly is an internal control message (KindInvalid): no transport may
// ever deliver one.
type localOnly struct{}

func (localOnly) Kind() msg.Kind { return msg.KindInvalid }

func TestConformanceControlMessagesStayLocal(t *testing.T) {
	for name, tr := range fabrics(t) {
		t.Run(name, func(t *testing.T) {
			defer tr.Close()
			c := newCollector()
			tr.Bind(c.handle)
			tr.Send(msg.Envelope{From: 1, To: 2, Msg: localOnly{}})
			send(tr, 1, 2, 9) // marker: anything before it would have arrived
			got := c.waitN(1, 5*time.Second)
			if len(got) != 1 || msg.TxnOf(got[0].Msg) != 9 {
				t.Fatalf("delivered %v, want only the txn-9 marker", got)
			}
		})
	}
}

func TestConformanceConcurrentSend(t *testing.T) {
	const senders, per = 8, 50
	for name, tr := range fabrics(t) {
		t.Run(name, func(t *testing.T) {
			defer tr.Close()
			c := newCollector()
			tr.Bind(c.handle)
			var wg sync.WaitGroup
			for g := 0; g < senders; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					from := sites[g%len(sites)]
					to := sites[(g+1)%len(sites)]
					for i := 0; i < per; i++ {
						send(tr, from, to, types.TxnID(g*per+i+1))
					}
				}(g)
			}
			wg.Wait()
			got := c.waitN(senders*per, 10*time.Second)
			if len(got) != senders*per {
				t.Fatalf("delivered %d envelopes, want %d", len(got), senders*per)
			}
		})
	}
}

func TestConformanceCloseShedsSends(t *testing.T) {
	for name, tr := range fabrics(t) {
		t.Run(name, func(t *testing.T) {
			c := newCollector()
			tr.Bind(c.handle)
			if err := tr.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			send(tr, 1, 2, 1)
			time.Sleep(50 * time.Millisecond)
			if n := c.count(); n != 0 {
				t.Errorf("%d envelopes delivered after Close", n)
			}
		})
	}
}

// TestTCPWriteCoalescing pins the write batching contract — each batch is
// one write of a contiguous buffer: every frame delivered was counted, each
// batch carried at least one frame (batches <= frames), and nothing was
// shed under an idle queue.
func TestTCPWriteCoalescing(t *testing.T) {
	fab, err := tcp.NewFabric(sites, tcp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	c := newCollector()
	fab.Bind(c.handle)
	const burst = 200
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			send(fab, 1, 2, types.TxnID(i+1))
		}(i)
	}
	wg.Wait()
	if got := c.waitN(burst, 5*time.Second); len(got) != burst {
		t.Fatalf("delivered %d of %d frames", len(got), burst)
	}
	// A writer counts its batch after the write returns, so the counters
	// can trail the receiver by one batch.
	deadline := time.Now().Add(5 * time.Second)
	for fab.WriteStats().Frames < burst && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s := fab.WriteStats()
	if s.Frames != burst {
		t.Errorf("stats count %d frames, want %d", s.Frames, burst)
	}
	if s.Batches == 0 || s.Batches > s.Frames {
		t.Errorf("batches = %d with %d frames: want 0 < batches <= frames", s.Batches, s.Frames)
	}
	if s.Shed != 0 {
		t.Errorf("shed %d frames under an idle queue", s.Shed)
	}
	t.Logf("coalescing: %d frames in %d batches (%.1f frames/batch)",
		s.Frames, s.Batches, float64(s.Frames)/float64(s.Batches))
}
