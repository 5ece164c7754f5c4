package wal

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"qcommit/internal/obs"
	"qcommit/internal/types"
)

// Ticket identifies one appended record in a log's total append order.
// Tickets are dense and start at 1; ticket t is durable once the log's
// durable horizon is >= t.
type Ticket uint64

// AsyncLog is a Log whose appends can be decoupled from their fsync: an
// AppendAsync buffers the record and returns immediately, and WaitDurable
// blocks until the record has been forced to stable storage. The blocking
// Append of the Log interface is exactly AppendAsync followed by
// WaitDurable.
//
// The split is what makes group commit effective on a single-goroutine
// caller such as a live site's event loop: the loop appends without
// stalling, keeps processing other transactions (whose records join the
// same pending batch), and the messages that depend on a record's
// durability are released — by whoever holds the ticket — only after
// WaitDurable returns. The force-before-send invariant is unchanged; only
// who waits for the force moves.
type AsyncLog interface {
	Log
	// AppendAsync buffers a record for the next batch and returns its
	// ticket without waiting for durability.
	AppendAsync(Record) Ticket
	// WaitDurable blocks until ticket t is durable (or the log is closed
	// or has failed, returning the error).
	WaitDurable(t Ticket) error
	// Durable returns the current durable horizon (the highest ticket
	// forced to stable storage).
	Durable() Ticket
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// GroupLog is an on-disk Log with group commit: records appended while a
// batch is being forced accumulate into the next batch, and the whole batch
// is written and fsynced in one shot. Under concurrent load this collapses
// N fsyncs into one without weakening durability — Append still returns
// only after the record is stable, and Records only ever surfaces durable
// records, so recovery can never observe a record whose Append (or whose
// ticket's WaitDurable) had not returned. A lone sequential appender gets
// one write+fsync per Append: its next record cannot arrive before the
// previous batch is forced.
type GroupLog struct {
	path string

	mu      sync.Mutex
	f       *os.File
	pending []byte   // encoded frames awaiting the next batch write
	batch   []Record // decoded records matching pending, in ticket order
	next    Ticket   // ticket of the most recently appended record
	durable Ticket   // ticket of the most recently forced record
	recs    []Record // durable records, in ticket order
	fsyncs  uint64
	err     error // first write/sync failure; sticky
	closed  bool

	// batchSizes is always on: one sample per fsync, value = records in the
	// batch. The distribution is the group-commit story in one histogram —
	// a mass at 1 means no amortization, a fat tail means the syncer is
	// keeping up with bursts.
	batchSizes *obs.Histogram
	// flushWait and syncDur are optional (nil until RegisterMetrics):
	// per-record AppendAsync→durable latency and per-batch Write+Sync
	// duration. stamps holds the append times backing flushWait; it is only
	// appended to while flushWait is installed, so records appended before
	// RegisterMetrics simply contribute no sample.
	flushWait *obs.Histogram
	syncDur   *obs.Histogram
	stamps    []int64

	work     *sync.Cond // signals the syncer: pending work or close
	forced   *sync.Cond // broadcasts durability advances to waiters
	syncDone chan struct{}
}

var _ AsyncLog = (*GroupLog)(nil)

// OpenGroupLog opens (creating if needed) the group-commit log at path,
// replaying its valid record prefix and truncating a torn tail.
func OpenGroupLog(path string) (*GroupLog, error) {
	f, recs, err := openLogFile(path)
	if err != nil {
		return nil, err
	}
	l := &GroupLog{
		path:       path,
		f:          f,
		recs:       recs,
		next:       Ticket(len(recs)),
		durable:    Ticket(len(recs)),
		batchSizes: obs.NewHistogram(obs.SizeBounds()),
		syncDone:   make(chan struct{}),
	}
	l.work = sync.NewCond(&l.mu)
	l.forced = sync.NewCond(&l.mu)
	go l.syncLoop()
	return l, nil
}

// AppendAsync implements AsyncLog.
func (l *GroupLog) AppendAsync(r Record) Ticket {
	frame := encodeRecord(r)
	// Deep-copy slices so later caller mutations cannot corrupt the
	// in-memory image (the frame already snapshots the on-disk bytes).
	r.Participants = append([]types.SiteID(nil), r.Participants...)
	r.Writeset = r.Writeset.Clone()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return l.next + 1 // never durable: WaitDurable on it reports ErrClosed
	}
	l.pending = append(l.pending, frame...)
	l.batch = append(l.batch, r)
	if l.flushWait != nil {
		l.stamps = append(l.stamps, time.Now().UnixNano())
	}
	l.next++
	t := l.next
	l.work.Signal()
	return t
}

// WaitDurable implements AsyncLog.
func (l *GroupLog) WaitDurable(t Ticket) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.durable < t && l.err == nil && !l.closed {
		l.forced.Wait()
	}
	if l.durable >= t {
		return nil
	}
	if l.err != nil {
		return l.err
	}
	return ErrClosed
}

// Durable implements AsyncLog.
func (l *GroupLog) Durable() Ticket {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// Append implements Log: durably adds the record, batching the force with
// whatever else is in flight.
func (l *GroupLog) Append(r Record) error {
	return l.WaitDurable(l.AppendAsync(r))
}

// Records implements Log, returning only durable records — a record still
// waiting on its batch's fsync is invisible, so readers (and recovery)
// never act on state that a crash could retract.
func (l *GroupLog) Records() ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Record, len(l.recs))
	copy(out, l.recs)
	return out, l.err
}

// Fsyncs returns the number of fsync calls issued — the group-commit win is
// fsyncs < appends.
func (l *GroupLog) Fsyncs() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fsyncs
}

// RegisterMetrics publishes the log's histograms and fsync counter on reg
// under canonical qcommit_wal_* names labelled by site, and turns on the
// optional per-record flush-wait and per-batch sync-duration collection.
// A nil registry is a no-op.
func (l *GroupLog) RegisterMetrics(reg *obs.Registry, site types.SiteID) {
	if reg == nil {
		return
	}
	reg.RegisterHistogram(fmt.Sprintf(`qcommit_wal_batch_records{site="%d"}`, site), l.batchSizes)
	reg.RegisterCounterFunc(fmt.Sprintf(`qcommit_wal_fsyncs_total{site="%d"}`, site), l.Fsyncs)
	fw := reg.Histogram(fmt.Sprintf(`qcommit_wal_flush_wait_ns{site="%d"}`, site), obs.LatencyBounds())
	sd := reg.Histogram(fmt.Sprintf(`qcommit_wal_sync_ns{site="%d"}`, site), obs.LatencyBounds())
	l.mu.Lock()
	l.flushWait = fw
	l.syncDur = sd
	l.mu.Unlock()
}

// Path returns the file path.
func (l *GroupLog) Path() string { return l.path }

// syncLoop is the single syncer goroutine: it claims everything pending,
// writes it in one Write call, forces it with one fsync, then publishes the
// new durable horizon. Appends landing during the force simply form the
// next batch — the classic group-commit cadence, self-clocked by fsync
// latency.
func (l *GroupLog) syncLoop() {
	defer close(l.syncDone)
	l.mu.Lock()
	for {
		for len(l.pending) == 0 && !l.closed {
			l.work.Wait()
		}
		if len(l.pending) == 0 && l.closed {
			l.mu.Unlock()
			return
		}
		buf, recs, stamps := l.pending, l.batch, l.stamps
		l.pending, l.batch, l.stamps = nil, nil, nil
		target := l.next
		syncDur := l.syncDur
		l.mu.Unlock()

		var s0 int64
		if syncDur != nil {
			s0 = time.Now().UnixNano()
		}
		_, werr := l.f.Write(buf)
		if werr == nil {
			werr = l.f.Sync()
		}
		if syncDur != nil {
			syncDur.ObserveNS(time.Now().UnixNano() - s0)
		}
		l.batchSizes.Observe(float64(len(recs)))

		l.mu.Lock()
		l.fsyncs++
		if werr != nil {
			if l.err == nil {
				l.err = werr
			}
		} else {
			l.durable = target
			l.recs = append(l.recs, recs...)
			if fw := l.flushWait; fw != nil && len(stamps) > 0 {
				now := time.Now().UnixNano()
				for _, t0 := range stamps {
					fw.ObserveNS(now - t0)
				}
			}
		}
		l.forced.Broadcast()
		if l.err != nil {
			l.mu.Unlock()
			return
		}
	}
}

// Close flushes any pending batch, stops the syncer and closes the file.
// Waiters blocked in WaitDurable for records the final flush could not
// cover are released with an error.
func (l *GroupLog) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.syncDone
		return nil
	}
	l.closed = true
	l.work.Signal()
	l.mu.Unlock()
	<-l.syncDone
	l.mu.Lock()
	l.forced.Broadcast()
	err := l.err
	l.mu.Unlock()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
