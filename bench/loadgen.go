package main

import (
	"sync"
	"time"
)

// openLoop submits operation i at start + i/rate whatever the cluster is
// doing, from one pacing goroutine: transactions are drawn and begun here, in
// order, and only the wait for the outcome runs on a goroutine of its own. An
// operation's latency runs from its due time, so a stall of the generator or
// of the cluster is charged to every arrival it delays; lag records how late
// each submission was. Nothing is ever dropped: a backlog shows as latency.
func (lc *liveCluster) openLoop(seed int64, start, deadline time.Time) ([]opRec, error) {
	g, err := lc.generator(seed)
	if err != nil {
		return nil, err
	}
	var recs []*opRec
	var wg sync.WaitGroup
	for i := 0; ; i++ {
		due := start.Add(time.Duration(float64(i) / lc.spec.rate * float64(time.Second)))
		if !due.Before(deadline) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		t := g.Next()
		sent := time.Now()
		id := lc.cl.Begin(t.Coord, t.Writeset)
		lc.tr.opBegin(id, due)
		r := &opRec{txn: id, ws: t.Writeset, start: due, lag: sent.Sub(due)}
		recs = append(recs, r)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.outcome = lc.cl.WaitOutcome(r.txn, lc.waitDeadline())
			r.end = time.Now()
			lc.tr.opEnd(r.txn, r.end)
		}()
	}
	wg.Wait()
	out := make([]opRec, len(recs))
	for i, r := range recs {
		out[i] = *r
	}
	return out, nil
}
