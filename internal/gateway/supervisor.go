package gateway

import (
	"sync"
	"time"
)

// supervise is the worker watchdog: every SupervisorPoll it scans the pool
// for workers that hold unanswered requests but have stopped making
// progress — wedged on a hung offload, a stalled connection, anything that
// keeps serve() from returning — and replaces each one. The wedged worker
// is abandoned, its in-flight batch is handed to a fresh replacement (with
// a fresh offload channel), and the settled CAS in complete() guarantees
// every request in that batch is still answered exactly once even when the
// original eventually unwedges and finishes its copy of the work.
func (g *Gateway) supervise(wg *sync.WaitGroup) {
	defer wg.Done()
	timer := time.NewTimer(g.cfg.SupervisorPoll)
	defer timer.Stop()
	for {
		select {
		case <-g.supDone:
			return
		case <-timer.C:
			g.checkWorkers()
			timer.Reset(g.cfg.SupervisorPoll)
		}
	}
}

// checkWorkers scans the live pool once and restarts every wedged worker.
// Wedged is judged on progress, not age: a worker counts only when it holds
// a request nobody has answered and two checks in a row found its progress
// counter where it was, with more than StallTimeout of clock time since the
// last check before the counter stopped. A clock jump — a GC pause, a steal
// burst, a replay advancing its manual clock — therefore restarts no worker
// that keeps stepping through layer ranges and offload attempts, nor one
// whose batch is already answered.
func (g *Gateway) checkWorkers() {
	now := g.cfg.Clock.Now()
	// A counter seen moving now moved after the previous check.
	moved := g.lastCheck
	g.lastCheck = now
	g.mu.Lock()
	workers := append([]*worker(nil), g.workers...)
	g.mu.Unlock()
	for _, w := range workers {
		if w.abandoned.Load() {
			continue
		}
		// cur before progress: serve() bumps progress before publishing a
		// new batch, so a batch seen here never pairs with a stale count.
		w.mu.Lock()
		cur := w.cur
		w.mu.Unlock()
		p := w.progress.Load()
		if p != w.seenProgress || !holdsUnanswered(cur) {
			w.seenProgress, w.seenAt = p, moved
			continue
		}
		if now-w.seenAt <= g.cfg.StallTimeout {
			continue
		}
		g.restartWorker(w, cur)
	}
}

// holdsUnanswered reports whether any request in batch is still unsettled.
func holdsUnanswered(batch []*request) bool {
	for _, r := range batch {
		if !r.settled.Load() {
			return true
		}
	}
	return false
}

// restartWorker abandons a wedged worker, retires it (its stats and offload
// channel are reclaimed at Stop, after it finally unblocks), and spawns a
// replacement that first re-serves the orphaned batch and then joins the
// normal pop loop.
func (g *Gateway) restartWorker(w *worker, orphan []*request) {
	w.abandoned.Store(true)
	// Only hand over what is still unanswered. Races with the wedged worker
	// finishing right now are benign: the settled CAS dedups completions,
	// this filter just keeps the requeue count honest.
	pending := make([]*request, 0, len(orphan))
	for _, r := range orphan {
		if !r.settled.Load() {
			pending = append(pending, r)
		}
	}
	g.mu.Lock()
	for i, x := range g.workers {
		if x == w {
			g.workers = append(g.workers[:i], g.workers[i+1:]...)
			break
		}
	}
	g.retired = append(g.retired, w)
	nw, err := g.newWorker()
	if err != nil {
		g.mu.Unlock()
		// No replacement channel available: the orphaned requests still get
		// a definitive answer rather than hanging forever.
		g.m.restarts.Inc()
		for _, r := range pending {
			g.complete(r, Result{Err: err})
		}
		return
	}
	g.workers = append(g.workers, nw)
	g.mu.Unlock()
	g.m.restarts.Inc()
	g.m.requeued.Add(int64(len(pending)))
	// Safe Add-during-Wait: the supervisor itself holds a slot in g.wg, so
	// the counter cannot reach zero while this runs.
	g.wg.Add(1)
	go nw.run(&g.wg, pending)
}
