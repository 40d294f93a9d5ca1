package cluster

import (
	"context"
	"sync"
	"time"
)

// probeLoop health-checks every member each ProbeInterval until Drain.
// Probes run concurrently with a per-probe timeout so one hung worker
// cannot stall the detector for the others.
func (r *Router) probeLoop() {
	defer close(r.probeDone)
	ticker := time.NewTicker(r.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.probeStop:
			return
		case <-ticker.C:
			r.probeAll()
		}
	}
}

func (r *Router) probeAll() {
	r.mu.Lock()
	targets := make(map[string]*member, len(r.members))
	for id, mb := range r.members {
		targets[id] = mb
	}
	r.mu.Unlock()

	var wg sync.WaitGroup
	for id, mb := range targets {
		wg.Add(1)
		go func(id string, mb *member) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), r.cfg.ProbeTimeout)
			defer cancel()
			r.m.probes.Inc()
			start := time.Now()
			err := mb.w.Health(ctx)
			r.m.probeLatency.Observe(uint64(time.Since(start).Microseconds()))
			if err != nil {
				r.m.probeFailures.Inc()
				r.noteFailure(id)
			} else {
				r.noteSuccess(id)
			}
		}(id, mb)
	}
	wg.Wait()
}

// noteSuccess records a healthy interaction (probe success or a
// proxied request the worker answered). A dead worker that has
// answered ReviveThreshold consecutive probes is revived: re-added to
// the ring by a deterministic re-hash, so its keys deterministically
// return to it.
func (r *Router) noteSuccess(id string) {
	r.mu.Lock()
	mb := r.members[id]
	if mb == nil {
		r.mu.Unlock()
		return
	}
	mb.consecFail = 0
	mb.consecOK++
	if !mb.alive && mb.consecOK >= r.cfg.ReviveThreshold {
		mb.alive = true
		// Counted before the new ring is visible, so a caller that sees
		// the member back also sees the revival.
		r.m.revivals.Inc()
		r.rebuildRingLocked()
	}
	r.mu.Unlock()
}

// noteFailure records a failed interaction (probe failure or a
// worker-level request failure). A live worker that has failed
// FailThreshold consecutive times is ejected: removed from the ring by
// a deterministic re-hash — only its keys move, each to its ring
// successor, which simulates each of them afresh on first request.
func (r *Router) noteFailure(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	mb := r.members[id]
	if mb == nil {
		return
	}
	mb.consecOK = 0
	mb.consecFail++
	if mb.alive && mb.consecFail >= r.cfg.FailThreshold {
		mb.alive = false
		r.m.ejections.Inc()
		r.rebuildRingLocked()
	}
}

// rebuildRingLocked re-derives the ring from the live member set.
// Callers hold r.mu. The ring is a pure function of the sorted live
// ids, so every router (and every rebuild) agrees on ownership.
func (r *Router) rebuildRingLocked() {
	var alive []string
	for id, mb := range r.members {
		if mb.alive {
			alive = append(alive, id)
		}
	}
	r.ring = NewRing(ringVnodes, alive)
	r.m.aliveWorkers.Set(uint64(len(alive)))
}
