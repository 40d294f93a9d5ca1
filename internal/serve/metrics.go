package serve

import "indra/internal/obs"

// frontMetrics is a front's handle bundle into the obs registry, named
// under the role's prefix (serve.* on a worker, cluster.* on a router).
// Names are stable API: the e2e and soak tests key on them, and
// operators scrape them from /metrics.
type frontMetrics struct {
	requests *obs.Counter // HTTP requests served, any endpoint
	s2xx     *obs.Counter // responses by status class
	s4xx     *obs.Counter
	s5xx     *obs.Counter
	cells    *obs.Counter // cell requests (single + batch lines)

	latency *obs.Histogram // per-HTTP-request latency, µs
}

func newFrontMetrics(r *obs.Registry, prefix string) frontMetrics {
	return frontMetrics{
		requests: r.Counter(prefix + ".http.requests"),
		s2xx:     r.Counter(prefix + ".http.2xx"),
		s4xx:     r.Counter(prefix + ".http.4xx"),
		s5xx:     r.Counter(prefix + ".http.5xx"),
		cells:    r.Counter(prefix + ".cells"),
		latency:  r.Histogram(prefix + ".http.latency_us"),
	}
}

func (m frontMetrics) status(code int) {
	switch {
	case code >= 500:
		m.s5xx.Inc()
	case code >= 400:
		m.s4xx.Inc()
	default:
		m.s2xx.Inc()
	}
}

// metrics is the worker executor's handle bundle into the obs
// registry, beside its front's serve.http.* and serve.cells.
type metrics struct {
	executions *obs.Counter // simulations actually run (single-flight leaders)
	cacheHits  *obs.Counter // cell requests answered without executing
	cacheMiss  *obs.Counter // cell requests that became the executing leader
	rejected   *obs.Counter // 429s (admission queue full)
	deadlines  *obs.Counter // 504s (deadline expired before a result)
	cacheFills *obs.Counter // results installed by a cluster peer fill

	queueDepth  *obs.Gauge     // admitted cells (executing + waiting), with high-water
	cellLatency *obs.Histogram // per-cell latency incl. cache/queue, µs
	execLatency *obs.Histogram // per-execution simulation latency, µs
}

func newMetrics(r *obs.Registry) metrics {
	return metrics{
		executions:  r.Counter("serve.executions"),
		cacheHits:   r.Counter("serve.cache.hits"),
		cacheMiss:   r.Counter("serve.cache.misses"),
		rejected:    r.Counter("serve.rejected"),
		deadlines:   r.Counter("serve.deadlines"),
		cacheFills:  r.Counter("serve.cache.fills"),
		queueDepth:  r.Gauge("serve.queue.depth"),
		cellLatency: r.Histogram("serve.cell.latency_us"),
		execLatency: r.Histogram("serve.exec.latency_us"),
	}
}
