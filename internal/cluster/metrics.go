package cluster

import "indra/internal/obs"

// metrics is the router's handle bundle into the obs registry, beside
// its front's cluster.http.* and cluster.cells. Names are stable API:
// the e2e tests key on them, and operators scrape them from the
// router's /metrics.
type metrics struct {
	proxied   *obs.Counter // upstream /v1/cell calls issued to workers
	coalesced *obs.Counter // requests that joined an in-flight peer (router single-flight)
	retries   *obs.Counter // failover hops (upstream attempts beyond the first)
	failovers *obs.Counter // requests answered by a non-first-choice owner
	unrouted  *obs.Counter // 502s: every candidate owner failed (or empty ring)

	probes        *obs.Counter // health probes issued
	probeFailures *obs.Counter // health probes that failed
	ejections     *obs.Counter // workers removed from the ring
	revivals      *obs.Counter // workers re-admitted to the ring

	aliveWorkers *obs.Gauge     // live ring members, with high-water
	proxyLatency *obs.Histogram // per-upstream-attempt latency, µs
	probeLatency *obs.Histogram // per-probe latency, µs
}

func newClusterMetrics(r *obs.Registry) metrics {
	return metrics{
		proxied:       r.Counter("cluster.proxied"),
		coalesced:     r.Counter("cluster.coalesced"),
		retries:       r.Counter("cluster.retries"),
		failovers:     r.Counter("cluster.failovers"),
		unrouted:      r.Counter("cluster.unrouted"),
		probes:        r.Counter("cluster.probes"),
		probeFailures: r.Counter("cluster.probe.failures"),
		ejections:     r.Counter("cluster.ejections"),
		revivals:      r.Counter("cluster.revivals"),
		aliveWorkers:  r.Gauge("cluster.workers.alive"),
		proxyLatency:  r.Histogram("cluster.proxy.latency_us"),
		probeLatency:  r.Histogram("cluster.probe.latency_us"),
	}
}
