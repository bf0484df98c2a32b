package fabric

import (
	"repro/internal/metrics"
)

// Metrics is the fabric coordinator's instrument set. Create one with
// NewMetrics over the process registry (in mcserved, the serve
// registry, so one /metrics scrape covers both layers) and hand it to
// Config.Metrics; a nil *Metrics disables instrumentation — every
// method is nil-receiver safe, so the coordinator never branches on it.
//
// One Metrics instruments one coordinator: registering the same
// instance twice would double-register the heartbeat-age gauge.
type Metrics struct {
	reg *metrics.Registry

	leasesGranted   *metrics.Counter
	leasesExpired   *metrics.Counter
	leasesRequeued  *metrics.Counter
	checkpointBytes *metrics.Counter
	shardsCompleted *metrics.Counter
	mergeSeconds    *metrics.Histogram
}

// NewMetrics registers the fabric families on reg.
func NewMetrics(reg *metrics.Registry) *Metrics {
	return &Metrics{
		reg: reg,
		leasesGranted: reg.Counter("mcfabric_leases_granted_total",
			"Shard leases handed to workers.", ""),
		leasesExpired: reg.Counter("mcfabric_leases_expired_total",
			"Leases invalidated by TTL expiry (missed heartbeats).", ""),
		leasesRequeued: reg.Counter("mcfabric_leases_requeued_total",
			"Shards put back on the pending queue after their lease expired.", ""),
		checkpointBytes: reg.Counter("mcfabric_checkpoint_bytes_total",
			"Accumulator bytes persisted by heartbeat checkpoints.", "bytes"),
		shardsCompleted: reg.Counter("mcfabric_shards_completed_total",
			"Shards reported complete with their final accumulator.", ""),
		mergeSeconds: reg.Histogram("mcfabric_shard_merge_seconds",
			"Latency of merging all shard accumulators at finalize.", "seconds", nil),
	}
}

// observeCoordinator registers the scrape-time families that read live
// coordinator state: the age of the stalest active lease heartbeat, the
// number of active leases and the finished jobs evicted past
// MaxRetained. Called once from NewCoordinator.
func (m *Metrics) observeCoordinator(c *Coordinator) {
	if m == nil {
		return
	}
	m.reg.GaugeFunc("mcfabric_worker_heartbeat_age_seconds",
		"Age of the least recently renewed active lease (0 when none).", "seconds",
		c.oldestHeartbeatAge)
	m.reg.GaugeFunc("mcfabric_leases_active",
		"Leases currently held by workers.", "",
		c.activeLeases)
	m.reg.CounterFunc("mcfabric_jobs_evicted_total",
		"Finished jobs dropped past fabric.MaxRetained.", "",
		func() float64 { _, _, evicted := c.Count(); return float64(evicted) })
}

func (m *Metrics) leaseGranted() {
	if m != nil {
		m.leasesGranted.Inc()
	}
}

func (m *Metrics) leaseExpired() {
	if m != nil {
		m.leasesExpired.Inc()
		m.leasesRequeued.Inc()
	}
}

func (m *Metrics) checkpoint(bytes int) {
	if m != nil {
		m.checkpointBytes.Add(uint64(bytes))
	}
}

func (m *Metrics) shardDone() {
	if m != nil {
		m.shardsCompleted.Inc()
	}
}

func (m *Metrics) mergeObserved(seconds float64) {
	if m != nil {
		m.mergeSeconds.Observe(seconds)
	}
}

// oldestHeartbeatAge scans every active lease for the one longest since
// its last heartbeat — the staleness a dashboard alerts on before the
// TTL requeues the shard.
func (c *Coordinator) oldestHeartbeatAge() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	var oldest float64
	for _, id := range c.running {
		//mclint:maporder commutative max over leases; the result is order-independent
		for _, l := range c.jobs[id].leases {
			if age := now.Sub(l.lastBeat).Seconds(); age > oldest {
				oldest = age
			}
		}
	}
	return oldest
}

// activeLeases counts leases currently held across all jobs.
func (c *Coordinator) activeLeases() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int
	for _, id := range c.running {
		n += len(c.jobs[id].leases)
	}
	return float64(n)
}
