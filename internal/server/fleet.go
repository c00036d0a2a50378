package server

import (
	"sync"

	"thinc/internal/auth"
	"thinc/internal/core"
	"thinc/internal/shard"
	"thinc/internal/telemetry"
)

// Fleet hosts many display sessions on one shared sharded substrate:
// a single shard.Scheduler (worker pool, registry caps), a single
// telemetry registry and core instrument bundle, and one hostMetrics
// shared by every Host it creates. This is the multi-host counterpart
// of NewHost — the shape the 10k-session load harness runs, where
// per-host registries, per-conn metric series and per-conn workers
// would dominate memory and scrape cost.
//
// Per-conn telemetry series and per-host gauges are intentionally
// disabled on the shared bundle; the fleet publishes aggregate
// thinc_fleet_* and thinc_shard_* series instead.
type Fleet struct {
	sched *shard.Scheduler
	beats *beats
	reg   *telemetry.Registry
	tr    *telemetry.Tracer
	met   *hostMetrics
	opts  Options

	mu    sync.Mutex
	hosts []*Host
}

// NewFleet builds the shared substrate. opts configures every Host the
// fleet creates (its Core.Metrics field is overwritten with the shared
// one); so sizes the scheduler.
func NewFleet(opts Options, so shard.Options) *Fleet {
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(4096)

	met := newHostMetrics(reg, tr) // perConn stays false: shared bundle
	var pool *shard.Pool           // set below; the counters read it only at scrape time
	met.registerPoolMetrics(func() int64 { return pool.Stats().Wakes })
	so.OnTaskWait, so.OnTaskRun = met.taskWait.Observe, met.taskRun.Observe
	sched := shard.NewScheduler(so)
	pool = sched.Pool()
	cm := core.NewMetrics(reg)
	cm.Trace = tr
	opts.Core.Metrics = cm

	f := &Fleet{sched: sched, beats: newBeats(), reg: reg, tr: tr, met: met, opts: opts}

	// Scheduler occupancy: the load harness's self-checks read these —
	// goroutine count must stay O(workers), not O(sessions).
	reg.GaugeFunc("thinc_shard_workers", "run-queue worker shards",
		func() int64 { return int64(pool.NumShards()) })
	reg.GaugeFunc("thinc_shard_tasks", "live tasks pinned to the pool",
		func() int64 { return pool.Stats().Tasks })
	reg.GaugeFunc("thinc_shard_queue_depth", "tasks queued to run right now",
		func() int64 { return pool.Stats().Depth })
	reg.GaugeFunc("thinc_shard_queue_depth_peak", "high-watermark run-queue depth",
		func() int64 { return pool.Stats().MaxDepth })

	// Fleet-wide aggregates replacing the per-host gauges.
	reg.GaugeFunc("thinc_fleet_hosts", "hosts created by this fleet",
		func() int64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return int64(len(f.hosts))
		})
	reg.GaugeFunc("thinc_fleet_clients", "attached clients across the fleet",
		func() int64 {
			var n int64
			for _, h := range f.snapshot() {
				n += int64(h.NumClients())
			}
			return n
		})
	reg.GaugeFunc("thinc_fleet_detached_sessions",
		"sessions retained for reattach across the fleet",
		func() int64 {
			var n int64
			for _, h := range f.snapshot() {
				n += int64(h.NumDetached())
			}
			return n
		})
	return f
}

// NewHost creates a Host of the given geometry on the shared substrate.
func (f *Fleet) NewHost(w, h int, gate *auth.Authenticator) *Host {
	host := newHostWith(w, h, gate, f.opts, f)
	f.mu.Lock()
	f.hosts = append(f.hosts, host)
	f.mu.Unlock()
	return host
}

// snapshot copies the host list so gauge reads never hold f.mu while
// taking a host lock.
func (f *Fleet) snapshot() []*Host {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*Host(nil), f.hosts...)
}

// Hosts returns the fleet's hosts in creation order.
func (f *Fleet) Hosts() []*Host { return f.snapshot() }

// Scheduler returns the shared shard scheduler.
func (f *Fleet) Scheduler() *shard.Scheduler { return f.sched }

// Telemetry returns the fleet-wide registry.
func (f *Fleet) Telemetry() *telemetry.Registry { return f.reg }

// Close tears down every host, then the shared scheduler.
func (f *Fleet) Close() {
	for _, h := range f.snapshot() {
		h.Close()
	}
	f.sched.Close()
}
