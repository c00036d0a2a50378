package server

import (
	"sync/atomic"

	"thinc/internal/compress"
	"thinc/internal/core"
	"thinc/internal/overload"
	"thinc/internal/telemetry"
	"thinc/internal/wire"
)

// hostMetrics is the server-side instrument bundle: wire traffic by
// command type, heartbeat RTT, session lifecycle, and scrape-time
// gauges over the scheduler queues. One bundle per Host — tests run
// many Hosts in one process, so nothing here is a package global.
type hostMetrics struct {
	reg *telemetry.Registry
	tr  *telemetry.Tracer

	// byType maps every wire.Type to its labeled counter pair; display
	// and streaming types get their own label, the rest pool as
	// "control". Indexed lookup keeps the write path allocation-free.
	msgsByType  [256]*telemetry.Counter
	bytesByType [256]*telemetry.Counter

	hbRTT      *telemetry.Histogram
	flushBatch *telemetry.Histogram

	// Delivery passes by what let them run: at once on damage, or held
	// back to the pacing rule's due time (see pace.go).
	flushPassesDamage, flushPassesPaced *telemetry.Counter

	attaches, reattaches, reaps, slowResyncs *telemetry.Counter
	expiredSessions, skippedUnknown          *telemetry.Counter
	badHandshakes, heartbeatsSent            *telemetry.Counter

	overloadUps, overloadDowns *telemetry.Counter
	overloadResyncs            *telemetry.Counter
	watchdogRecoveries         *telemetry.Counter

	viewerAttaches, viewersRejected *telemetry.Counter
	viewerInputDropped              *telemetry.Counter

	auditProbes, auditReplies                *telemetry.Counter
	auditMismatchedTiles, auditRepairedTiles *telemetry.Counter
	auditRepairedBytes                       *telemetry.Counter
	auditSweeps, auditResyncs                *telemetry.Counter
	auditTimeouts, auditLegacyPeers          *telemetry.Counter
	auditRTT                                 *telemetry.Histogram

	// End-to-end mark loop (wire v5): mark/ack bookkeeping, the four
	// pipeline stages with sub-millisecond buckets, and the headline
	// client-perceived latency broken down by degradation rung.
	e2eMarks, e2eAcks            *telemetry.Counter
	e2eTimeouts, e2eLegacyPeers  *telemetry.Counter
	e2eStageQueue, e2eStageWrite *telemetry.Histogram
	e2eStageWire, e2eStageApply  *telemetry.Histogram
	e2eLatency                   [overload.NumRungs]*telemetry.Histogram

	// Content-addressed payload cache (wire v6): handshake grants and
	// desync repairs. Hit/store/saved-byte counters live in core.Metrics,
	// which registers into the same registry.
	cacheGrants, cacheMissRepairs *telemetry.Counter

	// Warm reattach and storm admission (wire v7).
	warmReattaches, coldReattaches *telemetry.Counter
	reattachRejected               *telemetry.Counter

	// Task scheduling on the worker pools that run the connection pumps
	// (registerPoolMetrics); every pool's hooks feed these.
	taskWait, taskRun *telemetry.Histogram

	// perConn enables the per-connection series of registerConn. A
	// private single-Host bundle keeps them; a Fleet sharing one bundle
	// across thousands of hosts disables them — the registry's series
	// lookup is linear, so 10k per-conn registrations would turn every
	// attach into an O(n) scan (and the scrape into a labels flood).
	perConn bool
}

// wireTypeLabels names the per-type series: the five display commands
// (§4.3), the native streaming channels (§4.2), and "control" for
// everything else (handshake, heartbeat, tickets, cursor).
var wireTypeLabels = []struct {
	label string
	types []wire.Type
}{
	{"raw", []wire.Type{wire.TRaw}},
	{"copy", []wire.Type{wire.TCopy}},
	{"sfill", []wire.Type{wire.TSFill}},
	{"pfill", []wire.Type{wire.TPFill}},
	{"bitmap", []wire.Type{wire.TBitmap}},
	{"video", []wire.Type{wire.TVideoInit, wire.TVideoFrame, wire.TVideoMove, wire.TVideoEnd}},
	{"audio", []wire.Type{wire.TAudioData}},
	{"cache", []wire.Type{wire.TCacheStore, wire.TCachePaint, wire.TCacheMiss}},
	{"control", nil}, // every remaining type
}

// defaultHostMetrics builds the private single-Host bundle: its own
// registry and tracer, per-conn series enabled. The caller registers
// the host-bound gauges with registerHostGauges once the Host exists.
func defaultHostMetrics() *hostMetrics {
	m := newHostMetrics(telemetry.NewRegistry(), telemetry.NewTracer(4096))
	m.perConn = true
	return m
}

// newHostMetrics registers every host instrument into reg. It carries
// no reference to any Host, so a Fleet can share one bundle across all
// its hosts; registration is idempotent per (name, labels), making the
// process-wide CounterFuncs safe to re-register.
func newHostMetrics(reg *telemetry.Registry, tr *telemetry.Tracer) *hostMetrics {
	m := &hostMetrics{
		reg: reg,
		tr:  tr,
		hbRTT: reg.Histogram("thinc_heartbeat_rtt_us",
			"round-trip time of server heartbeats", telemetry.LatencyBucketsUS),
		flushBatch: reg.Histogram("thinc_server_flush_batch_bytes",
			"wire bytes written per non-empty delivery pass", telemetry.ByteBuckets),
		flushPassesDamage: reg.Counter("thinc_server_flush_passes_total",
			"delivery passes by trigger: at once on damage, or paced by FlushInterval",
			telemetry.L("trigger", "damage")),
		flushPassesPaced: reg.Counter("thinc_server_flush_passes_total",
			"delivery passes by trigger: at once on damage, or paced by FlushInterval",
			telemetry.L("trigger", "paced")),
		attaches: reg.Counter("thinc_session_attaches_total",
			"fresh client attaches"),
		reattaches: reg.Counter("thinc_session_reattaches_total",
			"ticket reattaches into a retained session"),
		reaps: reg.Counter("thinc_session_reaps_total",
			"connections torn down by heartbeat or write timeout"),
		slowResyncs: reg.Counter("thinc_session_slow_resyncs_total",
			"backlogs discarded under the slow-client policy"),
		expiredSessions: reg.Counter("thinc_session_expired_total",
			"detached sessions that outlived the grace period"),
		skippedUnknown: reg.Counter("thinc_session_skipped_unknown_total",
			"unknown-but-well-framed client messages skipped"),
		badHandshakes: reg.Counter("thinc_session_bad_handshakes_total",
			"handshakes rejected (geometry, protocol)"),
		heartbeatsSent: reg.Counter("thinc_heartbeats_sent_total",
			"server-to-client pings sent"),
		overloadUps: reg.Counter("thinc_overload_transitions_total",
			"degradation ladder rung changes", telemetry.L("dir", "up")),
		overloadDowns: reg.Counter("thinc_overload_transitions_total",
			"degradation ladder rung changes", telemetry.L("dir", "down")),
		overloadResyncs: reg.Counter("thinc_overload_resyncs_total",
			"resyncs forced by the degradation ladder's last rung"),
		watchdogRecoveries: reg.Counter("thinc_watchdog_recoveries_total",
			"connection-goroutine panics converted to clean teardown"),
		viewerAttaches: reg.Counter("thinc_session_viewer_attaches_total",
			"attaches with the viewer role (fresh or resumed)"),
		viewersRejected: reg.Counter("thinc_session_viewers_rejected_total",
			"viewer attaches refused by the MaxViewers bound"),
		viewerInputDropped: reg.Counter("thinc_session_viewer_input_dropped_total",
			"input events from viewer-role connections discarded"),
		auditProbes: reg.Counter("thinc_audit_probes_total",
			"integrity-audit probes sent to clients"),
		auditReplies: reg.Counter("thinc_audit_replies_total",
			"integrity-audit digest replies received"),
		auditMismatchedTiles: reg.Counter("thinc_audit_mismatched_tiles_total",
			"framebuffer tiles whose client digest diverged"),
		auditRepairedTiles: reg.Counter("thinc_audit_repaired_tiles_total",
			"divergent tiles healed by targeted RAW repair"),
		auditRepairedBytes: reg.Counter("thinc_audit_repaired_bytes_total",
			"uncompressed payload bytes of targeted tile repairs"),
		auditSweeps: reg.Counter("thinc_audit_sweeps_total",
			"escalations from sampled window to full-screen sweep"),
		auditResyncs: reg.Counter("thinc_audit_resyncs_total",
			"full resyncs forced by the audit escalation ladder"),
		auditTimeouts: reg.Counter("thinc_audit_timeouts_total",
			"audit probes unanswered past the timeout"),
		auditLegacyPeers: reg.Counter("thinc_audit_legacy_peers_total",
			"pre-v4 peers detected by probe silence and left alone"),
		auditRTT: reg.Histogram("thinc_audit_probe_rtt_us",
			"round-trip time of answered integrity probes", telemetry.LatencyBucketsUS),
		e2eMarks: reg.Counter("thinc_e2e_marks_total",
			"end-to-end TimeMarks appended to flush batches"),
		e2eAcks: reg.Counter("thinc_e2e_acks_total",
			"MarkAcks received and matched to an in-flight mark"),
		e2eTimeouts: reg.Counter("thinc_e2e_timeouts_total",
			"marks that expired unacknowledged"),
		e2eLegacyPeers: reg.Counter("thinc_e2e_legacy_peers_total",
			"pre-v5 peers detected by mark silence and left unmarked"),
		e2eStageQueue: reg.Histogram("thinc_e2e_stage_ns",
			"per-stage share of acknowledged end-to-end update latency",
			telemetry.FineLatencyBucketsNS, telemetry.L("stage", "queue")),
		e2eStageWrite: reg.Histogram("thinc_e2e_stage_ns",
			"per-stage share of acknowledged end-to-end update latency",
			telemetry.FineLatencyBucketsNS, telemetry.L("stage", "write")),
		e2eStageWire: reg.Histogram("thinc_e2e_stage_ns",
			"per-stage share of acknowledged end-to-end update latency",
			telemetry.FineLatencyBucketsNS, telemetry.L("stage", "wire")),
		e2eStageApply: reg.Histogram("thinc_e2e_stage_ns",
			"per-stage share of acknowledged end-to-end update latency",
			telemetry.FineLatencyBucketsNS, telemetry.L("stage", "apply")),
		cacheGrants: reg.Counter("thinc_cache_grants_total",
			"handshakes granted a payload cache capacity (wire v6)"),
		cacheMissRepairs: reg.Counter("thinc_cache_miss_repairs_total",
			"CACHE_MISS desync reports healed by forget-and-repaint"),
		warmReattaches: reg.Counter("thinc_reattach_warm_total",
			"reattaches resumed with the payload cache kept warm (wire v7)"),
		coldReattaches: reg.Counter("thinc_reattach_cold_total",
			"reattaches renegotiated cold (no claim, stale epoch, resize)"),
		reattachRejected: reg.Counter("thinc_reattach_rejected_total",
			"reattaches refused by the storm admission gate (ATTACH_BUSY)"),
	}
	for r := 0; r < overload.NumRungs; r++ {
		m.e2eLatency[r] = reg.Histogram("thinc_e2e_latency_us",
			"client-perceived damage-to-glass latency by degradation rung",
			telemetry.LatencyBucketsUS, telemetry.L("rung", overload.RungName(r)))
	}

	// The tracer overwrites its oldest events when the ring wraps; the
	// counter makes that loss visible to scrapes and span consumers.
	reg.CounterFunc("thinc_trace_dropped_total",
		"trace events overwritten before they could be read",
		func() int64 { return m.tr.Dropped() })

	// Per-type wire counters, pre-registered so /metrics always lists
	// every command type, active or not.
	var control, controlBytes *telemetry.Counter
	for _, e := range wireTypeLabels {
		l := telemetry.L("type", e.label)
		mc := reg.Counter("thinc_wire_messages_total",
			"protocol messages written to clients by command type", l)
		bc := reg.Counter("thinc_wire_bytes_total",
			"wire bytes written to clients by command type", l)
		if e.label == "control" {
			control, controlBytes = mc, bc
			continue
		}
		for _, t := range e.types {
			m.msgsByType[t] = mc
			m.bytesByType[t] = bc
		}
	}
	for i := range m.msgsByType {
		if m.msgsByType[i] == nil {
			m.msgsByType[i] = control
			m.bytesByType[i] = controlBytes
		}
	}

	// Encode fast-path counters: pool and vectored-write activity from
	// the wire batch encoder and the codec scratch pool. These are
	// process-wide atomics read only at scrape time, so the encode path
	// itself stays free of registry lookups.
	reg.CounterFunc("thinc_wire_encode_pool_gets_total",
		"encode buffers borrowed from the wire pool",
		func() int64 { return wire.Stats().PoolGets })
	reg.CounterFunc("thinc_wire_encode_pool_misses_total",
		"encode buffer borrows that had to allocate",
		func() int64 { return wire.Stats().PoolMisses })
	reg.CounterFunc("thinc_wire_vectored_writes_total",
		"payload slabs written by reference instead of copied",
		func() int64 { return wire.Stats().VectoredWrites })
	reg.CounterFunc("thinc_wire_vectored_bytes_total",
		"payload bytes that skipped the batch-buffer copy",
		func() int64 { return wire.Stats().VectoredBytes })
	reg.CounterFunc("thinc_codec_scratch_gets_total",
		"codec payload buffers borrowed from the compress scratch pool",
		func() int64 { return compress.PoolStats().Gets })
	reg.CounterFunc("thinc_codec_scratch_misses_total",
		"codec scratch borrows that had to allocate",
		func() int64 { return compress.PoolStats().Misses })

	// Fan-out amplification: per-client deliveries per translated
	// command, in thousandths (a session with one owner and three
	// viewers reads 4000). Computed from the core fan-out counters at
	// scrape time.
	reg.GaugeFunc("thinc_fanout_amplification_milli",
		"fan-out deliveries per translated screen command, x1000",
		func() int64 {
			deliveries := reg.Value("thinc_fanout_deliveries_total")
			translated := reg.Value("thinc_translate_commands_total",
				telemetry.L("dest", "screen"))
			if translated == 0 {
				return 0
			}
			return deliveries * 1000 / translated
		})
	// Cache effectiveness: hits per cache-eligible delivery (hits plus
	// stores), in thousandths. A steady-state repeat-heavy desktop reads
	// close to 1000; a cold or thrashing cache reads near 0. Computed
	// from the core counters at scrape time.
	reg.GaugeFunc("thinc_cache_hit_ratio_milli",
		"cache hits per cache-eligible payload delivery, x1000",
		func() int64 {
			hits := reg.Value("thinc_cache_hits_total")
			total := hits + reg.Value("thinc_cache_stores_total")
			if total == 0 {
				return 0
			}
			return hits * 1000 / total
		})
	return m
}

// registerHostGauges publishes the scrape-time gauges bound to one
// Host: point-in-time state read under its lock only when /metrics is
// hit — the command path never touches these. A Fleet sharing one
// bundle skips this (its aggregates are registered fleet-wide instead).
func (m *hostMetrics) registerHostGauges(h *Host) {
	reg := m.reg
	reg.GaugeFunc("thinc_clients", "attached display clients",
		func() int64 { return int64(h.NumClients()) })
	reg.GaugeFunc("thinc_session_viewers", "live viewer-role connections",
		func() int64 { return int64(h.NumViewers()) })
	reg.GaugeFunc("thinc_detached_sessions", "sessions retained for reattach",
		func() int64 { return int64(h.NumDetached()) })
	// Storm admission gate occupancy: in-flight cold resyncs and the
	// high-watermark since start (never exceeds the configured budget).
	reg.GaugeFunc("thinc_reattach_resyncs_inflight",
		"cold-reattach resyncs currently holding an admission slot",
		func() int64 { n, _, _ := h.resync.snapshot(); return int64(n) })
	reg.GaugeFunc("thinc_reattach_resyncs_peak",
		"high-watermark of concurrent admitted cold-reattach resyncs",
		func() int64 { _, p, _ := h.resync.snapshot(); return int64(p) })
	for q := 0; q <= core.NumQueues; q++ {
		q := q
		label := telemetry.L("queue", queueName(q))
		reg.GaugeFunc("thinc_sched_queue_depth",
			"commands waiting per SRSF queue across all clients",
			func() int64 { d, _ := h.queueLoads(); return d[q] }, label)
		reg.GaugeFunc("thinc_sched_queue_bytes",
			"wire bytes waiting per SRSF queue across all clients",
			func() int64 { _, b := h.queueLoads(); return b[q] }, label)
	}
}

// registerPoolMetrics publishes the task-scheduling series of the pools
// that run this bundle's connections: queue wait (the fairness
// headline — a starved session shows up here long before a user
// notices) and run time (the cost of one pump pass), observed by the
// pools' hooks, a runs counter read off the run-time histogram, and a
// wakes counter read at scrape time — a Fleet's shared pool, or the sum
// over a plain host's private per-connection pools.
func (m *hostMetrics) registerPoolMetrics(wakes func() int64) {
	m.taskWait = m.reg.Histogram("thinc_shard_task_wait_ns",
		"queue wait from task wake to callback start", telemetry.FineLatencyBucketsNS)
	m.taskRun = m.reg.Histogram("thinc_shard_task_run_ns",
		"execution time of one task callback", telemetry.FineLatencyBucketsNS)
	m.reg.CounterFunc("thinc_shard_task_wakes_total",
		"task wakes accepted (coalesced wakes count once)", wakes)
	m.reg.CounterFunc("thinc_shard_task_runs_total",
		"task callback invocations across all shards", m.taskRun.Count)
}

// registerConn publishes one connection's per-client series: the
// active degradation rung, budget-eviction count, and watchdog
// recoveries, labeled client="user#n" with n unique per Host. Series
// outlive the connection (they describe the session's history; the
// registry has no unregister), so the label embeds the connection
// sequence number rather than reusing the user name.
func (m *hostMetrics) registerConn(h *Host, label string, sc *serverConn) {
	if !m.perConn {
		return
	}
	l := telemetry.L("client", label)
	m.reg.GaugeFunc("thinc_client_degrade_rung",
		"active degradation ladder rung for this client",
		func() int64 { return int64(atomic.LoadInt32(&sc.rung)) }, l)
	m.reg.CounterFunc("thinc_client_budget_evictions_total",
		"commands replaced by this client's queue byte budget",
		func() int64 {
			h.mu.Lock()
			defer h.mu.Unlock()
			return int64(sc.cl.Buf.Stats.BudgetEvicted)
		}, l)
	m.reg.CounterFunc("thinc_client_watchdog_recoveries_total",
		"panics this client's connection goroutines survived",
		func() int64 { return atomic.LoadInt64(&sc.watchdogs) }, l)
}

// queueName labels SRSF queues "0".."9" plus the real-time queue "rt".
func queueName(q int) string {
	if q == core.NumQueues {
		return "rt"
	}
	return string(rune('0' + q))
}

// queueLoads snapshots per-queue occupancy under the Host lock.
func (h *Host) queueLoads() (depth, bytes [core.NumQueues + 1]int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.core.QueueLoads()
}

// Telemetry returns the Host's metrics registry, for export through
// telemetry.Serve or a bench snapshot.
func (h *Host) Telemetry() *telemetry.Registry { return h.met.reg }

// Tracer returns the Host's command-path tracer. It records only while
// enabled (telemetry.Serve enables it for the debug listener).
func (h *Host) Tracer() *telemetry.Tracer { return h.met.tr }
