package core

import (
	"thinc/internal/telemetry"
)

// Metrics is the instrument bundle for the translation layer (§4) and
// the SRSF scheduler (§5). One bundle serves a whole core.Server: the
// per-client buffers it creates share the counters, so the series
// describe the session's aggregate command path. All instruments are
// pre-registered; the hot paths only perform atomic increments.
//
// Trace, when non-nil and enabled, receives command-path events
// (eviction sweeps, RAW splits, buffer clears); every emit site gates
// on Trace.Enabled() so disabled tracing costs one atomic load.
type Metrics struct {
	Trace *telemetry.Tracer

	// Translation layer.
	onscreenCmds    *telemetry.Counter
	offscreenCmds   *telemetry.Counter
	offscreenExecs  *telemetry.Counter
	offscreenEvicts *telemetry.Counter
	offscreenMerges *telemetry.Counter
	rawFallbacks    *telemetry.Counter

	// Session fan-out (translate once, deliver N).
	fanoutDeliveries  *telemetry.Counter
	fanoutSharedBytes *telemetry.Counter

	// Content-addressed payload cache (wire v6).
	cacheHits       *telemetry.Counter
	cacheStores     *telemetry.Counter
	cacheMisses     *telemetry.Counter
	cacheSavedBytes *telemetry.Counter

	// Scheduler / command buffer.
	queuedByClass [3]*telemetry.Counter
	merged        *telemetry.Counter
	evicted       *telemetry.Counter
	frameDrops    *telemetry.Counter
	sent          *telemetry.Counter
	splits        *telemetry.Counter
	rtPromotions  *telemetry.Counter
	bufferClears  *telemetry.Counter
	budgetEvicted *telemetry.Counter
	budgetSweeps  *telemetry.Counter
	overshoots    *telemetry.Counter
	bytesSent     *telemetry.Counter
	cmdSize       *telemetry.Histogram
	flushBytes    *telemetry.Histogram
	queueWait     *telemetry.Histogram
	queueLatNS    *telemetry.Histogram
}

// NewMetrics registers the core instrument bundle into reg. A nil reg
// gets a private, never-rendered registry, so instruments are always
// live and hot paths never nil-check.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	m := &Metrics{
		onscreenCmds: reg.Counter("thinc_translate_commands_total",
			"translated commands by destination", telemetry.L("dest", "screen")),
		offscreenCmds: reg.Counter("thinc_translate_commands_total",
			"translated commands by destination", telemetry.L("dest", "offscreen")),
		offscreenExecs: reg.Counter("thinc_translate_offscreen_execs_total",
			"offscreen queues executed on copy-to-screen"),
		offscreenEvicts: reg.Counter("thinc_translate_offscreen_evicted_total",
			"commands evicted inside offscreen queues"),
		offscreenMerges: reg.Counter("thinc_offscreen_commands_merged_total",
			"commands absorbed into a predecessor inside offscreen queues"),
		rawFallbacks: reg.Counter("thinc_translate_raw_fallbacks_total",
			"operations degraded to raw pixel transfers"),
		fanoutDeliveries: reg.Counter("thinc_fanout_deliveries_total",
			"per-client deliveries produced by translate-once fan-out"),
		fanoutSharedBytes: reg.Counter("thinc_fanout_shared_bytes_total",
			"payload bytes shared across fan-out clones instead of copied"),
		cacheHits: reg.Counter("thinc_cache_hits_total",
			"cache-eligible payloads delivered as CACHE_PAINT references"),
		cacheStores: reg.Counter("thinc_cache_stores_total",
			"payload first appearances delivered as CACHE_STORE"),
		cacheMisses: reg.Counter("thinc_cache_misses_total",
			"client CACHE_MISS desync reports handled"),
		cacheSavedBytes: reg.Counter("thinc_cache_saved_bytes_total",
			"wire bytes avoided by delivering cache hits as paint references"),
		merged: reg.Counter("thinc_sched_commands_merged_total",
			"commands absorbed into a buffered predecessor"),
		evicted: reg.Counter("thinc_sched_commands_evicted_total",
			"buffered commands dropped by overwrite eviction or clears"),
		frameDrops: reg.Counter("thinc_sched_frame_drops_total",
			"video frames replaced before delivery"),
		sent: reg.Counter("thinc_sched_commands_sent_total",
			"commands fully delivered by the scheduler"),
		splits: reg.Counter("thinc_sched_raw_splits_total",
			"RAW commands broken for non-blocking flush"),
		rtPromotions: reg.Counter("thinc_sched_realtime_promotions_total",
			"commands promoted to the real-time queue"),
		bufferClears: reg.Counter("thinc_sched_buffer_clears_total",
			"whole-buffer discards (slow-client policy, reattach)"),
		budgetEvicted: reg.Counter("thinc_sched_budget_evicted_total",
			"buffered commands replaced by the per-client byte budget"),
		budgetSweeps: reg.Counter("thinc_sched_budget_sweeps_total",
			"eviction-to-RAW sweeps triggered by the per-client byte budget"),
		overshoots: reg.Counter("thinc_sched_budget_overshoots_total",
			"flushes that exceeded their budget to deliver one oversized command"),
		bytesSent: reg.Counter("thinc_sched_bytes_sent_total",
			"wire bytes emitted by the scheduler"),
		cmdSize: reg.Histogram("thinc_sched_command_size_bytes",
			"wire size of commands entering the buffer (bounds match the SRSF queue bounds)",
			telemetry.SizeBuckets),
		flushBytes: reg.Histogram("thinc_sched_flush_bytes",
			"bytes delivered per non-empty flush", telemetry.ByteBuckets),
		queueWait: reg.Histogram("thinc_sched_queue_wait_flushes",
			"flush periods a command waited in the buffer before delivery",
			telemetry.CountBuckets),
		queueLatNS: reg.Histogram("thinc_sched_queue_latency_ns",
			"damage-to-drain wall time per delivered command (the queue stage of the e2e pipeline)",
			telemetry.FineLatencyBucketsNS),
	}
	for cl, name := range map[Class]string{
		Partial: "partial", Complete: "complete", Transparent: "transparent",
	} {
		m.queuedByClass[cl] = reg.Counter("thinc_sched_commands_queued_total",
			"commands accepted into client buffers by overwrite class",
			telemetry.L("class", name))
	}
	return m
}

// nopMetrics serves buffers and servers created without a registry; the
// atomics still tick but are never rendered.
var nopMetrics = NewMetrics(nil)

// QueueLoads sums the current SRSF queue occupancy across every
// attached client: depth[i] commands and bytes[i] remaining wire bytes
// in size queue i, with index NumQueues holding the real-time queue.
// The caller provides synchronization (the core is single-threaded
// under its owner's lock); scrape-time gauges read through this instead
// of paying per-command bookkeeping.
func (s *Server) QueueLoads() (depth, bytes [NumQueues + 1]int64) {
	for c := range s.clients {
		c.Buf.queueLoads(&depth, &bytes)
	}
	return depth, bytes
}

// queueLoads accumulates this buffer's per-queue occupancy.
func (b *ClientBuffer) queueLoads(depth, bytes *[NumQueues + 1]int64) {
	for _, e := range b.entries {
		q := NumQueues // real-time queue
		if !e.realtime {
			q = sizeQueue(e.size)
		}
		depth[q]++
		bytes[q] += int64(e.size)
	}
}
