package main

import "time"

// metricSpec names one reported metric. The two tables below are the
// single source for names, units, directions and bounds; BENCHMARK.json
// mirrors them and a test fails when the two drift apart.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the base median it may worsen by
}

// endToEnd is what a user of the system sees, on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"glass_p50_us", "us", "lower", 0.20},
	{"glass_p95_us", "us", "lower", 0.25},
	{"glass_p99_us", "us", "lower", 0.25},
	{"wire_bytes_per_op", "B", "lower", 0.02},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"on_time_ratio", "ratio", "higher", 0.05},
	{"heap_bytes_per_session", "B", "lower", 0.05},
}

// perLayer is one entry per pipeline layer metric, named after the
// repo's packages. They carry no bound: they say where a change landed.
var perLayer = []metricSpec{
	{Name: "xserver.draw_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "xserver.draw_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "core.translate_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "core.translate_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "core.cmds_per_op", Unit: "count", Better: "lower"},
	{Name: "core.evicted_per_op", Unit: "count", Better: "higher"},
	{Name: "core.merged_per_op", Unit: "count", Better: "higher"},
	{Name: "core.offscreen_execs_per_op", Unit: "count", Better: "lower"},
	{Name: "core.raw_fallbacks_per_op", Unit: "count", Better: "lower"},
	{Name: "core.flush_self_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "core.flush_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "core.flush_msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "compress.encode_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "compress.encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "compress.ratio", Unit: "ratio", Better: "higher"},
	{Name: "compress.decode_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "wire.decode_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "wire.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "cipher.encrypt_ns_per_kb", Unit: "ns", Better: "lower"},
	{Name: "cipher.decrypt_ns_per_kb", Unit: "ns", Better: "lower"},
	{Name: "client.apply_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "client.apply_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "client.apply_mpix_per_s", Unit: "Mpix/s", Better: "higher"},
	{Name: "fb.digest_ns_per_screen", Unit: "ns", Better: "lower"},
	{Name: "payloadcache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "payloadcache.saved_bytes_per_op", Unit: "B", Better: "higher"},
	{Name: "replay.stage_sum_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.stage_queue_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.stage_queue_p99_us", Unit: "us", Better: "lower"},
	{Name: "server.stage_write_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.stage_wire_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.stage_apply_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.e2e_acks_per_op", Unit: "count", Better: "higher"},
	{Name: "shard.task_wait_p50_us", Unit: "us", Better: "lower"},
	{Name: "shard.task_wait_p99_us", Unit: "us", Better: "lower"},
	{Name: "shard.task_run_p50_us", Unit: "us", Better: "lower"},
	{Name: "shard.wakes_per_op", Unit: "count", Better: "lower"},
	{Name: "shard.wheel_fired_per_op", Unit: "count", Better: "lower"},
	{Name: "harness.poll_gap_p99_us", Unit: "us", Better: "lower"},
	{Name: "harness.hook_seen_ratio", Unit: "ratio", Better: "higher"},
	{Name: "harness.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "harness.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}

// workloadSpec fixes everything about one workload but its seed. The
// reasons for each are in the README and in BENCHMARK.json's "why".
type workloadSpec struct {
	Name     string
	W, H     int
	Sessions int
	Fleet    bool    // server.Fleet over in-memory event pairs, else one Host over loopback TCP
	WAN      bool    // shaped proxy plus the granted payload cache
	Rate     float64 // open-loop ops per second; 0 means closed loop with think time
	// Jitter spreads open-loop due times uniformly over [0, Jitter).
	// Three 24 fps frame intervals are exactly 25 flush ticks, so an
	// unjittered video stream meets the 5 ms ticker at three fixed
	// phases chosen by its start time, and p95 differs run to run.
	Jitter    time.Duration
	Limit     time.Duration // an op on glass within this counts as on time
	Script    func(seed int64, sessions int) script
	ReplayOps int // ops replayed at the default 20 measured seconds
	Why       string
}

var workloads = []workloadSpec{
	{Name: "interactive", W: 1024, H: 768, Sessions: 1, Limit: 10 * time.Millisecond,
		Script:    func(seed int64, n int) script { return newTextScript(seed, n, true, 16, 40, 480) },
		ReplayOps: 400,
		Why:       "one text line per step, almost no pixel work: latency is flush pacing and scheduling"},
	{Name: "web", W: 1024, H: 768, Sessions: 1, Limit: 150 * time.Millisecond,
		Script: newWebScript, ReplayOps: 54,
		Why: "54 double-buffered pages, cache off: translate, offscreen, SRSF, PNG, decode, apply all busy (CPU-bound)"},
	{Name: "web_wan", W: 1024, H: 768, Sessions: 1, WAN: true, Limit: 150 * time.Millisecond,
		Script: newWebScript, ReplayOps: 54,
		Why: "same pages over 100 Mbps / 20 ms RTT with the 4 MB payload cache granted: bytes, not CPU, buy latency"},
	{Name: "video", W: 1024, H: 768, Sessions: 1, Rate: 24, Jitter: 5 * time.Millisecond, Limit: time.Second / 24,
		Script: newVideoScript, ReplayOps: 96,
		Why: "24 fps 352x240 YV12 scaled to full screen plus audio: the native video path, client convert+scale dominates"},
	{Name: "fleet", W: 320, H: 240, Sessions: 64, Fleet: true, Rate: 1600, Limit: 10 * time.Millisecond,
		Script:    func(seed int64, n int) script { return newTextScript(seed, n, false, 8, 8, 280) },
		ReplayOps: 400,
		Why:       "64 sessions on the 2-shard scheduled driver at 1600 updates/s: wheel, run queues, heartbeat and audit timers under load"},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

const (
	// opTimeout fails an op not seen on glass; the paper's interactivity
	// threshold is 150 ms, so two seconds is unambiguous loss.
	opTimeout = 2 * time.Second
	// safetyTick is the fallback poll behind the read hook (see glass.go).
	safetyTick = 5 * time.Millisecond
	// warmShare of the measured time runs first, unmeasured.
	warmShare = 0.15
	// fingerprintOps is the fixed op prefix input_crc is computed over.
	fingerprintOps = 32
)
