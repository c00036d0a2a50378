package loadsim

import (
	"fmt"

	"thinc/internal/telemetry"
)

// ReportSchema versions the BENCH_pr10.json layout.
const ReportSchema = "thinc-load/v1"

// Pct is a percentile summary extracted from a telemetry histogram,
// reported in microseconds regardless of the histogram's native unit.
type Pct struct {
	Count int64 `json:"count"`
	AvgUS int64 `json:"avg_us"`
	P50US int64 `json:"p50_us"`
	P95US int64 `json:"p95_us"`
	P99US int64 `json:"p99_us"`
}

// GoroutineReport captures the goroutine-count evidence for the core
// scaling claim: session count must not leak into goroutine count.
type GoroutineReport struct {
	// Base is the count before the fleet existed (harness + runtime).
	Base int `json:"base"`
	// Idle is the steady-state count with every session attached and
	// no active workload.
	Idle int `json:"idle"`
	// Final is the count after the drive phase, sessions still attached.
	Final int `json:"final"`
	// Budget is the self-check ceiling for Idle and Final:
	// Base + 2*Shards + slack. O(shards), independent of Sessions.
	Budget int `json:"budget"`
}

// Report is the self-checking output of one load run — the artifact
// cmd/thinc-load writes as BENCH_pr10.json. Check() returns the list
// of violated invariants; an empty list is the pass criterion, so the
// file proves its own claims rather than asking the reader to eyeball
// thresholds.
type Report struct {
	Schema   string `json:"schema"`
	Sessions int    `json:"sessions"`
	Active   int    `json:"active_sessions"`
	Shards   int    `json:"shards"`
	Procs    int    `json:"gomaxprocs"`

	AttachMS int64 `json:"attach_ms"` // wall time to attach every session
	DriveMS  int64 `json:"drive_ms"`  // wall time of the measured phase

	// SessionsPerCore is Sessions divided by the CPU cores actually
	// consumed during the drive phase (process CPU time / wall time) —
	// the honest capacity headline, not a division by GOMAXPROCS.
	SessionsPerCore float64 `json:"sessions_per_core"`
	CPUCoresUsed    float64 `json:"cpu_cores_used"`

	Goroutines GoroutineReport `json:"goroutines"`

	// HeapPerIdleSession is (heap after attach+GC - heap before fleet
	// +GC) / Sessions: the marginal footprint of one idle session.
	HeapPerIdleSession int64 `json:"heap_bytes_per_idle_session"`

	// TaskWait is wake-to-run queueing delay on the shard workers (the
	// fairness headline); TaskRun is the cost of one pump pass — the
	// flush latency of the sharded core.
	TaskWait Pct `json:"task_wait"`
	TaskRun  Pct `json:"task_run"`

	// E2E is client-perceived damage-to-glass latency at the lossless
	// rung, measured by the wire-v5 TimeMark/MarkAck pipeline — the
	// same instrument BENCH_pr7.json reads, now under 10k sessions.
	// The stage split attributes the tail: queue (damage sat in the
	// client buffer), write (batch encode+write), wire (flight +
	// client decode), apply (client-reported paint time).
	E2E        Pct `json:"e2e_lossless"`
	StageQueue Pct `json:"e2e_stage_queue"`
	StageWrite Pct `json:"e2e_stage_write"`
	StageWire  Pct `json:"e2e_stage_wire"`
	StageApply Pct `json:"e2e_stage_apply"`

	// Shard occupancy at the end of the drive phase.
	ShardTasks      int64 `json:"shard_tasks"`
	ShardWakes      int64 `json:"shard_wakes_total"`
	ShardRuns       int64 `json:"shard_runs_total"`
	HeartbeatsSent  int64 `json:"heartbeats_sent_total"`
	MarksSent       int64 `json:"e2e_marks_total"`
	MarkAcks        int64 `json:"e2e_acks_total"`
	ClientPongs     int64 `json:"client_pongs_sent"`
	ClientMsgs      int64 `json:"client_msgs_received"`
	ClientBytes     int64 `json:"client_bytes_received"`
	DegradeNotices  int64 `json:"degrade_notices_received"`
	Reattaches      int64 `json:"reattaches_completed"`
	SessionFailures int64 `json:"session_failures"`

	// Budgets the checks ran against (recorded so the JSON is
	// self-describing).
	E2EEnvelopeUS    int64 `json:"budget_e2e_p99_us"`
	TaskWaitBudgetUS int64 `json:"budget_task_wait_p99_us"`
	HeapBudgetBytes  int64 `json:"budget_heap_bytes_per_session"`
}

// Check validates the run's invariants and returns every violation.
func (r *Report) Check() []string {
	var bad []string
	fail := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf(format, args...))
	}
	if r.Schema != ReportSchema {
		fail("schema %q, want %q", r.Schema, ReportSchema)
	}
	if r.SessionFailures != 0 {
		fail("%d sessions died during the run", r.SessionFailures)
	}
	if r.ShardTasks != int64(r.Sessions) {
		fail("shard tasks %d != sessions %d: connections leaked or died",
			r.ShardTasks, r.Sessions)
	}
	// The scaling claim: goroutines are O(shards), never O(sessions).
	if r.Goroutines.Idle > r.Goroutines.Budget {
		fail("idle goroutines %d exceed O(shards) budget %d",
			r.Goroutines.Idle, r.Goroutines.Budget)
	}
	if r.Goroutines.Final > r.Goroutines.Budget {
		fail("post-drive goroutines %d exceed O(shards) budget %d",
			r.Goroutines.Final, r.Goroutines.Budget)
	}
	if r.HeapPerIdleSession > r.HeapBudgetBytes {
		fail("heap %d bytes per idle session exceeds budget %d",
			r.HeapPerIdleSession, r.HeapBudgetBytes)
	}
	// Liveness: heartbeats flowed both ways, marks closed the loop.
	if r.HeartbeatsSent == 0 {
		fail("no heartbeats sent: heartbeat timers never fired")
	}
	if r.ClientPongs == 0 {
		fail("no pongs returned: inbound delivery path dead")
	}
	if r.MarksSent == 0 || r.MarkAcks == 0 {
		fail("e2e pipeline dead: %d marks, %d acks", r.MarksSent, r.MarkAcks)
	}
	if r.E2E.Count == 0 {
		fail("no e2e latency samples at the lossless rung")
	} else if r.E2E.P99US > r.E2EEnvelopeUS {
		fail("e2e p99 %dus exceeds envelope %dus", r.E2E.P99US, r.E2EEnvelopeUS)
	}
	if r.TaskWait.Count == 0 {
		fail("no task-wait samples: shard pool hooks disconnected")
	} else if r.TaskWait.P99US > r.TaskWaitBudgetUS {
		fail("task wait p99 %dus exceeds budget %dus",
			r.TaskWait.P99US, r.TaskWaitBudgetUS)
	}
	return bad
}

// histSnap finds the named histogram series (matching any provided
// labels) in a registry snapshot — the same extraction internal/bench
// uses for its reports.
func histSnap(reg *telemetry.Registry, name string, labels ...telemetry.Label) telemetry.HistogramSnapshot {
	want := map[string]string{}
	for _, l := range labels {
		want[l.Key] = l.Value
	}
	for _, s := range reg.Snapshot() {
		if s.Name != name || s.Histogram == nil {
			continue
		}
		match := true
		for k, v := range want {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return *s.Histogram
		}
	}
	return telemetry.HistogramSnapshot{}
}

// pctOf folds a histogram snapshot into microsecond percentiles; div
// converts the native unit (1 for us histograms, 1000 for ns).
func pctOf(s telemetry.HistogramSnapshot, div int64) Pct {
	p := Pct{Count: s.Count}
	if s.Count == 0 {
		return p
	}
	p.AvgUS = s.Sum / s.Count / div
	p.P50US = quantile(s, 0.50) / div
	p.P95US = quantile(s, 0.95) / div
	p.P99US = quantile(s, 0.99) / div
	return p
}

// quantile locates the q-th quantile by linear interpolation inside
// the containing bucket, in the histogram's native unit. The overflow
// bucket reports its lower bound.
func quantile(s telemetry.HistogramSnapshot, q float64) int64 {
	target := int64(q * float64(s.Count))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i, c := range s.Buckets {
		if seen+c < target {
			seen += c
			continue
		}
		if i >= len(s.Bounds) { // +Inf bucket
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := int64(0)
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		frac := float64(target-seen) / float64(c)
		return lo + int64(frac*float64(hi-lo))
	}
	return s.Bounds[len(s.Bounds)-1]
}
