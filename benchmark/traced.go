package main

import (
	"fmt"
	"math"

	"thinc/internal/telemetry"
)

// histQuantile reads the q-quantile of a histogram in a registry
// snapshot, by linear interpolation inside the bucket that holds it; the
// overflow bucket reports its lower edge. It returns 0 and a zero count
// for a series the registry does not have (shard series outside the
// fleet).
func histQuantile(snap []telemetry.SeriesSnapshot, q float64, name string, labels ...telemetry.Label) (value float64, count int64) {
	for _, s := range snap {
		if s.Name != name || s.Histogram == nil || !labelsMatch(s.Labels, labels) {
			continue
		}
		h := s.Histogram
		if h.Count == 0 {
			return 0, 0
		}
		target := int64(math.Ceil(q * float64(h.Count)))
		var seen int64
		for i, c := range h.Buckets {
			if seen+c < target {
				seen += c
				continue
			}
			if i >= len(h.Bounds) {
				return float64(h.Bounds[len(h.Bounds)-1]), h.Count
			}
			lo := int64(0)
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			frac := float64(target-seen) / float64(c)
			return float64(lo) + frac*float64(h.Bounds[i]-lo), h.Count
		}
	}
	return 0, 0
}

func labelsMatch(have map[string]string, want []telemetry.Label) bool {
	for _, l := range want {
		if have[l.Key] != l.Value {
			return false
		}
	}
	return true
}

// livePass sets the workload up once and drives it for the given
// measured time; traced turns the program's e2e mark loop on. read, if
// set, sees the rig's registry before teardown.
func livePass(spec *workloadSpec, cfg config, seconds float64, traced bool, read func(*rig, live)) (live, error) {
	one := cfg
	one.setupReps, one.seconds = 1, seconds
	r, _, err := setUp(spec, one, traced)
	if err != nil {
		return live{}, err
	}
	defer r.close()
	w, err := r.drive(cfg.seed, one.warm(), one.measure())
	if err != nil {
		return live{}, err
	}
	l := summarise(spec, w)
	if err := r.oracle(); err != nil {
		return l, fmt.Errorf("oracle: %w", err)
	}
	if read != nil {
		read(r, l)
	}
	return l, nil
}

// runTraced is the `--trace 1` run. It claims nothing end to end: the
// staged replay gives per-layer costs, and a quarter-length live pass
// with the program's own mark loop on (read through Host.Telemetry /
// Fleet.Telemetry, no new instrumentation) gives the stage split, set
// against an equally long pass with marks off for the tracing overhead.
func runTraced(spec *workloadSpec, cfg config) (*runResult, []span, error) {
	res := &runResult{Workload: spec.Name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: 1,
		Metrics:  map[string]float64{},
		InputCRC: fingerprint(spec, cfg.seed)}
	for _, m := range perLayer {
		res.Metrics[m.Name] = 0
	}

	ops := cfg.replayOps
	if ops == 0 {
		ops = max(4, int(float64(spec.ReplayOps)*cfg.seconds/20))
	}
	spans, err := runReplay(spec, cfg.seed, ops, res.Metrics)
	if err != nil {
		return nil, nil, err
	}

	quarter := cfg.seconds / 4
	plain, err := livePass(spec, cfg, quarter, false, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("untraced pass: %w", err)
	}
	var stagesSeen bool
	marked, err := livePass(spec, cfg, quarter, true, func(r *rig, l live) {
		n := float64(max(l.attempted, 1))
		snap := r.reg.Snapshot()
		stagesSeen = true
		for _, st := range []string{"queue", "write", "wire", "apply"} {
			p50, count := histQuantile(snap, 0.5, "thinc_e2e_stage_ns", telemetry.L("stage", st))
			res.Metrics["server.stage_"+st+"_p50_us"] = p50 / 1e3
			stagesSeen = stagesSeen && count > 0
		}
		p99, _ := histQuantile(snap, 0.99, "thinc_e2e_stage_ns", telemetry.L("stage", "queue"))
		res.Metrics["server.stage_queue_p99_us"] = p99 / 1e3
		res.Metrics["server.e2e_acks_per_op"] = float64(r.reg.Total("thinc_e2e_acks_total")) / n
		wait50, waits := histQuantile(snap, 0.5, "thinc_shard_task_wait_ns")
		wait99, _ := histQuantile(snap, 0.99, "thinc_shard_task_wait_ns")
		run50, _ := histQuantile(snap, 0.5, "thinc_shard_task_run_ns")
		res.Metrics["shard.task_wait_p50_us"] = wait50 / 1e3
		res.Metrics["shard.task_wait_p99_us"] = wait99 / 1e3
		res.Metrics["shard.task_run_p50_us"] = run50 / 1e3
		res.Metrics["shard.wakes_per_op"] = float64(r.reg.Total("thinc_shard_task_wakes_total")) / n
		res.Metrics["shard.wheel_fired_per_op"] = float64(r.reg.Total("thinc_shard_wheel_fired_total")) / n
		if spec.Fleet {
			stagesSeen = stagesSeen && waits > 0
		}
	})
	if err != nil {
		return nil, nil, fmt.Errorf("traced pass: %w", err)
	}
	res.Metrics["harness.poll_gap_p99_us"] = marked.gapP99
	res.Metrics["harness.hook_seen_ratio"] = marked.hookSeen
	res.Metrics["harness.late_p99_us"] = marked.lateP99
	res.Metrics["harness.trace_overhead_ratio"] = marked.p50 / plain.p50

	res.Attempted = ops + plain.attempted + marked.attempted
	res.Failed = plain.failed + marked.failed
	res.Samples = marked.seen
	res.Correct = stagesSeen
	if !stagesSeen {
		res.Notes = append(res.Notes, "the traced pass left an e2e stage (or shard.task_wait) without samples")
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"replayed %d ops; glass_p50_us untraced %.1f, traced %.1f over %d and %d ops",
		ops, plain.p50, marked.p50, plain.attempted, marked.attempted))
	return res, spans, nil
}
