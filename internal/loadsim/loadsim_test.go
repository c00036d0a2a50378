package loadsim

import (
	"os"
	"testing"
	"time"

	"thinc/internal/telemetry"
	"thinc/internal/testutil"
)

// TestRunSmoke drives a small fleet through the full harness path —
// attach, damage, degradation churn, ticket reattach — and requires
// the report to pass its own self-checks. Budgets are loosened versus
// the 10k benchmark because this test also runs under -race, which
// slows every stage by an order of magnitude.
func TestRunSmoke(t *testing.T) {
	testutil.CheckGoroutines(t)
	sessions, duration := 200, 1200*time.Millisecond
	if testing.Short() {
		sessions, duration = 60, 600*time.Millisecond
	}
	rep, err := Run(Options{
		Sessions:      sessions,
		Active:        24,
		Duration:      duration,
		Tick:          20 * time.Millisecond,
		ReattachEvery: 10,
		DegradeEvery:  8,

		E2EEnvelopeUS:    2_000_000,
		TaskWaitBudgetUS: 2_000_000,
		HeapBudgetBytes:  4 << 20, // small fleets amortize fixed cost badly
		Progress:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad := rep.Check(); len(bad) > 0 {
		t.Fatalf("self-check failures: %v", bad)
	}
	if rep.Reattaches == 0 {
		t.Error("reattach churn never completed a reattach")
	}
	if rep.DegradeNotices == 0 {
		t.Error("degradation churn never delivered a notice")
	}
	if rep.ClientMsgs == 0 || rep.ClientBytes == 0 {
		t.Error("clients decoded no traffic")
	}
}

// TestLoadSmoke1K is the `make bench-load-smoke` CI entry: a thousand
// event-driven sessions under the race detector, self-checked like the
// full 10k benchmark. Gated behind THINC_LOAD_SMOKE because a 1k-fleet
// race-instrumented run is too heavy for every `go test ./...`.
func TestLoadSmoke1K(t *testing.T) {
	if os.Getenv("THINC_LOAD_SMOKE") == "" {
		t.Skip("set THINC_LOAD_SMOKE=1 to run the 1k-session load smoke")
	}
	testutil.CheckGoroutines(t)
	rep, err := Run(Options{
		Sessions:      1000,
		Active:        32,
		Duration:      2 * time.Second,
		Tick:          25 * time.Millisecond,
		ReattachEvery: 20,
		DegradeEvery:  16,

		// Race instrumentation slows every stage ~10x and fattens the
		// heap, so the latency envelopes widen and the per-session heap
		// budget doubles; the structural invariants (no dead sessions,
		// O(shards) goroutines, live heartbeat/mark loops) stay strict.
		E2EEnvelopeUS:    5_000_000,
		TaskWaitBudgetUS: 5_000_000,
		HeapBudgetBytes:  2 << 20,
		Progress:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad := rep.Check(); len(bad) > 0 {
		t.Fatalf("self-check failures: %v", bad)
	}
	if rep.Sessions != 1000 || rep.ShardTasks != 1000 {
		t.Fatalf("fleet incomplete: %d sessions, %d tasks", rep.Sessions, rep.ShardTasks)
	}
}

// TestReportCheck pins the self-check logic itself: a fabricated
// report violating each invariant must be flagged, and a healthy one
// must pass clean.
func TestReportCheck(t *testing.T) {
	good := Report{
		Schema: ReportSchema, Sessions: 10, Shards: 4,
		Goroutines:         GoroutineReport{Base: 5, Idle: 12, Final: 13, Budget: 37},
		HeapPerIdleSession: 1000, HeapBudgetBytes: 2000,
		TaskWait:       Pct{Count: 100, P99US: 10},
		E2E:            Pct{Count: 50, P99US: 500},
		ShardTasks:     10,
		HeartbeatsSent: 10, ClientPongs: 10, MarksSent: 5, MarkAcks: 5,
		E2EEnvelopeUS: 1000, TaskWaitBudgetUS: 1000,
	}
	if bad := good.Check(); len(bad) != 0 {
		t.Fatalf("healthy report flagged: %v", bad)
	}
	cases := []struct {
		name   string
		mutate func(*Report)
	}{
		{"dead sessions", func(r *Report) { r.SessionFailures = 1 }},
		{"task leak", func(r *Report) { r.ShardTasks = 9 }},
		{"goroutines O(sessions)", func(r *Report) { r.Goroutines.Idle = 100 }},
		{"heap blowout", func(r *Report) { r.HeapPerIdleSession = 5000 }},
		{"no heartbeats", func(r *Report) { r.HeartbeatsSent = 0 }},
		{"e2e over envelope", func(r *Report) { r.E2E.P99US = 5000 }},
		{"no e2e samples", func(r *Report) { r.E2E.Count = 0 }},
		{"task wait blowout", func(r *Report) { r.TaskWait.P99US = 5000 }},
	}
	for _, tc := range cases {
		r := good
		tc.mutate(&r)
		if bad := r.Check(); len(bad) == 0 {
			t.Errorf("%s: violation not flagged", tc.name)
		}
	}
}

// TestQuantile pins the percentile extraction against a hand-built
// histogram: 90 samples in [0,100), 10 in [100,200).
func TestQuantile(t *testing.T) {
	s := telemetry.HistogramSnapshot{
		Count:   100,
		Sum:     10_000,
		Bounds:  []int64{100, 200},
		Buckets: []int64{90, 10, 0},
	}
	if p50 := quantile(s, 0.50); p50 < 40 || p50 > 70 {
		t.Errorf("p50 = %d, want ~55", p50)
	}
	if p99 := quantile(s, 0.99); p99 < 100 || p99 > 200 {
		t.Errorf("p99 = %d, want inside [100,200)", p99)
	}
	if got := pctOf(s, 1).AvgUS; got != 100 {
		t.Errorf("avg = %d, want 100", got)
	}
	if empty := pctOf(telemetry.HistogramSnapshot{}, 1); empty.Count != 0 || empty.P99US != 0 {
		t.Errorf("empty snapshot produced %+v", empty)
	}
}
