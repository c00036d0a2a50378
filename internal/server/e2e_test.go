package server

import (
	"testing"
	"time"

	"thinc/internal/client"
	"thinc/internal/telemetry"
)

// e2eOptions: fast flush and mark cadence so a test sees acked marks in
// milliseconds, with the audit off to keep the wire quiet.
func e2eOptions() Options {
	return Options{
		FlushInterval: time.Millisecond,
		MarkInterval:  time.Millisecond,
		MarkTimeout:   150 * time.Millisecond,
		DisableAudit:  true,
	}
}

func TestE2EMarkAckFlow(t *testing.T) {
	host, addr := startHost(t, 96, 64, e2eOptions())
	conn, err := client.Dial(addr, "owner", "pw", 96, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go conn.Run()

	paintTestScene(host)
	want := host.ScreenChecksum()
	waitFor(t, "convergence", func() bool {
		return conn.Snapshot().Checksum() == want
	})
	waitFor(t, "acked marks", func() bool {
		return host.Resilience().E2EAcks > 0
	})

	rs := host.Resilience()
	if rs.E2EMarks < rs.E2EAcks {
		t.Errorf("marks %d < acks %d", rs.E2EMarks, rs.E2EAcks)
	}
	st := conn.Stats()
	if st.MarksSeen == 0 || st.MarkAcksSent == 0 {
		t.Errorf("client saw %d marks / sent %d acks", st.MarksSeen, st.MarkAcksSent)
	}

	// The stage decomposition must be consistent with the headline
	// figure by construction: queue+write+wire+apply == e2e, modulo the
	// ns→µs truncation of each e2e observation.
	reg := host.Telemetry()
	var stageSumNS, stageCount int64
	for _, stage := range []string{"queue", "write", "wire", "apply"} {
		n, sum := reg.HistogramStats("thinc_e2e_stage_ns", telemetry.L("stage", stage))
		if n == 0 {
			t.Errorf("stage %q has no observations", stage)
		}
		stageSumNS += sum
		stageCount = n
	}
	e2eCount, e2eSumUS := int64(0), int64(0)
	for _, s := range reg.Snapshot() {
		if s.Name == "thinc_e2e_latency_us" && s.Histogram != nil {
			e2eCount += s.Histogram.Count
			e2eSumUS += s.Histogram.Sum
		}
	}
	if e2eCount != stageCount {
		t.Errorf("e2e observations %d != per-stage observations %d", e2eCount, stageCount)
	}
	if diff := stageSumNS - e2eSumUS*1000; diff < 0 || diff >= e2eCount*1000 {
		t.Errorf("stage sum %dns vs e2e sum %dus: inconsistent (diff %d, acks %d)",
			stageSumNS, e2eSumUS, diff, e2eCount)
	}
}

func TestE2EDisabled(t *testing.T) {
	opts := e2eOptions()
	opts.DisableE2E = true
	host, addr := startHost(t, 96, 64, opts)
	conn, err := client.Dial(addr, "owner", "pw", 96, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go conn.Run()

	paintTestScene(host)
	want := host.ScreenChecksum()
	waitFor(t, "convergence", func() bool {
		return conn.Snapshot().Checksum() == want
	})
	time.Sleep(30 * time.Millisecond)
	if rs := host.Resilience(); rs.E2EMarks != 0 {
		t.Errorf("DisableE2E sent %d marks", rs.E2EMarks)
	}
	if st := conn.Stats(); st.MarksSeen != 0 {
		t.Errorf("client saw %d marks with e2e disabled", st.MarksSeen)
	}
}
