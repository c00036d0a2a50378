package server

import (
	"net"
	"sync"
	"testing"
	"time"

	"thinc/internal/client"
	"thinc/internal/telemetry"
)

// e2eOptions: fast flush and mark cadence so a test sees acked marks in
// milliseconds, with the audit off to keep the wire quiet. Heartbeats
// are fast because they age out unanswered marks; the liveness timeout
// is not (its default, three intervals, would reap the connection on
// one 30ms scheduling stall, and a reaped peer never reaches a verdict).
func e2eOptions() Options {
	return Options{
		FlushInterval:     time.Millisecond,
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  20 * time.Second,
		MarkInterval:      time.Millisecond,
		MarkTimeout:       150 * time.Millisecond,
		DisableAudit:      true,
	}
}

// waitForVerdict paints fresh damage while waiting for the legacy
// verdict: marks ride damage, so an idle screen sends none and the
// misses never accumulate.
func waitForVerdict(t *testing.T, host *Host) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if host.Resilience().E2ELegacyPeers == 1 {
			return
		}
		paintTestScene(host)
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("timeout waiting for legacy verdict")
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
	if rs.E2ELegacyPeers != 0 {
		t.Errorf("live v5 peer was declared legacy: %+v", rs)
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

func TestE2ELegacyPeerUnmarked(t *testing.T) {
	opts := e2eOptions()
	opts.MarkTimeout = 20 * time.Millisecond
	host, addr := startHost(t, 96, 64, opts)
	conn, err := client.Dial(addr, "owner", "pw", 96, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetE2EDisabled(true) // a faithful pre-v5 peer: marks ignored
	go conn.Run()

	paintTestScene(host)
	want := host.ScreenChecksum()
	waitFor(t, "convergence", func() bool {
		return conn.Snapshot().Checksum() == want
	})
	// Marks ride damage, and the verdict needs several to expire — keep
	// the display busy while the misses accumulate.
	waitForVerdict(t, host)
	marksAtVerdict := host.Resilience().E2EMarks

	// Keep the display busy: a legacy peer must stay unmarked even with
	// fresh damage flowing.
	paintTestScene(host)
	time.Sleep(50 * time.Millisecond)
	rs := host.Resilience()
	if rs.E2EMarks != marksAtVerdict {
		t.Errorf("server kept marking a legacy peer: %d -> %d marks",
			marksAtVerdict, rs.E2EMarks)
	}
	if rs.E2EAcks != 0 {
		t.Errorf("legacy peer acked %d marks", rs.E2EAcks)
	}
	if st := conn.Stats(); st.MarkAcksSent != 0 {
		t.Errorf("legacy peer sent %d acks", st.MarkAcksSent)
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

func TestE2EVerdictRidesReattach(t *testing.T) {
	opts := e2eOptions()
	opts.MarkTimeout = 20 * time.Millisecond
	host, addr := startHost(t, 96, 64, opts)
	var tmu sync.Mutex
	var transport net.Conn
	conn, err := client.DialWith(func() (net.Conn, error) {
		nc, err := net.Dial("tcp", addr)
		tmu.Lock()
		transport = nc
		tmu.Unlock()
		return nc, err
	}, "owner", "pw", 96, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetE2EDisabled(true)
	go conn.Run()

	paintTestScene(host)
	waitForVerdict(t, host)
	waitFor(t, "ticket issued", func() bool { return len(conn.Ticket()) > 0 })

	// Drop the transport so the server detaches and retains the session,
	// then reattach by ticket: the verdict lives on the retained core
	// client, so the new connection must not be re-probed with marks.
	tmu.Lock()
	transport.Close()
	tmu.Unlock()
	waitFor(t, "session detached", func() bool { return host.NumDetached() == 1 })
	if err := conn.Redial(); err != nil {
		t.Fatal(err)
	}
	go conn.Run()
	waitFor(t, "reattach", func() bool { return host.Resilience().Reattaches == 1 })
	marksAtVerdict := host.Resilience().E2EMarks
	paintTestScene(host)
	time.Sleep(50 * time.Millisecond)
	rs := host.Resilience()
	if rs.E2ELegacyPeers != 1 {
		t.Errorf("verdict re-derived after reattach: %d legacy peers", rs.E2ELegacyPeers)
	}
	if rs.E2EMarks != marksAtVerdict {
		t.Errorf("reattached legacy peer was re-marked: %d -> %d",
			marksAtVerdict, rs.E2EMarks)
	}
}
