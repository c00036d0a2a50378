package server

import (
	"testing"
	"time"

	"thinc/internal/client"
	"thinc/internal/core"
	"thinc/internal/fb"
	"thinc/internal/geom"
	"thinc/internal/pixel"
	"thinc/internal/wire"
	"thinc/internal/xserver"
)

// auditOptions: fast audit cadence over a 96x64 screen with 16px tiles
// (a 6x4 grid, 24 tiles), so the rotating 16-tile window covers the
// screen in two probes.
func auditOptions() Options {
	return Options{
		FlushInterval: time.Millisecond,
		AuditInterval: 10 * time.Millisecond,
		AuditTimeout:  250 * time.Millisecond,
		Core:          core.Options{AuditTileSize: 16},
	}
}

// paintTestScene draws deterministic content across the whole screen.
func paintTestScene(host *Host) {
	host.Do(func(d *xserver.Display) {
		win := d.CreateWindow(geom.XYWH(0, 0, 96, 64))
		d.FillRect(win, &xserver.GC{Fg: pixel.RGB(30, 60, 90)}, geom.XYWH(0, 0, 96, 64))
		d.FillRect(win, &xserver.GC{Fg: pixel.RGB(200, 50, 10)}, geom.XYWH(8, 8, 40, 30))
		d.DrawText(win, &xserver.GC{Fg: pixel.RGB(255, 255, 255)}, 10, 40, "audit")
	})
}

// corruptTiles flips one pixel inside each listed tile of the client's
// live framebuffer — silent corruption that no decoder can see.
func corruptTiles(conn *client.Conn, tiles ...int) {
	conn.WithFB(func(f *fb.Framebuffer) {
		g := fb.Grid(f.W(), f.H(), 16)
		for _, i := range tiles {
			r := g.Rect(i)
			f.Set(r.X0, r.Y0, f.At(r.X0, r.Y0)^0x00000100)
		}
	})
}

func TestAuditHealsSilentCorruption(t *testing.T) {
	host, addr := startHost(t, 96, 64, auditOptions())
	conn, err := client.Dial(addr, "owner", "pw", 96, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go conn.Run()

	paintTestScene(host)
	want := host.ScreenChecksum()
	waitFor(t, "initial convergence", func() bool {
		return conn.Snapshot().Checksum() == want
	})

	// Silently diverge two tiles in different probe windows. The audit
	// must localize and heal them with targeted repairs — no resync.
	corruptTiles(conn, 2, 20)
	waitFor(t, "self-healing", func() bool {
		return conn.Snapshot().Checksum() == want
	})

	rs := host.Resilience()
	if rs.AuditProbes == 0 || rs.AuditReplies == 0 {
		t.Fatalf("no audit traffic: %+v", rs)
	}
	if rs.AuditMismatches < 2 {
		t.Errorf("AuditMismatches = %d, want >= 2", rs.AuditMismatches)
	}
	if rs.AuditRepairs < 2 || rs.AuditRepairBytes < 2*16*16*4 {
		t.Errorf("repairs = %d tiles / %d bytes, want >= 2 / %d",
			rs.AuditRepairs, rs.AuditRepairBytes, 2*16*16*4)
	}
	if rs.AuditResyncs != 0 {
		t.Errorf("small divergence escalated to %d resyncs", rs.AuditResyncs)
	}
	if rs.AuditSweeps != 0 {
		t.Errorf("small divergence escalated to %d sweeps", rs.AuditSweeps)
	}
	st := conn.Stats()
	if st.AuditProbes == 0 || st.AuditReplies == 0 {
		t.Errorf("client saw %d probes / %d replies", st.AuditProbes, st.AuditReplies)
	}
}

func TestAuditEscalatesToSweepAndResync(t *testing.T) {
	host, addr := startHost(t, 96, 64, auditOptions())
	conn, err := client.Dial(addr, "owner", "pw", 96, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go conn.Run()

	paintTestScene(host)
	want := host.ScreenChecksum()
	waitFor(t, "initial convergence", func() bool {
		return conn.Snapshot().Checksum() == want
	})

	// Diverge every tile: the sampled window overflows the escalation
	// threshold, the sweep overflows the resync threshold, and the
	// ladder's last rung heals the screen wholesale.
	all := make([]int, 24)
	for i := range all {
		all[i] = i
	}
	corruptTiles(conn, all...)
	waitFor(t, "resync healing", func() bool {
		return conn.Snapshot().Checksum() == want
	})

	rs := host.Resilience()
	if rs.AuditSweeps < 1 {
		t.Errorf("AuditSweeps = %d, want >= 1", rs.AuditSweeps)
	}
	if rs.AuditResyncs < 1 {
		t.Errorf("AuditResyncs = %d, want >= 1", rs.AuditResyncs)
	}
}

// TestAuditSilentPeerResynced: a session that reads everything but
// never answers a probe cannot be verified, so after resyncMissLimit
// unanswered probes the server resyncs it — and keeps probing, since
// silence is never taken as a verdict on the peer.
func TestAuditSilentPeerResynced(t *testing.T) {
	opts := auditOptions()
	opts.AuditTimeout = 20 * time.Millisecond
	host, addr := startHost(t, 96, 64, opts)
	nc, enc := rawSession(t, addr, "owner", "pw",
		&wire.ClientInit{ViewW: 96, ViewH: 64, Name: "silent"})
	defer nc.Close()
	go func() {
		for {
			m, err := wire.ReadMessage(enc)
			if err != nil {
				return
			}
			if p, ok := m.(*wire.Ping); ok {
				if wire.WriteMessage(enc, &wire.Pong{Seq: p.Seq, TimeUS: p.TimeUS}) != nil {
					return
				}
			}
		}
	}()
	paintTestScene(host)

	waitFor(t, "silent peer resynced", func() bool {
		return host.Resilience().AuditResyncs >= 1
	})
	probesAtResync := host.Resilience().AuditProbes
	waitFor(t, "probing resumes", func() bool {
		return host.Resilience().AuditProbes > probesAtResync
	})
	if rs := host.Resilience(); rs.AuditReplies != 0 || rs.AuditTimeouts < resyncMissLimit {
		t.Errorf("silent peer: %d replies, %d timeouts, want 0 and >= %d",
			rs.AuditReplies, rs.AuditTimeouts, resyncMissLimit)
	}
}

func TestAuditDisabled(t *testing.T) {
	opts := auditOptions()
	opts.DisableAudit = true
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
	time.Sleep(50 * time.Millisecond)
	if rs := host.Resilience(); rs.AuditProbes != 0 {
		t.Errorf("DisableAudit sent %d probes", rs.AuditProbes)
	}
	if st := conn.Stats(); st.AuditProbes != 0 {
		t.Errorf("client saw %d probes with audit disabled", st.AuditProbes)
	}
}

func TestAuditDeferredWhileDegraded(t *testing.T) {
	opts := auditOptions()
	// A hard pin: with the controller running, a forced rung drifts back
	// to lossless on an idle link within a few ticks (see ForceRung) and
	// a legitimate probe fires inside the watch window.
	opts.DisableOverload = true
	// Heartbeats at the audit cadence are the watch window's clock: the
	// same loop that answers a heartbeat tick runs the audit ticks.
	opts.HeartbeatInterval = opts.AuditInterval
	// ...but not the liveness clock: the default timeout of three
	// intervals is 30ms here, and one scheduling stall that long reaps
	// the connection, after which no pong is ever counted again.
	opts.HeartbeatTimeout = 20 * time.Second
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

	// Pin a lossy rung: probes must stop (a lossy screen never
	// byte-matches), then resume once the ladder recovers.
	host.ForceRung(2)
	// The notice leaves from the loop that sends probes, after the pin:
	// once the client holds it, any probe decided before the pin has
	// been counted and every later audit tick sees the lossy rung.
	waitFor(t, "rung notice", func() bool {
		return conn.Stats().DegradeRung == 2
	})
	before := host.Resilience().AuditProbes
	pongs := conn.Stats().PongsSent
	waitFor(t, "five heartbeat periods of audit ticks", func() bool {
		return conn.Stats().PongsSent >= pongs+6
	})
	if got := host.Resilience().AuditProbes; got != before {
		t.Errorf("audited a degraded client: %d -> %d probes", before, got)
	}
	host.ForceRung(0)
	waitFor(t, "audit re-armed after recovery", func() bool {
		return host.Resilience().AuditProbes > before
	})
}
