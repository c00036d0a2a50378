package server

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thinc/internal/client"
	"thinc/internal/compress"
	"thinc/internal/core"
	"thinc/internal/faultconn"
	"thinc/internal/geom"
	"thinc/internal/pixel"
	"thinc/internal/wire"
	"thinc/internal/xserver"
)

// dialViewer attaches a read-only viewer using the shared-session
// password under its own user name.
func dialViewer(t *testing.T, addr, user, pass string) *client.Conn {
	t.Helper()
	conn, err := client.DialRole(addr, user, pass, 0, 0, wire.RoleViewer)
	if err != nil {
		t.Fatalf("viewer %s: %v", user, err)
	}
	t.Cleanup(func() { conn.Close() })
	go conn.Run()
	return conn
}

// TestBroadcastViewersConverge is the tentpole end to end: one owner
// and three viewers over TCP, each with its own command buffer, all
// converging byte-identical to the shared session screen.
func TestBroadcastViewersConverge(t *testing.T) {
	host, addr := startHost(t, 128, 96, Options{FlushInterval: time.Millisecond})
	host.gate.SetSessionPassword("watch")

	owner, err := client.Dial(addr, "owner", "pw", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	go owner.Run()

	viewers := []*client.Conn{
		dialViewer(t, addr, "v1", "watch"),
		dialViewer(t, addr, "v2", "watch"),
		dialViewer(t, addr, "v3", "watch"),
	}
	waitFor(t, "viewer count", func() bool { return host.NumViewers() == 3 })
	if host.NumClients() != 4 {
		t.Fatalf("NumClients = %d, want 4", host.NumClients())
	}

	host.Do(func(d *xserver.Display) {
		win := d.CreateWindow(geom.XYWH(0, 0, 128, 96))
		d.FillRect(win, &xserver.GC{Fg: pixel.RGB(10, 180, 40)}, geom.XYWH(8, 8, 80, 60))
		d.DrawText(win, &xserver.GC{Fg: pixel.RGB(255, 255, 255)}, 10, 74, "broadcast")
	})
	want := host.ScreenChecksum()
	waitFor(t, "owner convergence", func() bool { return owner.Snapshot().Checksum() == want })
	for i, v := range viewers {
		v := v
		waitFor(t, "viewer convergence", func() bool { return v.Snapshot().Checksum() == want })
		if v.Role() != wire.RoleViewer {
			t.Errorf("viewer %d granted role %d, want viewer", i, v.Role())
		}
	}

	st := host.Resilience()
	if st.ViewerAttaches != 3 {
		t.Errorf("ViewerAttaches = %d, want 3", st.ViewerAttaches)
	}
	// The fan-out amplification gauge sees 4 deliveries per translated
	// command once everyone is attached.
	if v := host.Telemetry().Value("thinc_session_viewers"); v != 3 {
		t.Errorf("thinc_session_viewers = %d, want 3", v)
	}
	if d := host.Telemetry().Value("thinc_fanout_deliveries_total"); d == 0 {
		t.Error("no fan-out deliveries recorded")
	}

	// Detach: the viewer count and gauge drop.
	viewers[0].Close()
	waitFor(t, "viewer detach", func() bool { return host.NumViewers() == 2 })
}

// TestViewerLateJoinerSyncs: a viewer attaching mid-session receives
// the full-screen sync and lands byte-identical to content drawn before
// it existed.
func TestViewerLateJoinerSyncs(t *testing.T) {
	host, addr := startHost(t, 96, 64, Options{FlushInterval: time.Millisecond})
	host.gate.SetSessionPassword("watch")

	host.Do(func(d *xserver.Display) {
		win := d.CreateWindow(geom.XYWH(0, 0, 96, 64))
		d.FillRect(win, &xserver.GC{Fg: pixel.RGB(200, 30, 30)}, geom.XYWH(0, 0, 48, 64))
		d.FillRect(win, &xserver.GC{Fg: pixel.RGB(30, 30, 200)}, geom.XYWH(48, 0, 48, 64))
	})
	want := host.ScreenChecksum()

	late := dialViewer(t, addr, "late", "watch")
	waitFor(t, "late joiner sync", func() bool { return late.Snapshot().Checksum() == want })
}

// TestViewerInputDiscarded: input from a viewer-role connection never
// reaches the application; the drop is counted.
func TestViewerInputDiscarded(t *testing.T) {
	var inputs atomic.Int64
	host, addr := startHost(t, 64, 48, Options{
		FlushInterval: time.Millisecond,
		OnInput:       func(*wire.Input) { inputs.Add(1) },
	})
	host.gate.SetSessionPassword("watch")

	viewer := dialViewer(t, addr, "v1", "watch")
	if err := viewer.SendInput(&wire.Input{Kind: wire.InputMouseButton, X: 1, Y: 1, Press: true}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "input drop counted", func() bool {
		return host.Resilience().ViewerInputDropped == 1
	})
	if got := inputs.Load(); got != 0 {
		t.Fatalf("viewer input reached the application (%d events)", got)
	}
	if v := host.Telemetry().Value("thinc_session_viewer_input_dropped_total"); v != 1 {
		t.Errorf("drop metric = %d, want 1", v)
	}

	// Owner input still flows.
	owner, err := client.Dial(addr, "owner", "pw", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	go owner.Run()
	if err := owner.SendInput(&wire.Input{Kind: wire.InputMouseButton, X: 2, Y: 2, Press: true}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "owner input", func() bool { return inputs.Load() == 1 })
}

// TestMaxViewersEnforced: the MaxViewers bound refuses the overflow
// attach and counts the rejection; negative disables the bound.
func TestMaxViewersEnforced(t *testing.T) {
	host, addr := startHost(t, 64, 48, Options{FlushInterval: time.Millisecond, MaxViewers: 1})
	host.gate.SetSessionPassword("watch")

	dialViewer(t, addr, "v1", "watch")
	waitFor(t, "first viewer", func() bool { return host.NumViewers() == 1 })

	if _, err := client.DialRole(addr, "v2", "watch", 0, 0, wire.RoleViewer); err == nil {
		t.Fatal("second viewer accepted past MaxViewers=1")
	}
	if st := host.Resilience(); st.ViewersRejected != 1 {
		t.Errorf("ViewersRejected = %d, want 1", st.ViewersRejected)
	}
	// Owners are not viewers: the bound does not block the owner.
	owner, err := client.Dial(addr, "owner", "pw", 0, 0)
	if err != nil {
		t.Fatalf("owner blocked by viewer bound: %v", err)
	}
	owner.Close()
}

// TestMaxViewersNegativeDisablesBound is its own test so that each
// leak-checked host has the test to itself: a second startHost in one
// test snapshots goroutines while the first host is still serving, and
// any goroutine that host starts a moment later reads as a leak.
func TestMaxViewersNegativeDisablesBound(t *testing.T) {
	hostOff, addrOff := startHost(t, 64, 48, Options{FlushInterval: time.Millisecond, MaxViewers: -1})
	hostOff.gate.SetSessionPassword("watch")
	for i := 0; i < 3; i++ {
		dialViewer(t, addrOff, "v", "watch")
	}
	waitFor(t, "unbounded viewers", func() bool { return hostOff.NumViewers() == 3 })
}

// TestViewerRoleSurvivesReattach: a viewer whose transport dies redials
// with its ticket and resumes as a viewer — the granted role rides the
// retained session, whatever the reconnecting hello claims.
func TestViewerRoleSurvivesReattach(t *testing.T) {
	var inputs atomic.Int64
	host, addr := startHost(t, 96, 64, Options{
		FlushInterval:     time.Millisecond,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  120 * time.Millisecond,
		DetachGrace:       5 * time.Second,
		OnInput:           func(*wire.Input) { inputs.Add(1) },
	})
	host.gate.SetSessionPassword("watch")

	// The first transport dies after 16 KiB of reads; redials are clean.
	var mu sync.Mutex
	dials := 0
	dial := func() (net.Conn, error) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		dials++
		first := dials == 1
		mu.Unlock()
		if first {
			return faultconn.Wrap(nc, faultconn.Plan{ReadFaultAfter: 16 << 10}), nil
		}
		return nc, nil
	}
	viewer, err := client.DialWithRole(dial, "v1", "watch", 0, 0, wire.RoleViewer)
	if err != nil {
		t.Fatal(err)
	}
	defer viewer.Close()
	go viewer.RunAuto(client.ReconnectPolicy{
		Initial: 20 * time.Millisecond, MaxAttempts: 10, Seed: 3,
	})

	// Paint enough distinct content to blow past the fault budget.
	for i := 0; i < 12; i++ {
		host.Do(func(d *xserver.Display) {
			win := d.CreateWindow(geom.XYWH(0, 0, 96, 64))
			pix := make([]pixel.ARGB, 24*16)
			for j := range pix {
				pix[j] = pixel.RGB(uint8(i*31+j), uint8(j), uint8(i))
			}
			d.PutImage(win, geom.XYWH((i%4)*24, (i%4)*16, 24, 16), pix, 24)
		})
		time.Sleep(2 * time.Millisecond)
	}

	waitFor(t, "viewer reattach", func() bool { return host.Resilience().Reattaches >= 1 })
	waitFor(t, "still a viewer", func() bool { return host.NumViewers() == 1 })
	if viewer.Role() != wire.RoleViewer {
		t.Fatalf("role after reattach = %d, want viewer", viewer.Role())
	}

	if err := viewer.SendInput(&wire.Input{Kind: wire.InputMouseButton, X: 1, Y: 1, Press: true}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "reattached viewer input dropped", func() bool {
		return host.Resilience().ViewerInputDropped >= 1
	})
	if inputs.Load() != 0 {
		t.Fatal("reattached viewer input reached the application")
	}
}

// TestForceRungUser pins one viewer's degradation rung without touching
// the others — the per-viewer independence knob the chaos harness uses.
func TestForceRungUser(t *testing.T) {
	host, addr := startHost(t, 64, 48, Options{FlushInterval: time.Millisecond})
	host.gate.SetSessionPassword("watch")

	v1 := dialViewer(t, addr, "v1", "watch")
	v2 := dialViewer(t, addr, "v2", "watch")
	waitFor(t, "viewers attached", func() bool { return host.NumViewers() == 2 })

	if n := host.ForceRungUser("v1", 2); n != 1 {
		t.Fatalf("ForceRungUser pinned %d connections, want 1", n)
	}
	waitFor(t, "v1 notified", func() bool { return v1.Stats().DegradeRung == 2 })
	if r := v2.Stats().DegradeRung; r != 0 {
		t.Fatalf("v2 rung moved to %d, want 0 (independent)", r)
	}
	if n := host.ForceRungUser("nobody", 1); n != 0 {
		t.Fatalf("ForceRungUser matched %d connections for unknown user", n)
	}

	// Release: v1 returns to lossless and still converges.
	host.ForceRungUser("v1", 0)
	host.Do(func(d *xserver.Display) {
		win := d.CreateWindow(geom.XYWH(0, 0, 64, 48))
		d.FillRect(win, &xserver.GC{Fg: pixel.RGB(99, 88, 77)}, geom.XYWH(0, 0, 32, 48))
	})
	want := host.ScreenChecksum()
	waitFor(t, "v1 convergence after release", func() bool { return v1.Snapshot().Checksum() == want })
	waitFor(t, "v2 convergence", func() bool { return v2.Snapshot().Checksum() == want })
}

// TestBadRoleRejected: a hello claiming an unknown role is a handshake
// error, counted as such.
func TestBadRoleRejected(t *testing.T) {
	host, addr := startHost(t, 64, 48, Options{FlushInterval: time.Millisecond})
	if _, err := client.DialRole(addr, "owner", "pw", 0, 0, 7); err == nil {
		t.Fatal("unknown role accepted")
	}
	if st := host.Resilience(); st.BadHandshakes != 1 {
		t.Errorf("BadHandshakes = %d, want 1", st.BadHandshakes)
	}
}

// TestStalledViewerDoesNotStallOwner: per-viewer independence. A
// viewer that completes the handshake and then never reads fills its
// socket and blocks its own delivery for up to WriteTimeout; the
// owner's updates must keep arriving as if the viewer were not there.
// Each 1024×256 noise image is 1 MB of RAW payload, so the viewer's
// socket buffers fill within the first few updates. An update has
// reached the owner once its RAW byte count has grown by the payload
// (polling that is cheap; a full-screen checksum per poll is not).
func TestStalledViewerDoesNotStallOwner(t *testing.T) {
	const (
		w, h         = 1024, 768
		band         = h / 3
		updates      = 40
		writeTimeout = 2 * time.Second
		// A stalled sibling holds the owner for the whole WriteTimeout;
		// half of it leaves room for a loaded 2-core -race run, where
		// an unstalled 1 MB update has read 370 ms.
		limit = writeTimeout / 2
	)
	host, addr := startHost(t, w, h, Options{
		Core:            core.Options{RawCodec: compress.CodecNone},
		WriteTimeout:    writeTimeout,
		DisableOverload: true, // hold the owner at lossless: every update is w×band×4 RAW bytes
	})
	host.gate.SetSessionPassword("watch")

	owner, err := client.Dial(addr, "owner", "pw", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	go owner.Run()
	var win *xserver.Window
	host.Do(func(d *xserver.Display) { win = d.CreateWindow(geom.XYWH(0, 0, w, h)) })
	waitConverged(t, host, owner, 5*time.Second)

	stalled, err := client.DialRole(addr, "stalled", "watch", 0, 0, wire.RoleViewer)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close() // never Run: nothing drains its socket

	rng := rand.New(rand.NewSource(7))
	pix := make([]pixel.ARGB, w*band)
	var worst time.Duration
	for i := 0; i < updates; i++ {
		for j := range pix {
			pix[j] = pixel.ARGB(rng.Uint32() | 0xff000000)
		}
		want := owner.Stats().Bytes[wire.TRaw] + w*band*4
		host.Do(func(d *xserver.Display) {
			d.PutImage(win, geom.XYWH(0, (i%3)*band, w, band), pix, w)
		})
		start := time.Now() // the update is queued: time its delivery
		for owner.Stats().Bytes[wire.TRaw] < want {
			if time.Since(start) > 5*time.Second {
				t.Fatalf("update %d never reached the owner", i)
			}
			time.Sleep(time.Millisecond)
		}
		took := time.Since(start)
		if took > limit {
			t.Fatalf("update %d reached the owner after %v with a stalled viewer attached, limit %v",
				i, took, limit)
		}
		worst = max(worst, took)
	}
	waitConverged(t, host, owner, 5*time.Second)
	t.Logf("worst owner update latency %v over %d updates", worst, updates)
}
