package client_test

import (
	"io"
	"net"
	"testing"
	"time"

	"thinc/internal/auth"
	"thinc/internal/cipher"
	"thinc/internal/client"
	"thinc/internal/core"
	"thinc/internal/fb"
	"thinc/internal/geom"
	"thinc/internal/pixel"
	"thinc/internal/server"
	"thinc/internal/testutil"
	"thinc/internal/wire"
	"thinc/internal/xserver"
)

// newHost starts an in-process host and runs the calling test under
// the goroutine-leak checker: the host closes first (cleanups are
// LIFO), then the leak diff must come back empty.
func newHost(t *testing.T, w, h int) *server.Host {
	t.Helper()
	testutil.CheckGoroutines(t)
	acc := auth.NewAccounts()
	acc.Add("u", "p")
	host := server.NewHost(w, h, auth.NewAuthenticator("u", acc),
		server.Options{FlushInterval: time.Millisecond})
	t.Cleanup(host.Close)
	return host
}

func pipeTo(t *testing.T, h *server.Host, user, pass string, vw, vh int) (*client.Conn, error) {
	t.Helper()
	a, b := net.Pipe()
	go h.ServeConn(a)
	return client.Handshake(b, user, pass, vw, vh)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout: %s", what)
}

func TestHandshakeGeometryNegotiation(t *testing.T) {
	h := newHost(t, 200, 100)
	// Oversized viewport request clamps to the session size.
	conn, err := pipeTo(t, h, "u", "p", 4000, 4000)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.ServerW != 200 || conn.ServerH != 100 {
		t.Fatalf("server geometry %dx%d", conn.ServerW, conn.ServerH)
	}
	if snap := conn.Snapshot(); snap.W() != 200 || snap.H() != 100 {
		t.Fatalf("viewport %dx%d, want clamped to session", snap.W(), snap.H())
	}
}

func TestHandshakeRejectsBadSecret(t *testing.T) {
	h := newHost(t, 64, 48)
	if _, err := pipeTo(t, h, "u", "nope", 64, 48); err == nil {
		t.Fatal("bad secret accepted")
	}
}

// TestHandshakeRefusesOtherProtoVersion drives the server side of the
// handshake by hand and answers with a ServerInit naming revision 6:
// the client must refuse it rather than guess at an older dialect.
func TestHandshakeRefusesOtherProtoVersion(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	nonce := []byte("nonce-16-bytes!!")
	go func() {
		if wire.WriteMessage(a, &wire.AuthChallenge{Nonce: nonce}) != nil {
			return
		}
		if _, err := wire.ReadMessage(a); err != nil {
			return
		}
		if wire.WriteMessage(a, &wire.AuthResult{OK: true}) != nil {
			return
		}
		enc, err := cipher.NewStreamConn(a, auth.SessionKey("p", nonce), true)
		if err != nil {
			return
		}
		if _, err := wire.ReadMessage(enc); err != nil {
			return
		}
		_ = wire.WriteMessage(enc, &wire.ServerInit{Ver: 6, W: 64, H: 48,
			Format: pixel.FormatARGB32})
	}()
	conn, err := client.Handshake(b, "u", "p", 64, 48)
	if err == nil {
		conn.Close()
		t.Fatal("handshake accepted a ServerInit with Ver 6")
	}
}

func TestConnCursorAndView(t *testing.T) {
	h := newHost(t, 64, 48)
	conn, err := pipeTo(t, h, "u", "p", 64, 48)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go conn.Run()

	h.Do(func(d *xserver.Display) {
		cur := make([]pixel.ARGB, 4*4)
		for i := range cur {
			cur[i] = pixel.RGB(255, 0, 0)
		}
		d.SetCursor(cur, 4, 4, geom.Point{})
		d.MoveCursor(geom.Point{X: 20, Y: 10})
	})
	waitFor(t, "cursor", func() bool {
		return conn.CursorPos() == (geom.Point{X: 20, Y: 10})
	})
	// View composites the cursor; Snapshot does not.
	snap, view := conn.Snapshot(), conn.View()
	if snap.At(21, 11) == pixel.RGB(255, 0, 0) {
		t.Error("snapshot must not contain the cursor")
	}
	if view.At(21, 11) != pixel.RGB(255, 0, 0) {
		t.Errorf("view missing cursor: %v", view.At(21, 11))
	}
}

func TestConnStatsIsolatedCopy(t *testing.T) {
	h := newHost(t, 64, 48)
	conn, err := pipeTo(t, h, "u", "p", 64, 48)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go conn.Run()
	waitFor(t, "refresh", func() bool { return conn.Stats().Messages[wire.TRaw] > 0 })
	st := conn.Stats()
	st.Messages[wire.TRaw] = 9999 // mutating the copy must not leak
	if conn.Stats().Messages[wire.TRaw] == 9999 {
		t.Fatal("Stats returned shared state")
	}
}

// auditHost is newHost with a fast integrity-audit cadence over a
// 16px tile grid.
func auditHost(t *testing.T, w, h int) *server.Host {
	t.Helper()
	testutil.CheckGoroutines(t)
	acc := auth.NewAccounts()
	acc.Add("u", "p")
	host := server.NewHost(w, h, auth.NewAuthenticator("u", acc),
		server.Options{
			FlushInterval: time.Millisecond,
			AuditInterval: 5 * time.Millisecond,
			AuditTimeout:  500 * time.Millisecond,
			Core:          core.Options{AuditTileSize: 16},
		})
	t.Cleanup(host.Close)
	return host
}

// TestConnAnswersAuditAndHeals covers the client side of the wire-v4
// audit: probes are answered with live-framebuffer digests, and a
// silently corrupted tile (injected below every protocol check via
// WithFB) is healed by the server's targeted repair.
func TestConnAnswersAuditAndHeals(t *testing.T) {
	h := auditHost(t, 96, 64)
	conn, err := pipeTo(t, h, "u", "p", 96, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// An identity read wrapper exercises the fault-injection seam the
	// chaos corrupter uses, without changing the bytes.
	conn.SetReadWrapper(func(r io.Reader) io.Reader { return r })
	go conn.Run()

	h.Do(func(d *xserver.Display) {
		win := d.CreateWindow(geom.XYWH(0, 0, 96, 64))
		d.FillRect(win, &xserver.GC{Fg: pixel.RGB(10, 120, 70)}, geom.XYWH(0, 0, 96, 64))
	})
	want := h.ScreenChecksum()
	waitFor(t, "convergence", func() bool {
		return conn.Snapshot().Checksum() == want
	})
	waitFor(t, "audit replies", func() bool {
		st := conn.Stats()
		return st.AuditProbes > 0 && st.AuditReplies > 0
	})

	conn.WithFB(func(f *fb.Framebuffer) {
		f.Set(3, 3, f.At(3, 3)^0x00ff0000)
	})
	waitFor(t, "self-healing", func() bool {
		return conn.Snapshot().Checksum() == want
	})
}

func TestConnRunEndsOnClose(t *testing.T) {
	h := newHost(t, 32, 24)
	conn, err := pipeTo(t, h, "u", "p", 32, 24)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- conn.Run() }()
	conn.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run should report the closed transport")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after Close")
	}
}
