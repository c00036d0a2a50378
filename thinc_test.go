package thinc

import (
	"net"
	"testing"
	"time"
)

// TestPublicAPIQuickstart exercises the package-level facade end to
// end: host a session, connect over an in-memory transport, draw, and
// verify the client converges — the README quick start as a test.
func TestPublicAPIQuickstart(t *testing.T) {
	accounts := NewAccounts()
	accounts.Add("alice", "secret")
	host := NewHost(320, 240, NewAuthenticator("alice", accounts), HostOptions{
		Core: CoreOptions{RawCodec: CodecPNG},
	})

	serverSide, clientSide := net.Pipe()
	go host.ServeConn(serverSide)

	conn, err := dialPipe(clientSide)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go conn.Run()

	host.Do(func(d *Display) {
		win := d.CreateWindow(XYWH(0, 0, 320, 240))
		d.FillRect(win, &GC{Fg: RGB(250, 250, 250)}, win.Bounds())
		d.DrawText(win, &GC{Fg: RGB(0, 0, 0)}, 10, 10, "public api")
		card := d.CreatePixmap(80, 40)
		d.FillRect(card, &GC{Fg: RGB(40, 90, 200)}, card.Bounds())
		d.CopyArea(win, card, card.Bounds(), Point{X: 100, Y: 100})
		d.FreePixmap(card)
	})
	want := host.ScreenChecksum()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if conn.Snapshot().Checksum() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("client did not converge: want %08x got %08x", want, conn.Snapshot().Checksum())
}

// dialPipe runs the client handshake over an established connection.
func dialPipe(nc net.Conn) (*Conn, error) {
	return Handshake(nc, "alice", "secret", 320, 240)
}

// TestLocalCoreWithoutNetwork drives the translation core directly: a
// display with the THINC driver, an attached command-buffer client, and
// a message-executing client — no sockets anywhere.
func TestLocalCoreWithoutNetwork(t *testing.T) {
	core := NewCoreServer(CoreOptions{})
	dpy := NewDisplay(64, 48, core)
	buf := core.AttachClient(64, 48)
	view := NewClient(64, 48)

	if err := view.ApplyAll(buf.FlushAll()); err != nil {
		t.Fatal(err)
	}
	win := dpy.CreateWindow(XYWH(0, 0, 64, 48))
	dpy.FillRect(win, &GC{Fg: RGB(9, 9, 9)}, XYWH(4, 4, 20, 20))
	if err := view.ApplyAll(buf.FlushAll()); err != nil {
		t.Fatal(err)
	}
	if !view.FB().Equal(dpy.Screen()) {
		t.Fatal("local client diverged")
	}
}

// TestExperimentsFacade runs a tiny experiment through the public
// harness type.
func TestExperimentsFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run")
	}
	e := NewExperiments(2, 1)
	tab := e.Fig7()
	if len(tab.Rows) != 11 {
		t.Fatalf("Fig7 rows = %d, want the 11 Table 2 sites", len(tab.Rows))
	}
}
