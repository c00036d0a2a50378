package server

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thinc/internal/audio"
	"thinc/internal/auth"
	"thinc/internal/client"
	"thinc/internal/geom"
	"thinc/internal/pixel"
	"thinc/internal/shard"
	"thinc/internal/testutil"
	"thinc/internal/wire"
	"thinc/internal/xserver"
)

func testGate() *auth.Authenticator {
	acc := auth.NewAccounts()
	acc.Add("owner", "pw")
	return auth.NewAuthenticator("owner", acc)
}

// startHost runs a host on a loopback listener. Every test that starts
// a host also runs under the goroutine-leak checker: cleanups run LIFO,
// so the host and listener are torn down first and the leak diff runs
// last, holding Host.Close to releasing every goroutine it owns.
func startHost(t *testing.T, w, h int, opts Options) (*Host, string) {
	t.Helper()
	testutil.CheckGoroutines(t)
	host := NewHost(w, h, testGate(), opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go host.Serve(l)
	t.Cleanup(func() {
		l.Close()
		host.Close()
	})
	return host, l.Addr().String()
}

// startFleetHost is startHost on a one-host Fleet: the host's
// connections run their pumps on the fleet's shared worker pool.
func startFleetHost(t *testing.T, w, h int, opts Options) (*Host, string) {
	t.Helper()
	testutil.CheckGoroutines(t)
	fleet := NewFleet(opts, shard.Options{})
	host := fleet.NewHost(w, h, testGate())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go host.Serve(l)
	t.Cleanup(func() {
		l.Close()
		fleet.Close()
	})
	return host, l.Addr().String()
}

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestEndToEndOverTCP(t *testing.T) {
	host, addr := startHost(t, 160, 120, Options{FlushInterval: time.Millisecond})

	conn, err := client.Dial(addr, "owner", "pw", 160, 120)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.ServerW != 160 || conn.ServerH != 120 {
		t.Fatalf("server geometry %dx%d", conn.ServerW, conn.ServerH)
	}
	go conn.Run()

	// Draw on the host; the client must converge to identical pixels.
	host.Do(func(d *xserver.Display) {
		win := d.CreateWindow(geom.XYWH(0, 0, 160, 120))
		d.FillRect(win, &xserver.GC{Fg: pixel.RGB(10, 180, 40)}, geom.XYWH(10, 10, 80, 60))
		d.DrawText(win, &xserver.GC{Fg: pixel.RGB(255, 255, 255)}, 12, 12, "over tcp")
		pm := d.CreatePixmap(40, 30)
		d.FillRect(pm, &xserver.GC{Fg: pixel.RGB(200, 30, 30)}, pm.Bounds())
		d.CopyArea(win, pm, pm.Bounds(), geom.Point{X: 100, Y: 80})
	})
	want := host.ScreenChecksum()

	waitFor(t, "client convergence", func() bool {
		return conn.Snapshot().Checksum() == want
	})
}

// TestEndToEndOverTCPSharded is the socket end-to-end path on a Fleet
// host: the accept goroutine is the blocking reader while flushes,
// heartbeats, and dispatch run on the fleet's shared shard workers.
// The client must converge exactly as on a plain host.
func TestEndToEndOverTCPSharded(t *testing.T) {
	host, addr := startFleetHost(t, 160, 120, Options{FlushInterval: time.Millisecond})

	conn, err := client.Dial(addr, "owner", "pw", 160, 120)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go conn.Run()

	host.Do(func(d *xserver.Display) {
		win := d.CreateWindow(geom.XYWH(0, 0, 160, 120))
		d.FillRect(win, &xserver.GC{Fg: pixel.RGB(10, 180, 40)}, geom.XYWH(10, 10, 80, 60))
		d.DrawText(win, &xserver.GC{Fg: pixel.RGB(255, 255, 255)}, 12, 12, "sharded")
	})
	want := host.ScreenChecksum()

	waitFor(t, "sharded client convergence", func() bool {
		return conn.Snapshot().Checksum() == want
	})
}

func TestBadPasswordRefused(t *testing.T) {
	_, addr := startHost(t, 64, 48, Options{})
	if _, err := client.Dial(addr, "owner", "wrong", 64, 48); err == nil {
		t.Fatal("bad password accepted")
	}
}

func TestUnknownUserRefused(t *testing.T) {
	_, addr := startHost(t, 64, 48, Options{})
	if _, err := client.Dial(addr, "mallory", "pw", 64, 48); err == nil {
		t.Fatal("unknown user accepted")
	}
}

func TestSharedSessionPeer(t *testing.T) {
	host, addr := startHost(t, 64, 48, Options{FlushInterval: time.Millisecond})
	host.gate.SetSessionPassword("collab")

	owner, err := client.Dial(addr, "owner", "pw", 64, 48)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	go owner.Run()

	peer, err := client.Dial(addr, "guest", "collab", 64, 48)
	if err != nil {
		t.Fatalf("peer with session password refused: %v", err)
	}
	defer peer.Close()
	go peer.Run()

	host.Do(func(d *xserver.Display) {
		win := d.CreateWindow(geom.XYWH(0, 0, 64, 48))
		d.FillRect(win, &xserver.GC{Fg: pixel.RGB(1, 2, 3)}, geom.XYWH(0, 0, 32, 24))
	})
	want := host.ScreenChecksum()
	waitFor(t, "owner convergence", func() bool { return owner.Snapshot().Checksum() == want })
	waitFor(t, "peer convergence", func() bool { return peer.Snapshot().Checksum() == want })
}

func TestInputRoundTrip(t *testing.T) {
	var got atomic.Value
	_, addr := startHost(t, 64, 48, Options{
		FlushInterval: time.Millisecond,
		OnInput:       func(ev *wire.Input) { got.Store(*ev) },
	})
	conn, err := client.Dial(addr, "owner", "pw", 64, 48)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go conn.Run()

	ev := &wire.Input{Kind: wire.InputMouseButton, X: 30, Y: 20, Code: 1, Press: true}
	if err := conn.SendInput(ev); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "input delivery", func() bool {
		v, ok := got.Load().(wire.Input)
		return ok && v.X == 30 && v.Y == 20 && v.Press
	})
}

func TestScaledClientOverTCP(t *testing.T) {
	host, addr := startHost(t, 128, 96, Options{FlushInterval: time.Millisecond})
	conn, err := client.Dial(addr, "owner", "pw", 32, 24)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go conn.Run()

	host.Do(func(d *xserver.Display) {
		win := d.CreateWindow(geom.XYWH(0, 0, 128, 96))
		d.FillRect(win, &xserver.GC{Fg: pixel.RGB(0, 0, 200)}, win.Bounds())
	})
	waitFor(t, "scaled fill", func() bool {
		snap := conn.Snapshot()
		return snap.W() == 32 && snap.At(16, 12) == pixel.RGB(0, 0, 200)
	})

	// Zoom in mid-session.
	if err := conn.RequestResize(64, 48); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "resize refresh", func() bool {
		snap := conn.Snapshot()
		return snap.W() == 64 && snap.At(32, 24) == pixel.RGB(0, 0, 200)
	})
}

func TestAudioOverTCP(t *testing.T) {
	host, addr := startHost(t, 64, 48, Options{FlushInterval: time.Millisecond})
	conn, err := client.Dial(addr, "owner", "pw", 64, 48)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go conn.Run()

	// Wait until the client session is attached (initial refresh seen).
	waitFor(t, "attach", func() bool { return conn.Stats().Messages[wire.TRaw] > 0 })

	s := host.Audio().OpenStream(audio.CD)
	for i := 0; i < 5; i++ {
		if _, err := s.Write(make([]byte, 1764)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "audio chunks", func() bool { return conn.Stats().AudioChunks >= 5 })
}

func TestSessionRecordAndReplay(t *testing.T) {
	host := NewHost(96, 72, testGate(), Options{FlushInterval: time.Millisecond})
	defer host.Close()
	var buf safeBuffer
	rec := host.Record(&buf)

	host.Do(func(d *xserver.Display) {
		win := d.CreateWindow(geom.XYWH(0, 0, 96, 72))
		d.FillRect(win, &xserver.GC{Fg: pixel.RGB(50, 100, 150)}, geom.XYWH(0, 0, 48, 36))
		d.DrawText(win, &xserver.GC{Fg: pixel.RGB(255, 255, 0)}, 4, 40, "recorded")
		pm := d.CreatePixmap(20, 20)
		d.FillRect(pm, &xserver.GC{Fg: pixel.RGB(250, 20, 20)}, pm.Bounds())
		d.CopyArea(win, pm, pm.Bounds(), geom.Point{X: 60, Y: 40})
	})
	want := host.ScreenChecksum()

	// Let the recorder drain, then stop it.
	waitFor(t, "recording drains", func() bool { return buf.Len() > 100 })
	time.Sleep(20 * time.Millisecond)
	if err := rec.Close(); err != nil {
		t.Fatalf("recorder: %v", err)
	}

	// Replay into a fresh client: the session reappears pixel-exact.
	viewer := client.New(96, 72)
	r := buf.Reader()
	count := 0
	var lastTS uint64
	for {
		rec, err := ReadRecord(r)
		if err != nil {
			break
		}
		if rec.AtUS < lastTS {
			t.Fatal("timestamps must be monotonic")
		}
		lastTS = rec.AtUS
		if err := viewer.Apply(rec.Msg); err != nil {
			t.Fatalf("replay: %v", err)
		}
		count++
	}
	if count == 0 {
		t.Fatal("empty recording")
	}
	if viewer.FB().Checksum() != want {
		t.Fatalf("replayed screen %08x != live %08x", viewer.FB().Checksum(), want)
	}
}

// safeBuffer is a mutex-guarded bytes.Buffer (recorder writes from its
// own goroutine).
type safeBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *safeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *safeBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Len()
}

func (b *safeBuffer) Reader() *bytes.Reader {
	b.mu.Lock()
	defer b.mu.Unlock()
	return bytes.NewReader(b.buf.Bytes())
}
