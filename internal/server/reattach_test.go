package server

import (
	"net"
	"sync"
	"testing"
	"time"

	"thinc/internal/client"
	"thinc/internal/geom"
	"thinc/internal/pixel"
	"thinc/internal/simnet"
	"thinc/internal/wire"
	"thinc/internal/xserver"
)

// Wire-v7 warm reattach: the payload store survives the disconnect on
// both sides, the client proves its holdings with the ticket's cache
// epoch, and the server answers with an explicit warm verdict and a
// resync that rides the cache instead of re-shipping the screen.

func warmOptions() Options {
	opts := fastOptions()
	opts.CacheKB = 1024
	opts.DisableAudit = true
	opts.DisableE2E = true
	opts.DisableOverload = true
	return opts
}

// trackedDialer dials addr and remembers the latest transport so the
// test can kill it mid-session (the reconnect-storm trigger).
type trackedDialer struct {
	mu   sync.Mutex
	addr string
	last net.Conn
}

func (d *trackedDialer) dial() (net.Conn, error) {
	nc, err := net.Dial("tcp", d.addr)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.last = nc
	d.mu.Unlock()
	return nc, nil
}

func (d *trackedDialer) kill() {
	d.mu.Lock()
	nc := d.last
	d.mu.Unlock()
	if nc != nil {
		nc.Close()
	}
}

// paintReattachScene draws distinct content plus one repeated pattern,
// so the session has both cacheable and plain traffic.
func paintReattachScene(host *Host) {
	pix := make([]pixel.ARGB, 16*16)
	for i := range pix {
		pix[i] = pixel.RGB(uint8(i*11), uint8(i>>1), uint8(190-i))
	}
	host.Do(func(d *xserver.Display) {
		win := d.CreateWindow(geom.XYWH(0, 0, 96, 64))
		d.FillRect(win, &xserver.GC{Fg: pixel.RGB(30, 90, 160)}, win.Bounds())
		d.PutImage(win, geom.XYWH(4, 4, 16, 16), pix, 16)
		d.PutImage(win, geom.XYWH(60, 40, 16, 16), pix, 16)
	})
}

// TestWarmReattachKeepsCache: a client that kept its store across the
// disconnect resumes warm — twice. The first warm resync seeds the
// cache with the screen's tiles; the second replays them as paints, so
// the store demonstrably carries content across reconnects.
func TestWarmReattachKeepsCache(t *testing.T) {
	host, addr := startHost(t, 96, 64, warmOptions())
	td := &trackedDialer{addr: addr}

	conn, err := client.DialWith(td.dial, "owner", "pw", 96, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	runDone := make(chan error, 1)
	go func() { runDone <- conn.Run() }()

	paintReattachScene(host)
	want := host.ScreenChecksum()
	waitFor(t, "initial convergence", func() bool {
		return conn.Snapshot().Checksum() == want && len(conn.Ticket()) > 0
	})
	if conn.Stats().CacheStored < 1 {
		t.Fatalf("repeat-heavy scene stored nothing: %+v", conn.Stats())
	}

	for cycle := 1; cycle <= 2; cycle++ {
		entriesBefore := conn.Stats().CacheEntries
		paintedBefore := conn.Stats().CachePainted
		storedBefore := conn.Stats().CacheStored
		td.kill()
		<-runDone
		waitFor(t, "session detached", func() bool { return host.NumDetached() >= 1 })

		if err := conn.Redial(); err != nil {
			t.Fatalf("cycle %d: redial: %v", cycle, err)
		}
		go func() { runDone <- conn.Run() }()

		st := conn.Stats()
		if st.WarmResumes != cycle {
			t.Fatalf("cycle %d: WarmResumes = %d, want %d", cycle, st.WarmResumes, cycle)
		}
		if st.ColdFallbacks != 0 {
			t.Fatalf("cycle %d: unexpected cold fallback: %+v", cycle, st)
		}
		if st.CacheEntries < entriesBefore {
			t.Fatalf("cycle %d: store shrank across warm resume: %d -> %d",
				cycle, entriesBefore, st.CacheEntries)
		}
		// The framebuffer is already converged (nothing changed while
		// detached), so wait for the fresh ticket too — the next cycle's
		// reattach needs it.
		waitFor(t, "post-reattach convergence", func() bool {
			return conn.Snapshot().Checksum() == want && len(conn.Ticket()) > 0
		})
		// The screen was converged throughout, so that wait can return
		// on the ticket alone. Wait for the resync itself — this small
		// screen's tiles reach the client as one store or one paint —
		// or the next cycle's kill discards a resync the server's model
		// never got to record, and the one after it stores again.
		waitFor(t, "warm resync delivered", func() bool {
			st := conn.Stats()
			return st.CacheStored+st.CachePainted > storedBefore+paintedBefore
		})
		if cycle == 2 {
			// The second warm resync replays the tiles the first one
			// stored: cache paints, not re-shipped pixels.
			if got := conn.Stats().CachePainted; got <= paintedBefore {
				t.Fatalf("second warm resync replayed nothing: painted %d -> %d",
					paintedBefore, got)
			}
		}
	}
	r := host.Resilience()
	if r.WarmReattaches != 2 || r.ColdReattaches != 0 {
		t.Fatalf("host reattach stats: %+v", r)
	}
	conn.Close()
	<-runDone
}

// TestWarmResyncBytes: the bank scene tiled over a 256x192 screen is
// resumed again and again, once with the payload store kept across the
// cut (warm) and once with the client dropping it before every redial
// (cold). A sentinel tile drawn while the session is detached
// alternates between two patterns, so after the two priming cycles
// have stored both, a warm resync is pure CACHE_PAINT replay. Every
// warm cycle must resume warm, and a warm resync must ship less than a
// twentieth of a cold one's bytes.
func TestWarmResyncBytes(t *testing.T) {
	const priming, cycles = 2, 4
	run := func(t *testing.T, cold bool) (perResync int64, warm int) {
		opts := bankOptions()
		opts.CacheKB = client.DefaultCacheRequestKB
		host, addr := startHost(t, bankW, bankH, opts)
		td := &trackedDialer{addr: addr}
		conn, err := client.DialWith(td.dial, "owner", "pw", bankW, bankH)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		runDone := make(chan error, 1)
		go func() { runDone <- conn.Run() }()

		bank := newBank()
		var win *xserver.Window
		host.Do(func(d *xserver.Display) {
			win = d.CreateWindow(geom.XYWH(0, 0, bankW, bankH))
			d.FillRect(win, &xserver.GC{Fg: pixel.RGB(24, 26, 32)}, win.Bounds())
			drawBankRound(d, win, bank, 0)
			drawBankRound(d, win, bank, 3)
		})
		delivered(t, host, conn, 0, 0)
		waitFor(t, "ticket", func() bool { return len(conn.Ticket()) > 0 })

		var resyncBytes int64
		for n := 0; n < priming+cycles; n++ {
			if n == priming {
				resyncBytes, warm = 0, conn.Stats().WarmResumes
			}
			td.kill()
			<-runDone
			waitFor(t, "detach", func() bool { return host.NumDetached() >= 1 })
			host.Do(func(d *xserver.Display) {
				d.PutImage(win, geom.XYWH(4, 4, patternW, patternH), bank[n%2], patternW)
			})
			if cold {
				conn.DropCache()
			}
			h0, c0 := displayBytes(host), appliedBytes(conn)
			waitFor(t, "redial", func() bool { return conn.Redial() == nil })
			go func() { runDone <- conn.Run() }()
			resyncBytes += delivered(t, host, conn, h0, c0)
			if conn.Snapshot().Checksum() != host.ScreenChecksum() {
				t.Fatalf("cycle %d: the resync did not converge", n)
			}
			// The next cycle's reattach needs the fresh ticket.
			waitFor(t, "ticket", func() bool { return len(conn.Ticket()) > 0 })
		}
		conn.Close()
		<-runDone
		return resyncBytes / cycles, conn.Stats().WarmResumes - warm
	}
	var warmBytes, coldBytes int64
	t.Run("warm", func(t *testing.T) {
		var resumes int
		if warmBytes, resumes = run(t, false); resumes != cycles {
			t.Errorf("%d of %d warm cycles resumed warm", resumes, cycles)
		}
	})
	t.Run("cold", func(t *testing.T) {
		var resumes int
		if coldBytes, resumes = run(t, true); resumes != 0 {
			t.Errorf("%d of %d cold cycles resumed warm", resumes, cycles)
		}
	})
	t.Logf("bytes per resync: warm %d, cold %d", warmBytes, coldBytes)
	if warmBytes <= 0 || warmBytes*20 >= coldBytes {
		t.Fatalf("a warm resync ships %d bytes against a cold one's %d: want under 5%%", warmBytes, coldBytes)
	}
}

// TestEpochDesyncReattachesCold: a reattach whose warm claim does not
// hold — no claim at all (the restarted-client case: valid ticket, no
// store), or a stale epoch — resumes the session but renegotiates the
// cache cold, and the server says so in ServerInit.CacheWarm.
func TestEpochDesyncReattachesCold(t *testing.T) {
	cases := []struct {
		name  string
		epoch func(real uint64) uint64
	}{
		{"client-restarted-epoch-0", func(uint64) uint64 { return 0 }},
		{"stale-epoch", func(real uint64) uint64 { return real + 12345 }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			host, addr := startHost(t, 96, 64, warmOptions())

			conn, err := client.Dial(addr, "owner", "pw", 96, 64)
			if err != nil {
				t.Fatal(err)
			}
			go conn.Run()
			waitFor(t, "ticket issued", func() bool { return len(conn.Ticket()) > 0 })
			ticket := conn.Ticket()
			conn.Close()
			waitFor(t, "session detached", func() bool { return host.NumDetached() >= 1 })

			// The server stamped epoch 1 into the first cached session.
			nc, enc := rawSession(t, addr, "owner", "pw",
				&wire.Reattach{Ticket: ticket, ViewW: 96, ViewH: 64, Name: "back",
					CacheKB:    uint32(client.DefaultCacheRequestKB),
					CacheEpoch: tc.epoch(1)})
			defer nc.Close()
			_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
			m, err := wire.ReadMessage(enc)
			if err != nil {
				t.Fatal(err)
			}
			si, ok := m.(*wire.ServerInit)
			if !ok {
				t.Fatalf("expected ServerInit, got %v", m.Type())
			}
			if si.CacheWarm != 0 {
				t.Fatalf("%s resumed warm", tc.name)
			}
			if si.CacheKB == 0 {
				t.Fatalf("cold reattach lost the cache grant: %+v", si)
			}
			r := host.Resilience()
			if r.Reattaches != 1 || r.ColdReattaches != 1 || r.WarmReattaches != 0 {
				t.Fatalf("reattach stats: %+v", r)
			}
		})
	}
}

// TestCapacityChangeReattachesCold: a warm claim with the right epoch
// but a different capacity request cannot match the retained model, so
// the resume goes cold instead of trusting mismatched holdings.
func TestCapacityChangeReattachesCold(t *testing.T) {
	host, addr := startHost(t, 96, 64, warmOptions())

	conn, err := client.Dial(addr, "owner", "pw", 96, 64)
	if err != nil {
		t.Fatal(err)
	}
	go conn.Run()
	waitFor(t, "ticket issued", func() bool { return len(conn.Ticket()) > 0 })
	ticket := conn.Ticket()
	conn.Close()
	waitFor(t, "session detached", func() bool { return host.NumDetached() >= 1 })

	// Correct epoch, halved request: the regranted capacity differs
	// from the retained model's, so warm would be unsound.
	nc, enc := rawSession(t, addr, "owner", "pw",
		&wire.Reattach{Ticket: ticket, ViewW: 96, ViewH: 64, Name: "resized",
			CacheKB: 512, CacheEpoch: 1})
	defer nc.Close()
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	m, err := wire.ReadMessage(enc)
	if err != nil {
		t.Fatal(err)
	}
	if si := m.(*wire.ServerInit); si.CacheWarm != 0 || si.CacheKB != 512 {
		t.Fatalf("capacity change resumed warm: %+v", si)
	}
	if r := host.Resilience(); r.ColdReattaches != 1 {
		t.Fatalf("reattach stats: %+v", r)
	}
}

// TestReattachStormAdmission: 50 clients through a simnet-shaped link
// are cut at once. The admission gate must cap concurrent cold resyncs
// at the budget (refusing the overflow with AttachBusy), and every
// client must still get back in and converge.
func TestReattachStormAdmission(t *testing.T) {
	const clients = 50
	const budget = 4

	opts := fastOptions()
	opts.DetachGrace = 20 * time.Second
	opts.HeartbeatTimeout = 20 * time.Second
	opts.ResyncAdmit = budget
	opts.ResyncRetryAfter = 20 * time.Millisecond
	opts.MaxViewers = clients + 1
	// A 24 KB cold resync would leave in the first delivery pass,
	// microseconds after the attach; spread it over a dozen paced passes
	// so each admitted reattacher really holds its slot for a while.
	opts.FlushBudget = 2 << 10
	host, addr := startHost(t, 96, 64, opts)
	paintReattachScene(host)

	// The storm arrives through a shaped LAN link, like the real access
	// network it models.
	proxyAddr, stopProxy, err := simnet.StartProxy(addr, simnet.LAN())
	if err != nil {
		t.Fatal(err)
	}
	defer stopProxy()

	dialers := make([]*trackedDialer, clients)
	conns := make([]*client.Conn, clients)
	done := make(chan error, clients)
	for i := 0; i < clients; i++ {
		dialers[i] = &trackedDialer{addr: proxyAddr}
		role := uint8(wire.RoleViewer)
		if i == 0 {
			role = wire.RoleOwner
		}
		cn, err := client.DialWithRole(dialers[i].dial, "owner", "pw", 96, 64, role)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = cn
		defer cn.Close()
		go func(cn *client.Conn) {
			done <- cn.RunAuto(client.ReconnectPolicy{
				Initial: 5 * time.Millisecond, MaxAttempts: 12, Seed: int64(i + 1)})
		}(cn)
	}
	waitFor(t, "all clients attached", func() bool { return host.NumClients() == clients })

	// Cut every transport at once: a full reattach storm.
	for _, d := range dialers {
		d.kill()
	}

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		n := 0
		for _, cn := range conns {
			if cn.Stats().Reconnects >= 1 {
				n++
			}
		}
		if n == clients && host.NumClients() == clients {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if host.NumClients() != clients {
		t.Fatalf("storm did not drain: %d/%d clients back", host.NumClients(), clients)
	}

	r := host.Resilience()
	if r.ResyncPeakInFlight > budget {
		t.Fatalf("gate exceeded budget: peak %d > %d", r.ResyncPeakInFlight, budget)
	}
	// A redial can race the server noticing the dead transport and fall
	// back to a (still gated) fresh attach; tolerate a few, not a trend.
	if r.Reattaches < clients*9/10 {
		t.Fatalf("Reattaches = %d, want ~%d", r.Reattaches, clients)
	}
	// A 50-wide storm against a budget of 4 must have refused someone,
	// and the refused clients must have honored the retry-after.
	if r.ReattachRejected == 0 {
		t.Fatal("storm never tripped the admission gate")
	}
	busy := 0
	for _, cn := range conns {
		busy += cn.Stats().BusyRejections
	}
	if busy == 0 {
		t.Fatal("no client recorded an AttachBusy refusal")
	}

	// Everyone converges to the same screen after the storm.
	want := host.ScreenChecksum()
	waitFor(t, "post-storm convergence", func() bool {
		for _, cn := range conns {
			if cn.Snapshot().Checksum() != want {
				return false
			}
		}
		return true
	})
}
