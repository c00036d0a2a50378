package server

import (
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"thinc/internal/client"
	"thinc/internal/geom"
	"thinc/internal/pixel"
	"thinc/internal/telemetry"
	"thinc/internal/testutil"
	"thinc/internal/wire"
	"thinc/internal/xserver"
)

// The pacing contract (pace.go), checked on both kinds of host: every
// TestPush* test runs once on a plain host, whose connection runs its
// pump on a private worker ("classic"), and once on a Fleet host,
// whose connections share the fleet's pool ("sharded").

// hostStarter starts a host serving on a loopback listener (startHost
// or startFleetHost).
type hostStarter func(t *testing.T, w, h int, opts Options) (*Host, string)

// pushDrivers runs f against a plain host and a Fleet host.
func pushDrivers(t *testing.T, f func(t *testing.T, serve hostStarter, opts Options)) {
	t.Run("classic", func(t *testing.T) { f(t, startHost, Options{}) })
	t.Run("sharded", func(t *testing.T) { f(t, startFleetHost, Options{}) })
}

// pushSession starts a quiet host (no audit, no marks, no controller,
// heartbeats a second apart) with one full-screen window and one
// converged client.
func pushSession(t *testing.T, serve hostStarter, opts Options, dial func(addr string) (net.Conn, error)) (*Host, *client.Conn, *xserver.Window) {
	t.Helper()
	opts.DisableAudit, opts.DisableE2E, opts.DisableOverload = true, true, true
	host, addr := serve(t, 64, 64, opts)
	var win *xserver.Window
	host.Do(func(d *xserver.Display) { win = d.CreateWindow(geom.XYWH(0, 0, 64, 64)) })
	fill(host, win, pixel.RGB(90, 90, 90)) // not the blank a fresh client starts from
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	conn, err := client.DialWith(func() (net.Conn, error) { return dial(addr) }, "owner", "pw", 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	go conn.Run()
	waitConverged(t, host, conn, 5*time.Second)
	return host, conn, win
}

// waitConverged polls every millisecond (waitFor's 5ms would swamp the
// latencies measured here) and returns how long convergence took.
func waitConverged(t *testing.T, host *Host, conn *client.Conn, limit time.Duration) time.Duration {
	t.Helper()
	want := host.ScreenChecksum()
	start := time.Now()
	for conn.Snapshot().Checksum() != want {
		if time.Since(start) > limit {
			t.Fatalf("client did not converge within %v", limit)
		}
		time.Sleep(time.Millisecond)
	}
	return time.Since(start)
}

func fill(host *Host, win *xserver.Window, c pixel.ARGB) {
	host.Do(func(d *xserver.Display) {
		d.FillRect(win, &xserver.GC{Fg: c}, geom.XYWH(0, 0, 64, 64))
	})
}

// passes reads the delivery-pass counters: total, and the paced share.
func passes(host *Host) (total, paced int64) {
	reg := host.Telemetry()
	paced = reg.Value("thinc_server_flush_passes_total", telemetry.L("trigger", "paced"))
	return reg.Value("thinc_server_flush_passes_total", telemetry.L("trigger", "damage")) + paced, paced
}

// pumpRuns reads how many times the pumps of the host's pool have run.
func pumpRuns(host *Host) int64 {
	return host.Telemetry().Value("thinc_shard_task_runs_total")
}

// idle reports whether the host's one connection is attached and at
// rest: nothing queued, no pass requested and no flush timer booked.
// (deliver drops armed for a moment before it re-arms for commands that
// were queued mid-pass, hence the queue check under the same lock.)
func idle(host *Host) bool {
	host.mu.Lock()
	defer host.mu.Unlock()
	for sc := range host.conns {
		return !sc.sched.push.armed.Load() && sc.cl.Buf.Len() == 0
	}
	return false
}

// pacedBooked reports whether the host's one connection has a held-back
// pass booked on its paced timer. Stop on an unbooked timer changes
// nothing, and a booked one fails the caller anyway.
func pacedBooked(host *Host) bool {
	host.mu.Lock()
	defer host.mu.Unlock()
	for sc := range host.conns {
		return sc.sched.paced.Stop()
	}
	return false
}

// TestPushLeadingEdge: damage on a connection that has been quiet for an
// interval leaves at once. Under the old free-running tick a 200ms
// interval cost 100ms on average.
func TestPushLeadingEdge(t *testing.T) {
	pushDrivers(t, func(t *testing.T, serve hostStarter, opts Options) {
		opts.FlushInterval = 200 * time.Millisecond
		host, conn, win := pushSession(t, serve, opts, nil)
		waitFor(t, "idle", func() bool { return idle(host) })
		time.Sleep(220 * time.Millisecond)
		fill(host, win, pixel.RGB(200, 40, 40))
		if took := waitConverged(t, host, conn, 5*time.Second); took > 50*time.Millisecond {
			t.Fatalf("first damage after an idle interval took %v, want it pushed at once", took)
		}
		if _, paced := passes(host); paced != 0 {
			t.Fatalf("%d passes waited on the pacing timer; every one here had an idle interval behind it", paced)
		}
	})
}

// stampedConn records when each read returned and how many bytes it
// carried: the client's view of the server's delivery passes.
type stampedConn struct {
	net.Conn
	mu    sync.Mutex
	reads []stampedRead
}

type stampedRead struct {
	at time.Time
	n  int
}

func (c *stampedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.reads = append(c.reads, stampedRead{time.Now(), n})
	c.mu.Unlock()
	return n, err
}

// TestPushRateBound: FlushBudget bytes per FlushInterval stays the
// worst-case rate of a sustained stream. A 16 KB incompressible image
// against a budget of four of its rows drains over 16 passes (as did
// the initial screen before it); no window of k intervals may carry
// more than k+1 budgets, and the drain may not finish sooner than the
// passes' minimum spacing allows. The pump books the paced timer for
// exactly the wait the pacing rule asked for, so it never wakes before
// a held pass is due: the drain costs one pump run per pass, not the
// extra runs an early wake would spend finding itself early and
// booking again.
func TestPushRateBound(t *testing.T) {
	const (
		interval = 25 * time.Millisecond
		budget   = 1100
		// A heartbeat riding between passes.
		passSlack = 32
		k         = 4
		runSlack  = 4
	)
	pushDrivers(t, func(t *testing.T, serve hostStarter, opts Options) {
		opts.FlushInterval, opts.FlushBudget = interval, budget
		var tap *stampedConn
		host, conn, win := pushSession(t, serve, opts, func(addr string) (net.Conn, error) {
			nc, err := net.Dial("tcp", addr)
			tap = &stampedConn{Conn: nc}
			return tap, err
		})
		waitFor(t, "idle", func() bool { return idle(host) })
		tap.mu.Lock()
		tap.reads = nil
		tap.mu.Unlock()
		before, _ := passes(host)
		runsBefore := pumpRuns(host)

		rng := rand.New(rand.NewSource(1))
		pix := make([]pixel.ARGB, 64*64)
		for i := range pix {
			pix[i] = pixel.ARGB(rng.Uint32() | 0xff000000)
		}
		start := time.Now()
		host.Do(func(d *xserver.Display) {
			d.PutImage(win, geom.XYWH(0, 0, 64, 64), pix, 64)
		})
		waitConverged(t, host, conn, 10*time.Second)
		took := time.Since(start)

		after, _ := passes(host)
		n := after - before
		if n < 64*64*4/budget {
			t.Fatalf("16 KB left in %d passes of %d bytes", n, budget)
		}
		runs := pumpRuns(host) - runsBefore
		t.Logf("%d passes in %v, %d pump runs", n, took, runs)
		// Besides the passes: a first wake that finds the previous pass
		// too recent, and a heartbeat with its pong.
		if runs > n+runSlack {
			t.Fatalf("%d pump runs for %d passes: paced wakes came early", runs, n)
		}
		if floor := time.Duration(n-1) * interval; took < floor {
			t.Fatalf("%d passes took %v, under the %v their spacing requires", n, took, floor)
		}

		tap.mu.Lock()
		reads := append([]stampedRead(nil), tap.reads...)
		tap.mu.Unlock()
		for i := range reads {
			sum := 0
			for _, r := range reads[i:] {
				if r.at.Sub(reads[i].at) >= k*interval {
					break
				}
				sum += r.n
			}
			if limit := (k + 1) * (budget + passSlack); sum > limit {
				t.Fatalf("%d bytes arrived within %d intervals of read %d, limit %d", sum, k, i, limit)
			}
		}
	})
}

// TestPushIdleSilent: with no damage no pass runs and no flush timer is
// booked, yet work that comes without damage — a rung change's
// DegradeNotice — is still delivered, and promptly.
func TestPushIdleSilent(t *testing.T) {
	const interval = 20 * time.Millisecond
	pushDrivers(t, func(t *testing.T, serve hostStarter, opts Options) {
		opts.FlushInterval = interval
		host, conn, _ := pushSession(t, serve, opts, nil)
		waitFor(t, "idle", func() bool { return idle(host) })

		before, _ := passes(host)
		time.Sleep(10 * interval)
		if after, _ := passes(host); after != before {
			t.Fatalf("%d delivery passes ran on an idle connection", after-before)
		}
		if !idle(host) {
			t.Fatal("idle connection holds a pending pass")
		}
		if pacedBooked(host) {
			t.Fatal("idle connection holds a booked paced timer")
		}

		// Rung 1 and back: unlike leaving the downscaled rungs, neither
		// step queues a repaint, so nothing but the nudge carries them.
		for i, rung := range []int{1, 0} {
			host.ForceRung(rung)
			waitFor(t, "degrade notice", func() bool {
				st := conn.Stats()
				return st.DegradeNotices == i+1 && st.DegradeRung == rung
			})
		}
		// Back at rung 0 the cadence that kept rung 1 ticking winds down.
		waitFor(t, "idle after rung 0", func() bool { return idle(host) })
		before, _ = passes(host)
		time.Sleep(5 * interval)
		if after, _ := passes(host); after != before {
			t.Fatalf("%d passes ran after the rung was cleared", after-before)
		}
	})
}

// TestPushStaleWake: the damage hook fires once per queued command and
// the pass already running drains them all, so one isolated update must
// cost exactly one pass — and none that would move the pacing clock: an
// update 1.2 intervals later is again pushed at once.
func TestPushStaleWake(t *testing.T) {
	const interval = 100 * time.Millisecond
	pushDrivers(t, func(t *testing.T, serve hostStarter, opts Options) {
		opts.FlushInterval = interval
		host, conn, win := pushSession(t, serve, opts, nil)
		waitFor(t, "idle", func() bool { return idle(host) })
		time.Sleep(interval + interval/10)

		before, _ := passes(host)
		host.Do(func(d *xserver.Display) {
			// Several commands in one update: several hook calls.
			d.FillRect(win, &xserver.GC{Fg: pixel.RGB(10, 120, 200)}, geom.XYWH(0, 0, 64, 64))
			d.DrawText(win, &xserver.GC{Fg: pixel.RGB(255, 255, 255)}, 4, 4, "one")
			d.FillRect(win, &xserver.GC{Fg: pixel.RGB(200, 120, 10)}, geom.XYWH(8, 40, 16, 16))
		})
		sent := time.Now()
		waitConverged(t, host, conn, 5*time.Second)
		waitFor(t, "idle", func() bool { return idle(host) })
		if after, _ := passes(host); after-before != 1 {
			t.Fatalf("one isolated update ran %d delivery passes, want 1", after-before)
		}

		time.Sleep(time.Until(sent.Add(interval + interval/5)))
		fill(host, win, pixel.RGB(40, 200, 40))
		took := waitConverged(t, host, conn, 5*time.Second)
		after, paced := passes(host)
		if took > interval/2 || after-before != 2 || paced != 0 {
			t.Fatalf("update 1.2 intervals after the last took %v (%d passes for two updates, %d paced), want it pushed at once",
				took, after-before, paced)
		}
	})
}

// TestPushRecorder: the Recorder is one more pushed client. It holds no
// ticker, so an idle screen records nothing and costs nothing, the first
// damage after an idle interval is on the tape at once, and a fixed
// script records as the same messages the ticker produced: the initial
// screen, then one SFILL.
func TestPushRecorder(t *testing.T) {
	const interval = 200 * time.Millisecond
	testutil.CheckGoroutines(t)
	host := NewHost(64, 64, testGate(), Options{FlushInterval: interval})
	defer host.Close()
	var win *xserver.Window
	host.Do(func(d *xserver.Display) { win = d.CreateWindow(geom.XYWH(0, 0, 64, 64)) })
	fill(host, win, pixel.RGB(90, 90, 90))

	var buf safeBuffer
	rec := host.Record(&buf)
	defer rec.Close()
	waitFor(t, "initial screen on the tape", func() bool { return buf.Len() > 0 })
	time.Sleep(interval + interval/10)
	initial := buf.Len()

	start := time.Now()
	fill(host, win, pixel.RGB(200, 40, 40))
	for buf.Len() == initial {
		if time.Since(start) > 5*time.Second {
			t.Fatal("the fill was never recorded")
		}
		time.Sleep(time.Millisecond)
	}
	if took := time.Since(start); took > 50*time.Millisecond {
		t.Fatalf("first damage after an idle interval was recorded after %v, want it pushed at once", took)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	viewer := client.New(64, 64)
	r := buf.Reader()
	var types []wire.Type
	for {
		rec, err := ReadRecord(r)
		if err != nil {
			break
		}
		if err := viewer.Apply(rec.Msg); err != nil {
			t.Fatalf("replay: %v", err)
		}
		types = append(types, rec.Msg.Type())
	}
	if len(types) != 2 || types[1] != wire.TSFill {
		t.Fatalf("recorded %v, want the initial screen and one SFILL", types)
	}
	if viewer.FB().Checksum() != host.ScreenChecksum() {
		t.Fatal("replayed screen differs from the live one")
	}
}

// TestPushDueTime is the due-time arithmetic on its own.
func TestPushDueTime(t *testing.T) {
	const interval = 5 * time.Millisecond
	t0 := time.Now()
	at := func(d time.Duration) time.Time { return t0.Add(d) }

	p := pacing{interval: interval}
	if w := p.wait(t0); w != 0 {
		t.Fatalf("first pass must wait %v, want none", w)
	}
	// A pass on damage: the next is due one interval after its start,
	// never before, and once that has gone by, at once again.
	p.delivered(t0, false)
	for _, tc := range []struct{ now, want time.Duration }{
		{0, interval},
		{time.Millisecond, 4 * time.Millisecond},
		{interval - 1, 1},
		{interval, 0},
		{3 * interval, 0},
	} {
		if w := p.wait(at(tc.now)); w != tc.want {
			t.Fatalf("%v after a pass: wait %v, want %v", tc.now, w, tc.want)
		}
	}
	// Quiet for a while, then damage: the cadence restarts at that pass,
	// it does not snap back to the old grid.
	p.delivered(at(12*time.Millisecond), false)
	if w := p.wait(at(13 * time.Millisecond)); w != 4*time.Millisecond {
		t.Fatalf("after a pass at 12ms the next is due in %v at 13ms, want 4ms", w)
	}

	// A long drain: every continuation pass starts a little late (timer
	// latency), none of which may accumulate — pass i is due at exactly
	// i intervals, and never sooner than an interval after pass i-1 was.
	p = pacing{interval: interval}
	p.delivered(t0, false)
	for i := 1; i <= 100; i++ {
		due := at(time.Duration(i) * interval)
		if w := p.wait(due.Add(-1)); w != 1 {
			t.Fatalf("step %d: not yet due 1ns early, wait %v", i, w)
		}
		late := due.Add(time.Duration(i%7) * 100 * time.Microsecond)
		if w := p.wait(late); w != 0 {
			t.Fatalf("step %d: due pass told to wait %v", i, w)
		}
		p.delivered(late, true)
	}
	if want := at(101 * interval); !p.next.Equal(want) {
		t.Fatalf("after 100 late continuation passes the cadence drifted by %v", p.next.Sub(want))
	}

	// A pass a whole interval late restarts the cadence instead of
	// owing a burst of catch-up passes.
	stall := at(101*interval + 3*interval)
	p.delivered(stall, true)
	if w := p.wait(stall); w != interval {
		t.Fatalf("after a stalled pass the next is due in %v, want a full interval", w)
	}
}
