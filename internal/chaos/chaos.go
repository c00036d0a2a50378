// Package chaos is the overload-protection soak harness: it runs a
// real server and a real client over loopback TCP, drives a seeded
// random workload through every display path — fills, tiles, bitmaps,
// raws, composites, copies, offscreen pixmaps, video, audio, input —
// while a fault-injecting dialer cuts, stalls, truncates, reorders and
// duplicates the transport underneath the session. After the storm it
// quiesces and applies THINC's strongest invariant as the oracle: the
// client framebuffer must become byte-identical to the server screen.
// A schedule either pins one degradation-ladder rung (proving the
// lossy rungs repair completely) or leaves the adaptive controller on
// (proving the ladder itself converges); the link model for flush
// pacing comes from the simnet environments of §8.
package chaos

import (
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"thinc/internal/audio"
	"thinc/internal/auth"
	"thinc/internal/client"
	"thinc/internal/core"
	"thinc/internal/faultconn"
	"thinc/internal/geom"
	"thinc/internal/overload"
	"thinc/internal/pixel"
	"thinc/internal/server"
	"thinc/internal/sim"
	"thinc/internal/simnet"
	"thinc/internal/wire"
	"thinc/internal/xserver"
)

// Schedule scripts one chaos run. The seed fixes both the workload
// and the fault plans, so a failing schedule replays exactly.
type Schedule struct {
	Name string
	Seed int64
	// Link models the client's network: the server's flush budget is
	// its effective rate over one flush interval.
	Link simnet.LinkParams
	// Adaptive leaves the overload controller on; otherwise the run is
	// pinned at Rung for the whole storm (DisableOverload).
	Adaptive bool
	// Rung is the pinned degradation rung when !Adaptive.
	Rung int
	// Ops is the number of workload operations before quiescence.
	Ops int
	// MaxWall bounds the whole run; zero means 20s.
	MaxWall time.Duration
	// Viewers attaches this many viewer-role connections alongside the
	// owner — the broadcast fan-out under chaos. Viewer i is pinned at
	// rung i % overload.NumRungs during the storm (a mixed-rung set),
	// and with Viewers >= 2 the last viewer attaches mid-storm (the
	// late joiner). All are released at quiescence and each must
	// converge byte-identical.
	Viewers int
}

// Result is what one schedule produced.
type Result struct {
	Schedule  Schedule
	Converged bool
	// MismatchAt is the first differing pixel index (-1 when identical).
	MismatchAt int
	// MaxRungSeen is the highest client-observed rung during the run.
	MaxRungSeen int

	Reconnects         int
	Reattaches         int
	SlowResyncs        int
	OverloadUps        int
	OverloadDowns      int
	OverloadResyncs    int
	WatchdogRecoveries int
	BudgetEvictions    int64

	// E2E mark/ack health under chaos: marks must flow whenever display
	// traffic does, and acks must come back — never a silently dead
	// measurement loop.
	E2EMarks int
	E2EAcks  int

	// ViewerMismatches holds each viewer's first differing pixel index
	// after release (-1 when byte-identical); ViewerMaxRungs the highest
	// rung each viewer observed. Converged requires every viewer at -1.
	ViewerMismatches []int
	ViewerMaxRungs   []int
}

func (r Result) String() string {
	return fmt.Sprintf("%s seed=%d converged=%v maxRung=%d viewers=%d viewerMismatches=%v reconnects=%d reattaches=%d ups=%d downs=%d resyncs=%d evictions=%d marks=%d acks=%d",
		r.Schedule.Name, r.Schedule.Seed, r.Converged, r.MaxRungSeen,
		r.Schedule.Viewers, r.ViewerMismatches,
		r.Reconnects, r.Reattaches, r.OverloadUps, r.OverloadDowns,
		r.OverloadResyncs, r.BudgetEvictions, r.E2EMarks, r.E2EAcks)
}

// Suite returns the standard chaos schedules: the three §8 testbed
// environments under adaptive control, every ladder rung pinned in
// turn, and a narrow modem-class link that forces the ladder to climb.
func Suite() []Schedule {
	modem := simnet.LinkParams{Name: "modem", Bandwidth: 2e6,
		RTT: 50 * sim.Millisecond, Window: 1 << 16}
	return []Schedule{
		{Name: "lan-adaptive", Seed: 101, Link: simnet.LAN(), Adaptive: true, Ops: 400},
		{Name: "wan-adaptive", Seed: 202, Link: simnet.WAN(), Adaptive: true, Ops: 350},
		{Name: "wifi-adaptive", Seed: 303, Link: simnet.PDA80211g(), Adaptive: true, Ops: 350},
		{Name: "modem-adaptive-ladder", Seed: 404, Link: modem, Adaptive: true, Ops: 500},
		{Name: "rung1-compress", Seed: 505, Link: simnet.LAN(), Rung: overload.RungCompress, Ops: 300},
		{Name: "rung2-downscale", Seed: 606, Link: simnet.WAN(), Rung: overload.RungDownscale, Ops: 300},
		{Name: "rung3-drop-video", Seed: 707, Link: simnet.PDA80211g(), Rung: overload.RungDropVideo, Ops: 300},
		{Name: "rung4-resync", Seed: 808, Link: simnet.LAN(), Rung: overload.RungResync, Ops: 300},
		// The broadcast oracle: one owner plus three viewers pinned at
		// different rungs (lossless / compress / downscale), the last
		// attaching mid-storm, all converging byte-identical.
		{Name: "broadcast-mixed-rungs", Seed: 909, Link: simnet.LAN(), Ops: 400, Viewers: 3},
	}
}

// SoakSchedules derives n randomized schedules from one base seed —
// the long-haul mode behind `make soak`.
func SoakSchedules(n int, seed int64) []Schedule {
	rnd := rand.New(rand.NewSource(seed))
	links := []simnet.LinkParams{simnet.LAN(), simnet.WAN(), simnet.PDA80211g(),
		{Name: "modem", Bandwidth: 2e6, RTT: 50 * sim.Millisecond, Window: 1 << 16}}
	out := make([]Schedule, 0, n)
	for i := 0; i < n; i++ {
		s := Schedule{
			Name: fmt.Sprintf("soak-%03d", i),
			Seed: rnd.Int63(),
			Link: links[rnd.Intn(len(links))],
			Ops:  150 + rnd.Intn(250),
			// Soaks run ~GOMAXPROCS-wide under -race: wall-clock budgets
			// must absorb CPU contention, not just the work itself.
			MaxWall: 90 * time.Second,
		}
		if rnd.Intn(2) == 0 {
			s.Adaptive = true
		} else {
			s.Rung = rnd.Intn(overload.NumRungs)
		}
		// Every third soak runs the broadcast fan-out: three mixed-rung
		// viewers riding the same storm.
		if i%3 == 2 {
			s.Viewers = 3
		}
		out = append(out, s)
	}
	return out
}

const (
	screenW = 96
	screenH = 64
)

// nextPlan draws the fault plan for one connection attempt. Budgets
// are cumulative bytes through the wrapper, so every mode lands at an
// arbitrary point inside some frame — the mid-flush cut.
func nextPlan(rnd *rand.Rand) faultconn.Plan {
	switch r := rnd.Float64(); {
	case r < 0.25:
		// Half-dead peer: the stream stalls; deadlines and heartbeats
		// must break the session, not a FIN.
		return faultconn.Plan{ReadFaultAfter: 1024 + rnd.Int63n(96<<10), Stall: true}
	case r < 0.40:
		// Adjacent-write swap on the client->server stream.
		return faultconn.Plan{ReorderAfter: 256 + rnd.Int63n(2<<10),
			ReadFaultAfter: 8<<10 + rnd.Int63n(128<<10)}
	case r < 0.55:
		// Retransmit-style duplicate on the client->server stream.
		return faultconn.Plan{DuplicateAfter: 256 + rnd.Int63n(2<<10),
			ReadFaultAfter: 8<<10 + rnd.Int63n(128<<10)}
	case r < 0.85:
		// Server->client cut: the flush dies mid-frame (truncation is
		// inherent — the budget lands inside a frame).
		return faultconn.Plan{ReadFaultAfter: 512 + rnd.Int63n(48<<10)}
	default:
		// Client->server cut mid-pong or mid-input.
		return faultconn.Plan{WriteFaultAfter: 128 + rnd.Int63n(4<<10)}
	}
}

// Run executes one schedule and reports what happened. Setup failures
// return an error; oracle failure is reported in Result.Converged.
func Run(s Schedule) (Result, error) {
	res := Result{Schedule: s, MismatchAt: -1}
	if s.MaxWall <= 0 {
		s.MaxWall = 20 * time.Second
	}
	deadline := time.Now().Add(s.MaxWall)
	planRnd := rand.New(rand.NewSource(s.Seed))
	workRnd := rand.New(rand.NewSource(s.Seed ^ 0x1e3779b97f4a7c15))

	// Flush pacing from the link model: effective rate over one tick.
	interval := 2 * time.Millisecond
	budget := int(s.Link.EffectiveRate() * interval.Seconds())
	if budget < 512 {
		budget = 512
	}
	if budget > 64<<10 {
		budget = 64 << 10
	}

	acc := auth.NewAccounts()
	acc.Add("owner", "pw")
	opts := server.Options{
		Core: core.Options{
			QueueBudgetBytes:          256 << 10,
			OffscreenQueueBudgetBytes: 128 << 10,
		},
		FlushInterval:     interval,
		FlushBudget:       budget,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  200 * time.Millisecond,
		DetachGrace:       10 * time.Second,
		DisableOverload:   !s.Adaptive,
		Overload: overload.Config{
			UpSec: 0.05, DownSec: 0.01, UpTicks: 4, DownTicks: 4, HoldTicks: 8,
		},
	}
	gate := auth.NewAuthenticator("owner", acc)
	if s.Viewers > 0 {
		gate.SetSessionPassword("watch")
	}
	host := server.NewHost(screenW, screenH, gate, opts)
	defer host.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	defer l.Close()
	go host.Serve(l)

	// The fault-injecting dialer: every attempt gets the next seeded
	// plan; once quiesced, attempts are clean so the oracle can settle.
	var quiesced atomic.Bool
	dial := func() (net.Conn, error) {
		nc, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			return nil, err
		}
		if quiesced.Load() {
			return nc, nil
		}
		return faultconn.Wrap(nc, nextPlan(planRnd)), nil
	}

	var conn *client.Conn
	for attempt := 0; ; attempt++ {
		conn, err = client.DialWith(dial, "owner", "pw", screenW, screenH)
		if err == nil {
			break
		}
		if attempt >= 50 || time.Now().After(deadline) {
			return res, fmt.Errorf("chaos: initial dial never succeeded: %w", err)
		}
	}
	defer conn.Close()
	conn.ReadTimeout = 250 * time.Millisecond
	conn.WriteTimeout = 250 * time.Millisecond
	runDone := make(chan error, 1)
	go func() {
		runDone <- conn.RunAuto(client.ReconnectPolicy{
			Initial: 2 * time.Millisecond, Max: 20 * time.Millisecond,
			MaxAttempts: 1 << 20, Seed: s.Seed,
		})
	}()

	// The viewer set: each gets its own fault-plan RNG (dialers run on
	// the viewers' reconnect goroutines), its own mixed rung, and the
	// same RunAuto resilience as the owner. With Viewers >= 2 the last
	// one stays unattached until mid-storm — the late joiner.
	type viewer struct {
		name string
		rung int
		conn *client.Conn
		done chan error
	}
	attachViewer := func(i int) (*viewer, error) {
		v := &viewer{
			name: fmt.Sprintf("viewer%d", i),
			rung: i % overload.NumRungs,
			done: make(chan error, 1),
		}
		vRnd := rand.New(rand.NewSource(s.Seed + int64(i+1)*0x9e3779b9))
		vdial := func() (net.Conn, error) {
			nc, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				return nil, err
			}
			if quiesced.Load() {
				return nc, nil
			}
			return faultconn.Wrap(nc, nextPlan(vRnd)), nil
		}
		var err error
		for attempt := 0; ; attempt++ {
			v.conn, err = client.DialWithRole(vdial, v.name, "watch",
				screenW, screenH, wire.RoleViewer)
			if err == nil {
				break
			}
			if attempt >= 50 || time.Now().After(deadline) {
				return nil, fmt.Errorf("chaos: viewer %s never attached: %w", v.name, err)
			}
		}
		v.conn.ReadTimeout = 250 * time.Millisecond
		v.conn.WriteTimeout = 250 * time.Millisecond
		go func() {
			v.done <- v.conn.RunAuto(client.ReconnectPolicy{
				Initial: 2 * time.Millisecond, Max: 20 * time.Millisecond,
				MaxAttempts: 1 << 20, Seed: s.Seed + int64(i),
			})
		}()
		host.ForceRungUser(v.name, v.rung)
		return v, nil
	}
	var viewers []*viewer
	earlyViewers := s.Viewers
	if s.Viewers >= 2 {
		earlyViewers = s.Viewers - 1
	}
	for i := 0; i < earlyViewers; i++ {
		v, err := attachViewer(i)
		if err != nil {
			return res, err
		}
		defer v.conn.Close()
		viewers = append(viewers, v)
	}

	// Stage the scene: a full-screen window, an offscreen pixmap, a
	// video port and an audio stream.
	bounds := geom.XYWH(0, 0, screenW, screenH)
	var win *xserver.Window
	var pm *xserver.Pixmap
	var vp *xserver.VideoPort
	host.Do(func(d *xserver.Display) {
		win = d.CreateWindow(bounds)
		d.FillRect(win, &xserver.GC{Fg: pixel.RGB(24, 40, 80)}, bounds)
		pm = d.CreatePixmap(24, 16)
		d.FillRect(pm, &xserver.GC{Fg: pixel.RGB(200, 60, 20)}, pm.Bounds())
		vp = d.CreateVideoPort(16, 12, geom.XYWH(64, 40, 24, 16))
	})
	stream := host.Audio().OpenStream(audio.CD)
	pcm := make([]byte, 1764) // 10ms of CD audio
	tile := make([]pixel.ARGB, 16*16)
	for i := range tile {
		tile[i] = pixel.PackARGB(128, uint8(i*5), uint8(i*11), uint8(i*17))
	}
	frame := pixel.NewYV12(16, 12)

	if !s.Adaptive {
		host.ForceRung(s.Rung)
	}

	// The storm: seeded random operations across every display path.
	for i := 0; i < s.Ops && time.Now().Before(deadline); i++ {
		op := workRnd.Intn(100)
		x, y := workRnd.Intn(screenW-24), workRnd.Intn(screenH-16)
		host.Do(func(d *xserver.Display) {
			switch {
			case op < 20:
				d.FillRect(win, &xserver.GC{Fg: pixel.RGB(uint8(op*3), uint8(x), uint8(y))},
					geom.XYWH(x, y, 4+workRnd.Intn(20), 4+workRnd.Intn(12)))
			case op < 40:
				pix := make([]pixel.ARGB, 24*16)
				for j := range pix {
					pix[j] = pixel.RGB(uint8(workRnd.Intn(256)), uint8(j), uint8(i))
				}
				d.PutImage(win, geom.XYWH(x, y, 24, 16), pix, 24)
			case op < 55:
				d.Composite(win, geom.XYWH(x, y, 16, 16), tile, 16)
			case op < 65:
				d.CopyArea(win, win, geom.XYWH(x, y, 16, 12),
					geom.Point{X: workRnd.Intn(screenW - 16), Y: workRnd.Intn(screenH - 12)})
			case op < 72:
				d.DrawText(win, &xserver.GC{Fg: pixel.RGB(255, 255, 0)}, x, y, "chaos")
			case op < 80:
				// Offscreen round trip: draw into the pixmap, copy out.
				d.FillRect(pm, &xserver.GC{Fg: pixel.RGB(uint8(i), uint8(op), 99)},
					geom.XYWH(0, 0, 12+workRnd.Intn(12), 8+workRnd.Intn(8)))
				d.CopyArea(win, pm, pm.Bounds(), geom.Point{X: x, Y: y})
			case op < 92:
				for j := range frame.Y {
					frame.Y[j] = uint8(i + j)
				}
				vp.PutFrame(frame, uint64(i)*33_000)
			default:
				d.InjectInput(geom.Point{X: x, Y: y})
			}
		})
		if op%10 == 0 {
			_, _ = stream.Write(pcm)
		}
		if op%17 == 0 {
			// Input may be cut mid-fault; the chaos point is that it can.
			_ = conn.SendInput(&wire.Input{Kind: wire.InputMouseButton,
				X: x, Y: y, Code: 1, Press: true})
		}
		if !s.Adaptive && i%32 == 0 {
			// Reconnects attach at rung 0: re-pin.
			host.ForceRung(s.Rung)
		}
		if s.Viewers >= 2 && i == s.Ops/2 && len(viewers) < s.Viewers {
			// The late joiner arrives mid-storm.
			v, err := attachViewer(s.Viewers - 1)
			if err != nil {
				return res, err
			}
			defer v.conn.Close()
			viewers = append(viewers, v)
		}
		if i%32 == 0 {
			// Viewer reconnects also attach at rung 0: re-pin each at its
			// own rung (ForceRung above hits every conn, viewers included).
			for _, v := range viewers {
				host.ForceRungUser(v.name, v.rung)
			}
		}
		if r := conn.Stats().DegradeRung; r > res.MaxRungSeen {
			res.MaxRungSeen = r
		}
		if i%8 == 0 {
			time.Sleep(200 * time.Microsecond)
		}
	}

	// Quiescence: stop the workload and the faults, close the video
	// port (its overlay region must be repainted), unpin the rung so
	// the lossy rungs queue their repair, and let the system settle.
	host.Do(func(d *xserver.Display) { vp.Close() })
	_ = stream.Close()
	quiesced.Store(true)
	res.ViewerMismatches = make([]int, len(viewers))
	res.ViewerMaxRungs = make([]int, len(viewers))
	for i, v := range viewers {
		res.ViewerMaxRungs[i] = v.conn.Stats().DegradeRung
	}
	if !s.Adaptive {
		// Prove the notice plumbing: with the faults off, the client must
		// come to observe the pinned rung before it is released. A storm
		// that ended mid-reconnect attaches fresh at rung 0, so re-pin.
		for s.Rung > 0 && time.Now().Before(deadline) &&
			conn.Stats().DegradeRung != s.Rung {
			host.ForceRung(s.Rung)
			time.Sleep(5 * time.Millisecond)
		}
		if r := conn.Stats().DegradeRung; r > res.MaxRungSeen {
			res.MaxRungSeen = r
		}
		// Each viewer must likewise observe its own pinned rung — the
		// mixed-rung set really was mixed.
		for i, v := range viewers {
			for v.rung > 0 && time.Now().Before(deadline) &&
				v.conn.Stats().DegradeRung != v.rung {
				host.ForceRungUser(v.name, v.rung)
				time.Sleep(5 * time.Millisecond)
			}
			if r := v.conn.Stats().DegradeRung; r > res.ViewerMaxRungs[i] {
				res.ViewerMaxRungs[i] = r
			}
		}
		host.ForceRung(0)
	}

	// The oracle: every framebuffer — the owner's and each viewer's —
	// becomes byte-identical to the server screen with its connection
	// at the lossless rung.
	ownerDone := false
	viewerDone := make([]bool, len(viewers))
	for time.Now().Before(deadline) {
		// ForceRung only reaches attached connections: released during
		// a reconnect gap, the retained session would carry its pinned
		// lossy rung across the reattach forever. Re-release each pass
		// (idempotent — the repair refresh fires only on the lossy→
		// lossless transition). Adaptive runs release only the pinned
		// viewers and let the owner's controller descend on its own.
		if !s.Adaptive {
			host.ForceRung(0)
		} else {
			for _, v := range viewers {
				host.ForceRungUser(v.name, 0)
			}
		}
		if !ownerDone && conn.State() == client.StateConnected &&
			conn.Stats().DegradeRung == 0 {
			if at := firstMismatch(host, conn); at < 0 {
				ownerDone, res.MismatchAt = true, -1
			} else {
				res.MismatchAt = at
			}
		}
		for i, v := range viewers {
			if viewerDone[i] {
				continue
			}
			if v.conn.State() != client.StateConnected || v.conn.Stats().DegradeRung != 0 {
				continue
			}
			if at := firstMismatch(host, v.conn); at < 0 {
				viewerDone[i], res.ViewerMismatches[i] = true, -1
			} else {
				res.ViewerMismatches[i] = at
			}
		}
		allDone := ownerDone
		for _, d := range viewerDone {
			allDone = allDone && d
		}
		if allDone {
			res.Converged = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	st := host.Resilience()
	cs := conn.Stats()
	res.Reconnects = cs.Reconnects
	res.Reattaches = st.Reattaches
	res.SlowResyncs = st.SlowResyncs
	res.OverloadUps = st.OverloadUps
	res.OverloadDowns = st.OverloadDowns
	res.OverloadResyncs = st.OverloadResyncs
	res.WatchdogRecoveries = st.WatchdogRecoveries
	res.BudgetEvictions = host.Telemetry().Total("thinc_sched_budget_evicted_total")
	res.E2EMarks = st.E2EMarks
	res.E2EAcks = st.E2EAcks
	if cs.DegradeRung > res.MaxRungSeen {
		res.MaxRungSeen = cs.DegradeRung
	}

	conn.Close()
	<-runDone
	for _, v := range viewers {
		v.conn.Close()
		<-v.done
	}
	return res, nil
}

// firstMismatch compares the client framebuffer against the server
// screen pixel by pixel: -1 means byte-identical.
func firstMismatch(host *server.Host, conn *client.Conn) int {
	var want []pixel.ARGB
	host.Do(func(d *xserver.Display) {
		want = append([]pixel.ARGB(nil), d.Screen().Pix()...)
	})
	got := conn.Snapshot().Pix()
	if len(want) != len(got) {
		return 0
	}
	for i := range want {
		if want[i] != got[i] {
			return i
		}
	}
	return -1
}
