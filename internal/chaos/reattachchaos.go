package chaos

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"thinc/internal/auth"
	"thinc/internal/client"
	"thinc/internal/core"
	"thinc/internal/faultconn"
	"thinc/internal/geom"
	"thinc/internal/pixel"
	"thinc/internal/server"
	"thinc/internal/shard"
	"thinc/internal/wire"
	"thinc/internal/xserver"
)

// The reattach schedule family: wire v7 lets a payload cache survive a
// disconnect, which moves session state across the one boundary chaos
// cares about most — the transport dying at an arbitrary byte. These
// runs attack that boundary from four directions: repeated warm resumes
// that must carry content missed while detached, an epoch desync where
// the client rebooted out from under its warm claim, transports cut in
// the middle of the warm resync's CACHE_STORE wave, and a storm of
// simultaneous reattaches against a small admission budget. Every
// schedule ends on the same oracle as the rest of the suite: the client
// framebuffer byte-identical to the server screen.

// Reattach schedule modes.
const (
	// ReattachWarm kills and resumes one client Cycles times, drawing
	// new content during each detach window; every resume must be warm
	// and the resync must deliver what was missed.
	ReattachWarm = "warm"
	// ReattachRestart populates the cache, then simulates a client
	// reboot (store lost, ticket kept) before reattaching: the epoch
	// claim is gone, the server must renegotiate cold, and the cache
	// must come back to life afterwards.
	ReattachRestart = "restart"
	// ReattachMidStore cuts each reattached transport after a random
	// byte budget, landing the cut inside the warm resync's CACHE_STORE
	// wave, then reattaches again — wherever the cut lands, the final
	// clean resume must converge.
	ReattachMidStore = "midstore"
	// ReattachStorm cuts Clients transports at once and lets RunAuto
	// fight through a Budget-wide admission gate: the gate must never
	// exceed its budget and everyone must get back in.
	ReattachStorm = "storm"
)

// ReattachSchedule scripts one reattach-lifecycle run.
type ReattachSchedule struct {
	Name string
	Seed int64
	Mode string
	// Cycles is how many kill/resume rounds the single-client modes run
	// (default 2).
	Cycles int
	// Clients and Budget shape the storm: Clients transports cut at
	// once against a Budget-wide resync admission gate.
	Clients int
	Budget  int
	// Sched runs the schedule on a host built by a one-host Fleet:
	// every connection's pump shares the fleet's worker pool instead of
	// running on a private one. Wire behavior must be identical, so
	// every oracle and counter assertion is unchanged.
	Sched bool
	// MaxWall bounds the whole run; zero means 30s.
	MaxWall time.Duration
}

// ReattachResult is what one reattach schedule produced.
type ReattachResult struct {
	Schedule   ReattachSchedule
	Converged  bool
	MismatchAt int // first differing pixel after quiescence (-1: identical)

	// Client side (summed across clients in storm mode).
	WarmResumes    int
	ColdFallbacks  int
	BusyRejections int
	Stored         int
	Painted        int

	// Server side.
	Reattaches     int
	WarmReattaches int
	ColdReattaches int
	Rejected       int
	PeakInFlight   int
}

func (r ReattachResult) String() string {
	return fmt.Sprintf("%s seed=%d mode=%s converged=%v warm=%d cold=%d busy=%d stored=%d painted=%d srvReattach=%d srvWarm=%d srvCold=%d rejected=%d peak=%d",
		r.Schedule.Name, r.Schedule.Seed, r.Schedule.Mode, r.Converged,
		r.WarmResumes, r.ColdFallbacks, r.BusyRejections, r.Stored, r.Painted,
		r.Reattaches, r.WarmReattaches, r.ColdReattaches, r.Rejected, r.PeakInFlight)
}

// ReattachSuite returns the standard reattach schedules.
func ReattachSuite() []ReattachSchedule {
	return []ReattachSchedule{
		{Name: "reattach-warm-cycles", Seed: 3101, Mode: ReattachWarm, Cycles: 3},
		{Name: "reattach-epoch-desync", Seed: 3202, Mode: ReattachRestart},
		{Name: "reattach-kill-mid-store", Seed: 3303, Mode: ReattachMidStore, Cycles: 3},
		{Name: "reattach-storm", Seed: 3404, Mode: ReattachStorm, Clients: 12, Budget: 2},
		// The same storm on a Fleet host: the admission gate, the ticket
		// protocol, and the convergence oracle must hold when every
		// connection shares one worker pool instead of owning a worker.
		{Name: "reattach-storm-sharded", Seed: 3404, Mode: ReattachStorm, Clients: 12, Budget: 2, Sched: true},
	}
}

// killableDialer dials addr, remembers the latest transport so the
// schedule can cut it, and optionally wraps the next dial in a fault
// plan (consumed once — the mid-store cut).
type killableDialer struct {
	mu       sync.Mutex
	addr     string
	last     net.Conn
	nextWrap func(net.Conn) net.Conn
}

func (d *killableDialer) dial() (net.Conn, error) {
	nc, err := net.Dial("tcp", d.addr)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	if d.nextWrap != nil {
		nc = d.nextWrap(nc)
		d.nextWrap = nil
	}
	d.last = nc
	d.mu.Unlock()
	return nc, nil
}

func (d *killableDialer) kill() {
	d.mu.Lock()
	nc := d.last
	d.mu.Unlock()
	if nc != nil {
		nc.Close()
	}
}

func (d *killableDialer) armWrap(w func(net.Conn) net.Conn) {
	d.mu.Lock()
	d.nextWrap = w
	d.mu.Unlock()
}

// reattachOptions is the server shape shared by the reattach runs: the
// cache on (except the storm, which wants every resync gated), generous
// liveness timers so the schedule — not the heartbeat — decides when a
// transport dies, and a grace window long enough that no session is
// reaped mid-run.
func reattachOptions(s ReattachSchedule) server.Options {
	opts := server.Options{
		Core:              core.Options{AuditTileSize: auditTile},
		CacheKB:           512,
		FlushInterval:     time.Millisecond,
		FlushBudget:       1 << 20,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  20 * time.Second,
		DetachGrace:       20 * time.Second,
		DisableOverload:   true,
		DisableAudit:      true,
		DisableE2E:        true,
	}
	if s.Mode == ReattachStorm {
		opts.CacheKB = 0 // every reattach is a gated full resync
		// The 24 KB resync would leave in the first delivery pass,
		// microseconds after the attach; a dozen paced passes make each
		// admitted reattacher hold its slot long enough to be contended.
		opts.FlushBudget = 2 << 10
		opts.ResyncAdmit = s.Budget
		opts.ResyncRetryAfter = 15 * time.Millisecond
		opts.MaxViewers = s.Clients + 1
	}
	return opts
}

// waitUntil polls cond every 2ms until it holds or the deadline passes.
func waitUntil(deadline time.Time, cond func() bool) bool {
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

// redialUntil retries Redial until it succeeds or the deadline passes;
// a redial can race the server noticing the dead transport.
func redialUntil(conn *client.Conn, deadline time.Time) error {
	var err error
	for time.Now().Before(deadline) {
		if err = conn.Redial(); err == nil {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err == nil {
		err = fmt.Errorf("chaos: redial deadline passed")
	}
	return err
}

// harvestReattach fills the result's counters from both sides.
func harvestReattach(res *ReattachResult, host *server.Host, conns ...*client.Conn) {
	st := host.Resilience()
	res.Reattaches = st.Reattaches
	res.WarmReattaches = st.WarmReattaches
	res.ColdReattaches = st.ColdReattaches
	res.Rejected = st.ReattachRejected
	res.PeakInFlight = st.ResyncPeakInFlight
	res.WarmResumes, res.ColdFallbacks, res.BusyRejections = 0, 0, 0
	res.Stored, res.Painted = 0, 0
	for _, cn := range conns {
		cs := cn.Stats()
		res.WarmResumes += cs.WarmResumes
		res.ColdFallbacks += cs.ColdFallbacks
		res.BusyRejections += cs.BusyRejections
		res.Stored += cs.CacheStored
		res.Painted += cs.CachePainted
	}
}

// RunReattach executes one reattach schedule.
func RunReattach(s ReattachSchedule) (ReattachResult, error) {
	res := ReattachResult{Schedule: s, MismatchAt: -1}
	if s.MaxWall <= 0 {
		s.MaxWall = 30 * time.Second
	}
	if s.Cycles <= 0 {
		s.Cycles = 2
	}
	deadline := time.Now().Add(s.MaxWall)

	acc := auth.NewAccounts()
	acc.Add("owner", "pw")
	opts := reattachOptions(s)
	gate := auth.NewAuthenticator("owner", acc)
	var host *server.Host
	if s.Sched {
		fleet := server.NewFleet(opts, shard.Options{})
		defer fleet.Close()
		host = fleet.NewHost(screenW, screenH, gate)
	} else {
		host = server.NewHost(screenW, screenH, gate, opts)
	}
	// Closing the host (before the fleet's pool, per defer order)
	// releases every server-side goroutine and timer; the leak checker
	// in the chaos tests holds each run to that.
	defer host.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	defer l.Close()
	go host.Serve(l)

	if s.Mode == ReattachStorm {
		return runReattachStorm(s, res, host, l.Addr().String(), deadline)
	}
	return runReattachCycles(s, res, host, l.Addr().String(), deadline)
}

// runReattachCycles drives the single-client modes: populate the cache,
// then kill/resume Cycles times with mode-specific sabotage, drawing
// new content during each detach window so the resync has real work.
func runReattachCycles(s ReattachSchedule, res ReattachResult, host *server.Host, addr string, deadline time.Time) (ReattachResult, error) {
	rnd := rand.New(rand.NewSource(s.Seed))
	td := &killableDialer{addr: addr}
	conn, err := client.DialWith(td.dial, "owner", "pw", screenW, screenH)
	if err != nil {
		return res, err
	}
	defer conn.Close()
	runDone := make(chan error, 1)
	go func() { runDone <- conn.Run() }()

	// Phase 1: populate. A bank of patterns plus one repeat, so the
	// session has a cache with real holdings before anything breaks.
	const bank = 3
	var win *xserver.Window
	host.Do(func(d *xserver.Display) {
		win = d.CreateWindow(geom.XYWH(0, 0, screenW, screenH))
		d.FillRect(win, &xserver.GC{Fg: pixel.RGB(25, 60, 120)}, geom.XYWH(0, 0, screenW, screenH))
		for i := 0; i < bank; i++ {
			d.PutImage(win, cacheSlotRect(i), cacheChaosPattern(i), cacheTileSide)
		}
		d.PutImage(win, cacheSlotRect(bank), cacheChaosPattern(0), cacheTileSide)
	})
	if !waitConverged(host, conn, deadline) {
		res.MismatchAt = firstMismatch(host, conn)
		return res, fmt.Errorf("chaos: populate phase never converged (mismatch at %d)", res.MismatchAt)
	}
	if st := conn.Stats(); st.CacheStored < bank {
		return res, fmt.Errorf("chaos: client stored %d of %d bank payloads", st.CacheStored, bank)
	}
	if !waitUntil(deadline, func() bool { return len(conn.Ticket()) > 0 }) {
		return res, fmt.Errorf("chaos: no session ticket before first kill")
	}

	// Phase 2: kill/resume cycles. Each round cuts the transport, waits
	// for the server to park the session, sabotages per mode, draws a
	// pattern the client cannot have seen, and resumes.
	slot := bank + 1
	for cycle := 1; cycle <= s.Cycles; cycle++ {
		td.kill()
		<-runDone
		if !waitUntil(deadline, func() bool { return host.NumDetached() >= 1 }) {
			return res, fmt.Errorf("chaos: cycle %d: session never detached", cycle)
		}

		switch s.Mode {
		case ReattachRestart:
			// The device rebooted: RAM store gone, ticket recovered.
			conn.DropCache()
		case ReattachMidStore:
			// The next transport dies after a random byte budget — past
			// the handshake (a few hundred bytes), inside the resync's
			// CACHE_STORE wave (the first warm resync ships ~24KB of
			// tile stores; later ones may be tiny paints, where the
			// residual budget falls to heartbeat traffic instead).
			budget := 1024 + rnd.Int63n(2<<10)
			td.armWrap(func(nc net.Conn) net.Conn {
				return faultconn.Wrap(nc, faultconn.Plan{ReadFaultAfter: budget})
			})
		}

		// Content missed while detached: the resync must deliver it.
		host.Do(func(d *xserver.Display) {
			d.PutImage(win, cacheSlotRect(slot), cacheChaosPattern(bank+cycle), cacheTileSide)
		})
		slot++

		if err := redialUntil(conn, deadline); err != nil {
			return res, fmt.Errorf("chaos: cycle %d: %w", cycle, err)
		}
		go func() { runDone <- conn.Run() }()

		if s.Mode == ReattachMidStore {
			// The armed cut kills this resume mid-store; wait for the
			// stream to die, close the half-dead transport so the server
			// notices now (not at the heartbeat timeout), then resume
			// clean. Wherever the cut landed — before the ticket,
			// mid-CACHE_STORE, mid-RAW — the clean resume must still
			// converge.
			<-runDone
			td.kill()
			if !waitUntil(deadline, func() bool { return host.NumDetached() >= 1 }) {
				return res, fmt.Errorf("chaos: cycle %d: mid-store kill never detached", cycle)
			}
			if err := redialUntil(conn, deadline); err != nil {
				return res, fmt.Errorf("chaos: cycle %d clean resume: %w", cycle, err)
			}
			go func() { runDone <- conn.Run() }()
		}

		if !waitUntil(deadline, func() bool {
			return firstMismatch(host, conn) < 0 && len(conn.Ticket()) > 0
		}) {
			res.MismatchAt = firstMismatch(host, conn)
			harvestReattach(&res, host, conn)
			return res, nil
		}
	}

	// Phase 3: prove the cache is alive after the last resume — a bank
	// repeat at a fresh slot must hit the store (or re-store it after a
	// cold resume) and converge.
	paintedBefore := conn.Stats().CachePainted
	storedBefore := conn.Stats().CacheStored
	host.Do(func(d *xserver.Display) {
		d.PutImage(win, cacheSlotRect(slot), cacheChaosPattern(1), cacheTileSide)
	})
	res.Converged = waitConverged(host, conn, deadline)
	if !res.Converged {
		res.MismatchAt = firstMismatch(host, conn)
	}
	waitUntil(deadline, func() bool {
		st := conn.Stats()
		return st.CachePainted > paintedBefore || st.CacheStored > storedBefore
	})

	harvestReattach(&res, host, conn)
	conn.Close()
	<-runDone
	return res, nil
}

// runReattachStorm cuts every client at once and lets RunAuto fight
// through the admission gate.
func runReattachStorm(s ReattachSchedule, res ReattachResult, host *server.Host, addr string, deadline time.Time) (ReattachResult, error) {
	if s.Clients < 2 || s.Budget < 1 {
		return res, fmt.Errorf("chaos: storm needs clients >= 2 and budget >= 1")
	}
	host.Do(func(d *xserver.Display) {
		win := d.CreateWindow(geom.XYWH(0, 0, screenW, screenH))
		d.FillRect(win, &xserver.GC{Fg: pixel.RGB(40, 80, 140)}, geom.XYWH(0, 0, screenW, screenH))
		for i := 0; i < 4; i++ {
			d.PutImage(win, cacheSlotRect(i), cacheChaosPattern(i), cacheTileSide)
		}
	})

	dialers := make([]*killableDialer, s.Clients)
	conns := make([]*client.Conn, s.Clients)
	done := make(chan error, s.Clients)
	for i := 0; i < s.Clients; i++ {
		dialers[i] = &killableDialer{addr: addr}
		role := uint8(wire.RoleViewer)
		if i == 0 {
			role = wire.RoleOwner
		}
		cn, err := client.DialWithRole(dialers[i].dial, "owner", "pw", screenW, screenH, role)
		if err != nil {
			return res, err
		}
		conns[i] = cn
		defer cn.Close()
		go func(cn *client.Conn, i int) {
			done <- cn.RunAuto(client.ReconnectPolicy{
				Initial: 5 * time.Millisecond, MaxAttempts: 12, Seed: s.Seed + int64(i)})
		}(cn, i)
	}
	if !waitUntil(deadline, func() bool { return host.NumClients() == s.Clients }) {
		return res, fmt.Errorf("chaos: only %d/%d clients attached", host.NumClients(), s.Clients)
	}

	// Cut every transport at once.
	for _, d := range dialers {
		d.kill()
	}
	if !waitUntil(deadline, func() bool {
		if host.NumClients() != s.Clients {
			return false
		}
		for _, cn := range conns {
			if cn.Stats().Reconnects < 1 {
				return false
			}
		}
		return true
	}) {
		harvestReattach(&res, host, conns...)
		return res, fmt.Errorf("chaos: storm never drained: %d/%d back", host.NumClients(), s.Clients)
	}

	// Everyone converges byte-identically after the storm.
	res.Converged = waitUntil(deadline, func() bool {
		for _, cn := range conns {
			if firstMismatch(host, cn) >= 0 {
				return false
			}
		}
		return true
	})
	if !res.Converged {
		for _, cn := range conns {
			if at := firstMismatch(host, cn); at >= 0 {
				res.MismatchAt = at
				break
			}
		}
	}
	harvestReattach(&res, host, conns...)
	return res, nil
}
