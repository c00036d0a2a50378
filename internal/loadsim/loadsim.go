// Package loadsim is the multi-session load harness behind
// cmd/thinc-load: it attaches thousands of event-driven THINC sessions
// to a server.Fleet over in-memory simnet.EventConn pairs and proves
// the sharded delivery core's scaling claims — goroutine count stays
// O(shards), an idle session costs near-zero heap and zero timer
// churn, and damage-to-glass latency under load stays inside the
// wire-v5 e2e envelope.
//
// Each simulated client is goroutine-free in steady state: the
// EventConn data hook runs on the server's own shard worker when a
// flush lands, decrypts and parses whatever arrived, and answers
// Ping→Pong and TimeMark→MarkAck through EventSession.Deliver. Only
// the handshake borrows a transient goroutine.
package loadsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"thinc/internal/auth"
	"thinc/internal/cipher"
	"thinc/internal/geom"
	"thinc/internal/overload"
	"thinc/internal/pixel"
	"thinc/internal/server"
	"thinc/internal/shard"
	"thinc/internal/simnet"
	"thinc/internal/telemetry"
	"thinc/internal/wire"
	"thinc/internal/xserver"
)

// Options configures one load run.
type Options struct {
	// Sessions is the number of concurrent sessions to attach.
	Sessions int
	// Active is the rotating subset receiving damage each tick.
	Active int
	// Duration is the measured drive phase; attach time is extra.
	Duration time.Duration
	// Tick is the damage cadence. Default 25ms.
	Tick time.Duration
	// W, H is the per-session display geometry. Default 96x64 — small
	// enough that 10k framebuffers fit comfortably, large enough that
	// resyncs and damage translation do real work.
	W, H int
	// Shards sizes the worker pool; 0 takes shard.DefaultShards.
	Shards int
	// ReattachEvery detaches and ticket-reattaches one rotating session
	// every N ticks (0 disables) — the churn rung.
	ReattachEvery int
	// DegradeEvery forces a rung cycle (lossless→compress→lossless) on
	// one rotating active session every N ticks (0 disables).
	DegradeEvery int

	// Self-check budgets; zero takes the listed default.
	E2EEnvelopeUS    int64 // p99 damage-to-glass, lossless rung. Default 50ms.
	TaskWaitBudgetUS int64 // p99 shard queue wait. Default 250ms.
	HeapBudgetBytes  int64 // marginal heap per idle session. Default 1 MiB.
	GoroutineSlack   int   // budget = base + 2*shards + slack. Default 24.

	// Progress, when set, receives human-readable phase updates.
	Progress func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Sessions <= 0 {
		o.Sessions = 100
	}
	if o.Active <= 0 {
		o.Active = 64
	}
	if o.Active > o.Sessions {
		o.Active = o.Sessions
	}
	if o.Duration <= 0 {
		o.Duration = 3 * time.Second
	}
	if o.Tick <= 0 {
		o.Tick = 25 * time.Millisecond
	}
	if o.W <= 0 || o.H <= 0 {
		o.W, o.H = 96, 64
	}
	if o.Shards <= 0 {
		o.Shards = shard.DefaultShards
	}
	if o.E2EEnvelopeUS <= 0 {
		// Damage-to-glass p99 at full scale. Well above the ~2.5ms a
		// single unloaded session measures (BENCH_pr7) — at 10k
		// sessions per core the tail absorbs heartbeat bursts and GC
		// marks over a multi-GB heap — but comfortably inside the
		// ~150ms interactivity threshold the THINC paper's web
		// benchmarks target.
		o.E2EEnvelopeUS = 100_000
	}
	if o.TaskWaitBudgetUS <= 0 {
		o.TaskWaitBudgetUS = 250_000
	}
	if o.HeapBudgetBytes <= 0 {
		o.HeapBudgetBytes = 1 << 20
	}
	if o.GoroutineSlack <= 0 {
		o.GoroutineSlack = 24
	}
	return o
}

const (
	lsUser   = "owner"
	lsSecret = "pw"
)

// lsession is one simulated client: the EventConn client end, its
// cipher stream, and the resumable frame parser the data hook drives.
type lsession struct {
	idx  int
	host *server.Host

	mu      sync.Mutex // guards conn/enc/es swap and all parser state
	conn    *simnet.EventConn
	enc     *cipher.StreamConn
	es      *server.EventSession
	closing bool // an intentional detach is in progress

	rbuf []byte // decrypt scratch
	pbuf []byte // decrypted byte accumulator
	off  int    // parse offset into pbuf

	ticket     []byte
	cacheEpoch uint64
	applyNS    int64 // parse time since last MarkAck (echoed as ApplyUS)
	rung       uint8

	msgs    atomic.Int64
	bytes   atomic.Int64
	pongs   atomic.Int64
	acks    atomic.Int64
	notices atomic.Int64
	dead    atomic.Bool
}

// onData is the EventConn hook: it runs on whatever goroutine wrote to
// our end — in steady state the server's shard worker — and consumes
// everything buffered. The mutex serializes it against the post-attach
// kick and against reattach swaps.
func (s *lsession) onData(int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainLocked()
}

func (s *lsession) drainLocked() {
	if s.closing || s.dead.Load() {
		return
	}
	start := time.Now()
	for {
		n := s.conn.Buffered()
		if n == 0 {
			break
		}
		if cap(s.rbuf) < n {
			s.rbuf = make([]byte, n)
		}
		m, err := s.enc.Read(s.rbuf[:n])
		if err != nil {
			if !s.closing {
				s.dead.Store(true)
			}
			return
		}
		s.pbuf = append(s.pbuf, s.rbuf[:m]...)
		s.parseLocked()
	}
	s.applyNS += time.Since(start).Nanoseconds()
	// Drop a fully-consumed buffer, or slide a long tail down so one
	// giant resync does not pin its worst-case capacity forever.
	if s.off == len(s.pbuf) {
		s.pbuf = s.pbuf[:0]
		s.off = 0
	} else if s.off > 8192 {
		s.pbuf = append(s.pbuf[:0], s.pbuf[s.off:]...)
		s.off = 0
	}
}

// parseLocked consumes complete frames from pbuf. Control messages are
// decoded and answered; display traffic is counted and skipped — the
// harness measures delivery, not rendering.
func (s *lsession) parseLocked() {
	for {
		avail := len(s.pbuf) - s.off
		if avail < wire.HeaderSize {
			return
		}
		pl := int(binary.BigEndian.Uint32(s.pbuf[s.off+1:]))
		if avail < wire.HeaderSize+pl {
			return
		}
		t := wire.Type(s.pbuf[s.off])
		payload := s.pbuf[s.off+wire.HeaderSize : s.off+wire.HeaderSize+pl]
		s.off += wire.HeaderSize + pl
		s.msgs.Add(1)
		s.bytes.Add(int64(wire.HeaderSize + pl))
		switch t {
		case wire.TPing:
			if m, err := wire.Unmarshal(t, payload); err == nil {
				p := m.(*wire.Ping)
				s.deliver(&wire.Pong{Seq: p.Seq, TimeUS: p.TimeUS})
				s.pongs.Add(1)
			}
		case wire.TTimeMark:
			if m, err := wire.Unmarshal(t, payload); err == nil {
				tm := m.(*wire.TimeMark)
				apply := uint32(s.applyNS / 1000)
				s.applyNS = 0
				s.deliver(&wire.MarkAck{Epoch: tm.Epoch, TimeUS: tm.TimeUS,
					ApplyUS: apply})
				s.acks.Add(1)
			}
		case wire.TSessionTicket:
			if m, err := wire.Unmarshal(t, payload); err == nil {
				st := m.(*wire.SessionTicket)
				s.ticket = append(s.ticket[:0], st.Ticket...)
				s.cacheEpoch = st.CacheEpoch
			}
		case wire.TDegradeNotice:
			if m, err := wire.Unmarshal(t, payload); err == nil {
				s.rung = m.(*wire.DegradeNotice).Rung
				s.notices.Add(1)
			}
		}
	}
}

// deliver injects a client→server message. Errors during an
// intentional detach are expected; anything else marks the session
// dead for the final accounting.
func (s *lsession) deliver(m wire.Message) {
	if err := s.es.Deliver(m); err != nil && !s.closing {
		s.dead.Store(true)
	}
}

// Run executes one load run and returns its self-checking report.
func Run(o Options) (*Report, error) {
	o = o.withDefaults()
	progress := o.Progress
	if progress == nil {
		progress = func(string, ...any) {}
	}

	runtime.GC()
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	baseGoroutines := runtime.NumGoroutine()

	acc := auth.NewAccounts()
	acc.Add(lsUser, lsSecret)
	gate := auth.NewAuthenticator(lsUser, acc)

	fleet := server.NewFleet(server.Options{
		// Audit probes need a client-side framebuffer to digest; the
		// harness client renders nothing, so the audit stays off. The
		// e2e mark pipeline (which needs only acks) stays on — it is
		// the latency instrument this run reports.
		DisableAudit: true,
	}, shard.Options{Shards: o.Shards})
	defer fleet.Close()

	sessions := make([]*lsession, o.Sessions)
	attachStart := time.Now()
	pool := fleet.Scheduler().Pool()
	for i := range sessions {
		s := &lsession{idx: i, host: fleet.NewHost(o.W, o.H, gate)}
		if err := attach(s, o, false); err != nil {
			return nil, fmt.Errorf("attach session %d: %w", i, err)
		}
		sessions[i] = s
		if (i+1)%1000 == 0 {
			progress("attached %d/%d sessions", i+1, o.Sessions)
		}
		// Pace the storm against the delivery core: an unthrottled
		// attach loop would monopolize the CPU and starve heartbeat
		// passes for the sessions already attached. Yielding whenever
		// the run queue backs up keeps delivery current throughout.
		if i%32 == 31 {
			for pool.Stats().Depth > 128 {
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
	attachMS := time.Since(attachStart).Milliseconds()
	progress("all %d sessions attached in %dms", o.Sessions, attachMS)

	// Let attach-phase resyncs fully drain, then measure the idle
	// steady state: this is where goroutine and heap claims are made.
	time.Sleep(300 * time.Millisecond)
	runtime.GC()
	var msIdle runtime.MemStats
	runtime.ReadMemStats(&msIdle)
	idleGoroutines := runtime.NumGoroutine()
	heapPer := int64(0)
	if msIdle.HeapAlloc > msBefore.HeapAlloc {
		heapPer = int64(msIdle.HeapAlloc-msBefore.HeapAlloc) / int64(o.Sessions)
	}
	progress("idle: %d goroutines (base %d), %d heap bytes/session",
		idleGoroutines, baseGoroutines, heapPer)

	// Drive phase: rotating damage over the active subset, optional
	// degradation and reattach churn riding the same clock.
	cpuStart := cpuTime()
	driveStart := time.Now()
	var reattaches int64
	next := 0
	degradeAt := 0
	tick := 0
	for time.Since(driveStart) < o.Duration {
		tickStart := time.Now()
		for j := 0; j < o.Active; j++ {
			s := sessions[next%len(sessions)]
			next++
			if s.dead.Load() {
				continue
			}
			paint(s.host, o, tick, j)
		}
		if o.DegradeEvery > 0 && tick%o.DegradeEvery == 0 && tick > 0 {
			// Walk one session up a rung and the previous one back down;
			// active sessions flush constantly, so notices flow.
			sessions[degradeAt%len(sessions)].host.ForceRung(0)
			degradeAt++
			sessions[degradeAt%len(sessions)].host.ForceRung(1)
		}
		if o.ReattachEvery > 0 && tick%o.ReattachEvery == 0 && tick > 0 {
			s := sessions[(tick/o.ReattachEvery)%len(sessions)]
			if !s.dead.Load() {
				if err := reattach(s, o); err != nil {
					s.dead.Store(true)
				} else {
					reattaches++
				}
			}
		}
		tick++
		if rest := o.Tick - time.Since(tickStart); rest > 0 {
			time.Sleep(rest)
		}
	}
	// Give in-flight marks one last interval to ack before snapshot.
	time.Sleep(200 * time.Millisecond)
	driveMS := time.Since(driveStart).Milliseconds()
	cpuSec := cpuTime() - cpuStart
	progress("drive done: %d ticks, %d reattaches, %.2f cpu-sec",
		tick, reattaches, cpuSec)

	// Undo any rung still forced so the final state is uniform.
	if o.DegradeEvery > 0 {
		sessions[degradeAt%len(sessions)].host.ForceRung(0)
	}

	reg := fleet.Telemetry()
	rep := &Report{
		Schema:   ReportSchema,
		Sessions: o.Sessions,
		Active:   o.Active,
		Shards:   o.Shards,
		Procs:    runtime.GOMAXPROCS(0),
		AttachMS: attachMS,
		DriveMS:  driveMS,
		Goroutines: GoroutineReport{
			Base:   baseGoroutines,
			Idle:   idleGoroutines,
			Final:  runtime.NumGoroutine(),
			Budget: baseGoroutines + 2*o.Shards + o.GoroutineSlack,
		},
		HeapPerIdleSession: heapPer,
		TaskWait:           pctOf(histSnap(reg, "thinc_shard_task_wait_ns"), 1000),
		TaskRun:            pctOf(histSnap(reg, "thinc_shard_task_run_ns"), 1000),
		E2E: pctOf(histSnap(reg, "thinc_e2e_latency_us",
			telemetry.L("rung", overload.RungName(0))), 1),
		StageQueue: pctOf(histSnap(reg, "thinc_e2e_stage_ns",
			telemetry.L("stage", "queue")), 1000),
		StageWrite: pctOf(histSnap(reg, "thinc_e2e_stage_ns",
			telemetry.L("stage", "write")), 1000),
		StageWire: pctOf(histSnap(reg, "thinc_e2e_stage_ns",
			telemetry.L("stage", "wire")), 1000),
		StageApply: pctOf(histSnap(reg, "thinc_e2e_stage_ns",
			telemetry.L("stage", "apply")), 1000),
		ShardTasks:       reg.Value("thinc_shard_tasks"),
		ShardWakes:       reg.Value("thinc_shard_task_wakes_total"),
		ShardRuns:        reg.Value("thinc_shard_task_runs_total"),
		HeartbeatsSent:   reg.Value("thinc_heartbeats_sent_total"),
		MarksSent:        reg.Value("thinc_e2e_marks_total"),
		MarkAcks:         reg.Value("thinc_e2e_acks_total"),
		Reattaches:       reattaches,
		E2EEnvelopeUS:    o.E2EEnvelopeUS,
		TaskWaitBudgetUS: o.TaskWaitBudgetUS,
		HeapBudgetBytes:  o.HeapBudgetBytes,
	}
	if cpuSec > 0 && driveMS > 0 {
		rep.CPUCoresUsed = cpuSec / (float64(driveMS) / 1000)
		if rep.CPUCoresUsed > 0 {
			rep.SessionsPerCore = float64(o.Sessions) / rep.CPUCoresUsed
		}
	}
	for _, s := range sessions {
		rep.ClientMsgs += s.msgs.Load()
		rep.ClientBytes += s.bytes.Load()
		rep.ClientPongs += s.pongs.Load()
		rep.DegradeNotices += s.notices.Load()
		if s.dead.Load() {
			rep.SessionFailures++
		}
	}

	// Orderly teardown before the deferred fleet.Close: detach every
	// client so close-path errors never count as session failures.
	for _, s := range sessions {
		s.mu.Lock()
		s.closing = true
		s.mu.Unlock()
	}
	for _, s := range sessions {
		s.conn.Close()
	}
	return rep, nil
}

// paint queues one desktop-style damage burst on the session's host:
// a moving fill plus a line of text, sized well under one flush budget.
func paint(h *server.Host, o Options, tick, slot int) {
	h.Do(func(d *xserver.Display) {
		win := d.CreateWindow(geom.XYWH(0, 0, o.W, o.H))
		x := (tick * 7) % (o.W - 32)
		y := (slot * 5) % (o.H - 24)
		d.FillRect(win, &xserver.GC{Fg: pixel.RGB(uint8(tick*13), 80, 40)},
			geom.XYWH(x, y, 32, 24))
		d.DrawText(win, &xserver.GC{Fg: pixel.RGB(240, 240, 240)}, 4, 4,
			fmt.Sprintf("t%d", tick))
	})
}

// attach performs the client handshake over a fresh EventConn pair,
// with the server side running ServeEvent on a transient goroutine.
// On success the session's data hook is installed and any bytes that
// landed before it (session ticket, initial resync) are drained.
func attach(s *lsession, o Options, asReattach bool) error {
	cln, srv := simnet.NewEventPair()
	type serveRes struct {
		es  *server.EventSession
		err error
	}
	resC := make(chan serveRes, 1)
	go func() {
		es, err := s.host.ServeEvent(srv)
		resC <- serveRes{es, err}
	}()

	fail := func(err error) error {
		cln.Close()
		<-resC // the server side fails on the closed pipe; reap it
		return err
	}
	_ = cln.SetReadDeadline(time.Now().Add(10 * time.Second))
	m, err := wire.ReadMessage(cln)
	if err != nil {
		return fail(err)
	}
	ch, ok := m.(*wire.AuthChallenge)
	if !ok {
		return fail(fmt.Errorf("loadsim: expected challenge, got %v", m.Type()))
	}
	if err := wire.WriteMessage(cln, &wire.AuthResponse{
		User: lsUser, Proof: auth.Proof(lsSecret, ch.Nonce)}); err != nil {
		return fail(err)
	}
	m, err = wire.ReadMessage(cln)
	if err != nil {
		return fail(err)
	}
	if res, ok := m.(*wire.AuthResult); !ok || !res.OK {
		return fail(errors.New("loadsim: authentication refused"))
	}
	enc, err := cipher.NewStreamConn(cln, auth.SessionKey(lsSecret, ch.Nonce), false)
	if err != nil {
		return fail(err)
	}
	var hello wire.Message
	if asReattach {
		hello = &wire.Reattach{Ticket: s.ticket, ViewW: o.W, ViewH: o.H,
			Name: lsUser, Role: wire.RoleOwner, CacheEpoch: s.cacheEpoch}
	} else {
		hello = &wire.ClientInit{ViewW: o.W, ViewH: o.H, Name: lsUser,
			Role: wire.RoleOwner}
	}
	if err := wire.WriteMessage(enc, hello); err != nil {
		return fail(err)
	}
	m, err = wire.ReadMessage(enc)
	if err != nil {
		return fail(err)
	}
	if _, ok := m.(*wire.ServerInit); !ok {
		return fail(fmt.Errorf("loadsim: expected server init, got %v", m.Type()))
	}
	_ = cln.SetReadDeadline(time.Time{})

	res := <-resC
	if res.err != nil {
		cln.Close()
		return res.err
	}
	s.mu.Lock()
	s.conn, s.enc, s.es = cln, enc, res.es
	s.closing = false
	s.pbuf, s.off = s.pbuf[:0], 0
	s.mu.Unlock()
	// Writes that landed before the hook was installed do not fire it;
	// one manual kick drains them (the hook serializes via s.mu).
	cln.SetOnData(s.onData)
	s.onData(0)
	return nil
}

// reattach detaches the session (its server state is retained under
// DetachGrace) and resumes it by ticket on a fresh pair.
func reattach(s *lsession, o Options) error {
	s.mu.Lock()
	if len(s.ticket) == 0 {
		s.mu.Unlock()
		return errors.New("loadsim: no ticket yet")
	}
	s.closing = true
	old := s.conn
	es := s.es
	s.mu.Unlock()
	es.Close()
	old.Close()
	return attach(s, o, true)
}
