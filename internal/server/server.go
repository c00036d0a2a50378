// Package server is the runnable THINC server (§7): it owns a window
// system with the THINC virtual display driver and the virtual audio
// driver, and serves display sessions to remote clients over real
// network connections — PAM-style authentication, RC4-encrypted
// transport, server-push delivery with non-blocking flushing, input
// injection, and dynamic client resizing.
//
// The transport layer is resilient by construction: every read and
// write carries a deadline, the server heartbeats each client and
// reaps peers that stop responding, per-client command backlogs are
// bounded (a slow client is resynced with a fresh snapshot instead of
// an ever-growing queue), and a dropped client may reattach to its
// session with the opaque ticket issued at init, receiving a
// full-screen RAW resync.
package server

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"thinc/internal/audio"
	"thinc/internal/auth"
	"thinc/internal/cipher"
	"thinc/internal/core"
	"thinc/internal/geom"
	"thinc/internal/logx"
	"thinc/internal/overload"
	"thinc/internal/shard"
	"thinc/internal/wire"
	"thinc/internal/xserver"
)

// slog is the package's component logger; session-scoped records add
// user (and where known, session) attributes at the call site.
var slogger = logx.Component("server")

// Options configures a Host.
type Options struct {
	// Core configures the translation layer (compression, ablations).
	Core core.Options
	// FlushInterval is the minimum spacing between delivery passes; an
	// idle connection's first damage is delivered at once. Zero means
	// 5ms.
	FlushInterval time.Duration
	// FlushBudget bounds the bytes one delivery pass puts on the wire:
	// a pass drains budget-sized batches until what it emitted reaches
	// the budget, and the next pass's allowance is reduced by any
	// overshoot. With FlushInterval it sets the worst-case rate in bytes
	// that leave. Zero means 256 KiB.
	FlushBudget int
	// HeartbeatInterval paces server→client Pings; zero means 1s.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a connection may be silent (no
	// message of any kind read from the client) before it is declared
	// dead and torn down; zero means 3x HeartbeatInterval.
	HeartbeatTimeout time.Duration
	// WriteTimeout bounds each write batch to the client; a peer that
	// stops draining its socket is torn down when the deadline trips.
	// Zero means HeartbeatTimeout.
	WriteTimeout time.Duration
	// DetachGrace is how long a disconnected session's client state is
	// retained for ticket reattach; zero means 30s. Negative disables
	// retention entirely.
	DetachGrace time.Duration
	// MaxBacklogBytes bounds the per-client command backlog. When a
	// client falls further behind than this, its queued commands are
	// discarded and replaced by a full-screen resync (the slow-client
	// policy). Zero means 32 MiB; it must comfortably exceed one
	// uncompressed full-screen RAW. Negative disables the bound.
	MaxBacklogBytes int
	// OnInput, when set, receives user input events after they are
	// injected into the display (button dispatch for applications).
	OnInput func(ev *wire.Input)
	// Overload tunes the per-client degradation controller (see
	// overload.Config); the zero value takes that package's defaults.
	Overload overload.Config
	// DisableOverload turns the degradation ladder off. The slow-client
	// resync cliff (MaxBacklogBytes) still applies.
	DisableOverload bool
	// MaxViewers bounds concurrently attached viewer-role connections
	// (the broadcast fan-out); the owner connection is not counted.
	// Zero means 16; negative disables the bound.
	MaxViewers int

	// CacheKB caps the per-client payload cache (wire v6) in kilobytes.
	// Each handshake grants min(client request, CacheKB); the default 0
	// disables the cache entirely, so no cache message is ever sent
	// unless the deployment opts in.
	CacheKB int

	// ResyncAdmit bounds concurrently in-flight cold-reattach resyncs
	// (wire v7 storm admission): a reattach needing a full resync past
	// the budget is refused with AttachBusy and a jittered retry-after,
	// with its session left retained for the retry. Warm reattaches
	// bypass the gate. Zero means 8; negative disables admission
	// control.
	ResyncAdmit int
	// ResyncRetryAfter is the base retry delay a refused reattach is
	// told to wait (jittered to [0.5x, 1.5x]); zero means 250ms.
	ResyncRetryAfter time.Duration

	// AuditInterval paces the integrity-audit probes (wire v4). Each
	// tick the server asks one settled lossless client to digest a
	// sampled window of its framebuffer tiles and compares the answer
	// against the incrementally maintained server-side digests; zero
	// means 2s.
	AuditInterval time.Duration
	// AuditTimeout is how long a probe may go unanswered before it
	// counts as a miss; zero means 3x AuditInterval.
	AuditTimeout time.Duration
	// AuditSampleTiles is the size of the rotating probe window (and
	// the chunk size of an escalated full sweep); zero means 16.
	AuditSampleTiles int
	// AuditEscalateTiles: more mismatches than this in one sampled
	// window escalates to a full sweep of every tile; zero means 4.
	AuditEscalateTiles int
	// AuditResyncTiles: more total mismatches than this across a full
	// sweep abandons targeted repair for a full-screen resync; zero
	// means 8.
	AuditResyncTiles int
	// DisableAudit turns the integrity audit off entirely.
	DisableAudit bool

	// MarkInterval paces the end-to-end TimeMarks (wire v5): after a
	// flush that delivered commands, at most one mark per interval
	// rides the batch; zero means 25ms.
	MarkInterval time.Duration
	// MarkTimeout is how long a mark may go unacknowledged before it
	// counts as a timeout; zero means 3s.
	MarkTimeout time.Duration
	// DisableE2E turns end-to-end mark tracing off entirely.
	DisableE2E bool
}

func (o Options) withDefaults() Options {
	if o.FlushInterval <= 0 {
		o.FlushInterval = 5 * time.Millisecond
	}
	if o.FlushBudget <= 0 {
		o.FlushBudget = 256 << 10
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = time.Second
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 3 * o.HeartbeatInterval
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = o.HeartbeatTimeout
	}
	if o.DetachGrace == 0 {
		o.DetachGrace = 30 * time.Second
	}
	if o.MaxBacklogBytes == 0 {
		o.MaxBacklogBytes = 32 << 20
	}
	if o.MaxViewers == 0 {
		o.MaxViewers = 16
	}
	if o.ResyncAdmit == 0 {
		o.ResyncAdmit = 8
	}
	if o.ResyncRetryAfter <= 0 {
		o.ResyncRetryAfter = 250 * time.Millisecond
	}
	if o.AuditInterval <= 0 {
		o.AuditInterval = 2 * time.Second
	}
	if o.AuditTimeout <= 0 {
		o.AuditTimeout = 3 * o.AuditInterval
	}
	if o.AuditSampleTiles <= 0 {
		o.AuditSampleTiles = 16
	}
	if o.AuditEscalateTiles <= 0 {
		o.AuditEscalateTiles = 4
	}
	if o.AuditResyncTiles <= 0 {
		o.AuditResyncTiles = 8
	}
	if o.MarkInterval <= 0 {
		o.MarkInterval = 25 * time.Millisecond
	}
	if o.MarkTimeout <= 0 {
		o.MarkTimeout = 3 * time.Second
	}
	return o
}

// maxViewDim bounds handshake viewport geometry. The wire format
// carries u16, but nothing legitimate asks for a 40k-pixel-wide
// viewport; absurd values are rejected during the handshake rather
// than silently clamped into a surprise geometry.
const maxViewDim = 8192

// ResilienceStats counts session-lifecycle events (tests, monitoring).
type ResilienceStats struct {
	Attaches        int // fresh client attaches
	Reattaches      int // ticket reattaches into a retained session
	Reaps           int // connections torn down by heartbeat/write timeout
	SlowResyncs     int // backlogs discarded under the slow-client policy
	ExpiredSessions int // detached sessions that outlived the grace period
	SkippedUnknown  int // unknown-but-well-framed client messages skipped
	BadHandshakes   int // handshakes rejected (geometry, protocol)

	ViewerAttaches     int // attaches with the viewer role (fresh or resumed)
	ViewersRejected    int // viewer attaches refused by MaxViewers
	ViewerInputDropped int // input events from viewers discarded

	OverloadUps        int // degradation ladder escalations
	OverloadDowns      int // degradation ladder recoveries
	OverloadResyncs    int // resyncs forced by the ladder's last rung
	WatchdogRecoveries int // panics converted into clean session teardown

	AuditProbes      int // integrity probes sent (wire v4)
	AuditReplies     int // digest replies received
	AuditMismatches  int // tiles whose digests diverged
	AuditRepairs     int // tiles healed by targeted RAW repair
	AuditRepairBytes int // uncompressed payload bytes of those repairs
	AuditSweeps      int // escalations from sampled window to full sweep
	AuditResyncs     int // escalations from sweep (or misses) to full resync
	AuditTimeouts    int // probes that went unanswered past the timeout

	E2EMarks    int // end-to-end TimeMarks sent (wire v5)
	E2EAcks     int // MarkAcks received and matched
	E2ETimeouts int // marks that expired unacknowledged

	CacheGrants      int // handshakes granted a payload cache (wire v6)
	CacheMissRepairs int // CACHE_MISS desyncs healed by forget-and-repaint

	WarmReattaches     int // reattaches resumed warm (epoch + capacity matched)
	ColdReattaches     int // reattaches that fell back to a cold full resync
	ReattachRejected   int // reattaches refused by the storm admission gate
	ResyncPeakInFlight int // high-watermark of concurrent gated resyncs
}

// session ties a ticket to the core client state it can resume. The
// granted role rides along so a reconnecting viewer resumes as a
// viewer regardless of what its Reattach asks for.
type session struct {
	ticket   string
	user     string
	role     uint8
	cl       *core.Client
	detached bool
	// expiry reaps the retained session after the detach grace.
	expiry *time.Timer

	// cacheEpoch is the payload-cache generation stamped into this
	// session's SessionTicket (wire v7): a reattach resumes the retained
	// cache model warm only by echoing it. 0 = no cache granted.
	cacheEpoch uint64
}

// Host owns one display session and serves it to any number of
// clients. Display access is serialized: window servers are
// single-threaded, so applications draw via Do.
type Host struct {
	opts Options
	gate *auth.Authenticator

	mu    sync.Mutex
	dpy   *xserver.Display
	core  *core.Server
	sound *audio.Driver

	conns    map[*serverConn]struct{}
	sessions *shard.Registry // ticket → *session
	stats    ResilienceStats
	connSeq  int // connection counter: per-client telemetry labels
	wg       sync.WaitGroup
	closed   atomic.Bool

	// cacheEpoch is the monotonic payload-cache generation counter
	// (guarded by mu). It starts at 0 and is pre-incremented before
	// every stamp, so the first issued epoch is 1 and 0 never matches a
	// warm claim — the truncation-hardening property the wire layer
	// relies on.
	cacheEpoch uint64

	// resync is the reattach-storm admission gate (wire v7).
	resync *resyncGate

	// pool is a Fleet's shared worker pool; nil on a plain host, whose
	// connections and recorders each run on a private pool (delivery).
	// retiredWakes (guarded by mu) sums the wakes of closed clients'
	// private pools, so the host's wakes counter stays monotonic.
	pool         *shard.Pool
	retiredWakes int64
	// beats books the heartbeat and audit passes; a Fleet's hosts
	// share one.
	beats *beats

	met *hostMetrics
}

// NewHost creates a session of the given geometry gated by auth.
func NewHost(w, h int, gate *auth.Authenticator, opts Options) *Host {
	return newHostWith(w, h, gate, opts, nil)
}

// newHostWith is NewHost on an optionally shared substrate: a Fleet's
// hosts share its hostMetrics (per-host gauges and per-conn series are
// skipped there — label cardinality), worker pool and beats clock; a
// nil fleet builds a private bundle and clock and runs every
// connection on a pool of its own.
func newHostWith(w, h int, gate *auth.Authenticator, opts Options, f *Fleet) *Host {
	h2 := &Host{
		opts:     opts.withDefaults(),
		gate:     gate,
		sound:    audio.NewDriver(),
		conns:    make(map[*serverConn]struct{}),
		sessions: shard.NewRegistry(8),
	}
	h2.resync = newResyncGate(h2.opts.ResyncAdmit, h2.opts.ResyncRetryAfter,
		time.Now().UnixNano())
	if f != nil {
		h2.met, h2.pool, h2.beats = f.met, f.sched.Pool(), f.beats
	} else {
		h2.met, h2.beats = defaultHostMetrics(), newBeats()
		h2.met.registerHostGauges(h2)
		h2.met.registerPoolMetrics(h2.poolWakes)
	}
	coreOpts := opts.Core
	if coreOpts.Metrics == nil {
		cm := core.NewMetrics(h2.met.reg)
		cm.Trace = h2.met.tr
		coreOpts.Metrics = cm
	}
	h2.core = core.NewServer(coreOpts)
	h2.dpy = xserver.NewDisplay(w, h, h2.core)
	return h2
}

// Do runs f with exclusive access to the display — the entry point for
// applications drawing into the session.
func (h *Host) Do(f func(*xserver.Display)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	f(h.dpy)
}

// Audio returns the session's virtual audio driver.
func (h *Host) Audio() *audio.Driver { return h.sound }

// ScreenChecksum returns a checksum of the current screen (tests and
// health checks).
func (h *Host) ScreenChecksum() uint32 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dpy.Screen().Checksum()
}

// NumClients returns the number of attached (live) display clients.
func (h *Host) NumClients() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.core.NumClients()
}

// NumViewers returns the number of live viewer-role connections.
func (h *Host) NumViewers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.viewersLocked()
}

// viewersLocked counts live viewer connections; callers hold h.mu.
func (h *Host) viewersLocked() int {
	n := 0
	for sc := range h.conns {
		if sc.role == wire.RoleViewer {
			n++
		}
	}
	return n
}

// NumDetached returns the number of disconnected sessions retained for
// reattach.
func (h *Host) NumDetached() int {
	return h.sessions.NumDetached()
}

// Close tears the Host down: every live connection is failed, their
// teardowns are waited for (Serve- and ServeEvent-tracked ones), and
// retained detached sessions are reaped with their expiry timers
// stopped — so a closed Host leaves no goroutines and no armed timers
// behind. Connections served by a direct ServeConn call on a caller
// goroutine are failed too, but joining that goroutine is the
// caller's job. Close is idempotent.
func (h *Host) Close() {
	if !h.closed.CompareAndSwap(false, true) {
		return
	}
	h.mu.Lock()
	conns := make([]*serverConn, 0, len(h.conns))
	for sc := range h.conns {
		conns = append(conns, sc)
	}
	h.mu.Unlock()
	for _, sc := range conns {
		sc.fail(errHostClosed)
	}
	h.wg.Wait()
	h.sessions.Range(func(k string, v any, _ bool) bool {
		s := v.(*session)
		h.mu.Lock()
		if s.expiry != nil {
			s.expiry.Stop()
		}
		h.sessions.Remove(k, s)
		h.mu.Unlock()
		return true
	})
}

var errHostClosed = errors.New("server: host closed")

// ForceRung pins every attached client's degradation rung — the admin
// override, and the chaos harness's way to exercise one rung
// deterministically. Leaving the lossy rungs queues the same
// full-screen repair refresh the controller would, the client is told
// via a DegradeNotice, and any active controller is re-seeded so it
// resumes from the pinned rung instead of fighting it; it still drifts
// as it ticks, so set DisableOverload for a hard pin.
func (h *Host) ForceRung(rung int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for sc := range h.conns {
		h.forceRungLocked(sc, rung)
	}
}

// ForceRungUser pins the degradation rung of every live connection
// authenticated as user, and reports how many connections matched.
// Viewers authenticate with the session password under their own
// usernames, so this is the per-viewer admin override — the broadcast
// counterpart of ForceRung, robust across that viewer's reconnects.
func (h *Host) ForceRungUser(user string, rung int) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for sc := range h.conns {
		if sc.user != user {
			continue
		}
		h.forceRungLocked(sc, rung)
		n++
	}
	return n
}

// forceRungLocked applies one connection's pinned rung; callers hold
// h.mu. Leaving the lossy rungs queues the repair refresh exactly as
// the controller would.
func (h *Host) forceRungLocked(sc *serverConn, rung int) {
	old := sc.cl.Degrade()
	sc.cl.SetDegrade(rung)
	if old >= overload.RungDownscale && rung < overload.RungDownscale {
		h.core.RefreshClient(sc.cl)
	}
	sc.forceRung(sc.cl.Degrade())
}

// Resilience returns a snapshot of the session-lifecycle counters.
func (h *Host) Resilience() ResilienceStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.stats
	_, st.ResyncPeakInFlight, _ = h.resync.snapshot()
	return st
}

// Serve accepts and serves connections until the listener closes.
func (h *Host) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			h.wg.Wait()
			return err
		}
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			_ = h.ServeConn(conn)
		}()
	}
}

// handshakeTimeout bounds the unauthenticated phase.
const handshakeTimeout = 10 * time.Second

// newTicket mints an opaque session ticket.
func newTicket() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

// ServeConn authenticates and serves one client connection, returning
// when the client disconnects, times out, or fails authentication.
// This goroutine becomes the connection's blocking reader; delivery
// runs on the pump (sched.go).
func (h *Host) ServeConn(nc net.Conn) error {
	defer nc.Close()
	hr, err := h.handshake(nc)
	if err != nil {
		return err
	}
	sc := h.attachConn(nc, hr, false)
	err = sc.run()
	h.finishConn(sc, hr.sess, err)
	return err
}

// hsResult is what a completed handshake hands the connection driver.
type hsResult struct {
	enc   *cipher.StreamConn
	sess  *session
	cl    *core.Client
	user  string
	role  uint8
	gated bool
}

// handshake runs the full connection-establishment sequence —
// challenge/response auth, the switch to RC4 transport, the
// ClientInit/Reattach hello with the wire-v7 warm/cold verdict and
// storm admission, and the ServerInit + SessionTicket answer. On
// success the session is registered and attached to the core; errors
// after that point have already rolled the session back.
func (h *Host) handshake(nc net.Conn) (*hsResult, error) {
	_ = nc.SetDeadline(time.Now().Add(handshakeTimeout))

	// Challenge/response (plaintext phase carries no secrets).
	nonce, err := h.gate.NewChallenge()
	if err != nil {
		return nil, err
	}
	if err := wire.WriteMessage(nc, &wire.AuthChallenge{Nonce: nonce}); err != nil {
		return nil, err
	}
	m, err := wire.ReadMessage(nc)
	if err != nil {
		return nil, err
	}
	resp, ok := m.(*wire.AuthResponse)
	if !ok {
		return nil, fmt.Errorf("server: expected auth response, got %v", m.Type())
	}
	if err := h.gate.Verify(resp.User, nonce, resp.Proof); err != nil {
		_ = wire.WriteMessage(nc, &wire.AuthResult{OK: false, Reason: err.Error()})
		return nil, err
	}
	if err := wire.WriteMessage(nc, &wire.AuthResult{OK: true}); err != nil {
		return nil, err
	}

	// Switch to the RC4-encrypted transport (§7).
	secret, ok := h.gate.SecretFor(resp.User)
	if !ok {
		return nil, errors.New("server: no transport secret for user")
	}
	enc, err := cipher.NewStreamConn(nc, auth.SessionKey(secret, nonce), true)
	if err != nil {
		return nil, err
	}

	// Hello: a fresh ClientInit, or a Reattach resuming a retained
	// session. Both carry the viewport, which is validated here — the
	// handshake is the trust boundary, not core.AttachClient.
	m, err = wire.ReadMessage(enc)
	if err != nil {
		return nil, err
	}
	var viewW, viewH int
	var role uint8
	var cacheReqKB int
	var reattach *wire.Reattach
	switch v := m.(type) {
	case *wire.ClientInit:
		viewW, viewH = v.ViewW, v.ViewH
		role = v.Role
		cacheReqKB = int(v.CacheKB)
	case *wire.Reattach:
		viewW, viewH = v.ViewW, v.ViewH
		role = v.Role
		cacheReqKB = int(v.CacheKB)
		reattach = v
	default:
		return nil, fmt.Errorf("server: expected client init or reattach, got %v", m.Type())
	}
	if viewW < 0 || viewH < 0 || viewW > maxViewDim || viewH > maxViewDim {
		h.mu.Lock()
		h.stats.BadHandshakes++
		h.mu.Unlock()
		h.met.badHandshakes.Inc()
		slogger.Warn("rejecting absurd viewport",
			"user", resp.User, "view_w", viewW, "view_h", viewH)
		return nil, fmt.Errorf("server: rejecting absurd viewport %dx%d", viewW, viewH)
	}
	if role > wire.RoleViewer {
		h.mu.Lock()
		h.stats.BadHandshakes++
		h.mu.Unlock()
		h.met.badHandshakes.Inc()
		return nil, fmt.Errorf("server: unknown session role %d from %q", role, resp.User)
	}
	_ = nc.SetDeadline(time.Time{})

	// Attach: resume the retained session when the ticket checks out,
	// fall back to a fresh attach otherwise. The payload-cache grant —
	// min(client request, host cap), wire v6 — is computed up front
	// because the wire-v7 warm/cold verdict needs it, and the model must
	// be sized before the resync is queued (the warm resync rides the
	// cache). A reattach needing the cold full resync passes the storm
	// admission gate first; refusal leaves the session retained and
	// answers with AttachBusy.
	h.mu.Lock()
	w, ht := h.core.ScreenSize()
	cacheGrantKB := cacheReqKB
	if max := h.opts.CacheKB; max < 0 {
		cacheGrantKB = 0
	} else if cacheGrantKB > max {
		cacheGrantKB = max
	}
	var cl *core.Client
	var cacheWarm bool
	var cacheEpoch uint64
	gated := false // holding a resync-gate slot until the resync drains
	refuseBusy := func() error {
		h.stats.ReattachRejected++
		h.mu.Unlock()
		h.met.reattachRejected.Inc()
		retry := h.resync.nextRetry()
		slogger.Warn("reattach refused by storm admission gate",
			"user", resp.User, "retry_after", retry)
		_ = wire.WriteMessage(enc, &wire.AttachBusy{
			RetryAfterMS: uint32(retry / time.Millisecond)})
		return fmt.Errorf("server: reattach admission refused for %q", resp.User)
	}
	if reattach != nil {
		var s *session
		if v, detached, ok := h.sessions.Get(string(reattach.Ticket)); ok && detached {
			if cand := v.(*session); cand.user == resp.User {
				s = cand
			}
		}
		if s != nil {
			// Warm verdict: the client claims an intact store from this
			// session's epoch and the regranted capacity matches the
			// retained model. Anything else — no claim (epoch 0), a stale
			// epoch, or a capacity change — goes cold.
			warm := reattach.CacheEpoch != 0 &&
				reattach.CacheEpoch == s.cacheEpoch &&
				cacheGrantKB > 0 &&
				s.cl.CacheSize() == cacheGrantKB*1024
			if !warm && !h.resync.tryAcquire() {
				return nil, refuseBusy()
			}
			gated = !warm
			if s.expiry != nil {
				s.expiry.Stop()
			}
			h.sessions.Remove(s.ticket, s)
			cl = s.cl
			role = s.role // the granted role survives reconnects
			cacheWarm = warm
			if warm {
				cacheEpoch = s.cacheEpoch
				cl.SetCacheSize(cacheGrantKB * 1024) // same capacity keeps the model
				h.core.ReattachClientWarm(cl, viewW, viewH)
				h.stats.WarmReattaches++
				h.met.warmReattaches.Inc()
			} else {
				// Cold fallback: whatever the two sides hold no longer
				// corresponds; restart the model under a fresh epoch.
				cl.ResetCacheSize(cacheGrantKB * 1024)
				if cacheGrantKB > 0 {
					h.cacheEpoch++
					cacheEpoch = h.cacheEpoch
				}
				h.core.ReattachClient(cl, viewW, viewH)
				h.stats.ColdReattaches++
				h.met.coldReattaches.Inc()
			}
			cl.SetCacheEpoch(cacheEpoch)
			h.stats.Reattaches++
			h.met.reattaches.Inc()
			if tr := h.met.tr; tr.Enabled() {
				tr.Event("session.reattach", fmt.Sprintf("user=%s role=%s view=%dx%d warm=%v",
					resp.User, wire.RoleName(role), viewW, viewH, warm))
			}
		} else {
			slogger.Warn("reattach with unknown or expired ticket; attaching fresh",
				"user", resp.User)
		}
	}
	if cl == nil {
		if role == wire.RoleViewer {
			if max := h.opts.MaxViewers; max >= 0 && h.viewersLocked() >= max {
				h.stats.ViewersRejected++
				h.mu.Unlock()
				h.met.viewersRejected.Inc()
				return nil, fmt.Errorf("server: viewer limit (%d) reached, rejecting %q",
					h.opts.MaxViewers, resp.User)
			}
		}
		// A fresh attach arriving as a failed Reattach is still part of a
		// reconnect storm (an expired ticket does not make the full
		// resync cheaper), so it passes the same gate. Plain ClientInit
		// attaches are never gated.
		if reattach != nil {
			if !h.resync.tryAcquire() {
				return nil, refuseBusy()
			}
			gated = true
		}
		cl = h.core.AttachClient(viewW, viewH)
		h.stats.Attaches++
		h.met.attaches.Inc()
		cl.SetCacheSize(cacheGrantKB * 1024)
		if cacheGrantKB > 0 {
			h.cacheEpoch++
			cacheEpoch = h.cacheEpoch
			cl.SetCacheEpoch(cacheEpoch)
		}
		if tr := h.met.tr; tr.Enabled() {
			tr.Event("session.attach", fmt.Sprintf("user=%s role=%s view=%dx%d",
				resp.User, wire.RoleName(role), viewW, viewH))
		}
	}
	if role == wire.RoleViewer {
		h.stats.ViewerAttaches++
		h.met.viewerAttaches.Inc()
	}
	if cacheGrantKB > 0 {
		h.stats.CacheGrants++
		h.met.cacheGrants.Inc()
	}
	ticket, terr := newTicket()
	if terr != nil {
		h.core.DetachClient(cl)
		h.mu.Unlock()
		if gated {
			h.resync.release()
		}
		return nil, terr
	}
	sess := &session{ticket: ticket, user: resp.User, role: role, cl: cl,
		cacheEpoch: cacheEpoch}
	h.sessions.Attach(ticket, sess)
	h.mu.Unlock()

	warmByte := uint8(0)
	if cacheWarm {
		warmByte = 1
	}
	if err := wire.WriteMessage(enc, &wire.ServerInit{Ver: wire.ProtoVersion, W: w, H: ht,
		CacheKB: uint32(cacheGrantKB), CacheWarm: warmByte}); err != nil {
		h.endSession(sess, false)
		if gated {
			h.resync.release()
		}
		return nil, err
	}
	if err := wire.WriteMessage(enc, &wire.SessionTicket{Ticket: []byte(ticket), Role: role,
		CacheEpoch: cacheEpoch}); err != nil {
		h.endSession(sess, false)
		if gated {
			h.resync.release()
		}
		return nil, err
	}
	return &hsResult{enc: enc, sess: sess, cl: cl, user: resp.User, role: role,
		gated: gated}, nil
}

// attachConn builds the live connection state a completed handshake
// drives: the serverConn, its overload controller, rung carry-over,
// audio tap, registration in the conns set, the shard task and its
// timers, and the damage-wake hook with the request for the first
// delivery pass.
func (h *Host) attachConn(nc net.Conn, hr *hsResult, event bool) *serverConn {
	sc := &serverConn{host: h, nc: nc, enc: hr.enc, cl: hr.cl, user: hr.user, role: hr.role,
		pongs:   make(chan *wire.Pong, 8),
		replies: make(chan *wire.AuditReply, 4),
		acks:    make(chan *wire.MarkAck, 8), noticeRung: -1}
	if hr.gated {
		sc.gateHeld.Store(true)
	}
	sc.initSched(hr.sess, event) // before anything can request a pass
	// A reattach already queued a full-screen resync, which heals any
	// divergence an interrupted escalation sweep was chasing; the probe
	// sequence and miss count ride the session, the sweep does not.
	hr.cl.Audit().ResetSweep()
	if !h.opts.DisableOverload {
		sc.ctrl = overload.NewController(&sc.est, h.opts.Overload)
	}
	// A reattached session carries its degradation rung: the core client
	// still applies it to payloads, so the controller must resume there
	// (not silently diverge at lossless) and the client must be told.
	if r := hr.cl.Degrade(); r > 0 {
		sc.forceRung(r)
	}
	sc.detachAudio = h.sound.Attach(func(pts uint64, pcm []byte) {
		h.mu.Lock()
		defer h.mu.Unlock()
		h.core.PushAudio(pts, pcm)
	})

	h.mu.Lock()
	h.conns[sc] = struct{}{}
	h.connSeq++
	label := fmt.Sprintf("%s#%d", hr.user, h.connSeq)
	// The damage wake: any command queued for this client requests a
	// delivery pass. Set under h.mu like every Buf access.
	sc.cl.Buf.SetOnQueued(sc.sched.push.request)
	h.mu.Unlock()
	h.met.registerConn(h, label, sc)
	sc.startSched()
	// The attach/reattach resync was queued before the hook existed.
	sc.sched.push.request()
	return sc
}

// finishConn is the teardown tail every driver funnels through:
// release a still-held admission slot, drop the conn from the live
// set, count a reap when the connection died of silence, detach the
// audio tap, and end (detach or retain) the session.
func (h *Host) finishConn(sc *serverConn, sess *session, err error) {
	if sc.gateHeld.CompareAndSwap(true, false) {
		h.resync.release()
	}
	h.mu.Lock()
	delete(h.conns, sc)
	h.retiredWakes += sc.sched.wakes() // final: the task is closed
	sc.cl.Buf.SetOnQueued(nil)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		h.stats.Reaps++
		h.met.reaps.Inc()
		if tr := h.met.tr; tr.Enabled() {
			tr.Event("session.reap", "user="+sc.user)
		}
	}
	h.mu.Unlock()
	// Retain the session for reattach unless retention is disabled.
	h.endSession(sess, h.opts.DetachGrace > 0 && !h.closed.Load())
	sc.detachAudio()
}

// endSession detaches the session's display client and either retains
// it for the grace period (retain) or forgets it immediately.
func (h *Host) endSession(s *session, retain bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if cur, _, ok := h.sessions.Get(s.ticket); !ok || cur != any(s) {
		return // already reattached or expired; the client is not ours
	}
	h.core.DetachClient(s.cl)
	if !retain {
		h.sessions.Remove(s.ticket, s)
		return
	}
	s.detached = true
	h.sessions.Detach(s.ticket, s)
	s.expiry = time.AfterFunc(h.opts.DetachGrace, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if h.sessions.Remove(s.ticket, s) {
			h.stats.ExpiredSessions++
			h.met.expiredSessions.Inc()
		}
	})
}

// serverConn is one live client connection.
type serverConn struct {
	host    *Host
	nc      net.Conn
	enc     *cipher.StreamConn
	cl      *core.Client
	user    string
	role    uint8 // wire.RoleOwner or wire.RoleViewer
	pongs   chan *wire.Pong
	replies chan *wire.AuditReply
	acks    chan *wire.MarkAck

	// aud is the in-flight integrity-probe state; owned entirely by the
	// pump (the sole prober), so it needs no lock.
	aud auditConn

	// e2e is the in-flight end-to-end mark window; owned by the pump
	// (the sole marker), so it needs no lock either.
	e2e e2eConn

	// Overload protection. The estimator is fed from two goroutines —
	// flush progress by the pump, heartbeat RTT by the read loop — so
	// estMu guards it and the controller.
	estMu sync.Mutex
	est   overload.Estimator
	ctrl  *overload.Controller // nil when the ladder is disabled

	rung      int32 // active ladder rung (atomic; telemetry reads it)
	watchdogs int64 // panics this connection survived (atomic)

	// gateHeld marks that this connection holds a resync-gate slot; the
	// pump clears it (releasing the slot) the first time the
	// resync backlog drains, and teardown releases whatever remains.
	gateHeld atomic.Bool

	// noticeRung is a pending out-of-band DegradeNotice rung (-1 none):
	// ForceRung and reattach rung carry-over park the value here and the
	// pump, which owns the encoder, emits the notice.
	noticeRung int32

	// backlog is the client buffer's queued bytes after the latest
	// drain; pump-owned.
	backlog int
	// wrote counts the bytes the pump has committed, so a delivery pass
	// can tell whether it delivered anything.
	wrote int64

	// pingSeq numbers outgoing heartbeats; owned by the pump, which is
	// the sole sender.
	pingSeq uint32

	// detachAudio unhooks the session's audio tap at teardown.
	detachAudio func()

	// sched is the pump's state (sched.go), its delivery's pusher the
	// pacing (pace.go): the damage hook and out-of-band nudges request
	// a pass, the pump runs it.
	sched schedConn

	unknownLogged map[wire.Type]bool
}

// forceRung adopts an externally-set rung: telemetry, the controller
// (so its hysteresis resumes from here), and a pending DegradeNotice
// for the pump to emit.
func (c *serverConn) forceRung(rung int) {
	atomic.StoreInt32(&c.rung, int32(rung))
	atomic.StoreInt32(&c.noticeRung, int32(rung))
	c.estMu.Lock()
	if c.ctrl != nil {
		c.ctrl.ForceRung(rung)
	}
	c.estMu.Unlock()
	// No damage comes with a rung change, so ask for the pass that
	// emits the parked notice.
	c.sched.push.request()
}

// wakeFlush is the pusher's wake: it asks the pump for a delivery pass,
// at once or (from the pacing timer) when a held pass falls due. The
// damage hook calls it under h.mu; a task wake never blocks.
func (c *serverConn) wakeFlush() {
	c.sched.flushDue.Store(true)
	c.sched.task.Wake()
}

// flushPass binds flushTick and its drain step to the pump's batch as
// the pusher's pass, and flushPending is the pusher's check for work a
// request was made for (queued commands, a parked notice); the pump
// builds the pair once per connection, so a pass allocates nothing.
func (c *serverConn) flushPass(batch *wire.Batch, queue func(wire.Message) error, flush func() error) func(bool) (bool, bool, error) {
	step := c.drainStep(batch, queue, flush)
	return func(paced bool) (wrote, more bool, err error) {
		if paced {
			c.host.met.flushPassesPaced.Inc()
		} else {
			c.host.met.flushPassesDamage.Inc()
		}
		before := c.wrote
		backlog, err := c.flushTick(step, queue, flush)
		// Backlog needs further passes; an active rung needs the cadence
		// for the controller to walk back down; a held admission slot is
		// released by the first pass that finds the backlog drained.
		more = backlog > 0 || atomic.LoadInt32(&c.rung) > 0 || c.gateHeld.Load()
		return c.wrote != before, more, err
	}
}

func (c *serverConn) flushPending() bool {
	if atomic.LoadInt32(&c.noticeRung) >= 0 {
		return true
	}
	c.host.mu.Lock()
	defer c.host.mu.Unlock()
	return c.cl.Buf.Len() > 0
}

// guard is the connection's watchdog: it converts a panic in loop
// into a normal connection error. Critical sections that take the Host
// lock use defer-unlock closures, so the lock is released while the
// panic unwinds and the rest of the host keeps running.
func (c *serverConn) guard(name string, loop func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			atomic.AddInt64(&c.watchdogs, 1)
			c.host.met.watchdogRecoveries.Inc()
			c.host.mu.Lock()
			c.host.stats.WatchdogRecoveries++
			c.host.mu.Unlock()
			slogger.Error("loop panic, tearing session down",
				"loop", name, "user", c.user, "panic", fmt.Sprint(r))
			err = fmt.Errorf("server: %s loop panic: %v", name, r)
		}
	}()
	return loop()
}

// readLoop handles client-to-server messages. Every read carries the
// heartbeat deadline: any message (the client answers our Pings, so an
// idle healthy client is never silent) proves liveness; a peer silent
// past the timeout is dead and the deadline error tears the conn down.
func (c *serverConn) readLoop() error {
	for {
		_ = c.nc.SetReadDeadline(time.Now().Add(c.host.opts.HeartbeatTimeout))
		m, err := wire.ReadMessage(c.enc)
		if err != nil {
			// Unknown-but-well-framed types are skipped, not fatal: a
			// newer client may speak messages this build predates.
			if errors.Is(err, wire.ErrUnknownType) {
				c.logUnknown(err)
				continue
			}
			return err
		}
		select {
		case <-c.sched.done:
			return nil
		default:
		}
		if err := c.dispatch(m); err != nil {
			return err
		}
	}
}

// dispatch handles one client-to-server message. It is the shared
// inbound path of every driver: the read loop calls it after each
// decode, and an EventSession delivers decoded messages straight into
// it with no reader goroutine at all.
func (c *serverConn) dispatch(m wire.Message) error {
	switch v := m.(type) {
	case *wire.Input:
		if c.role == wire.RoleViewer {
			// Viewers watch; their input never reaches the display.
			c.host.mu.Lock()
			c.host.stats.ViewerInputDropped++
			c.host.mu.Unlock()
			c.host.met.viewerInputDropped.Inc()
			return nil
		}
		func() {
			c.host.mu.Lock()
			defer c.host.mu.Unlock()
			c.host.dpy.InjectInput(geom.Point{X: v.X, Y: v.Y})
		}()
		if h := c.host.opts.OnInput; h != nil {
			h(v)
		}
	case *wire.Resize:
		func() {
			c.host.mu.Lock()
			defer c.host.mu.Unlock()
			c.cl.Resize(v.ViewW, v.ViewH)
		}()
	case *wire.Ping:
		// Client-initiated probe: queue the echo for the pump.
		select {
		case c.pongs <- &wire.Pong{Seq: v.Seq, TimeUS: v.TimeUS}:
			c.sched.task.Wake()
		default: // pump backlogged; the next probe will do
		}
	case *wire.Pong:
		// The read itself already refreshed the liveness deadline.
		// Our Pings carry the send time; the echo yields the RTT.
		if v.TimeUS != 0 {
			if rtt := time.Now().UnixMicro() - int64(v.TimeUS); rtt >= 0 {
				c.host.met.hbRTT.Observe(rtt)
				c.estMu.Lock()
				c.est.ObserveRTT(rtt)
				c.estMu.Unlock()
			}
		}
	case *wire.UpdateRequest:
		// Push architecture: requests are legal but unnecessary.
	case *wire.AuditReply:
		// Queue the digest reply for the pump, which owns the audit
		// state machine.
		select {
		case c.replies <- v:
			c.sched.task.Wake()
		default: // pump backlogged; the next probe re-checks
		}
	case *wire.MarkAck:
		// Queue the e2e ack for the pump, which owns the mark window; a
		// dropped ack just expires as a timeout.
		select {
		case c.acks <- v:
			c.sched.task.Wake()
		default:
		}
	case *wire.CacheMiss:
		// The client could not honor a cache reference (corruption, a
		// holding we believed it had). Drop the digest from its model
		// and queue a plain RAW repaint of the region — the cache heals
		// itself without ever risking a stale framebuffer.
		func() {
			c.host.mu.Lock()
			defer c.host.mu.Unlock()
			c.host.core.CacheMissRepair(c.cl, v.Digest, v.Rect)
			c.host.stats.CacheMissRepairs++
		}()
		c.host.met.cacheMissRepairs.Inc()
		if tr := c.host.met.tr; tr.Enabled() {
			tr.Event("cache.miss_repair", fmt.Sprintf("user=%s digest=%016x rect=%v",
				c.user, v.Digest, v.Rect))
		}
	default:
		return fmt.Errorf("server: unexpected client message %v", m.Type())
	}
	return nil
}

// logUnknown logs an unknown client message type once per type.
func (c *serverConn) logUnknown(err error) {
	c.host.mu.Lock()
	c.host.stats.SkippedUnknown++
	c.host.mu.Unlock()
	c.host.met.skippedUnknown.Inc()
	if c.unknownLogged == nil {
		c.unknownLogged = make(map[wire.Type]bool)
	}
	var ut *wire.UnknownTypeError
	key := wire.Type(0)
	if errors.As(err, &ut) {
		key = ut.T
	}
	if !c.unknownLogged[key] {
		c.unknownLogged[key] = true
		slogger.Warn("skipping unknown client message",
			"user", c.user, "err", err.Error())
	}
}

// makeQueueFlush builds the pump's batch-bound queue/flush pair. queue
// frames m into the batch and feeds the per-type wire counters from the
// O(1) analytic size; flush commits the whole batch in one write under
// the write deadline.
func (c *serverConn) makeQueueFlush(batch *wire.Batch) (queue func(wire.Message) error, flush func() error) {
	met := c.host.met
	queue = func(m wire.Message) error {
		if err := batch.Append(m); err != nil {
			return err
		}
		t := m.Type()
		met.msgsByType[t].Inc()
		met.bytesByType[t].Add(int64(wire.WireSize(m)))
		return nil
	}
	flush = func() error {
		if batch.Empty() {
			return nil
		}
		_ = c.nc.SetWriteDeadline(time.Now().Add(c.host.opts.WriteTimeout))
		n, err := batch.WriteTo(c.enc)
		c.wrote += n
		batch.Reset()
		return err
	}
	return queue, flush
}

// heartbeatTick emits one Ping and ages out unanswered e2e marks.
func (c *serverConn) heartbeatTick(queue func(wire.Message) error, flush func() error) error {
	c.pingSeq++
	if err := queue(&wire.Ping{Seq: c.pingSeq,
		TimeUS: uint64(time.Now().UnixMicro())}); err != nil {
		return err
	}
	c.host.met.heartbeatsSent.Inc()
	if err := flush(); err != nil {
		return err
	}
	// Age out unanswered marks even when the display is idle, so the
	// timeout count does not wait for new damage.
	if !c.host.opts.DisableE2E {
		c.e2eExpire()
	}
	return nil
}

// drainStep is one step of a delivery pass (pace.go): drain a batch
// from the client buffer, frame the messages into the pooled batch
// (large pixel slabs ride along by reference) and commit it in one
// vectored write — the non-blocking socket commit of §5 over a real TCP
// connection, with no per-message allocation. It reports the bytes
// that left and leaves the post-drain backlog in c.backlog. With e2e
// tracing on, the step that ends the pass appends one mark naming
// everything the pass delivered (see e2eMark).
func (c *serverConn) drainStep(batch *wire.Batch, queue func(wire.Message) error, flush func() error) func(drainCall, int) (int, bool, error) {
	met := c.host.met
	e2e := !c.host.opts.DisableE2E
	var trace core.FlushTrace // what the pass has delivered so far
	var passNS int64          // when the pass's first batch was drained
	return func(call drainCall, left int) (int, bool, error) {
		var msgs []wire.Message
		var ft core.FlushTrace
		queued := false
		func() {
			c.host.mu.Lock()
			defer c.host.mu.Unlock()
			msgs = call.take(c.cl.Buf, c.host.opts.FlushBudget)
			if e2e && len(msgs) > 0 {
				ft = c.cl.Buf.LastFlush()
			}
			c.backlog = c.cl.Buf.QueuedBytes()
			queued = c.cl.Buf.Len() > 0
		}()
		if e2e && call == drainOpen {
			trace, passNS = core.FlushTrace{}, time.Now().UnixNano()
		}
		for _, m := range msgs {
			if err := queue(m); err != nil {
				return 0, queued, err
			}
		}
		// The mark rides the pass's last batch, so the client acks it
		// only after applying everything the pass delivered.
		var mark *wire.TimeMark
		if e2e {
			trace.Add(ft)
			if ends(left, int(batch.Len()), queued) {
				mark = c.e2eMark(trace, passNS)
				trace = core.FlushTrace{}
			}
		}
		if mark != nil {
			if err := queue(mark); err != nil {
				return 0, queued, err
			}
		}
		batchBytes := batch.Len()
		start := time.Now()
		if err := flush(); err != nil {
			return 0, queued, err
		}
		if mark != nil {
			c.e2eArm()
		}
		// The vectored write is done; RAW payload buffers can go
		// back to the codec scratch pool.
		core.RecycleMessages(msgs)
		if batchBytes > 0 {
			met.flushBatch.Observe(batchBytes)
			c.estMu.Lock()
			c.est.ObserveFlush(int(batchBytes), time.Since(start))
			c.estMu.Unlock()
		}
		return int(batchBytes), queued, nil
	}
}

// flushTick runs one delivery pass: drain steps while the pass's
// allowance of emitted bytes lasts (pace.go), then, once per pass, run
// the overload controller and apply the slow-client policy. It returns
// the post-flush backlog so the caller can decide whether another pass
// is needed.
func (c *serverConn) flushTick(step func(drainCall, int) (int, bool, error), queue func(wire.Message) error, flush func() error) (int, error) {
	met := c.host.met
	_, stepped, err := c.sched.push.pass(step)
	if err != nil {
		return c.backlog, err
	}
	if !stepped {
		// The pass is paying off the previous one's overshoot.
		c.host.mu.Lock()
		c.backlog = c.cl.Buf.QueuedBytes()
		c.host.mu.Unlock()
	}
	backlog := c.backlog
	if err := c.overloadTick(backlog, queue, flush); err != nil {
		return backlog, err
	}
	// The admitted resync has fully drained: hand the gate slot to
	// the next waiting reattacher in the storm.
	if backlog == 0 && c.gateHeld.CompareAndSwap(true, false) {
		c.host.resync.release()
	}
	// An out-of-band rung change (ForceRung, reattach carry-over)
	// parked a notice for us — the pump owns the encoder.
	if want := atomic.SwapInt32(&c.noticeRung, -1); want >= 0 {
		if err := queue(&wire.DegradeNotice{Rung: uint8(want),
			Cause: wire.CauseAdmin, BacklogBytes: clampU32(backlog)}); err != nil {
			return backlog, err
		}
		if err := flush(); err != nil {
			return backlog, err
		}
	}
	// Slow-client policy: a backlog past the bound means the peer
	// cannot keep up with the session; delivering it all would only
	// grow the queue and the client's staleness. Drop it and queue
	// a fresh full-screen resync instead (§5's bounded buffers).
	if max := c.host.opts.MaxBacklogBytes; max > 0 && backlog > max {
		func() {
			c.host.mu.Lock()
			defer c.host.mu.Unlock()
			c.host.core.ResyncClient(c.cl)
			c.host.stats.SlowResyncs++
		}()
		met.slowResyncs.Inc()
		if tr := met.tr; tr.Enabled() {
			tr.Event("session.slow_resync",
				fmt.Sprintf("user=%s backlog=%d", c.user, backlog))
		}
	}
	return backlog, nil
}

// clampU32 saturates a non-negative int into a uint32 wire field.
func clampU32(n int) uint32 {
	if n < 0 {
		return 0
	}
	if n > int(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(n)
}

// overloadTick runs one controller evaluation and applies any rung
// change: the core client's payload degradation level, the last rung's
// forced resync, the repair refresh when leaving the lossy rungs, and
// the DegradeNotice telling the client what quality it is getting and
// why.
func (c *serverConn) overloadTick(backlog int, queue func(wire.Message) error, flush func() error) error {
	if c.ctrl == nil {
		return nil
	}
	c.estMu.Lock()
	rung, dir := c.ctrl.Tick(backlog)
	estBps := c.est.Bps()
	c.estMu.Unlock()
	if dir == overload.Steady {
		return nil
	}
	atomic.StoreInt32(&c.rung, int32(rung))
	met := c.host.met
	cause := uint8(wire.CauseBacklog)
	resync := dir == overload.Up && rung == overload.RungResync
	// Descending out of the lossy rungs: the client's screen holds
	// downscaled content; repaint it at full fidelity.
	repair := dir == overload.Down && rung == overload.RungDownscale-1
	if dir == overload.Down {
		cause = uint8(wire.CauseRecovered)
	}
	func() {
		c.host.mu.Lock()
		defer c.host.mu.Unlock()
		c.cl.SetDegrade(rung)
		if dir == overload.Up {
			c.host.stats.OverloadUps++
		} else {
			c.host.stats.OverloadDowns++
		}
		if resync {
			c.host.core.ResyncClient(c.cl)
			c.host.stats.OverloadResyncs++
		}
		if repair {
			c.host.core.RefreshClient(c.cl)
		}
	}()
	if dir == overload.Up {
		met.overloadUps.Inc()
	} else {
		met.overloadDowns.Inc()
	}
	if resync {
		met.overloadResyncs.Inc()
	}
	if tr := met.tr; tr.Enabled() {
		tr.Event("overload.rung", fmt.Sprintf("user=%s rung=%s backlog=%d bps=%.0f",
			c.user, overload.RungName(rung), backlog, estBps))
	}
	if err := queue(&wire.DegradeNotice{Rung: uint8(rung), Cause: cause,
		BacklogBytes: clampU32(backlog), EstBps: clampU32(int(estBps))}); err != nil {
		return err
	}
	return flush()
}
