package client

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"thinc/internal/auth"
	"thinc/internal/cipher"
	"thinc/internal/fb"
	"thinc/internal/geom"
	"thinc/internal/wire"
)

// ConnState is the observable lifecycle of a Conn.
type ConnState int32

// Connection states.
const (
	// StateConnected: the transport is up and the update stream flows.
	StateConnected ConnState = iota
	// StateReconnecting: the transport dropped and the auto-reconnect
	// loop is dialing with backoff.
	StateReconnecting
	// StateGone: the connection is closed for good — either Close was
	// called or reconnection gave up.
	StateGone
)

func (s ConnState) String() string {
	switch s {
	case StateConnected:
		return "connected"
	case StateReconnecting:
		return "reconnecting"
	case StateGone:
		return "gone"
	}
	return fmt.Sprintf("ConnState(%d)", int32(s))
}

// Conn is a THINC client connected over a real network transport: it
// authenticates, decrypts the update stream, executes commands into
// the local framebuffer, and forwards user input (§3, §7). It answers
// server heartbeats, stores the server's session ticket, and — when
// built by Dial/DialWith — can redial and resume the session after a
// transport failure.
type Conn struct {
	dial         func() (net.Conn, error) // nil when built over a raw transport
	user, secret string
	role         uint8 // granted session role (wire.RoleOwner / RoleViewer)

	// ReadTimeout, when positive, bounds how long Run waits for any
	// server traffic (the server heartbeats well inside it). Zero means
	// wait forever — the pre-resilience behavior.
	ReadTimeout time.Duration

	// WriteTimeout, when positive, bounds each protocol write (input,
	// pong echoes). A server that stops draining its socket would
	// otherwise park Run's heartbeat reply in a blocked write forever —
	// the reply path must fail as loudly as the read path. Zero falls
	// back to ReadTimeout; both zero means block forever.
	WriteTimeout time.Duration

	mu     sync.Mutex
	nc     net.Conn
	enc    *cipher.StreamConn
	rd     io.Reader // read side: enc, possibly wrapped (fault injection)
	c      *Client
	ticket []byte
	closed bool

	// wrapRead, when set, wraps the decrypted read stream — the seam
	// the chaos harness uses to inject silent payload corruption below
	// the decoder but above the cipher. Reapplied across Redial.
	wrapRead func(io.Reader) io.Reader

	// Lifecycle counters are atomic so telemetry pollers and tests can
	// read them while Run holds no lock (clean under -race).
	state      atomic.Int32 // ConnState
	reconnects atomic.Int64
	pongsSent  atomic.Int64

	degradeRung    atomic.Int32 // server's ladder rung (last DegradeNotice)
	degradeNotices atomic.Int64

	// Integrity-audit accounting (wire v4).
	auditProbes  atomic.Int64
	auditReplies atomic.Int64

	// End-to-end mark accounting (wire v5). applyAccumNS gathers the
	// decode+apply time spent since the last mark, echoed in the next
	// MarkAck so the server can separate its wire stage from our paint
	// stage.
	marksSeen    atomic.Int64
	markAcksSent atomic.Int64
	applyAccumNS atomic.Int64

	// Payload cache negotiation (wire v6): the capacity we request on
	// every hello, the server's last grant, and how many CACHE_MISS
	// desync reports we have sent.
	cacheReqKB    int
	cacheGrantKB  atomic.Int32
	cacheMissSent atomic.Int64

	// Warm reattach (wire v7): the cache epoch from the last
	// SessionTicket (guarded by mu; echoed in the next Reattach only
	// while the store is intact) and the reattach-lifecycle counters.
	cacheEpoch       uint64
	reattachAttempts atomic.Int64
	warmResumes      atomic.Int64
	coldFallbacks    atomic.Int64
	busyRejections   atomic.Int64

	tel *connTelemetry

	wmu  sync.Mutex // serializes protocol writes (input, pongs)
	wbuf []byte     // reused encode buffer, guarded by wmu

	// ServerW and ServerH are the session's true framebuffer geometry;
	// with a smaller viewport the server scales for us (§6).
	ServerW, ServerH int
}

// Dial connects, authenticates as user with the given secret, and
// completes the display handshake with a viewW x viewH viewport.
func Dial(addr, user, secret string, viewW, viewH int) (*Conn, error) {
	return DialRole(addr, user, secret, viewW, viewH, wire.RoleOwner)
}

// DialRole is Dial with an explicit session role: RoleOwner attaches
// the interactive session, RoleViewer attaches a read-only broadcast
// viewer (input is discarded server-side, §6).
func DialRole(addr, user, secret string, viewW, viewH int, role uint8) (*Conn, error) {
	return DialWithRole(func() (net.Conn, error) {
		return net.Dial("tcp", addr)
	}, user, secret, viewW, viewH, role)
}

// DialWith is Dial over a caller-supplied transport dialer — tests use
// it to interpose fault injection; Redial reuses it to reconnect.
func DialWith(dial func() (net.Conn, error), user, secret string, viewW, viewH int) (*Conn, error) {
	return DialWithRole(dial, user, secret, viewW, viewH, wire.RoleOwner)
}

// DialWithRole is DialWith with an explicit session role.
func DialWithRole(dial func() (net.Conn, error), user, secret string, viewW, viewH int, role uint8) (*Conn, error) {
	nc, err := dial()
	if err != nil {
		return nil, err
	}
	c, err := HandshakeRole(nc, user, secret, viewW, viewH, role)
	if err != nil {
		nc.Close()
		return nil, err
	}
	c.dial = dial
	return c, nil
}

// Handshake runs the client side of the protocol handshake over an
// established transport (used directly by tests over net.Pipe).
func Handshake(nc net.Conn, user, secret string, viewW, viewH int) (*Conn, error) {
	return HandshakeRole(nc, user, secret, viewW, viewH, wire.RoleOwner)
}

// HandshakeRole is Handshake with an explicit session role. It requests
// the default payload cache capacity; use HandshakeRoleCache to choose
// (0 requests no cache).
func HandshakeRole(nc net.Conn, user, secret string, viewW, viewH int, role uint8) (*Conn, error) {
	return HandshakeRoleCache(nc, user, secret, viewW, viewH, role, DefaultCacheRequestKB)
}

// HandshakeRoleCache is HandshakeRole with an explicit payload cache
// request in KB. The server grants min(request, its own cap) and the
// grant arrives in ServerInit; the store is sized to the grant, not the
// request.
func HandshakeRoleCache(nc net.Conn, user, secret string, viewW, viewH int, role uint8, cacheKB int) (*Conn, error) {
	if cacheKB < 0 {
		cacheKB = 0
	}
	enc, si, err := handshake(nc, user, secret,
		&wire.ClientInit{ViewW: viewW, ViewH: viewH, Name: user, Role: role,
			CacheKB: uint32(cacheKB)})
	if err != nil {
		return nil, err
	}
	if viewW <= 0 || viewH <= 0 || viewW > si.W || viewH > si.H {
		viewW, viewH = si.W, si.H
	}
	cn := &Conn{
		nc: nc, enc: enc, rd: enc,
		user: user, secret: secret, role: role,
		c:       New(viewW, viewH),
		ServerW: si.W, ServerH: si.H,
		cacheReqKB: cacheKB,
	}
	cn.c.EnableCache(int(si.CacheKB) * 1024)
	cn.cacheGrantKB.Store(int32(si.CacheKB))
	cn.initTelemetry()
	return cn, nil
}

// SetReadWrapper installs (or clears, with nil) a wrapper around the
// decrypted protocol read stream, applying it to the current transport
// immediately and to every transport Redial swaps in later. The chaos
// harness uses it to inject silent payload corruption that survives
// decode; it must be called before Run.
func (cn *Conn) SetReadWrapper(wrap func(io.Reader) io.Reader) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	cn.wrapRead = wrap
	cn.rd = cn.wrappedReader()
}

// wrappedReader builds the read side for the current transport. Caller
// holds cn.mu.
func (cn *Conn) wrappedReader() io.Reader {
	if cn.wrapRead == nil {
		return cn.enc
	}
	return cn.wrapRead(cn.enc)
}

// DropCache discards the payload store in place while keeping the
// session ticket — the chaos harness's stand-in for a thin device that
// rebooted (the RAM cache is gone) but recovered its ticket from stable
// storage. The next Reattach claims no epoch, so the server must answer
// cold and renegotiate the cache from scratch.
func (cn *Conn) DropCache() {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	cn.c.ResetCache(0)
	cn.cacheEpoch = 0
}

// handshake authenticates, switches to the encrypted transport, sends
// the hello (ClientInit or Reattach), and reads the ServerInit, which
// must name ProtoVersion.
func handshake(nc net.Conn, user, secret string, hello wire.Message) (*cipher.StreamConn, *wire.ServerInit, error) {
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	m, err := wire.ReadMessage(nc)
	if err != nil {
		return nil, nil, err
	}
	ch, ok := m.(*wire.AuthChallenge)
	if !ok {
		return nil, nil, fmt.Errorf("client: expected challenge, got %v", m.Type())
	}
	if err := wire.WriteMessage(nc, &wire.AuthResponse{
		User: user, Proof: auth.Proof(secret, ch.Nonce),
	}); err != nil {
		return nil, nil, err
	}
	m, err = wire.ReadMessage(nc)
	if err != nil {
		return nil, nil, err
	}
	res, ok := m.(*wire.AuthResult)
	if !ok {
		return nil, nil, fmt.Errorf("client: expected auth result, got %v", m.Type())
	}
	if !res.OK {
		return nil, nil, fmt.Errorf("client: authentication refused: %s", res.Reason)
	}

	enc, err := cipher.NewStreamConn(nc, auth.SessionKey(secret, ch.Nonce), false)
	if err != nil {
		return nil, nil, err
	}
	if err := wire.WriteMessage(enc, hello); err != nil {
		return nil, nil, err
	}
	m, err = wire.ReadMessage(enc)
	if err != nil {
		return nil, nil, err
	}
	si, ok := m.(*wire.ServerInit)
	if !ok {
		if busy, isBusy := m.(*wire.AttachBusy); isBusy {
			return nil, nil, &BusyError{
				RetryAfter: time.Duration(busy.RetryAfterMS) * time.Millisecond}
		}
		return nil, nil, fmt.Errorf("client: expected server init, got %v", m.Type())
	}
	if si.Ver != wire.ProtoVersion {
		return nil, nil, fmt.Errorf("client: server speaks protocol %d, want %d", si.Ver, wire.ProtoVersion)
	}
	_ = nc.SetDeadline(time.Time{})
	return enc, si, nil
}

// Redial dials a fresh transport and resumes the session: it presents
// the saved session ticket in a Reattach (falling back to a plain
// ClientInit when no ticket has been received yet) and swaps the new
// transport in. The local framebuffer is kept — the server's resync is
// a full-screen RAW, so the screen converges regardless of what was
// missed while disconnected.
func (cn *Conn) Redial() error {
	cn.mu.Lock()
	dial := cn.dial
	ticket := append([]byte(nil), cn.ticket...)
	viewW, viewH := cn.c.FB().W(), cn.c.FB().H()
	role := cn.role
	// Claim the warm store only while it is actually intact: the epoch
	// from the last ticket, zeroed whenever the store has been reset.
	// Epoch 0 on the wire means "no claim", so the server can never
	// resume warm against nothing.
	epoch := uint64(0)
	if cn.c.CacheEnabled() {
		epoch = cn.cacheEpoch
	}
	closed := cn.closed
	cn.mu.Unlock()
	if closed {
		return errors.New("client: connection closed")
	}
	if dial == nil {
		return errors.New("client: no dialer (connection built over a raw transport)")
	}

	nc, err := dial()
	if err != nil {
		return err
	}
	var hello wire.Message
	if len(ticket) > 0 {
		hello = &wire.Reattach{Ticket: ticket, ViewW: viewW, ViewH: viewH,
			Name: cn.user, Role: role, CacheKB: uint32(cn.cacheReqKB),
			CacheEpoch: epoch}
		cn.reattachAttempts.Add(1)
	} else {
		hello = &wire.ClientInit{ViewW: viewW, ViewH: viewH,
			Name: cn.user, Role: role, CacheKB: uint32(cn.cacheReqKB)}
	}
	enc, si, err := handshake(nc, cn.user, cn.secret, hello)
	if err != nil {
		nc.Close()
		return err
	}

	cn.mu.Lock()
	if cn.closed {
		cn.mu.Unlock()
		nc.Close()
		return errors.New("client: connection closed")
	}
	old := cn.nc
	cn.nc, cn.enc = nc, enc
	cn.rd = cn.wrappedReader()
	cn.ServerW, cn.ServerH = si.W, si.H
	// The server's explicit warm/cold verdict (wire v7). Warm: it kept
	// the model our epoch named, so the store stays as-is and its
	// holdings are live. Cold: the server restarted its model, so any
	// holdings we kept are garbage — discard them along with the spent
	// epoch.
	if si.CacheWarm != 0 {
		cn.c.EnableCache(int(si.CacheKB) * 1024)
		cn.warmResumes.Add(1)
	} else {
		cn.c.ResetCache(int(si.CacheKB) * 1024)
		cn.cacheEpoch = 0
		if epoch != 0 {
			cn.coldFallbacks.Add(1)
		}
	}
	cn.cacheGrantKB.Store(int32(si.CacheKB))
	cn.ticket = nil // the old ticket is spent; the server pushes a fresh one
	// A fresh attach starts lossless; a reattach that carried its rung
	// forward is re-told by the server's CauseAdmin notice.
	cn.degradeRung.Store(0)
	cn.mu.Unlock()
	if old != nil {
		old.Close()
	}
	return nil
}

// Run applies the update stream until the connection fails or closes.
// Heartbeats are answered and session tickets stored in-line; unknown
// well-framed message types are skipped (forward compatibility).
func (cn *Conn) Run() error {
	for {
		cn.mu.Lock()
		nc, rd := cn.nc, cn.rd
		rt := cn.ReadTimeout
		cn.mu.Unlock()
		if rt > 0 {
			_ = nc.SetReadDeadline(time.Now().Add(rt))
		}
		m, err := wire.ReadMessage(rd)
		if err != nil {
			if errors.Is(err, wire.ErrUnknownType) {
				continue
			}
			return err
		}
		switch v := m.(type) {
		case *wire.Ping:
			if err := cn.send(&wire.Pong{Seq: v.Seq, TimeUS: v.TimeUS}); err != nil {
				return err
			}
			cn.pongsSent.Add(1)
			continue
		case *wire.Pong:
			continue // RTT probes we did not send; ignore
		case *wire.SessionTicket:
			cn.mu.Lock()
			cn.ticket = append([]byte(nil), v.Ticket...)
			cn.role = v.Role // the server echoes the granted role
			cn.cacheEpoch = v.CacheEpoch
			cn.mu.Unlock()
			continue
		case *wire.DegradeNotice:
			// The server's quality ladder moved; record it for telemetry
			// and Stats. Display content needs no action — degraded
			// payloads decode through the same command path.
			cn.degradeRung.Store(int32(v.Rung))
			cn.degradeNotices.Add(1)
			continue
		case *wire.AuditProbe:
			// Integrity audit (v4): digest the requested tile window of
			// our framebuffer and echo it back.
			cn.auditProbes.Add(1)
			if err := cn.send(cn.auditReply(v)); err != nil {
				return err
			}
			cn.auditReplies.Add(1)
			continue
		case *wire.TimeMark:
			// End-to-end tracing (v5): everything the mark covers was
			// applied before it arrived (TCP keeps the batch in order), so
			// ack now, echoing the decode+apply time spent since the last
			// mark.
			cn.marksSeen.Add(1)
			applyUS := cn.applyAccumNS.Swap(0) / 1000
			if applyUS > int64(^uint32(0)) {
				applyUS = int64(^uint32(0))
			}
			if err := cn.send(&wire.MarkAck{Epoch: v.Epoch, TimeUS: v.TimeUS,
				ApplyUS: uint32(applyUS)}); err != nil {
				return err
			}
			cn.markAcksSent.Add(1)
			continue
		}
		start := time.Now()
		cn.mu.Lock()
		err = cn.c.Apply(m)
		cn.mu.Unlock()
		elapsed := time.Since(start)
		cn.applyAccumNS.Add(int64(elapsed))
		cn.tel.applyLat.Observe(elapsed.Microseconds())
		cn.tel.updates.Inc()
		if err != nil {
			// A cache desync is recoverable by design: report it and keep
			// applying — the server forgets the digest and repaints the
			// region with plain RAW (wire v6's self-healing path).
			var miss *CacheMissError
			if errors.As(err, &miss) {
				if err := cn.send(&wire.CacheMiss{Digest: miss.Digest, Rect: miss.Rect}); err != nil {
					return err
				}
				cn.cacheMissSent.Add(1)
				continue
			}
			return err
		}
	}
}

// send writes one protocol message on the current transport, framing
// it into a per-connection buffer reused across sends (input and pong
// traffic is frequent, small, and must not generate garbage). Each
// write carries the write deadline so a stalled server cannot park the
// sender forever.
func (cn *Conn) send(m wire.Message) error {
	cn.mu.Lock()
	nc, enc := cn.nc, cn.enc
	wt := cn.WriteTimeout
	if wt <= 0 {
		wt = cn.ReadTimeout
	}
	cn.mu.Unlock()
	cn.wmu.Lock()
	defer cn.wmu.Unlock()
	buf, err := wire.AppendMessage(cn.wbuf[:0], m)
	if err != nil {
		return err
	}
	cn.wbuf = buf
	if wt > 0 {
		_ = nc.SetWriteDeadline(time.Now().Add(wt))
	}
	_, err = enc.Write(buf)
	return err
}

// State returns the connection's lifecycle state.
func (cn *Conn) State() ConnState {
	return ConnState(cn.state.Load())
}

func (cn *Conn) setState(s ConnState) {
	cn.state.Store(int32(s))
}

// Role returns the session role the server granted (the dialed role
// until the first SessionTicket confirms or corrects it).
func (cn *Conn) Role() uint8 {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.role
}

// Ticket returns a copy of the last session ticket the server issued
// (nil before the first one arrives).
func (cn *Conn) Ticket() []byte {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return append([]byte(nil), cn.ticket...)
}

// WithFB runs f with exclusive access to the live framebuffer — the
// fault-injection hook integrity tests use to corrupt pixels silently,
// below every protocol check.
func (cn *Conn) WithFB(f func(*fb.Framebuffer)) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	f(cn.c.FB())
}

// Snapshot returns a copy of the current framebuffer.
func (cn *Conn) Snapshot() *fb.Framebuffer {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.c.FB().Clone()
}

// View returns a copy of the framebuffer with the hardware cursor
// composited — what a physical display attached to this client shows.
func (cn *Conn) View() *fb.Framebuffer {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.c.ComposeCursor()
}

// CursorPos returns the current cursor position in viewport space.
func (cn *Conn) CursorPos() geom.Point {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.c.CursorPos()
}

// Stats returns a point-in-time copy of the client instrumentation
// counters, including the connection state and reconnect accounting.
// Safe to call from any goroutine while Run applies updates.
func (cn *Conn) Stats() Stats {
	s := *cn.client().Stats()
	s.State = ConnState(cn.state.Load())
	s.Reconnects = int(cn.reconnects.Load())
	s.PongsSent = int(cn.pongsSent.Load())
	s.DegradeRung = int(cn.degradeRung.Load())
	s.DegradeNotices = int(cn.degradeNotices.Load())
	s.AuditProbes = int(cn.auditProbes.Load())
	s.AuditReplies = int(cn.auditReplies.Load())
	s.MarksSeen = int(cn.marksSeen.Load())
	s.MarkAcksSent = int(cn.markAcksSent.Load())
	s.CacheKB = int(cn.cacheGrantKB.Load())
	s.CacheMissReports = int(cn.cacheMissSent.Load())
	s.ReattachAttempts = int(cn.reattachAttempts.Load())
	s.WarmResumes = int(cn.warmResumes.Load())
	s.ColdFallbacks = int(cn.coldFallbacks.Load())
	s.BusyRejections = int(cn.busyRejections.Load())
	return s
}

// auditReply digests the probe's tile window against the local
// framebuffer. The W/H echo lets the server discard a reply that raced
// a viewport change instead of misreading it as corruption; a window
// past the edge of our grid is clamped, and the shrunken Count tells
// the server so.
func (cn *Conn) auditReply(p *wire.AuditProbe) *wire.AuditReply {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	f := cn.c.FB()
	g := fb.Grid(f.W(), f.H(), int(p.Tile))
	reply := &wire.AuditReply{Seq: p.Seq, Start: p.Start,
		W: uint16(f.W()), H: uint16(f.H())}
	start := int(p.Start)
	for i := 0; i < int(p.Count); i++ {
		idx := start + i
		if idx < 0 || idx >= g.Tiles() {
			break
		}
		reply.Digests = append(reply.Digests, f.DigestRect(g.Rect(idx)))
	}
	reply.Count = uint16(len(reply.Digests))
	return reply
}

// SendInput forwards a user input event. Coordinates are in server
// framebuffer space; callers using a scaled viewport map them first.
func (cn *Conn) SendInput(ev *wire.Input) error {
	return cn.send(ev)
}

// RequestResize asks the server to rescale updates to a new viewport.
// The local framebuffer is replaced at the new geometry — before the
// request leaves, so the server's full refresh at the new size can only
// land on the new framebuffer (on a fast link it arrives before send
// returns; applied to the old one it would be lost for good).
func (cn *Conn) RequestResize(viewW, viewH int) error {
	cn.mu.Lock()
	old := cn.c
	cn.c = New(viewW, viewH)
	// The payload store is position-independent and the server's model
	// of it survives a resize; carry it over so the session stays warm.
	cn.c.store = old.store
	cn.c.cacheGauges()
	cn.mu.Unlock()
	return cn.send(&wire.Resize{ViewW: viewW, ViewH: viewH})
}

// Close tears the connection down for good; RunAuto stops reconnecting.
func (cn *Conn) Close() error {
	cn.mu.Lock()
	cn.closed = true
	nc := cn.nc
	cn.mu.Unlock()
	cn.state.Store(int32(StateGone))
	return nc.Close()
}

// isClosed reports whether Close has been called.
func (cn *Conn) isClosed() bool {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.closed
}
