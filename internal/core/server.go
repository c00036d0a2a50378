package core

import (
	"fmt"

	"thinc/internal/compress"
	"thinc/internal/driver"
	"thinc/internal/fb"
	"thinc/internal/geom"
	"thinc/internal/overload"
	"thinc/internal/payloadcache"
	"thinc/internal/pixel"
	"thinc/internal/resample"
	"thinc/internal/wire"
)

// Options configures a THINC server core. The zero value enables every
// optimization the paper describes; the knobs exist for the ablation
// experiments.
type Options struct {
	// RawCodec compresses RAW payloads (the prototype used PNG, §7).
	// Zero value CodecNone disables compression.
	RawCodec compress.Codec
	// DisableOffscreen turns off offscreen drawing awareness (§4.1):
	// offscreen operations are ignored and copies to the screen fall
	// back to raw pixels — the Sun Ray behaviour the paper contrasts
	// with.
	DisableOffscreen bool
	// PixelTranslate re-derives display primitives from raw pixel
	// fallbacks by sampling (solid tiles become SFILL) — Sun Ray's
	// after-the-fact translation (§2), which works but costs sampling
	// effort and misses everything that is not a solid region.
	PixelTranslate bool
	// FIFODelivery disables the SRSF scheduler: per-client buffers
	// flush in arrival order (ablation for §5).
	FIFODelivery bool
	// Metrics, when set, receives translation and scheduler telemetry
	// (see NewMetrics). Nil servers use detached instruments, so the
	// instrumentation is always on and never nil-checked.
	Metrics *Metrics
	// QueueBudgetBytes caps each client's buffered wire backlog. When an
	// add pushes a buffer past the cap, the largest evictable commands
	// are deterministically replaced with a RAW snapshot of the screen
	// regions they covered (eviction-to-RAW). Zero means unbounded.
	QueueBudgetBytes int
	// OffscreenQueueBudgetBytes caps each pixmap's offscreen command
	// queue; overflowing queues drop their oldest commands, and the
	// dropped regions fall back to raw pixels at copy-out time. Zero
	// means unbounded.
	OffscreenQueueBudgetBytes int
	// AuditTileSize is the tile side in pixels of the integrity-audit
	// digest index (wire v4). Zero means DefaultAuditTile.
	AuditTileSize int
}

// Server is the THINC server core: the virtual display driver (§3). It
// implements driver.Driver, so it plugs into the window system exactly
// where a hardware driver would. Drawing operations are translated into
// protocol command objects and dispatched to every attached client's
// command buffer; offscreen drawing is tracked per pixmap (§4.1); video
// streams pass through natively (§4.2).
//
// The core is synchronous and transport-agnostic: transports drain each
// client's buffer with Client.Flush, offering however many bytes they
// can write without blocking (§5).
type Server struct {
	opts Options
	mem  driver.Memory
	w, h int

	offscreen map[driver.DrawableID]*Queue
	streams   map[uint32]*Stream
	frameSeq  uint32

	cursorImg        []pixel.ARGB
	cursorW, cursorH int
	cursorHot        geom.Point
	cursorPos        geom.Point

	clients map[*Client]struct{}

	// tiles is the per-tile digest index over the screen (wire v4
	// integrity audit); nil when the Memory cannot expose its screen.
	tiles *fb.TileIndex

	// epoch and damageNS stamp each translated command batch for the
	// end-to-end tracing pipeline (wire v5); see trace.go.
	epoch    uint64
	damageNS int64

	// Stats aggregates translation activity across the session.
	Stats TranslateStats

	met *Metrics
}

// TranslateStats counts translation-layer events.
type TranslateStats struct {
	OnscreenCmds    int // commands broadcast to clients
	OffscreenCmds   int // commands captured in pixmap queues
	OffscreenExecs  int // offscreen queues executed on copy-to-screen
	RawFallbacks    int // operations that degraded to raw pixels
	OffscreenEvicts int // commands evicted inside offscreen queues
	OffscreenMerges int // commands absorbed inside offscreen queues
}

// Client is the per-connection state: a command buffer plus the
// client's viewport geometry for server-side scaling (§6).
type Client struct {
	srv  *Server
	Buf  *ClientBuffer
	view geom.Rect // client viewport size (w,h at origin)

	// Streams the client has been told about (for resize bookkeeping).
	streamDst map[uint32]geom.Rect

	degrade  int  // active degradation ladder rung (overload package)
	budget   int  // hard cap on buffered wire bytes (0 = unbounded)
	inBudget bool // re-entrancy guard: replacement RAWs skip enforcement

	// BudgetSweeps counts budget-eviction sweeps on this client.
	BudgetSweeps int
	// VideoDrops counts video frames dropped for this client by the
	// drop-video degradation rung.
	VideoDrops int

	// audit is the per-client integrity-audit cursor; it rides the
	// retained client across reattach like the degradation rung does.
	audit AuditState

	// cache models the client's content-addressed payload store (wire
	// v6); nil when caching is disabled or unnegotiated. Like the audit
	// state it rides the retained client across reattach, so a
	// reconnecting client's warm store keeps hitting.
	cache *payloadcache.LRU

	// CacheStats counts this client's cache protocol outcomes.
	CacheStats CacheStats
}

// NewServer creates a server core for a screen of the given geometry.
// mem provides read access to the window system's rendered surfaces;
// pass the xserver.Display (it implements driver.Memory). When the
// server is attached via xserver.NewDisplay, Init is called for you and
// mem may be nil here.
func NewServer(opts Options) *Server {
	met := opts.Metrics
	if met == nil {
		met = nopMetrics
	}
	return &Server{
		opts:      opts,
		offscreen: make(map[driver.DrawableID]*Queue),
		streams:   make(map[uint32]*Stream),
		clients:   make(map[*Client]struct{}),
		met:       met,
	}
}

// Init implements driver.Driver.
func (s *Server) Init(mem driver.Memory, w, h int) {
	s.mem = mem
	s.w, s.h = w, h
	s.initAudit()
}

// ScreenSize returns the session framebuffer geometry.
func (s *Server) ScreenSize() (int, int) { return s.w, s.h }

// AttachClient adds a client with the given viewport. A viewport
// smaller than the session framebuffer enables server-side scaling.
func (s *Server) AttachClient(viewW, viewH int) *Client {
	if viewW <= 0 || viewH <= 0 || viewW > s.w || viewH > s.h {
		viewW, viewH = s.w, s.h
	}
	c := &Client{
		srv:       s,
		Buf:       NewClientBufferWith(s.met),
		view:      geom.XYWH(0, 0, viewW, viewH),
		streamDst: make(map[uint32]geom.Rect),
		budget:    s.opts.QueueBudgetBytes,
	}
	c.Buf.FIFO = s.opts.FIFODelivery
	// Late joiner: bring the client current with one full-screen RAW
	// (the shared-session attach path).
	s.syncClient(c)
	s.clients[c] = struct{}{}
	return c
}

// syncClient queues everything a client needs to become current: one
// full-screen RAW snapshot, the active video streams, and the cursor.
// It is the attach path, the reattach path, and the slow-client resync.
func (s *Server) syncClient(c *Client) {
	if s.mem == nil {
		return
	}
	s.stampDamage()
	full := geom.XYWH(0, 0, s.w, s.h)
	pix := s.mem.ReadPixels(driver.Screen, full)
	c.add(NewRaw(full, pix, full.W(), false, s.opts.RawCodec))
	s.syncStreamsAndCursor(c)
}

// syncStreamsAndCursor replays the non-framebuffer session state a
// (re)attaching client needs: active video streams and the cursor.
func (s *Server) syncStreamsAndCursor(c *Client) {
	// Replay active streams so video keeps playing.
	for _, st := range s.streams {
		c.add(newCtlCmd(&wire.VideoInit{Stream: st.ID, Format: st.Format,
			SrcW: st.SrcW, SrcH: st.SrcH, Dst: c.scaleRect(st.Dst)}, st.Dst))
		c.streamDst[st.ID] = st.Dst
	}
	// Replay the cursor so a late joiner sees it.
	if len(s.cursorImg) > 0 {
		s.sendCursorTo(c)
		mv := newCtlCmd(&wire.CursorMove{X: c.maybeScalePoint(s.cursorPos).X,
			Y: c.maybeScalePoint(s.cursorPos).Y}, geom.Rect{})
		mv.rt = true
		c.Buf.AddSlot(mv, slotCursorMove)
	}
}

// DetachClient removes a client.
func (s *Server) DetachClient(c *Client) { delete(s.clients, c) }

// ReattachClient restores a previously detached client — the session
// reconnect path. The client keeps its identity and buffer, its
// viewport is updated to the reconnecting peer's geometry, any stale
// buffered commands are dropped, and a full resync is queued.
func (s *Server) ReattachClient(c *Client, viewW, viewH int) {
	if viewW <= 0 || viewH <= 0 || viewW > s.w || viewH > s.h {
		viewW, viewH = s.w, s.h
	}
	c.view = geom.XYWH(0, 0, viewW, viewH)
	c.streamDst = make(map[uint32]geom.Rect)
	c.Buf.Clear()
	s.syncClient(c)
	s.clients[c] = struct{}{}
}

// ResyncClient discards a client's backlog and queues a full-screen
// resync — the slow-client policy: bounded buffers beat unbounded lag.
func (s *Server) ResyncClient(c *Client) {
	c.Buf.Clear()
	s.syncClient(c)
}

// NumClients returns the number of attached clients.
func (s *Server) NumClients() int { return len(s.clients) }

// Resize updates the client's viewport (§6). Subsequent updates are
// scaled to the new geometry; the client is refreshed with a
// full-screen update at the new size.
func (c *Client) Resize(viewW, viewH int) {
	if viewW <= 0 || viewH <= 0 || viewW > c.srv.w || viewH > c.srv.h {
		viewW, viewH = c.srv.w, c.srv.h
	}
	c.view = geom.XYWH(0, 0, viewW, viewH)
	if c.srv.mem != nil {
		c.srv.stampDamage()
		full := geom.XYWH(0, 0, c.srv.w, c.srv.h)
		pix := c.srv.mem.ReadPixels(driver.Screen, full)
		c.add(NewRaw(full, pix, full.W(), false, c.srv.opts.RawCodec))
	}
}

// View returns the client viewport rectangle.
func (c *Client) View() geom.Rect { return c.view }

// Scaled reports whether server-side scaling is active for the client.
func (c *Client) Scaled() bool { return c.view.W() != c.srv.w || c.view.H() != c.srv.h }

// Flush drains up to budget bytes from the client's buffer in SRSF
// order (see ClientBuffer.Flush).
func (c *Client) Flush(budget int) []wire.Message { return c.Buf.Flush(budget) }

// FlushAll drains the client's buffer completely.
func (c *Client) FlushAll() []wire.Message { return c.Buf.FlushAll() }

// add routes a translated command into the client's buffer, applying
// the degradation ladder's payload rewrites, server-side scaling when
// the viewport differs from the session size, and the queue budget.
func (c *Client) add(cmd Command) {
	c.Buf.SetStamp(c.srv.epoch, c.srv.damageNS)
	cmd = c.degradeTransform(cmd)
	if !c.Scaled() {
		// Cache wrapping sits after the rung rewrite (the codec in force
		// is the rung's) and only on the unscaled path: scaled payloads
		// are resampled per viewport, so their bytes are not the shared
		// repeating content the cache indexes.
		c.Buf.Add(c.cacheTransform(cmd))
	} else {
		for _, sc := range c.srv.scaleCommand(cmd, c) {
			c.Buf.Add(sc)
		}
	}
	c.enforceBudget()
}

// broadcast sends a command to every attached client. Each client gets
// its own clone so per-client eviction and scaling never alias. Every
// screen-changing command funnels through here, so this is also where
// the audit index learns which tiles went stale (under-marking would
// freeze a stale expected digest and turn repairs into a loop;
// marking here makes that impossible).
func (s *Server) broadcast(cmd Command) {
	s.stampDamage()
	s.Stats.OnscreenCmds++
	s.met.onscreenCmds.Inc()
	s.markAudit(cmd)
	s.fanout(cmd)
}

// fanout delivers one translated command into every attached client's
// buffer — the translate-once/deliver-N path. Each client gets its own
// clone (per-client live regions, degradation rewrites, and scaling
// never alias), but clone payloads share the original's immutable
// refcounted backing, so the marginal cost of an added viewer is queue
// bookkeeping, not a payload copy.
func (s *Server) fanout(cmd Command) {
	n := len(s.clients)
	if n == 0 {
		return
	}
	s.met.fanoutDeliveries.Add(int64(n))
	if n > 1 {
		s.met.fanoutSharedBytes.Add(int64(n-1) * int64(sharedPayloadBytes(cmd)))
	}
	first := true
	for c := range s.clients {
		if first {
			c.add(cmd)
			first = false
		} else {
			c.add(cmd.Clone())
		}
	}
}

// sharedPayloadBytes returns the payload bytes a clone of cmd shares
// with the original instead of copying — the fan-out amplification
// numerator.
func sharedPayloadBytes(cmd Command) int {
	switch c := cmd.(type) {
	case *RawCmd:
		return len(c.Pix) * 4
	case *TileCmd:
		return len(c.Tile.Pix) * 4
	case *BitmapCmd:
		return len(c.Bits.Bits)
	case *AudioCmd:
		return len(c.Data)
	case *FrameCmd:
		return c.Frame.Size()
	}
	return 0
}

// offscreenQueue returns the command queue tracking pixmap d, or nil if
// offscreen awareness is off or d is unknown.
func (s *Server) offscreenQueue(d driver.DrawableID) *Queue {
	if s.opts.DisableOffscreen {
		return nil
	}
	return s.offscreen[d]
}

// route sends the command to the pixmap queue (offscreen destination)
// or broadcasts it to clients (screen destination).
func (s *Server) route(d driver.DrawableID, cmd Command) {
	if d.IsScreen() {
		s.broadcast(cmd)
		return
	}
	if q := s.offscreenQueue(d); q != nil {
		evicted, merged := q.Evicted, q.Merged
		q.Add(cmd)
		s.Stats.OffscreenEvicts += q.Evicted - evicted
		s.met.offscreenEvicts.Add(int64(q.Evicted - evicted))
		s.Stats.OffscreenMerges += q.Merged - merged
		s.met.offscreenMerges.Add(int64(q.Merged - merged))
		s.Stats.OffscreenCmds++
		s.met.offscreenCmds.Inc()
	}
	// Without offscreen awareness the operation is ignored; the copy to
	// the screen will fall back to RAW (§4.1).
}

// --- driver.Driver display entrypoints ---

// CreatePixmap implements driver.Driver.
func (s *Server) CreatePixmap(d driver.DrawableID, w, h int) {
	if !s.opts.DisableOffscreen {
		s.offscreen[d] = &Queue{MaxBytes: s.opts.OffscreenQueueBudgetBytes}
	}
}

// DestroyPixmap implements driver.Driver.
func (s *Server) DestroyPixmap(d driver.DrawableID) {
	delete(s.offscreen, d)
}

// FillSolid implements driver.Driver.
func (s *Server) FillSolid(d driver.DrawableID, r geom.Rect, c pixel.ARGB) {
	s.route(d, NewFill(r, c))
}

// FillTile implements driver.Driver.
func (s *Server) FillTile(d driver.DrawableID, r geom.Rect, tile *fb.Tile) {
	// Copy the tile: the window system owns the original.
	own := fb.NewTile(tile.W, tile.H, append([]pixel.ARGB(nil), tile.Pix...))
	s.route(d, NewTile(r, own))
}

// FillStipple implements driver.Driver.
func (s *Server) FillStipple(d driver.DrawableID, r geom.Rect, bm *fb.Bitmap, fg, bg pixel.ARGB, transparent bool) {
	bounds := s.drawableBounds(d)
	if !bounds.Contains(r) {
		// A clipped stipple loses bit alignment on the wire; transfer
		// the rendered pixels instead.
		s.rawFallback(d, r.Intersect(bounds), !fg.Opaque() || (transparent && !bg.Opaque()))
		return
	}
	own := &fb.Bitmap{W: bm.W, H: bm.H, Bits: append([]byte(nil), bm.Bits...)}
	s.route(d, NewBitmap(r, own, fg, bg, transparent))
}

// PutImage implements driver.Driver.
func (s *Server) PutImage(d driver.DrawableID, r geom.Rect, pix []pixel.ARGB, stride int) {
	s.route(d, NewRaw(r, pix, stride, false, s.opts.RawCodec))
}

// Composite implements driver.Driver.
func (s *Server) Composite(d driver.DrawableID, r geom.Rect, pix []pixel.ARGB, stride int) {
	s.route(d, NewRaw(r, pix, stride, true, s.opts.RawCodec))
}

// rawFallback transfers the current rendered pixels of r on d. blend
// content is emitted as an opaque snapshot (the blend already happened
// in the surface). With PixelTranslate, uniform tiles are re-derived as
// fills before shipping pixels (§2's Sun Ray translation).
func (s *Server) rawFallback(d driver.DrawableID, r geom.Rect, _ bool) {
	if r.Empty() {
		return
	}
	s.Stats.RawFallbacks++
	s.met.rawFallbacks.Inc()
	pix := s.mem.ReadPixels(d, r)
	if !s.opts.PixelTranslate {
		s.route(d, NewRaw(r, pix, r.W(), false, s.opts.RawCodec))
		return
	}
	s.pixelTranslate(d, r, pix)
}

// pixelTranslate samples the pixel block in 32-pixel tile bands,
// emitting SFILL for uniform tiles and RAW bands for the rest.
func (s *Server) pixelTranslate(d driver.DrawableID, r geom.Rect, pix []pixel.ARGB) {
	const tile = 32
	w := r.W()
	for ty := 0; ty < r.H(); ty += tile {
		th := min(tile, r.H()-ty)
		runStart := -1
		flushRun := func(end int) {
			if runStart < 0 {
				return
			}
			band := geom.Rect{X0: r.X0 + runStart, Y0: r.Y0 + ty, X1: r.X0 + end, Y1: r.Y0 + ty + th}
			sub := make([]pixel.ARGB, 0, band.Area())
			for y := 0; y < th; y++ {
				row := (ty+y)*w + runStart
				sub = append(sub, pix[row:row+band.W()]...)
			}
			s.route(d, NewRaw(band, sub, band.W(), false, s.opts.RawCodec))
			runStart = -1
		}
		for tx := 0; tx <= r.W(); tx += tile {
			uniform := false
			var c pixel.ARGB
			if tx < r.W() {
				tw := min(tile, r.W()-tx)
				uniform, c = uniformTile(pix, w, tx, ty, tw, th)
			}
			if tx >= r.W() {
				flushRun(r.W())
				break
			}
			tw := min(tile, r.W()-tx)
			if uniform {
				flushRun(tx)
				s.route(d, NewFill(geom.Rect{X0: r.X0 + tx, Y0: r.Y0 + ty,
					X1: r.X0 + tx + tw, Y1: r.Y0 + ty + th}, c))
			} else if runStart < 0 {
				runStart = tx
			}
		}
	}
}

// uniformTile reports whether the tile at (tx, ty) is a single color.
func uniformTile(pix []pixel.ARGB, stride, tx, ty, tw, th int) (bool, pixel.ARGB) {
	c := pix[ty*stride+tx]
	for y := ty; y < ty+th; y++ {
		row := y * stride
		for x := tx; x < tx+tw; x++ {
			if pix[row+x] != c {
				return false, 0
			}
		}
	}
	return true, c
}

func (s *Server) drawableBounds(d driver.DrawableID) geom.Rect {
	w, h := s.mem.SurfaceSize(d)
	return geom.XYWH(0, 0, w, h)
}

// CopyArea implements driver.Driver — the heart of offscreen awareness
// (§4.1).
func (s *Server) CopyArea(dst, src driver.DrawableID, sr geom.Rect, dp geom.Point) {
	dx, dy := dp.X-sr.X0, dp.Y-sr.Y0
	switch {
	case dst.IsScreen() && src.IsScreen():
		// Scroll / window move: a plain COPY.
		s.broadcast(NewCopy(sr, dp))

	case dst.IsScreen() && !src.IsScreen():
		// Offscreen contents presented: execute the pixmap's queue.
		q := s.offscreenQueue(src)
		if q == nil {
			// Offscreen awareness off (or untracked): raw pixels of the
			// destination region, read from the already-rendered screen.
			dr := geom.XYWH(dp.X, dp.Y, sr.W(), sr.H()).Intersect(s.drawableBounds(dst))
			s.rawFallback(driver.Screen, dr, false)
			return
		}
		s.Stats.OffscreenExecs++
		s.met.offscreenExecs.Inc()
		if tr := s.met.Trace; tr.Enabled() {
			tr.Event("translate.offscreen_exec",
				fmt.Sprintf("src=%d rect=%dx%d", src, sr.W(), sr.H()))
		}
		clones, fallback := q.CopyOut(sr)
		// Fallback pixels first (CopyOut contract), then the semantic
		// commands in arrival order. Edge-crossing Complete/Transparent
		// clones degrade to screen snapshots; those hold the *final*
		// content of this operation, so they must be sent after every
		// clone — a transparent clone blending over a final-content
		// snapshot would double-blend.
		var deferred []Command
		for _, fr := range fallback.Rects() {
			pix := s.mem.ReadPixels(src, fr)
			cmd := NewRaw(fr.Translate(dx, dy), pix, fr.W(), false, s.opts.RawCodec)
			if clipped, snap := s.clipToScreen(cmd); clipped != nil {
				s.Stats.RawFallbacks++
				s.met.rawFallbacks.Inc()
				if snap {
					deferred = append(deferred, clipped)
				} else {
					s.broadcast(clipped)
				}
			}
		}
		for _, cl := range clones {
			cl.Translate(dx, dy)
			if clipped, snap := s.clipToScreen(cl); clipped != nil {
				if snap {
					deferred = append(deferred, clipped)
				} else {
					s.broadcast(clipped)
				}
			}
		}
		for _, cmd := range deferred {
			s.broadcast(cmd)
		}

	case !dst.IsScreen() && !src.IsScreen():
		// Offscreen hierarchy composition: copy the command group
		// between queues, translated to the new location (§4.1).
		dq := s.offscreenQueue(dst)
		if dq == nil {
			return
		}
		sq := s.offscreenQueue(src)
		if sq == nil {
			return
		}
		clones, fallback := sq.CopyOut(sr)
		for _, fr := range fallback.Rects() {
			pix := s.mem.ReadPixels(src, fr)
			dq.Add(NewRaw(fr.Translate(dx, dy), pix, fr.W(), false, s.opts.RawCodec))
			s.Stats.RawFallbacks++
			s.met.rawFallbacks.Inc()
			s.Stats.OffscreenCmds++
			s.met.offscreenCmds.Inc()
		}
		for _, cl := range clones {
			cl.Translate(dx, dy)
			dq.Add(cl)
			s.Stats.OffscreenCmds++
			s.met.offscreenCmds.Inc()
		}

	default:
		// Screen-to-pixmap (rare: apps snapshotting the screen): track
		// the pixels as a RAW in the pixmap's queue.
		if dq := s.offscreenQueue(dst); dq != nil {
			dr := geom.XYWH(dp.X, dp.Y, sr.W(), sr.H()).Intersect(s.drawableBounds(dst))
			srcRect := dr.Translate(-dx, -dy)
			pix := s.mem.ReadPixels(driver.Screen, srcRect)
			dq.Add(NewRaw(dr, pix, dr.W(), false, s.opts.RawCodec))
			s.Stats.OffscreenCmds++
			s.met.offscreenCmds.Inc()
			s.Stats.RawFallbacks++
			s.met.rawFallbacks.Inc()
		}
	}
}

// clipToScreen restricts a command to the visible framebuffer. It
// returns nil when nothing remains; Complete/Transparent commands that
// cross the edge degrade to a RAW snapshot of the visible part, and
// snapshot=true tells the caller the pixels carry the operation's
// *final* screen content (ordering constraint above).
func (s *Server) clipToScreen(cmd Command) (clipped Command, snapshot bool) {
	screen := geom.XYWH(0, 0, s.w, s.h)
	if screen.Contains(cmd.Bounds()) {
		return cmd, false
	}
	switch cmd.Class() {
	case Partial:
		cmd.Live().IntersectRect(screen)
		if cmd.Live().Empty() {
			return nil, false
		}
		return cmd, false
	default:
		vis := cmd.Bounds().Intersect(screen)
		if vis.Empty() {
			return nil, false
		}
		// The screen already holds the rendered result.
		pix := s.mem.ReadPixels(driver.Screen, vis)
		return NewRaw(vis, pix, vis.W(), false, s.opts.RawCodec), true
	}
}

// --- driver.Driver video/audio/input entrypoints (§4.2, §5) ---

// VideoSetup implements driver.Driver.
func (s *Server) VideoSetup(stream uint32, srcW, srcH int, dst geom.Rect) {
	s.stampDamage()
	st := &Stream{ID: stream, SrcW: srcW, SrcH: srcH, Dst: dst, Format: pixel.FormatYV12}
	s.streams[stream] = st
	for c := range s.clients {
		c.add(newCtlCmd(&wire.VideoInit{Stream: stream, Format: pixel.FormatYV12,
			SrcW: srcW, SrcH: srcH, Dst: c.scaleRect(dst)}, dst))
		c.streamDst[stream] = dst
	}
}

// VideoFrame implements driver.Driver.
func (s *Server) VideoFrame(stream uint32, frame *pixel.YV12Image, ptsUS uint64) {
	st, ok := s.streams[stream]
	if !ok {
		return
	}
	s.stampDamage()
	st.FramesIn++
	s.frameSeq++
	// One copy of the frame serves every unscaled client: the window
	// system owns the original, but the copy is immutable and shared.
	var shared *pixel.YV12Image
	for c := range s.clients {
		if c.degrade >= overload.RungDropVideo {
			// Drop-at-server taken to its limit (§4.2): the overloaded
			// client skips the frame entirely; audio keeps flowing.
			st.FramesDropped++
			c.VideoDrops++
			s.met.frameDrops.Inc()
			continue
		}
		var f *pixel.YV12Image
		if c.Scaled() {
			f = c.scaleFrame(st, frame)
		} else if shared == nil {
			shared = copyFrame(frame)
			f = shared
		} else {
			f = shared
			s.met.fanoutSharedBytes.Add(int64(shared.Size()))
		}
		cmd := NewFrame(stream, s.frameSeq, ptsUS, f, st.Dst)
		c.Buf.SetStamp(s.epoch, s.damageNS)
		if c.Buf.AddFrame(cmd) {
			st.FramesDropped++
		}
		c.enforceBudget()
	}
}

// VideoMove implements driver.Driver.
func (s *Server) VideoMove(stream uint32, dst geom.Rect) {
	st, ok := s.streams[stream]
	if !ok {
		return
	}
	old := st.Dst
	st.Dst = dst
	s.stampDamage()
	for c := range s.clients {
		c.add(newCtlCmd(&wire.VideoMove{Stream: stream, Dst: c.scaleRect(dst)}, dst))
		c.streamDst[stream] = dst
	}
	// The software overlay leaves the last frame's pixels at the old
	// position; repaint them from the real framebuffer.
	s.repaintRegion(old)
}

// VideoStop implements driver.Driver.
func (s *Server) VideoStop(stream uint32) {
	st, ok := s.streams[stream]
	delete(s.streams, stream)
	s.stampDamage()
	for c := range s.clients {
		c.add(newCtlCmd(&wire.VideoEnd{Stream: stream}, geom.Rect{}))
		delete(c.streamDst, stream)
	}
	if ok {
		// Clear the vacated overlay: without this the client keeps
		// showing the final video frame over content it never received.
		s.repaintRegion(st.Dst)
	}
}

// repaintRegion pushes the true framebuffer content under r to every
// client — the repair after a software overlay vacates screen area.
// The pixels are read and wrapped once; the fan-out shares the backing
// across clients.
func (s *Server) repaintRegion(r geom.Rect) {
	if s.mem == nil {
		return
	}
	vis := r.Intersect(geom.XYWH(0, 0, s.w, s.h))
	if vis.Empty() {
		return
	}
	s.stampDamage()
	pix := s.mem.ReadPixels(driver.Screen, vis)
	s.fanout(NewRaw(vis, pix, vis.W(), false, s.opts.RawCodec))
}

// Stream returns the state of an active stream (nil if unknown).
func (s *Server) Stream(id uint32) *Stream { return s.streams[id] }

// PushAudio injects timestamped PCM audio from the virtual audio
// driver. The chunk is copied once (the audio driver owns the
// original) and the immutable copy is shared across every client's
// AudioCmd clone.
func (s *Server) PushAudio(ptsUS uint64, data []byte) {
	if len(s.clients) == 0 {
		return
	}
	s.stampDamage()
	s.fanout(NewAudio(ptsUS, append([]byte(nil), data...)))
}

// NotifyInput implements driver.Driver: updates near p become
// real-time for every client (§5).
func (s *Server) NotifyInput(p geom.Point) {
	for c := range s.clients {
		c.Buf.NotifyInput(p)
	}
}

// SetCursor implements driver.Driver: the cursor image travels to every
// client (scaled for small viewports) on the interactive path.
func (s *Server) SetCursor(img []pixel.ARGB, w, h int, hot geom.Point) {
	s.stampDamage()
	s.cursorImg = append([]pixel.ARGB(nil), img...)
	s.cursorW, s.cursorH = w, h
	s.cursorHot = hot
	for c := range s.clients {
		s.sendCursorTo(c)
	}
}

// sendCursorTo ships the current cursor image, scaled for the client.
// Unscaled clients share the server's cursor slice directly: SetCursor
// replaces it wholesale and nothing writes it in place, so the fan-out
// needs no per-client copy.
func (s *Server) sendCursorTo(c *Client) {
	pix, cw, ch, chot := s.cursorImg, s.cursorW, s.cursorH, s.cursorHot
	if c.Scaled() {
		cw = max(1, s.cursorW*c.view.W()/s.w)
		ch = max(1, s.cursorH*c.view.H()/s.h)
		pix = resample.Fant(s.cursorImg, s.cursorW, s.cursorW, s.cursorH, cw, ch)
		chot = geom.Point{X: chot.X * cw / max(1, s.cursorW), Y: chot.Y * ch / max(1, s.cursorH)}
	}
	cmd := newCtlCmd(&wire.CursorSet{HotX: chot.X, HotY: chot.Y, W: cw, H: ch, Pix: pix}, geom.Rect{})
	cmd.rt = true
	c.Buf.SetStamp(s.epoch, s.damageNS)
	c.Buf.Add(cmd)
}

// maybeScalePoint maps a framebuffer point into the client's viewport
// when scaling is active.
func (c *Client) maybeScalePoint(p geom.Point) geom.Point {
	if c.Scaled() {
		return c.scalePoint(p)
	}
	return p
}

// MoveCursor implements driver.Driver: moves are real-time and an
// unsent previous move is superseded.
func (s *Server) MoveCursor(p geom.Point) {
	s.cursorPos = p
	s.stampDamage()
	for c := range s.clients {
		cp := c.maybeScalePoint(p)
		cmd := newCtlCmd(&wire.CursorMove{X: cp.X, Y: cp.Y}, geom.Rect{})
		cmd.rt = true
		c.Buf.SetStamp(s.epoch, s.damageNS)
		c.Buf.AddSlot(cmd, slotCursorMove)
	}
}

func copyFrame(f *pixel.YV12Image) *pixel.YV12Image {
	return &pixel.YV12Image{
		W: f.W, H: f.H,
		Y: append([]byte(nil), f.Y...),
		V: append([]byte(nil), f.V...),
		U: append([]byte(nil), f.U...),
	}
}

var _ driver.Driver = (*Server)(nil)

func (s *Server) String() string {
	return fmt.Sprintf("thinc.Server(%dx%d, %d clients, %d pixmaps)",
		s.w, s.h, len(s.clients), len(s.offscreen))
}
