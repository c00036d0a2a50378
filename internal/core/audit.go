package core

import (
	"thinc/internal/driver"
	"thinc/internal/fb"
	"thinc/internal/overload"
)

// Integrity-audit support in the translation layer (wire v4): the
// per-tile digest index over the session framebuffer, maintained
// incrementally on the draw path, plus the targeted tile-repair
// injection and the per-client audit state that rides the retained
// session (like the degradation rung) across reattach.

// DefaultAuditTile is the tile side used when Options.AuditTileSize is
// zero. 64x64 ARGB tiles are 16 KiB of pixels — big enough that the
// index stays small, small enough that a repair is cheap.
const DefaultAuditTile = 64

// screenSurface is optionally implemented by driver.Memory providers
// that can expose the rendered screen framebuffer directly
// (xserver.Display does). The digest index reads pixels in place
// through it; a Memory without it leaves auditing unsupported.
type screenSurface interface {
	Screen() *fb.Framebuffer
}

// auditTileSize resolves the configured tile side.
func (s *Server) auditTileSize() int {
	if s.opts.AuditTileSize > 0 {
		return s.opts.AuditTileSize
	}
	return DefaultAuditTile
}

// initAudit (re)builds the tile index for the current screen geometry.
// Called from Init; every tile starts dirty.
func (s *Server) initAudit() {
	s.tiles = nil
	if scr, ok := s.mem.(screenSurface); ok && scr.Screen() != nil && s.w > 0 && s.h > 0 {
		s.tiles = fb.NewTileIndex(s.w, s.h, s.auditTileSize())
	}
}

// AuditSupported reports whether the core can serve audit digests —
// the attached Memory must expose its screen surface.
func (s *Server) AuditSupported() bool { return s.tiles != nil }

// AuditGrid returns the audit tile geometry. Zero value when
// unsupported.
func (s *Server) AuditGrid() fb.TileGrid {
	if s.tiles == nil {
		return fb.TileGrid{}
	}
	return s.tiles.Grid()
}

// markAudit dirties the tiles a screen-changing command touched. It is
// called once per broadcast (not per client): the index tracks the
// shared screen, not any client's queue.
func (s *Server) markAudit(cmd Command) {
	if s.tiles != nil {
		s.tiles.MarkRect(cmd.Bounds())
	}
}

// AuditDigests appends the expected digests of tiles [start, start+n)
// to dst, rehashing only tiles dirtied since the last call. The caller
// must hold whatever lock serializes drawing (the digests snapshot the
// screen as of now).
func (s *Server) AuditDigests(start, n int, dst []uint64) []uint64 {
	if s.tiles == nil {
		return dst
	}
	return s.tiles.DigestRange(s.mem.(screenSurface).Screen(), start, n, dst)
}

// AuditOverlayTile reports whether tile i overlaps an active video
// overlay. The server screen never holds video pixels — the client
// composites frames locally — so such tiles legitimately differ and
// the auditor must skip them rather than "repair" live video.
func (s *Server) AuditOverlayTile(i int) bool {
	if s.tiles == nil {
		return false
	}
	r := s.tiles.Grid().Rect(i)
	for _, st := range s.streams {
		if !st.Dst.Intersect(r).Empty() {
			return true
		}
	}
	return false
}

// AuditEligible reports whether the client is in a state where its
// framebuffer should byte-match the server screen once its queue
// drains: settled at the lossless rung (audits are deferred across the
// lossy rungs until the repair refresh lands) and unscaled (a scaled
// viewport never byte-matches the session framebuffer).
func (c *Client) AuditEligible() bool {
	return c.degrade == overload.RungLossless && !c.Scaled()
}

// RepairTiles queues a targeted RAW repaint of each listed tile to the
// client, reading the *current* screen content. Riding the normal add
// path lets overwrite eviction clip any queued command the repair
// supersedes, so SRSF reordering cannot resurrect stale bytes. Returns
// the repaired payload bytes (uncompressed).
func (s *Server) RepairTiles(c *Client, tiles []int) int {
	if s.tiles == nil || s.mem == nil {
		return 0
	}
	g := s.tiles.Grid()
	total := 0
	for _, i := range tiles {
		if i < 0 || i >= g.Tiles() {
			continue
		}
		r := g.Rect(i)
		if r.Empty() {
			continue
		}
		pix := s.mem.ReadPixels(driver.Screen, r)
		c.add(NewRaw(r, pix, r.W(), false, s.opts.RawCodec))
		total += r.Area() * 4
	}
	return total
}

// AuditState is the per-client audit cursor. It lives on the retained
// core.Client, so — like the degradation rung — it rides the session
// across reattach: the probe sequence and miss count are not forgotten
// when the transport drops.
type AuditState struct {
	// Seq numbers probes on this client; replies echo it.
	Seq uint32
	// Cursor is the next tile index of the rotating sampled window.
	Cursor int
	// Misses counts consecutive probes that timed out unanswered.
	Misses int
	// Sweeping marks an escalated full sweep in progress; SweepPos is
	// the next tile to probe and SweepBad accumulates its mismatches.
	Sweeping bool
	SweepPos int
	SweepBad int
}

// Audit returns the client's audit state (always non-nil).
func (c *Client) Audit() *AuditState { return &c.audit }

// ResetSweep clears an in-progress escalation sweep.
func (a *AuditState) ResetSweep() {
	a.Sweeping = false
	a.SweepPos = 0
	a.SweepBad = 0
}
