// Package core implements THINC's contribution: the translation layer
// that turns video-driver-level drawing operations into protocol
// commands (§4), the command queues with partial/complete/transparent
// overwrite semantics that keep only relevant commands buffered, the
// offscreen drawing awareness (§4.1), the video stream objects (§4.2),
// the SRSF multi-queue scheduler with real-time prioritization and
// non-blocking flush (§5), and server-side screen scaling (§6).
package core

import (
	"sync/atomic"

	"thinc/internal/compress"
	"thinc/internal/fb"
	"thinc/internal/geom"
	"thinc/internal/pixel"
	"thinc/internal/wire"
)

// Class is a command's overwrite behaviour (§4): it governs how the
// command evicts and is evicted from command queues, and what the
// scheduler may reorder (§5).
type Class uint8

// Overwrite classes.
const (
	// Partial commands are opaque and may be partially overwritten:
	// their live region shrinks as later commands cover it.
	Partial Class = iota
	// Complete commands are opaque but evicted only when fully covered.
	// They are small, which pins them to the first scheduler queue and
	// preserves arrival-order correctness (§5).
	Complete
	// Transparent commands blend with prior content: they evict nothing
	// and must be delivered after everything they depend on.
	Transparent
)

func (c Class) String() string {
	switch c {
	case Partial:
		return "partial"
	case Complete:
		return "complete"
	case Transparent:
		return "transparent"
	default:
		return "unknown"
	}
}

// Command is a protocol command object: the unit the translation layer
// produces, command queues manage, and the scheduler delivers. Concrete
// commands implement the generic interface so queues can manipulate them
// without knowing their specifics (§4).
type Command interface {
	// Class returns the overwrite class.
	Class() Class
	// Bounds returns the command's full destination rectangle.
	Bounds() geom.Rect
	// Live returns the still-relevant destination region. For Complete
	// and Transparent commands this is always the full bounds.
	Live() *geom.Region
	// ReadsFrom returns the framebuffer region the command reads at
	// execution time (COPY's source); the zero Rect for all others.
	ReadsFrom() geom.Rect
	// CoverOutput removes r from the live region of a Partial command
	// and reports whether the command became irrelevant. For Complete
	// and Transparent commands it only reports full coverage; the
	// caller evicts on true.
	CoverOutput(r geom.Rect) (evict bool)
	// Translate moves the command's destination (and any anchored
	// payload geometry) by (dx, dy) — used when offscreen queues are
	// copied between regions (§4.1).
	Translate(dx, dy int)
	// Clone returns an independent copy; offscreen queue copies must
	// not alias the source queue's state.
	Clone() Command
	// WireSize returns the bytes needed to deliver the live remainder —
	// the quantity SRSF schedules on (§5).
	WireSize() int
	// Emit appends the wire messages delivering the live remainder.
	Emit(dst []wire.Message) []wire.Message
	// Merge tries to absorb other (arriving immediately after) into
	// this command, returning true on success — the update aggregation
	// of §4 (scanline raws, abutting fills).
	Merge(other Command) bool
}

// opaqueBase carries the live-region bookkeeping shared by partial
// commands.
type opaqueBase struct {
	bounds geom.Rect
	live   geom.Region
}

func newOpaqueBase(r geom.Rect) opaqueBase {
	return opaqueBase{bounds: r, live: geom.RegionOf(r)}
}

func (b *opaqueBase) Bounds() geom.Rect    { return b.bounds }
func (b *opaqueBase) Live() *geom.Region   { return &b.live }
func (b *opaqueBase) ReadsFrom() geom.Rect { return geom.Rect{} }
func (b *opaqueBase) CoverOutput(r geom.Rect) bool {
	b.live.SubtractRect(r)
	return b.live.Empty()
}
func (b *opaqueBase) translate(dx, dy int) {
	b.bounds = b.bounds.Translate(dx, dy)
	b.live.Translate(dx, dy)
}

// FillCmd is the SFILL protocol command object.
type FillCmd struct {
	opaqueBase
	Color pixel.ARGB
}

// NewFill builds an SFILL command covering r.
func NewFill(r geom.Rect, c pixel.ARGB) *FillCmd {
	return &FillCmd{opaqueBase: newOpaqueBase(r), Color: c}
}

// Class implements Command.
func (c *FillCmd) Class() Class { return Partial }

// Translate implements Command.
func (c *FillCmd) Translate(dx, dy int) { c.translate(dx, dy) }

// Clone implements Command.
func (c *FillCmd) Clone() Command {
	cp := *c
	cp.live = c.live.Clone()
	return &cp
}

// WireSize implements Command.
func (c *FillCmd) WireSize() int {
	n := 0
	for range c.live.Rects() {
		n += wire.HeaderSize + 12
	}
	return n
}

// Emit implements Command.
func (c *FillCmd) Emit(dst []wire.Message) []wire.Message {
	for _, r := range c.live.Rects() {
		dst = append(dst, &wire.SFill{Rect: r, Color: c.Color})
	}
	return dst
}

// Merge implements Command: same-color fills whose union is an exact
// rectangle are absorbed.
func (c *FillCmd) Merge(other Command) bool {
	o, ok := other.(*FillCmd)
	if !ok || o.Color != c.Color {
		return false
	}
	// Only merge simple single-rect states.
	if c.live.NumRects() != 1 || o.live.NumRects() != 1 {
		return false
	}
	a, b := c.live.Rects()[0], o.live.Rects()[0]
	u := a.Union(b)
	if u.Area() != a.Area()+b.Area()-a.Intersect(b).Area() {
		return false
	}
	c.bounds = c.bounds.Union(o.bounds)
	c.live = geom.RegionOf(u)
	return true
}

// TileCmd is the PFILL protocol command object. The anchor carries the
// tile phase, so clipping the live region or relocating the command
// (offscreen queue copies, §4.1) never shifts the pattern.
type TileCmd struct {
	opaqueBase
	Tile   *fb.Tile
	Anchor geom.Point
}

// NewTile builds a PFILL command covering r with tile phase (0,0).
func NewTile(r geom.Rect, t *fb.Tile) *TileCmd {
	return &TileCmd{opaqueBase: newOpaqueBase(r), Tile: t}
}

// Class implements Command.
func (c *TileCmd) Class() Class { return Partial }

// Translate implements Command: the anchor moves with the content, so
// the relocated fill shows exactly the pixels the copy produced.
func (c *TileCmd) Translate(dx, dy int) {
	c.translate(dx, dy)
	c.Anchor = c.Anchor.Add(geom.Point{X: dx, Y: dy})
}

// Clone implements Command.
func (c *TileCmd) Clone() Command {
	cp := *c
	cp.live = c.live.Clone()
	return &cp
}

// WireSize implements Command.
func (c *TileCmd) WireSize() int {
	per := wire.HeaderSize + 16 + len(c.Tile.Pix)*4
	return per * c.live.NumRects()
}

// Emit implements Command.
func (c *TileCmd) Emit(dst []wire.Message) []wire.Message {
	ax := ((c.Anchor.X % c.Tile.W) + c.Tile.W) % c.Tile.W
	ay := ((c.Anchor.Y % c.Tile.H) + c.Tile.H) % c.Tile.H
	for _, r := range c.live.Rects() {
		dst = append(dst, &wire.PFill{Rect: r, TileW: c.Tile.W, TileH: c.Tile.H,
			Ax: ax, Ay: ay, Tile: c.Tile.Pix})
	}
	return dst
}

// Merge implements Command: abutting fills with the identical tile merge.
func (c *TileCmd) Merge(other Command) bool {
	o, ok := other.(*TileCmd)
	if !ok || o.Tile != c.Tile || o.Anchor != c.Anchor {
		return false
	}
	if c.live.NumRects() != 1 || o.live.NumRects() != 1 {
		return false
	}
	a, b := c.live.Rects()[0], o.live.Rects()[0]
	u := a.Union(b)
	if u.Area() != a.Area()+b.Area()-a.Intersect(b).Area() {
		return false
	}
	c.bounds = c.bounds.Union(o.bounds)
	c.live = geom.RegionOf(u)
	return true
}

// BitmapCmd is the BITMAP protocol command object: a 1-bit stipple with
// fg/bg colors, anchored at its rectangle's origin. Opaque stipples are
// Complete (all-or-nothing eviction keeps bit alignment trivial and they
// are small); transparent or alpha-carrying stipples (anti-aliased text)
// are Transparent.
type BitmapCmd struct {
	Rect        geom.Rect
	Bits        *fb.Bitmap
	Fg, Bg      pixel.ARGB
	Transparent bool
	region      geom.Region
}

// NewBitmap builds a BITMAP command covering r.
func NewBitmap(r geom.Rect, bits *fb.Bitmap, fg, bg pixel.ARGB, transparent bool) *BitmapCmd {
	return &BitmapCmd{Rect: r, Bits: bits, Fg: fg, Bg: bg, Transparent: transparent,
		region: geom.RegionOf(r)}
}

// Class implements Command.
func (c *BitmapCmd) Class() Class {
	if c.Transparent || !c.Fg.Opaque() || !c.Bg.Opaque() {
		return Transparent
	}
	return Complete
}

// Bounds implements Command.
func (c *BitmapCmd) Bounds() geom.Rect { return c.Rect }

// Live implements Command.
func (c *BitmapCmd) Live() *geom.Region { return &c.region }

// ReadsFrom implements Command.
func (c *BitmapCmd) ReadsFrom() geom.Rect {
	if c.Class() == Transparent {
		return c.Rect // blends with what is under it
	}
	return geom.Rect{}
}

// CoverOutput implements Command: evict only on full coverage.
func (c *BitmapCmd) CoverOutput(r geom.Rect) bool { return r.Contains(c.Rect) }

// Translate implements Command.
func (c *BitmapCmd) Translate(dx, dy int) {
	c.Rect = c.Rect.Translate(dx, dy)
	c.region.Translate(dx, dy)
}

// Clone implements Command.
func (c *BitmapCmd) Clone() Command {
	cp := *c
	cp.region = c.region.Clone()
	return &cp
}

// WireSize implements Command.
func (c *BitmapCmd) WireSize() int {
	return wire.HeaderSize + 8 + 4 + 4 + 1 + 4 + len(c.Bits.Bits)
}

// Emit implements Command.
func (c *BitmapCmd) Emit(dst []wire.Message) []wire.Message {
	return append(dst, &wire.Bitmap{
		Rect: c.Rect, Fg: c.Fg, Bg: c.Bg, Transparent: c.Transparent,
		BitW: c.Bits.W, BitH: c.Bits.H, Bits: c.Bits.Bits,
	})
}

// Merge implements Command: horizontally abutting stipples with the
// same colors and height merge into one — the per-character overhead
// §4 calls out collapses into one BITMAP per text run.
func (c *BitmapCmd) Merge(other Command) bool {
	o, ok := other.(*BitmapCmd)
	if !ok || o.Fg != c.Fg || o.Bg != c.Bg || o.Transparent != c.Transparent {
		return false
	}
	a, b := c.Rect, o.Rect
	if a.Y0 != b.Y0 || a.Y1 != b.Y1 || a.X1 != b.X0 {
		return false
	}
	// Merge only pristine commands whose bitmaps exactly tile their
	// rects (no wrap-around stippling in play).
	if c.Bits.W != a.W() || c.Bits.H != a.H() || o.Bits.W != b.W() || o.Bits.H != b.H() {
		return false
	}
	// A fresh bitmap, never an in-place edit: clones share c.Bits.
	c.Bits = fb.ConcatBitmaps(c.Bits, o.Bits)
	c.Rect = geom.Rect{X0: a.X0, Y0: a.Y0, X1: b.X1, Y1: a.Y1}
	c.region = geom.RegionOf(c.Rect)
	return true
}

// CopyCmd is the COPY protocol command object. It is Complete: its
// small, fixed wire size pins it to the first scheduler queue, and its
// source dependency is protected by the buffer's ordering rules (§5).
type CopyCmd struct {
	Src    geom.Rect
	Dst    geom.Point
	region geom.Region
}

// NewCopy builds a COPY of src to dst.
func NewCopy(src geom.Rect, dst geom.Point) *CopyCmd {
	out := geom.XYWH(dst.X, dst.Y, src.W(), src.H())
	return &CopyCmd{Src: src, Dst: dst, region: geom.RegionOf(out)}
}

// Class implements Command.
func (c *CopyCmd) Class() Class { return Complete }

// Bounds implements Command.
func (c *CopyCmd) Bounds() geom.Rect { return geom.XYWH(c.Dst.X, c.Dst.Y, c.Src.W(), c.Src.H()) }

// Live implements Command.
func (c *CopyCmd) Live() *geom.Region { return &c.region }

// ReadsFrom implements Command.
func (c *CopyCmd) ReadsFrom() geom.Rect { return c.Src }

// CoverOutput implements Command.
func (c *CopyCmd) CoverOutput(r geom.Rect) bool { return r.Contains(c.Bounds()) }

// Translate implements Command: both endpoints move (a copy inside a
// region that is itself relocated).
func (c *CopyCmd) Translate(dx, dy int) {
	c.Src = c.Src.Translate(dx, dy)
	c.Dst = c.Dst.Add(geom.Point{X: dx, Y: dy})
	c.region.Translate(dx, dy)
}

// Clone implements Command.
func (c *CopyCmd) Clone() Command {
	cp := *c
	cp.region = c.region.Clone()
	return &cp
}

// WireSize implements Command.
func (c *CopyCmd) WireSize() int { return wire.HeaderSize + 12 }

// Emit implements Command.
func (c *CopyCmd) Emit(dst []wire.Message) []wire.Message {
	return append(dst, &wire.Copy{Src: c.Src, Dst: c.Dst})
}

// Merge implements Command.
func (c *CopyCmd) Merge(Command) bool { return false }

// payloadRefs counts the RawCmd values sharing one pixel backing. The
// session fan-out (one translated command broadcast into N per-client
// buffers) clones the command but shares the backing and bumps the
// count, so an added viewer costs per-client bookkeeping, never a
// payload copy. Elements a command can see — its Pix[0:len) — are never
// rewritten. Merge absorption, the one path that builds a bigger block,
// detaches onto a fresh backing first (setPix) while the backing is
// shared: copy-on-write, so one client's eviction, split, or merge can
// never mutate a sibling's payload. A sole owner (n == 1) instead grows
// into its backing's spare capacity past len, which no other command
// can observe.
type payloadRefs struct {
	n atomic.Int64

	// Content-digest memo (wire v6): a shared backing never changes, so
	// its cache identity is computed once and shared by every fan-out
	// clone; a sole owner growing in place resets it. Geometry and blend
	// ride the digest but are identical across sharers (clones diverge
	// only in live region and codec). Written under the host lock like
	// all command mutation; not atomic.
	dig   uint64
	digOK bool
}

func newPayloadRefs() *payloadRefs {
	r := &payloadRefs{}
	r.n.Store(1)
	return r
}

// RawCmd is the RAW protocol command object: pixel data for a
// rectangle, kept uncompressed in the command object so that partial
// eviction and splitting never pay a recompression round trip; the
// payload is compressed at emit time. Blend marks alpha content the
// client must composite (Transparent class).
//
// The pixel backing is refcounted (payloadRefs) and its elements are
// immutable once written: clones made by the fan-out share it, and
// per-clone state (the live region, the codec rewrite of a degradation
// rung) is all that diverges between clients. Only a sole owner absorbing
// scanlines appends to it (Merge), beyond every existing element.
type RawCmd struct {
	opaqueBase
	Pix   []pixel.ARGB // row-major, stride == bounds.W(); elements immutable, shared
	Blend bool
	Codec compress.Codec

	refs *payloadRefs
}

// NewRaw builds a RAW command for r with the given pixels (stride in
// pixels, re-based to r's origin).
func NewRaw(r geom.Rect, pix []pixel.ARGB, stride int, blend bool, codec compress.Codec) *RawCmd {
	own := make([]pixel.ARGB, r.Area())
	for y := 0; y < r.H(); y++ {
		copy(own[y*r.W():(y+1)*r.W()], pix[y*stride:y*stride+r.W()])
	}
	return &RawCmd{opaqueBase: newOpaqueBase(r), Pix: own, Blend: blend, Codec: codec,
		refs: newPayloadRefs()}
}

// PayloadShares returns how many RawCmd values currently share this
// command's pixel backing (1 = sole owner). It is the observable the
// fan-out tests and amplification metrics assert on.
func (c *RawCmd) PayloadShares() int {
	if c.refs == nil {
		return 1
	}
	return int(c.refs.n.Load())
}

// setPix points c at a fresh private backing — the copy-on-write
// detach. The old backing's count drops; siblings sharing it are
// untouched.
func (c *RawCmd) setPix(pix []pixel.ARGB) {
	if c.refs != nil {
		c.refs.n.Add(-1)
	}
	c.Pix = pix
	c.refs = newPayloadRefs()
}

// release drops c's share of the backing when the command value is
// absorbed (merge) and will never emit.
func (c *RawCmd) release() {
	if c.refs != nil {
		c.refs.n.Add(-1)
		c.refs = nil
	}
}

// Class implements Command.
func (c *RawCmd) Class() Class {
	if c.Blend {
		return Transparent
	}
	return Partial
}

// ReadsFrom implements Command.
func (c *RawCmd) ReadsFrom() geom.Rect {
	if c.Blend {
		return c.bounds
	}
	return geom.Rect{}
}

// CoverOutput implements Command.
func (c *RawCmd) CoverOutput(r geom.Rect) bool {
	if c.Blend {
		return r.Contains(c.bounds)
	}
	return c.opaqueBase.CoverOutput(r)
}

// Translate implements Command.
func (c *RawCmd) Translate(dx, dy int) { c.translate(dx, dy) }

// Clone implements Command. The pixel backing is shared and its
// refcount bumped: the pixels a command holds are never rewritten, so a
// clone costs live-region bookkeeping, not a pixel copy.
func (c *RawCmd) Clone() Command {
	cp := *c
	cp.live = c.live.Clone()
	if c.refs != nil {
		c.refs.n.Add(1)
	}
	return &cp
}

// WireSize implements Command: the uncompressed payload cost of the
// live region (compression happens at emit; scheduling uses the
// conservative size).
func (c *RawCmd) WireSize() int {
	n := 0
	for _, r := range c.live.Rects() {
		n += wire.HeaderSize + 14 + r.Area()*4
	}
	return n
}

// subPixels extracts the pixels of r (which must lie inside bounds).
// When r covers the whole command the stored pixels are returned
// directly (they are never rewritten), skipping the copy.
func (c *RawCmd) subPixels(r geom.Rect) []pixel.ARGB {
	if r == c.bounds {
		return c.Pix
	}
	w := c.bounds.W()
	out := make([]pixel.ARGB, r.Area())
	for y := 0; y < r.H(); y++ {
		srcOff := (r.Y0-c.bounds.Y0+y)*w + (r.X0 - c.bounds.X0)
		copy(out[y*r.W():(y+1)*r.W()], c.Pix[srcOff:srcOff+r.W()])
	}
	return out
}

// Emit implements Command: one RAW message per live rectangle,
// compressed with the command's codec into a pooled payload buffer.
// The buffers travel inside the emitted messages; the delivery layer
// hands them back via RecycleMessages once the transport write is done.
func (c *RawCmd) Emit(dst []wire.Message) []wire.Message {
	for _, r := range c.live.Rects() {
		data, err := compress.EncodeAppend(c.Codec, compress.GetScratch(), c.subPixels(r), r.W(), r.H())
		if err != nil {
			// Encoding raw pixels cannot fail with valid geometry; fall
			// back to uncompressed if a codec misbehaves.
			data, _ = compress.EncodeAppend(compress.CodecNone, data[:0], c.subPixels(r), r.W(), r.H())
			dst = append(dst, &wire.Raw{Rect: r, Codec: compress.CodecNone, Blend: c.Blend, Data: data})
			continue
		}
		dst = append(dst, &wire.Raw{Rect: r, Codec: c.Codec, Blend: c.Blend, Data: data})
	}
	return dst
}

// RecycleMessages returns the pooled payload buffers riding inside
// emitted RAW messages to the codec scratch pool. The delivery layer
// calls it after the transport write completes; paths that retain
// messages (the simulator, the recorder) simply never recycle and the
// pool refills lazily.
func RecycleMessages(msgs []wire.Message) {
	for _, m := range msgs {
		switch r := m.(type) {
		case *wire.Raw:
			if r.Data != nil {
				compress.PutScratch(r.Data)
				r.Data = nil
			}
		case *wire.CacheStore:
			// Only RAW-kind stores carry a pooled compression buffer;
			// bitmap stores alias the command's stipple rows, which the
			// pool must never reclaim.
			if r.Kind == wire.CacheKindRaw && r.Data != nil {
				compress.PutScratch(r.Data)
				r.Data = nil
			}
		}
	}
}

// Merge implements Command: abutting raws merge — vertically stacked
// scanlines into one taller command (the image-rasterization
// aggregation of §4), and horizontally abutting blocks of equal height
// into one wider command (glyph-run conversions under server-side
// scaling).
func (c *RawCmd) Merge(other Command) bool {
	o, ok := other.(*RawCmd)
	if !ok || o.Blend != c.Blend || o.Codec != c.Codec {
		return false
	}
	// Merge only pristine (un-evicted) commands.
	if c.live.NumRects() != 1 || o.live.NumRects() != 1 {
		return false
	}
	a, b := c.bounds, o.bounds
	if c.live.Rects()[0] != a || o.live.Rects()[0] != b {
		return false
	}
	switch {
	case a.X0 == b.X0 && a.X1 == b.X1 && a.Y1 == b.Y0:
		// Vertical stack: the new rows land behind the old ones, in
		// place when c is the sole owner of a backing with room. While a
		// fan-out sibling or offscreen clone shares the backing, or when
		// it is full, c moves to a fresh one first (the copy-on-write
		// detach) sized to at least double, so a run of n scanlines
		// copies O(n) rows in total, not O(n²). Elements [0:len) of a
		// backing are never rewritten either way.
		merged := geom.Rect{X0: a.X0, Y0: a.Y0, X1: a.X1, Y1: b.Y1}
		sole := c.refs != nil && c.refs.n.Load() == 1
		if need := merged.Area(); !sole || need > cap(c.Pix) {
			pix := make([]pixel.ARGB, len(c.Pix), max(need, 2*len(c.Pix)))
			copy(pix, c.Pix)
			c.setPix(pix)
		}
		c.Pix = append(c.Pix, o.Pix...)
		c.refs.digOK = false // the memo described the shorter payload
		o.release()
		c.bounds = merged
		c.live = geom.RegionOf(merged)
		return true
	case a.Y0 == b.Y0 && a.Y1 == b.Y1 && a.X1 == b.X0:
		// Horizontal run: interleave rows.
		merged := geom.Rect{X0: a.X0, Y0: a.Y0, X1: b.X1, Y1: a.Y1}
		pix := make([]pixel.ARGB, 0, merged.Area())
		aw, bw := a.W(), b.W()
		for y := 0; y < a.H(); y++ {
			pix = append(pix, c.Pix[y*aw:(y+1)*aw]...)
			pix = append(pix, o.Pix[y*bw:(y+1)*bw]...)
		}
		c.setPix(pix)
		o.release()
		c.bounds = merged
		c.live = geom.RegionOf(merged)
		return true
	default:
		return false
	}
}

// SplitTop removes and returns a new RawCmd covering at most budget
// bytes of the live region (whole scanline-bands of the first live
// rect), leaving the remainder in c. It returns nil if even a single
// band does not fit. This is the command breaking that keeps the
// server's flush non-blocking (§5).
func (c *RawCmd) SplitTop(budget int) *RawCmd {
	if c.live.Empty() {
		return nil
	}
	r := c.live.Rects()[0]
	perRow := r.W() * 4
	overhead := wire.HeaderSize + 14
	rows := (budget - overhead) / perRow
	if rows <= 0 {
		return nil
	}
	if rows >= r.H() {
		rows = r.H()
	}
	band := geom.Rect{X0: r.X0, Y0: r.Y0, X1: r.X1, Y1: r.Y0 + rows}
	out := NewRaw(band, c.subPixels(band), band.W(), c.Blend, c.Codec)
	c.live.SubtractRect(band)
	return out
}
