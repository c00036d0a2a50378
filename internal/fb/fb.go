// Package fb implements a software framebuffer providing exactly the
// raster operations THINC's protocol relies on the client hardware to
// accelerate: raw image transfer, screen-to-screen copy, solid fill,
// pattern (tile) fill, bitmap (stipple) fill, alpha compositing, and a
// YUV overlay for the video path. The same type backs the server's
// offscreen pixmaps, the local-PC display path, and every client model.
package fb

import (
	"fmt"
	"hash/crc32"

	"thinc/internal/geom"
	"thinc/internal/pixel"
)

// Framebuffer is a w x h surface of ARGB pixels. It is not safe for
// concurrent use; callers serialize access (window servers are
// single-threaded, which THINC's non-blocking pipeline is designed around).
type Framebuffer struct {
	w, h int
	pix  []pixel.ARGB
}

// New allocates a framebuffer initialized to opaque black.
func New(w, h int) *Framebuffer {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("fb.New: negative size %dx%d", w, h))
	}
	f := &Framebuffer{w: w, h: h, pix: make([]pixel.ARGB, w*h)}
	black := pixel.RGB(0, 0, 0)
	for i := range f.pix {
		f.pix[i] = black
	}
	return f
}

// W returns the width in pixels.
func (f *Framebuffer) W() int { return f.w }

// H returns the height in pixels.
func (f *Framebuffer) H() int { return f.h }

// Bounds returns the full-surface rectangle.
func (f *Framebuffer) Bounds() geom.Rect { return geom.XYWH(0, 0, f.w, f.h) }

// Pix returns the backing pixel slice in row-major order.
func (f *Framebuffer) Pix() []pixel.ARGB { return f.pix }

// At returns the pixel at (x, y); out-of-bounds reads return zero.
func (f *Framebuffer) At(x, y int) pixel.ARGB {
	if x < 0 || y < 0 || x >= f.w || y >= f.h {
		return 0
	}
	return f.pix[y*f.w+x]
}

// Set writes the pixel at (x, y); out-of-bounds writes are dropped.
func (f *Framebuffer) Set(x, y int, p pixel.ARGB) {
	if x < 0 || y < 0 || x >= f.w || y >= f.h {
		return
	}
	f.pix[y*f.w+x] = p
}

// clip returns r clipped to the surface.
func (f *Framebuffer) clip(r geom.Rect) geom.Rect {
	return r.Intersect(f.Bounds())
}

// FillSolid paints every pixel of r with color c (the SFILL command).
func (f *Framebuffer) FillSolid(r geom.Rect, c pixel.ARGB) {
	r = f.clip(r)
	for y := r.Y0; y < r.Y1; y++ {
		row := f.pix[y*f.w+r.X0 : y*f.w+r.X1]
		for i := range row {
			row[i] = c
		}
	}
}

// Tile is a small repeating pattern image used by PFILL.
type Tile struct {
	W, H int
	Pix  []pixel.ARGB // row-major, W*H
}

// NewTile builds a tile from its pixels; it panics on a size mismatch so
// protocol decoding bugs surface immediately.
func NewTile(w, h int, pix []pixel.ARGB) *Tile {
	if len(pix) != w*h || w <= 0 || h <= 0 {
		panic(fmt.Sprintf("fb.NewTile: %dx%d with %d pixels", w, h, len(pix)))
	}
	return &Tile{W: w, H: h, Pix: pix}
}

// FillTile tiles r with t, anchored at the surface origin so that
// adjacent fills align seamlessly (the PFILL command).
func (f *Framebuffer) FillTile(r geom.Rect, t *Tile) {
	f.FillTileAnchored(r, t, 0, 0)
}

// FillTileAnchored tiles r with t using tile phase (ax, ay): the tile's
// (0,0) pixel lands on surface coordinates congruent to (ax, ay). THINC
// needs the explicit anchor to preserve pattern alignment when offscreen
// fills are relocated on screen (§4.1).
func (f *Framebuffer) FillTileAnchored(r geom.Rect, t *Tile, ax, ay int) {
	r = f.clip(r)
	for y := r.Y0; y < r.Y1; y++ {
		ty := (((y - ay) % t.H) + t.H) % t.H
		trow := t.Pix[ty*t.W : (ty+1)*t.W]
		frow := f.pix[y*f.w : y*f.w+f.w]
		for x := r.X0; x < r.X1; x++ {
			frow[x] = trow[(((x-ax)%t.W)+t.W)%t.W]
		}
	}
}

// Bitmap is a 1-bit-per-pixel stipple used by the BITMAP command: ones
// take the foreground color, zeros the background (or are skipped when
// transparent), which is how glyph text reaches the client.
type Bitmap struct {
	W, H int
	Bits []byte // rows padded to whole bytes, MSB first
}

// BitmapStride returns the number of bytes per bitmap row for width w.
func BitmapStride(w int) int { return (w + 7) / 8 }

// NewBitmap allocates a cleared bitmap.
func NewBitmap(w, h int) *Bitmap {
	return &Bitmap{W: w, H: h, Bits: make([]byte, BitmapStride(w)*h)}
}

// BitAt returns the stipple bit at (x, y).
func (b *Bitmap) BitAt(x, y int) bool {
	if x < 0 || y < 0 || x >= b.W || y >= b.H {
		return false
	}
	return b.Bits[y*BitmapStride(b.W)+x/8]&(0x80>>uint(x%8)) != 0
}

// SetBit sets the stipple bit at (x, y).
func (b *Bitmap) SetBit(x, y int, v bool) {
	if x < 0 || y < 0 || x >= b.W || y >= b.H {
		return
	}
	mask := byte(0x80 >> uint(x%8))
	idx := y*BitmapStride(b.W) + x/8
	if v {
		b.Bits[idx] |= mask
	} else {
		b.Bits[idx] &^= mask
	}
}

// ConcatBitmaps returns a new bitmap holding a's columns followed by b's
// (equal heights; it panics otherwise) — the text-run aggregation of §4.
// Rows are moved a byte at a time: a's whole bytes are copied, b's are
// shifted in behind a's last partial byte. Padding bits of either source
// are masked off, so the result's rows are zero-padded whatever the
// inputs carried; cache digests and wire vectors hash those bytes.
func ConcatBitmaps(a, b *Bitmap) *Bitmap {
	if a.H != b.H {
		panic(fmt.Sprintf("fb.ConcatBitmaps: heights %d and %d", a.H, b.H))
	}
	out := NewBitmap(a.W+b.W, a.H)
	as, bs, os := BitmapStride(a.W), BitmapStride(b.W), BitmapStride(out.W)
	full, shift := a.W/8, uint(a.W%8)
	aMask := ^byte(0xFF >> shift) // a's valid bits in its partial byte
	bMask := byte(0xFF)           // b's valid bits in its last byte
	if b.W%8 != 0 {
		bMask = ^byte(0xFF >> uint(b.W%8))
	}
	for y := 0; y < a.H; y++ {
		arow, brow, orow := a.Bits[y*as:(y+1)*as], b.Bits[y*bs:(y+1)*bs], out.Bits[y*os:(y+1)*os]
		copy(orow, arow[:full])
		var carry byte
		if shift != 0 {
			carry = arow[full] & aMask
		}
		for i, v := range brow {
			if i == bs-1 {
				v &= bMask
			}
			orow[full+i] = carry | v>>shift
			carry = v << (8 - shift)
		}
		if full+bs < os {
			orow[full+bs] = carry
		}
	}
	return out
}

// FillBitmap paints r using bm as a stipple anchored at r's origin:
// set bits take fg; clear bits take bg, unless transparent is true, in
// which case clear bits leave the destination untouched. When fg or bg
// carry alpha, they are composited with OVER (anti-aliased text relies on
// the alpha channel surviving; see §3 of the paper). A stipple smaller
// than r repeats across it.
//
// Each row is walked a stipple byte at a time, with a column counter that
// wraps at bm.W: a byte's bits that fall inside the row are painted as
// one span, and all-clear or all-set spans (most of a text run) are
// stored without a bit test.
func (f *Framebuffer) FillBitmap(r geom.Rect, bm *Bitmap, fg, bg pixel.ARGB, transparent bool) {
	clipped := f.clip(r)
	if clipped.Empty() || bm.W <= 0 || bm.H <= 0 {
		return
	}
	stride := BitmapStride(bm.W)
	fgOpaque, bgOpaque := fg.Opaque(), bg.Opaque()
	solid := fgOpaque && (transparent || bgOpaque) // mixed bytes store, never blend
	bx0 := (clipped.X0 - r.X0) % bm.W
	by := (clipped.Y0 - r.Y0) % bm.H
	for y := clipped.Y0; y < clipped.Y1; y++ {
		row := bm.Bits[by*stride : (by+1)*stride]
		dst := f.pix[y*f.w+clipped.X0 : y*f.w+clipped.X1]
		for bx := bx0; len(dst) > 0; {
			bit := bx & 7
			n := min(8-bit, bm.W-bx, len(dst))
			v := row[bx>>3] << uint(bit) // the span's first pixel is the MSB
			span := dst[:n]
			switch mask := byte(0xFF) << uint(8-n); v & mask {
			case 0:
				if !transparent {
					paint(span, bg, bgOpaque)
				}
			case mask:
				paint(span, fg, fgOpaque)
			default:
				if solid {
					for i := range span {
						if v&0x80 != 0 {
							span[i] = fg
						} else if !transparent {
							span[i] = bg
						}
						v <<= 1
					}
					break
				}
				for i := range span {
					if v&0x80 != 0 {
						span[i] = composite(fg, fgOpaque, span[i])
					} else if !transparent {
						span[i] = composite(bg, bgOpaque, span[i])
					}
					v <<= 1
				}
			}
			dst = dst[n:]
			if bx += n; bx == bm.W {
				bx = 0
			}
		}
		if by++; by == bm.H {
			by = 0
		}
	}
}

// paint sets every pixel of span to c, or blends c over it when c
// carries alpha.
func paint(span []pixel.ARGB, c pixel.ARGB, opaque bool) {
	if opaque {
		for i := range span {
			span[i] = c
		}
		return
	}
	for i := range span {
		span[i] = pixel.Over(c, span[i])
	}
}

func composite(src pixel.ARGB, opaque bool, dst pixel.ARGB) pixel.ARGB {
	if opaque {
		return src
	}
	return pixel.Over(src, dst)
}

// Copy moves the pixels of src to the rectangle of equal size at dst,
// handling overlapping source and destination correctly (the COPY
// command — scrolling and window moves depend on overlap safety).
func (f *Framebuffer) Copy(src geom.Rect, dst geom.Point) {
	dx, dy := dst.X-src.X0, dst.Y-src.Y0
	// Clip the destination, then back-project to the source so both stay
	// in bounds and congruent.
	dr := f.clip(f.clip(src).Translate(dx, dy))
	sr := dr.Translate(-dx, -dy)
	if dr.Empty() {
		return
	}
	if dy > 0 || (dy == 0 && dx > 0) {
		// Walk backwards to avoid clobbering unread source pixels.
		for y := dr.Y1 - 1; y >= dr.Y0; y-- {
			sy := y - dy
			if dx > 0 {
				for x := dr.X1 - 1; x >= dr.X0; x-- {
					f.pix[y*f.w+x] = f.pix[sy*f.w+x-dx]
				}
			} else {
				copy(f.pix[y*f.w+dr.X0:y*f.w+dr.X1], f.pix[sy*f.w+sr.X0:sy*f.w+sr.X1])
			}
		}
		return
	}
	for y := dr.Y0; y < dr.Y1; y++ {
		sy := y - dy
		copy(f.pix[y*f.w+dr.X0:y*f.w+dr.X1], f.pix[sy*f.w+sr.X0:sy*f.w+sr.X1])
	}
}

// CopyFrom copies the src rectangle of another framebuffer to dst on f
// (pixmap-to-screen and pixmap-to-pixmap transfers).
func (f *Framebuffer) CopyFrom(other *Framebuffer, src geom.Rect, dst geom.Point) {
	dx, dy := dst.X-src.X0, dst.Y-src.Y0
	dr := f.clip(other.clip(src).Translate(dx, dy))
	for y := dr.Y0; y < dr.Y1; y++ {
		sy := y - dy
		copy(f.pix[y*f.w+dr.X0:y*f.w+dr.X1],
			other.pix[sy*other.w+dr.X0-dx:sy*other.w+dr.X1-dx])
	}
}

// PutImage writes the row-major pixels img (stride in pixels) into r
// (the RAW command).
func (f *Framebuffer) PutImage(r geom.Rect, img []pixel.ARGB, stride int) {
	clipped := f.clip(r)
	for y := clipped.Y0; y < clipped.Y1; y++ {
		srow := img[(y-r.Y0)*stride+(clipped.X0-r.X0):]
		copy(f.pix[y*f.w+clipped.X0:y*f.w+clipped.X1], srow[:clipped.W()])
	}
}

// CompositeOver draws img (stride in pixels) over r using Porter-Duff
// OVER — the graphics-compositing path that THINC supports end to end.
func (f *Framebuffer) CompositeOver(r geom.Rect, img []pixel.ARGB, stride int) {
	clipped := f.clip(r)
	for y := clipped.Y0; y < clipped.Y1; y++ {
		srow := img[(y-r.Y0)*stride+(clipped.X0-r.X0):]
		drow := f.pix[y*f.w+clipped.X0 : y*f.w+clipped.X1]
		for i := range drow {
			drow[i] = pixel.Over(srow[i], drow[i])
		}
	}
}

// OverlayYV12 decodes the video frame and scales it into r — the client
// "hardware overlay" that makes full-screen playback cost the same as
// original-size playback (§4.2).
func (f *Framebuffer) OverlayYV12(r geom.Rect, frame *pixel.YV12Image) {
	clipped := f.clip(r)
	if clipped.Empty() {
		return
	}
	rgb := pixel.DecodeYV12(frame, r.W(), r.H())
	f.PutImage(r, rgb, r.W())
}

// ReadImage copies the pixels of r out of the framebuffer (screen
// scraping — what VNC-class systems do, and what THINC falls back to for
// RAW updates).
func (f *Framebuffer) ReadImage(r geom.Rect) []pixel.ARGB {
	r = f.clip(r)
	out := make([]pixel.ARGB, r.Area())
	for y := r.Y0; y < r.Y1; y++ {
		copy(out[(y-r.Y0)*r.W():], f.pix[y*f.w+r.X0:y*f.w+r.X1])
	}
	return out
}

// Clone returns a deep copy of the framebuffer.
func (f *Framebuffer) Clone() *Framebuffer {
	g := &Framebuffer{w: f.w, h: f.h, pix: make([]pixel.ARGB, len(f.pix))}
	copy(g.pix, f.pix)
	return g
}

// Equal reports whether two framebuffers have identical geometry and pixels.
func (f *Framebuffer) Equal(other *Framebuffer) bool {
	if f.w != other.w || f.h != other.h {
		return false
	}
	for i := range f.pix {
		if f.pix[i] != other.pix[i] {
			return false
		}
	}
	return true
}

// EqualIn reports whether the two framebuffers agree on every pixel of r.
func (f *Framebuffer) EqualIn(other *Framebuffer, r geom.Rect) bool {
	r = f.clip(other.clip(r))
	for y := r.Y0; y < r.Y1; y++ {
		for x := r.X0; x < r.X1; x++ {
			if f.pix[y*f.w+x] != other.pix[y*other.w+x] {
				return false
			}
		}
	}
	return true
}

// DiffRegion returns the region where f and other disagree (they must
// have equal geometry). Used by tests and by the screen-scraping
// baselines' dirty-region detection.
func (f *Framebuffer) DiffRegion(other *Framebuffer) geom.Region {
	if f.w != other.w || f.h != other.h {
		panic("fb.DiffRegion: geometry mismatch")
	}
	var rg geom.Region
	for y := 0; y < f.h; y++ {
		x := 0
		for x < f.w {
			if f.pix[y*f.w+x] == other.pix[y*f.w+x] {
				x++
				continue
			}
			x0 := x
			for x < f.w && f.pix[y*f.w+x] != other.pix[y*f.w+x] {
				x++
			}
			rg.UnionRect(geom.Rect{X0: x0, Y0: y, X1: x, Y1: y + 1})
		}
	}
	return rg
}

// Checksum returns a CRC-32 over the pixel contents, for cheap
// equality probes in integration tests.
func (f *Framebuffer) Checksum() uint32 {
	buf := make([]byte, 0, len(f.pix)*4)
	for _, p := range f.pix {
		buf = append(buf, byte(p>>24), byte(p>>16), byte(p>>8), byte(p))
	}
	return crc32.ChecksumIEEE(buf)
}
