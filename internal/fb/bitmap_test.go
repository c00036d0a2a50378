package fb

import (
	"fmt"
	"math/rand"
	"testing"

	"thinc/internal/geom"
	"thinc/internal/pixel"
)

// fillBitmapPerPixel is the pixel-at-a-time stipple fill FillBitmap
// replaced: one BitAt and one composite per pixel. It is the oracle the
// byte-wise kernel must match pixel for pixel.
func fillBitmapPerPixel(f *Framebuffer, r geom.Rect, bm *Bitmap, fg, bg pixel.ARGB, transparent bool) {
	clipped := f.clip(r)
	for y := clipped.Y0; y < clipped.Y1; y++ {
		by := y - r.Y0
		for x := clipped.X0; x < clipped.X1; x++ {
			bx := x - r.X0
			idx := y*f.w + x
			if bm.BitAt(bx%bm.W, by%bm.H) {
				f.pix[idx] = compositePerPixel(fg, f.pix[idx])
			} else if !transparent {
				f.pix[idx] = compositePerPixel(bg, f.pix[idx])
			}
		}
	}
}

func compositePerPixel(src, dst pixel.ARGB) pixel.ARGB {
	if src.Opaque() {
		return src
	}
	return pixel.Over(src, dst)
}

// dirtyBitmap returns a w x h bitmap of random bits, padding included.
func dirtyBitmap(rnd *rand.Rand, w, h int) *Bitmap {
	bm := NewBitmap(w, h)
	rnd.Read(bm.Bits)
	return bm
}

// randomSurface returns a w x h framebuffer of random pixels, some of
// them translucent, so blends and untouched pixels are both visible.
func randomSurface(rnd *rand.Rand, w, h int) *Framebuffer {
	f := New(w, h)
	for i := range f.pix {
		f.pix[i] = pixel.ARGB(rnd.Uint32())
	}
	return f
}

// checkFillBitmap paints the same stipple through FillBitmap and the
// oracle on copies of dst and reports the first differing pixel.
func checkFillBitmap(t *testing.T, dst *Framebuffer, r geom.Rect, bm *Bitmap, fg, bg pixel.ARGB, transparent bool) {
	t.Helper()
	bits := append([]byte(nil), bm.Bits...)
	got, want := dst.Clone(), dst.Clone()
	got.FillBitmap(r, bm, fg, bg, transparent)
	fillBitmapPerPixel(want, r, bm, fg, bg, transparent)
	if string(bm.Bits) != string(bits) {
		t.Fatalf("FillBitmap modified the stipple")
	}
	if got.Equal(want) {
		return
	}
	d := got.DiffRegion(want)
	p := d.Rects()[0]
	t.Fatalf("rect %v, stipple %dx%d, fg %08x bg %08x transparent=%v: pixel (%d,%d) = %08x, want %08x",
		r, bm.W, bm.H, uint32(fg), uint32(bg), transparent, p.X0, p.Y0,
		uint32(got.At(p.X0, p.Y0)), uint32(want.At(p.X0, p.Y0)))
}

// TestFillBitmapMatchesPerPixel: stipple widths 1-17 (every bit offset,
// zero to two whole bytes), rects larger than the stipple (wrap in both
// directions) and hanging off each of the four sides, opaque, alpha and
// fully transparent colours, opaque and transparent stipples.
func TestFillBitmapMatchesPerPixel(t *testing.T) {
	rnd := rand.New(rand.NewSource(27))
	colors := []pixel.ARGB{
		pixel.RGB(255, 0, 0), pixel.RGB(0, 0, 255),
		pixel.PackARGB(128, 255, 255, 255), pixel.PackARGB(1, 9, 99, 200), 0,
	}
	const fw, fh = 40, 24
	rects := []geom.Rect{
		geom.XYWH(3, 2, 30, 18),     // inside
		geom.XYWH(-7, 4, 20, 9),     // off the left
		geom.XYWH(30, 5, 19, 9),     // off the right
		geom.XYWH(5, -6, 17, 13),    // off the top
		geom.XYWH(9, 17, 23, 15),    // off the bottom
		geom.XYWH(-11, -5, 70, 40),  // off all four
		geom.XYWH(12, 7, 1, 1),      // one pixel
		geom.XYWH(-50, -50, 10, 10), // nothing visible
	}
	for w := 1; w <= 17; w++ {
		for _, r := range rects {
			h := 1 + rnd.Intn(9)
			bm := dirtyBitmap(rnd, w, h)
			for _, transparent := range []bool{false, true} {
				fg := colors[rnd.Intn(len(colors))]
				bg := colors[rnd.Intn(len(colors))]
				checkFillBitmap(t, randomSurface(rnd, fw, fh), r, bm, fg, bg, transparent)
			}
		}
	}
	// Uniform stipples take the all-set / all-clear spans.
	for _, fill := range []byte{0x00, 0xFF} {
		bm := NewBitmap(13, 3)
		for i := range bm.Bits {
			bm.Bits[i] = fill
		}
		for _, c := range colors {
			checkFillBitmap(t, randomSurface(rnd, fw, fh), geom.XYWH(-3, 1, 37, 20), bm, c, colors[1], false)
			checkFillBitmap(t, randomSurface(rnd, fw, fh), geom.XYWH(-3, 1, 37, 20), bm, colors[0], c, true)
		}
	}
}

// TestFillBitmapEmptyStipple: a stipple with no columns or rows paints
// nothing instead of dividing by zero.
func TestFillBitmapEmptyStipple(t *testing.T) {
	f := New(4, 4)
	want := f.Clone()
	f.FillBitmap(f.Bounds(), NewBitmap(0, 3), pixel.RGB(255, 0, 0), pixel.RGB(0, 255, 0), false)
	f.FillBitmap(f.Bounds(), NewBitmap(3, 0), pixel.RGB(255, 0, 0), pixel.RGB(0, 255, 0), false)
	if !f.Equal(want) {
		t.Fatal("an empty stipple painted pixels")
	}
}

// FuzzFillBitmap lets the fuzzer pick the rectangle, the stipple and the
// colours, and compares the byte-wise kernel with the per-pixel oracle.
func FuzzFillBitmap(f *testing.F) {
	f.Add(int8(0), int8(0), uint8(8), uint8(8), uint8(6), uint8(10), uint32(0xFFFF0000), uint32(0xFF0000FF), false, []byte{0x5A, 0xC3})
	f.Add(int8(-5), int8(3), uint8(40), uint8(5), uint8(13), uint8(2), uint32(0x80FFFFFF), uint32(0), true, []byte{0xFF, 0x00, 0x81})
	f.Add(int8(20), int8(-4), uint8(17), uint8(30), uint8(1), uint8(1), uint32(0x00000000), uint32(0x7F102030), false, []byte{0x80})
	f.Fuzz(func(t *testing.T, x, y int8, w, h, bw, bh uint8, fg, bg uint32, transparent bool, bits []byte) {
		const fw, fh = 32, 24
		bm := NewBitmap(int(bw%40)+1, int(bh%20)+1)
		copy(bm.Bits, bits)
		r := geom.XYWH(int(x)%48, int(y)%48, int(w)%80, int(h)%60)
		dst := randomSurface(rand.New(rand.NewSource(int64(len(bits)))), fw, fh)
		checkFillBitmap(t, dst, r, bm, pixel.ARGB(fg), pixel.ARGB(bg), transparent)
	})
}

// BenchmarkFillBitmapTextRun paints an 80-glyph run of 6x10 stipples,
// the shape the text workloads send, with and without a background
// (text drawn by DrawText is transparent: ink only).
func BenchmarkFillBitmapTextRun(b *testing.B) {
	rnd := rand.New(rand.NewSource(1))
	bm := NewBitmap(480, 10)
	for i := range bm.Bits {
		if rnd.Intn(3) == 0 {
			bm.Bits[i] = byte(rnd.Intn(256))
		}
	}
	f := New(1024, 768)
	r := geom.XYWH(16, 32, 480, 10)
	for _, transparent := range []bool{false, true} {
		b.Run(fmt.Sprintf("transparent=%v", transparent), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f.FillBitmap(r, bm, pixel.RGB(0, 0, 0), pixel.RGB(255, 255, 255), transparent)
			}
		})
	}
}
