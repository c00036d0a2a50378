package fb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"thinc/internal/geom"
	"thinc/internal/pixel"
)

func TestNewIsOpaqueBlack(t *testing.T) {
	f := New(4, 3)
	if f.W() != 4 || f.H() != 3 {
		t.Fatal("geometry wrong")
	}
	if f.At(0, 0) != pixel.RGB(0, 0, 0) {
		t.Fatal("fresh framebuffer should be opaque black")
	}
}

func TestSetAtBounds(t *testing.T) {
	f := New(4, 4)
	f.Set(2, 2, pixel.RGB(1, 2, 3))
	if f.At(2, 2) != pixel.RGB(1, 2, 3) {
		t.Error("Set/At round trip failed")
	}
	f.Set(-1, 0, pixel.RGB(9, 9, 9)) // must not panic
	f.Set(4, 4, pixel.RGB(9, 9, 9))
	if f.At(-1, 0) != 0 || f.At(4, 4) != 0 {
		t.Error("out-of-bounds At should be zero")
	}
}

func TestFillSolid(t *testing.T) {
	f := New(10, 10)
	red := pixel.RGB(255, 0, 0)
	f.FillSolid(geom.XYWH(2, 2, 4, 4), red)
	if f.At(2, 2) != red || f.At(5, 5) != red {
		t.Error("inside not filled")
	}
	if f.At(1, 2) == red || f.At(6, 6) == red {
		t.Error("outside was filled")
	}
	// Clipping: fill overlapping the edge must not panic.
	f.FillSolid(geom.XYWH(-5, -5, 100, 100), red)
	if f.At(0, 0) != red || f.At(9, 9) != red {
		t.Error("clipped fill incomplete")
	}
}

func TestFillTileAnchoring(t *testing.T) {
	f := New(8, 8)
	// 2x2 checkerboard tile.
	a, b := pixel.RGB(255, 255, 255), pixel.RGB(0, 0, 255)
	tile := NewTile(2, 2, []pixel.ARGB{a, b, b, a})
	// Two adjacent fills must align seamlessly because tiling is anchored
	// at the surface origin, not the fill origin.
	f.FillTile(geom.XYWH(0, 0, 4, 8), tile)
	f.FillTile(geom.XYWH(4, 0, 4, 8), tile)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			want := a
			if (x+y)%2 == 1 {
				want = b
			}
			if f.At(x, y) != want {
				t.Fatalf("tile misaligned at (%d,%d)", x, y)
			}
		}
	}
}

func TestBitmapBits(t *testing.T) {
	bm := NewBitmap(10, 3)
	bm.SetBit(9, 2, true)
	bm.SetBit(0, 0, true)
	if !bm.BitAt(9, 2) || !bm.BitAt(0, 0) || bm.BitAt(5, 1) {
		t.Error("bitmap get/set wrong")
	}
	bm.SetBit(9, 2, false)
	if bm.BitAt(9, 2) {
		t.Error("clear failed")
	}
	if bm.BitAt(-1, 0) || bm.BitAt(10, 0) {
		t.Error("out-of-bounds bits should read false")
	}
	if BitmapStride(10) != 2 || BitmapStride(8) != 1 || BitmapStride(9) != 2 {
		t.Error("stride wrong")
	}
}

// concatBitmapsPerBit is the bit-at-a-time concatenation the text-run
// merge used before ConcatBitmaps: the oracle the byte-shifting version
// must match byte for byte (cache digests hash the packed rows).
func concatBitmapsPerBit(a, b *Bitmap) *Bitmap {
	out := NewBitmap(a.W+b.W, a.H)
	for y := 0; y < a.H; y++ {
		for x := 0; x < a.W; x++ {
			out.SetBit(x, y, a.BitAt(x, y))
		}
		for x := 0; x < b.W; x++ {
			out.SetBit(a.W+x, y, b.BitAt(x, y))
		}
	}
	return out
}

// TestConcatBitmapsMatchesPerBit: every left width 0-40 (so every
// a.W%8 with zero, one and several whole bytes before it) against every
// right width 0-40, random heights, and sources whose padding bits are
// dirty — the result's rows must still be zero-padded.
func TestConcatBitmapsMatchesPerBit(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	dirty := func(w, h int) *Bitmap {
		bm := NewBitmap(w, h)
		rnd.Read(bm.Bits) // padding bits included
		return bm
	}
	for aw := 0; aw <= 40; aw++ {
		for bw := 0; bw <= 40; bw++ {
			h := rnd.Intn(9)
			a, b := dirty(aw, h), dirty(bw, h)
			aBits, bBits := append([]byte(nil), a.Bits...), append([]byte(nil), b.Bits...)
			got, want := ConcatBitmaps(a, b), concatBitmapsPerBit(a, b)
			if got.W != want.W || got.H != want.H || string(got.Bits) != string(want.Bits) {
				t.Fatalf("%d+%d wide, %d high: got %x, want %x", aw, bw, h, got.Bits, want.Bits)
			}
			if string(a.Bits) != string(aBits) || string(b.Bits) != string(bBits) {
				t.Fatalf("%d+%d wide: a source bitmap was modified", aw, bw)
			}
		}
	}
}

func TestConcatBitmapsHeightMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("concatenating bitmaps of unequal height should panic")
		}
	}()
	ConcatBitmaps(NewBitmap(3, 2), NewBitmap(3, 4))
}

func TestFillBitmapOpaqueAndTransparent(t *testing.T) {
	f := New(6, 2)
	f.FillSolid(f.Bounds(), pixel.RGB(10, 10, 10))
	bm := NewBitmap(3, 1)
	bm.SetBit(0, 0, true)
	bm.SetBit(2, 0, true)
	fg, bg := pixel.RGB(255, 0, 0), pixel.RGB(0, 255, 0)

	f.FillBitmap(geom.XYWH(0, 0, 3, 1), bm, fg, bg, false)
	if f.At(0, 0) != fg || f.At(1, 0) != bg || f.At(2, 0) != fg {
		t.Error("opaque stipple wrong")
	}
	f.FillBitmap(geom.XYWH(0, 1, 3, 1), bm, fg, bg, true)
	if f.At(0, 1) != fg || f.At(1, 1) != pixel.RGB(10, 10, 10) {
		t.Error("transparent stipple wrong")
	}
}

func TestFillBitmapAlphaText(t *testing.T) {
	// Anti-aliased text: a half-alpha foreground must blend, not replace.
	f := New(2, 1)
	f.FillSolid(f.Bounds(), pixel.RGB(0, 0, 0))
	bm := NewBitmap(2, 1)
	bm.SetBit(0, 0, true)
	f.FillBitmap(geom.XYWH(0, 0, 2, 1), bm, pixel.PackARGB(128, 255, 255, 255), 0, true)
	got := f.At(0, 0)
	if got.R() < 120 || got.R() > 136 {
		t.Errorf("half-alpha glyph pixel R=%d, want ~128", got.R())
	}
}

func TestCopyNonOverlapping(t *testing.T) {
	f := New(10, 10)
	f.FillSolid(geom.XYWH(0, 0, 2, 2), pixel.RGB(200, 0, 0))
	f.Copy(geom.XYWH(0, 0, 2, 2), geom.Point{X: 6, Y: 6})
	if f.At(6, 6) != pixel.RGB(200, 0, 0) || f.At(7, 7) != pixel.RGB(200, 0, 0) {
		t.Error("copy destination wrong")
	}
	if f.At(0, 0) != pixel.RGB(200, 0, 0) {
		t.Error("copy must not disturb source")
	}
}

// TestCopyOverlapProperty verifies overlap-safe copies against a
// two-buffer model for random geometry — the scroll correctness property.
func TestCopyOverlapProperty(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		fb := New(24, 24)
		for y := 0; y < 24; y++ {
			for x := 0; x < 24; x++ {
				fb.Set(x, y, pixel.RGB(uint8(x*11), uint8(y*7), uint8(seed)))
			}
		}
		src := geom.XYWH(rnd.Intn(20)-4, rnd.Intn(20)-4, rnd.Intn(16), rnd.Intn(16))
		dst := geom.Point{X: rnd.Intn(28) - 4, Y: rnd.Intn(28) - 4}

		// Model: read through a snapshot so overlap cannot matter.
		want := fb.Clone()
		snap := fb.Clone()
		want.CopyFrom(snap, src, dst)

		fb.Copy(src, dst)
		return fb.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestCopyFromOtherBuffer(t *testing.T) {
	src := New(4, 4)
	src.FillSolid(src.Bounds(), pixel.RGB(0, 99, 0))
	dst := New(8, 8)
	dst.CopyFrom(src, geom.XYWH(1, 1, 3, 3), geom.Point{X: 5, Y: 5})
	if dst.At(5, 5) != pixel.RGB(0, 99, 0) || dst.At(7, 7) != pixel.RGB(0, 99, 0) {
		t.Error("cross-buffer copy wrong")
	}
	if dst.At(4, 4) == pixel.RGB(0, 99, 0) {
		t.Error("copied outside destination")
	}
}

func TestPutReadImageRoundTrip(t *testing.T) {
	f := New(10, 10)
	r := geom.XYWH(3, 4, 4, 3)
	img := make([]pixel.ARGB, r.Area())
	for i := range img {
		img[i] = pixel.RGB(uint8(i), uint8(i*2), uint8(i*3))
	}
	f.PutImage(r, img, r.W())
	got := f.ReadImage(r)
	for i := range img {
		if got[i] != img[i] {
			t.Fatalf("pixel %d mismatch", i)
		}
	}
}

func TestPutImageClips(t *testing.T) {
	f := New(4, 4)
	r := geom.XYWH(2, 2, 4, 4) // hangs off the edge
	img := make([]pixel.ARGB, r.Area())
	for i := range img {
		img[i] = pixel.RGB(9, 9, 9)
	}
	f.PutImage(r, img, r.W()) // must not panic
	if f.At(3, 3) != pixel.RGB(9, 9, 9) {
		t.Error("in-bounds part not written")
	}
}

func TestCompositeOver(t *testing.T) {
	f := New(2, 1)
	f.FillSolid(f.Bounds(), pixel.RGB(0, 0, 0))
	img := []pixel.ARGB{pixel.PackARGB(128, 255, 0, 0), pixel.PackARGB(0, 255, 0, 0)}
	f.CompositeOver(geom.XYWH(0, 0, 2, 1), img, 2)
	if r := f.At(0, 0).R(); r < 120 || r > 136 {
		t.Errorf("composite R=%d, want ~128", r)
	}
	if f.At(1, 0) != pixel.RGB(0, 0, 0) {
		t.Error("transparent pixel must not change dst")
	}
}

func TestOverlayYV12FullScreen(t *testing.T) {
	f := New(64, 48)
	// Solid-color 16x12 video frame scaled full screen.
	pix := make([]pixel.ARGB, 16*12)
	for i := range pix {
		pix[i] = pixel.RGB(50, 100, 150)
	}
	frame := pixel.EncodeYV12(pix, 16, 16, 12)
	f.OverlayYV12(f.Bounds(), frame)
	got := f.At(32, 24)
	for _, d := range []int{int(got.R()) - 50, int(got.G()) - 100, int(got.B()) - 150} {
		if d < -8 || d > 8 {
			t.Fatalf("overlay color drifted: %v", got)
		}
	}
}

func TestDiffRegion(t *testing.T) {
	a := New(16, 16)
	b := a.Clone()
	if d := a.DiffRegion(b); !d.Empty() {
		t.Fatal("identical buffers should have empty diff")
	}
	b.FillSolid(geom.XYWH(4, 4, 3, 3), pixel.RGB(255, 0, 0))
	d := a.DiffRegion(b)
	if d.Area() != 9 || d.Bounds() != geom.XYWH(4, 4, 3, 3) {
		t.Errorf("diff = %v area %d", d.Bounds(), d.Area())
	}
}

func TestEqualInChecksum(t *testing.T) {
	a := New(8, 8)
	b := a.Clone()
	if !a.Equal(b) || a.Checksum() != b.Checksum() {
		t.Fatal("clones must be equal")
	}
	b.Set(7, 7, pixel.RGB(1, 1, 1))
	if a.Equal(b) || a.Checksum() == b.Checksum() {
		t.Error("difference not detected")
	}
	if !a.EqualIn(b, geom.XYWH(0, 0, 7, 7)) {
		t.Error("EqualIn should ignore the changed pixel")
	}
	if a.EqualIn(b, geom.XYWH(6, 6, 2, 2)) {
		t.Error("EqualIn missed the changed pixel")
	}
}

func BenchmarkFillSolid(b *testing.B) {
	f := New(1024, 768)
	r := geom.XYWH(0, 0, 1024, 768)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.FillSolid(r, pixel.RGB(uint8(i), 0, 0))
	}
}

func BenchmarkCopyScroll(b *testing.B) {
	f := New(1024, 768)
	src := geom.XYWH(0, 16, 1024, 752)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Copy(src, geom.Point{X: 0, Y: 0})
	}
}
