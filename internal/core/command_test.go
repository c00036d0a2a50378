package core

import (
	"testing"

	"thinc/internal/compress"
	"thinc/internal/fb"
	"thinc/internal/geom"
	"thinc/internal/pixel"
	"thinc/internal/wire"
)

func mkPix(r geom.Rect, seed uint8) []pixel.ARGB {
	pix := make([]pixel.ARGB, r.Area())
	for i := range pix {
		pix[i] = pixel.RGB(seed, uint8(i), uint8(i>>8))
	}
	return pix
}

func TestFillCmdClassAndClip(t *testing.T) {
	c := NewFill(geom.XYWH(0, 0, 10, 10), pixel.RGB(1, 2, 3))
	if c.Class() != Partial {
		t.Fatal("SFILL must be partial")
	}
	if c.CoverOutput(geom.XYWH(0, 0, 5, 10)) {
		t.Fatal("half-covered fill should survive")
	}
	if c.Live().Area() != 50 {
		t.Fatalf("live area %d, want 50", c.Live().Area())
	}
	if !c.CoverOutput(geom.XYWH(0, 0, 10, 10)) {
		t.Fatal("fully covered fill should be evicted")
	}
}

func TestFillCmdEmitPerLiveRect(t *testing.T) {
	c := NewFill(geom.XYWH(0, 0, 10, 10), pixel.RGB(9, 9, 9))
	c.CoverOutput(geom.XYWH(3, 3, 4, 4)) // punch a hole: 4 rects
	msgs := c.Emit(nil)
	if len(msgs) != c.Live().NumRects() {
		t.Fatalf("emitted %d messages for %d rects", len(msgs), c.Live().NumRects())
	}
	total := 0
	for _, m := range msgs {
		sf := m.(*wire.SFill)
		total += sf.Rect.Area()
		if sf.Color != pixel.RGB(9, 9, 9) {
			t.Fatal("color lost")
		}
	}
	if total != 100-16 {
		t.Fatalf("emitted area %d, want 84", total)
	}
	if c.WireSize() != len(msgs)*(wire.HeaderSize+12) {
		t.Fatalf("WireSize inconsistent")
	}
}

func TestFillCmdMerge(t *testing.T) {
	a := NewFill(geom.XYWH(0, 0, 10, 5), pixel.RGB(1, 1, 1))
	b := NewFill(geom.XYWH(0, 5, 10, 5), pixel.RGB(1, 1, 1))
	if !a.Merge(b) {
		t.Fatal("abutting same-color fills should merge")
	}
	if a.Bounds() != geom.XYWH(0, 0, 10, 10) {
		t.Fatalf("merged bounds %v", a.Bounds())
	}
	// Different color: no merge.
	c := NewFill(geom.XYWH(0, 10, 10, 5), pixel.RGB(2, 2, 2))
	if a.Merge(c) {
		t.Fatal("different colors must not merge")
	}
	// Diagonal (non-rect union): no merge.
	d := NewFill(geom.XYWH(50, 50, 5, 5), pixel.RGB(1, 1, 1))
	if a.Merge(d) {
		t.Fatal("non-rectangular union must not merge")
	}
}

func TestTileCmdTranslateKeepsPhase(t *testing.T) {
	tile := fb.NewTile(4, 4, mkPix(geom.XYWH(0, 0, 4, 4), 7))
	c := NewTile(geom.XYWH(0, 0, 8, 8), tile)
	c.Translate(5, 3)
	msgs := c.Emit(nil)
	pf := msgs[0].(*wire.PFill)
	if pf.Rect != geom.XYWH(5, 3, 8, 8) {
		t.Fatalf("rect %v", pf.Rect)
	}
	if pf.Ax != 1 || pf.Ay != 3 {
		t.Fatalf("anchor (%d,%d), want (1,3)", pf.Ax, pf.Ay)
	}
}

func TestBitmapCmdClasses(t *testing.T) {
	bm := fb.NewBitmap(8, 8)
	opaque := NewBitmap(geom.XYWH(0, 0, 8, 8), bm, pixel.RGB(1, 1, 1), pixel.RGB(2, 2, 2), false)
	if opaque.Class() != Complete {
		t.Error("opaque stipple should be Complete")
	}
	trans := NewBitmap(geom.XYWH(0, 0, 8, 8), bm, pixel.RGB(1, 1, 1), 0, true)
	if trans.Class() != Transparent {
		t.Error("transparent stipple should be Transparent")
	}
	alpha := NewBitmap(geom.XYWH(0, 0, 8, 8), bm, pixel.PackARGB(128, 1, 1, 1), pixel.RGB(0, 0, 0), false)
	if alpha.Class() != Transparent {
		t.Error("alpha stipple should be Transparent")
	}
	// Complete eviction is all-or-nothing.
	if opaque.CoverOutput(geom.XYWH(0, 0, 4, 8)) {
		t.Error("partial cover must not evict Complete command")
	}
	if !opaque.CoverOutput(geom.XYWH(-1, -1, 10, 10)) {
		t.Error("full cover must evict")
	}
}

func TestCopyCmdGeometry(t *testing.T) {
	c := NewCopy(geom.XYWH(0, 16, 100, 50), geom.Point{X: 0, Y: 0})
	if c.Class() != Complete {
		t.Error("COPY is Complete")
	}
	if c.Bounds() != geom.XYWH(0, 0, 100, 50) {
		t.Errorf("bounds %v", c.Bounds())
	}
	if c.ReadsFrom() != geom.XYWH(0, 16, 100, 50) {
		t.Errorf("reads %v", c.ReadsFrom())
	}
	c.Translate(10, 10)
	if c.Src != geom.XYWH(10, 26, 100, 50) || c.Dst != (geom.Point{X: 10, Y: 10}) {
		t.Errorf("translate wrong: %v %v", c.Src, c.Dst)
	}
	if c.WireSize() != wire.HeaderSize+12 {
		t.Errorf("wire size %d", c.WireSize())
	}
}

func TestRawCmdClipAndEmit(t *testing.T) {
	r := geom.XYWH(10, 10, 8, 4)
	c := NewRaw(r, mkPix(r, 1), 8, false, compress.CodecNone)
	if c.Class() != Partial {
		t.Fatal("opaque RAW is partial")
	}
	c.CoverOutput(geom.XYWH(10, 10, 4, 4)) // left half covered
	msgs := c.Emit(nil)
	if len(msgs) != 1 {
		t.Fatalf("%d messages", len(msgs))
	}
	raw := msgs[0].(*wire.Raw)
	if raw.Rect != geom.XYWH(14, 10, 4, 4) {
		t.Fatalf("clipped rect %v", raw.Rect)
	}
	pix, err := raw.Pixels()
	if err != nil {
		t.Fatal(err)
	}
	// Pixel (14,10) corresponds to original offset x=4.
	want := mkPix(r, 1)[4]
	if pix[0] != want {
		t.Fatalf("pixel content shifted: %08x != %08x", pix[0], want)
	}
}

func TestRawCmdBlendIsTransparent(t *testing.T) {
	r := geom.XYWH(0, 0, 4, 4)
	c := NewRaw(r, mkPix(r, 2), 4, true, compress.CodecNone)
	if c.Class() != Transparent {
		t.Fatal("blend RAW must be transparent")
	}
	if c.CoverOutput(geom.XYWH(0, 0, 2, 2)) {
		t.Fatal("partial cover of transparent must not evict")
	}
	if !c.CoverOutput(r) {
		t.Fatal("full cover of transparent must evict")
	}
}

func TestRawCmdMergeScanlines(t *testing.T) {
	r1 := geom.XYWH(5, 0, 16, 1)
	r2 := geom.XYWH(5, 1, 16, 1)
	r3 := geom.XYWH(6, 2, 16, 1) // misaligned
	a := NewRaw(r1, mkPix(r1, 3), 16, false, compress.CodecNone)
	b := NewRaw(r2, mkPix(r2, 4), 16, false, compress.CodecNone)
	if !a.Merge(b) {
		t.Fatal("stacked scanlines should merge")
	}
	if a.Bounds() != geom.XYWH(5, 0, 16, 2) {
		t.Fatalf("merged bounds %v", a.Bounds())
	}
	cmd := NewRaw(r3, mkPix(r3, 5), 16, false, compress.CodecNone)
	if a.Merge(cmd) {
		t.Fatal("misaligned scanline must not merge")
	}
	// Merged pixels preserved row by row.
	msgs := a.Emit(nil)
	pix, _ := msgs[0].(*wire.Raw).Pixels()
	if pix[0] != mkPix(r1, 3)[0] || pix[16] != mkPix(r2, 4)[0] {
		t.Fatal("merged pixel rows wrong")
	}
}

func TestRawCmdSplitTop(t *testing.T) {
	r := geom.XYWH(0, 0, 100, 50)
	c := NewRaw(r, mkPix(r, 6), 100, false, compress.CodecNone)
	total := c.WireSize()
	// Budget for ~10 rows.
	budget := wire.HeaderSize + 14 + 100*4*10
	part := c.SplitTop(budget)
	if part == nil {
		t.Fatal("split failed")
	}
	if part.Bounds() != geom.XYWH(0, 0, 100, 10) {
		t.Fatalf("split band %v", part.Bounds())
	}
	if c.Live().Area() != 100*40 {
		t.Fatalf("remainder area %d", c.Live().Area())
	}
	// Splitting costs exactly one extra message frame.
	if part.WireSize()+c.WireSize() != total+wire.HeaderSize+14 {
		t.Fatalf("split size wrong: %d + %d vs %d", part.WireSize(), c.WireSize(), total)
	}
	// Too-small budget: no split.
	if c.SplitTop(10) != nil {
		t.Fatal("tiny budget should not split")
	}
	// Full-budget split takes everything remaining in the first rect.
	part2 := c.SplitTop(1 << 30)
	if part2 == nil || part2.Bounds().H() != 40 {
		t.Fatal("full split wrong")
	}
	if !c.Live().Empty() {
		t.Fatal("nothing should remain")
	}
}

func TestCloneIndependence(t *testing.T) {
	orig := NewFill(geom.XYWH(0, 0, 10, 10), pixel.RGB(5, 5, 5))
	cl := orig.Clone()
	cl.CoverOutput(geom.XYWH(0, 0, 10, 5))
	if orig.Live().Area() != 100 {
		t.Error("clone clip leaked into original")
	}
	cl.Translate(7, 7)
	if orig.Bounds() != geom.XYWH(0, 0, 10, 10) {
		t.Error("clone translate leaked into original")
	}
}

func TestWireSizeMatchesEmittedBytes(t *testing.T) {
	r := geom.XYWH(2, 3, 12, 7)
	cmds := []Command{
		NewFill(r, pixel.RGB(1, 2, 3)),
		NewCopy(r, geom.Point{X: 50, Y: 60}),
		NewRaw(r, mkPix(r, 9), 12, false, compress.CodecNone),
		NewBitmap(r, fb.NewBitmap(12, 7), pixel.RGB(1, 1, 1), pixel.RGB(2, 2, 2), false),
		NewTile(r, fb.NewTile(3, 3, mkPix(geom.XYWH(0, 0, 3, 3), 1))),
		NewAudio(55, []byte{1, 2, 3}),
	}
	for _, c := range cmds {
		var got int
		for _, m := range c.Emit(nil) {
			got += wire.WireSize(m)
		}
		if got != c.WireSize() {
			t.Errorf("%T: WireSize %d != emitted %d", c, c.WireSize(), got)
		}
	}
}

// TestCommandContract checks the Command interface invariants every
// concrete command must uphold: clone independence, translation moving
// both bounds and live region together, and WireSize matching emission.
func TestCommandContract(t *testing.T) {
	r := geom.XYWH(4, 6, 12, 8)
	frame := pixel.NewYV12(8, 6)
	cmds := []Command{
		NewFill(r, pixel.RGB(9, 8, 7)),
		NewTile(r, fb.NewTile(3, 3, mkPix(geom.XYWH(0, 0, 3, 3), 2))),
		NewRaw(r, mkPix(r, 3), r.W(), false, compress.CodecNone),
		NewRaw(r, mkPix(r, 4), r.W(), true, compress.CodecNone),
		NewBitmap(r, fb.NewBitmap(r.W(), r.H()), pixel.RGB(1, 1, 1), pixel.RGB(2, 2, 2), false),
		NewCopy(geom.XYWH(0, 0, 12, 8), geom.Point{X: 4, Y: 6}),
		NewFrame(3, 1, 500, frame, r),
		NewAudio(123, []byte{1, 2, 3}),
		newCtlCmd(&wire.VideoEnd{Stream: 3}, geom.Rect{}),
	}
	for _, c := range cmds {
		name := func() string { return c.Class().String() }

		// WireSize matches what Emit produces.
		var emitted int
		for _, m := range c.Emit(nil) {
			emitted += wire.WireSize(m)
		}
		if emitted != c.WireSize() {
			t.Errorf("%T (%s): WireSize %d != emitted %d", c, name(), c.WireSize(), emitted)
		}

		// Clone is independent.
		cl := c.Clone()
		origBounds := c.Bounds()
		cl.Translate(100, 100)
		if c.Bounds() != origBounds {
			t.Errorf("%T: clone translate leaked into original", c)
		}
		if !origBounds.Empty() && cl.Bounds() == origBounds {
			t.Errorf("%T: translate did not move clone bounds", c)
		}

		// Live region stays inside bounds for spatial commands.
		if !c.Bounds().Empty() && !c.Live().Empty() {
			bounds := geom.RegionOf(c.Bounds())
			if !bounds.ContainsRect(c.Live().Bounds()) {
				t.Errorf("%T: live %v escapes bounds %v", c, c.Live().Bounds(), c.Bounds())
			}
		}

		// Class is stable and stringable.
		if c.Class().String() == "unknown" {
			t.Errorf("%T: unnamed class", c)
		}
	}
}

func TestBitmapCmdMergeTextRun(t *testing.T) {
	mk := func(x int, ch byte) *BitmapCmd {
		bm := fb.NewBitmap(6, 10)
		bm.SetBit(int(ch)%6, int(ch)%10, true)
		return NewBitmap(geom.XYWH(x, 20, 6, 10), bm,
			pixel.RGB(0, 0, 0), 0, true)
	}
	a := mk(10, 'a')
	b := mk(16, 'b')
	if !a.Merge(b) {
		t.Fatal("abutting glyphs should merge into a run")
	}
	if a.Rect != geom.XYWH(10, 20, 12, 10) {
		t.Fatalf("run rect %v", a.Rect)
	}
	// Bits preserved at their new offsets.
	if !a.Bits.BitAt('a'%6, 'a'%10) {
		t.Error("left glyph ink lost")
	}
	if !a.Bits.BitAt(6+'b'%6, 'b'%10) {
		t.Error("right glyph ink lost")
	}
	// A fan-out clone shares the stipple: merging into the clone leaves
	// its sibling's rect and bits as they were.
	before := string(a.Bits.Bits)
	clone := a.Clone().(*BitmapCmd)
	if !clone.Merge(mk(22, 'e')) {
		t.Fatal("a clone should absorb the next glyph")
	}
	if a.Rect != geom.XYWH(10, 20, 12, 10) || string(a.Bits.Bits) != before {
		t.Error("merging into a clone changed its sibling")
	}
	// Mismatched color or geometry: no merge.
	c := mk(22, 'c')
	c.Fg = pixel.RGB(255, 0, 0)
	if a.Merge(c) {
		t.Fatal("different colors must not merge")
	}
	d := mk(40, 'd') // gap
	if a.Merge(d) {
		t.Fatal("non-abutting glyphs must not merge")
	}
}
