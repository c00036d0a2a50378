package fb

import (
	"math/rand"
	"runtime"
	"testing"

	"thinc/internal/geom"
	"thinc/internal/pixel"
)

// decodeYV12PerPixel is the per-pixel convert+scale OverlayYV12 used to
// run over all of r, clipped or not: one division pair and one
// YUVToRGB per destination pixel into a dw x dh buffer. It is the
// oracle the row-cached kernel must match.
func decodeYV12PerPixel(img *pixel.YV12Image, dw, dh int) []pixel.ARGB {
	out := make([]pixel.ARGB, dw*dh)
	if img.W == 0 || img.H == 0 || dw == 0 || dh == 0 {
		return out
	}
	cw := (img.W + 1) / 2
	for y := 0; y < dh; y++ {
		sy := y * img.H / dh
		for x := 0; x < dw; x++ {
			sx := x * img.W / dw
			yy := img.Y[sy*img.W+sx]
			u := img.U[(sy/2)*cw+sx/2]
			v := img.V[(sy/2)*cw+sx/2]
			out[y*dw+x] = pixel.YUVToRGB(yy, u, v)
		}
	}
	return out
}

// overlayPerPixel is the old OverlayYV12: decode all of r, then copy the
// visible part.
func overlayPerPixel(f *Framebuffer, r geom.Rect, frame *pixel.YV12Image) {
	if f.clip(r).Empty() {
		return
	}
	f.PutImage(r, decodeYV12PerPixel(frame, r.W(), r.H()), r.W())
}

// randomYV12 returns a w x h frame of random samples.
func randomYV12(rnd *rand.Rand, w, h int) *pixel.YV12Image {
	img := pixel.NewYV12(w, h)
	rnd.Read(img.Y)
	rnd.Read(img.U)
	rnd.Read(img.V)
	return img
}

// checkOverlay overlays frame into r through OverlayYV12 and the oracle
// on copies of dst and reports the first differing pixel.
func checkOverlay(t *testing.T, dst *Framebuffer, r geom.Rect, frame *pixel.YV12Image) {
	t.Helper()
	got, want := dst.Clone(), dst.Clone()
	got.OverlayYV12(r, frame)
	overlayPerPixel(want, r, frame)
	if got.Equal(want) {
		return
	}
	d := got.DiffRegion(want)
	p := d.Rects()[0]
	t.Fatalf("frame %dx%d into %v on %dx%d: pixel (%d,%d) = %08x, want %08x",
		frame.W, frame.H, r, dst.W(), dst.H(), p.X0, p.Y0,
		uint32(got.At(p.X0, p.Y0)), uint32(want.At(p.X0, p.Y0)))
}

// TestOverlayYV12MatchesOracle: odd frame sizes (a side of 1, 3 or 17),
// up- and down-scaling in each axis, r inside the surface, hanging off
// each of the four edges or all of them, one pixel, invisible, and
// frames with no pixels.
func TestOverlayYV12MatchesOracle(t *testing.T) {
	rnd := rand.New(rand.NewSource(33))
	const fw, fh = 40, 30
	sizes := [][2]int{{1, 1}, {1, 17}, {17, 1}, {3, 3}, {3, 17}, {17, 3}, {17, 17}, {16, 12}, {64, 48}, {35, 9}}
	rects := []geom.Rect{
		geom.XYWH(0, 0, fw, fh),     // full surface
		geom.XYWH(4, 3, 25, 19),     // inside
		geom.XYWH(-9, 5, 22, 11),    // off the left
		geom.XYWH(31, 4, 20, 13),    // off the right
		geom.XYWH(6, -7, 17, 15),    // off the top
		geom.XYWH(8, 21, 23, 16),    // off the bottom
		geom.XYWH(-13, -6, 71, 45),  // off all four
		geom.XYWH(12, 7, 1, 1),      // one pixel
		geom.XYWH(5, 5, 3, 2),       // smaller than most frames
		geom.XYWH(-50, -50, 10, 10), // nothing visible
	}
	for _, sz := range sizes {
		frame := randomYV12(rnd, sz[0], sz[1])
		for _, r := range rects {
			checkOverlay(t, randomSurface(rnd, fw, fh), r, frame)
		}
	}
	for _, sz := range [][2]int{{0, 0}, {0, 5}, {5, 0}} {
		for _, r := range rects {
			checkOverlay(t, randomSurface(rnd, fw, fh), r, pixel.NewYV12(sz[0], sz[1]))
		}
	}
	// Wider than the kernel's on-stack scratch: the heap fallback.
	checkOverlay(t, randomSurface(rnd, 1100, 4), geom.XYWH(-5, -1, 1200, 6), randomYV12(rnd, 1500, 3))
	// DecodeYV12 is the same kernel over a whole buffer.
	frame := randomYV12(rnd, 17, 3)
	for _, d := range [][2]int{{17, 3}, {40, 7}, {5, 2}, {1, 1}, {0, 4}} {
		got, want := pixel.DecodeYV12(frame, d[0], d[1]), decodeYV12PerPixel(frame, d[0], d[1])
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("DecodeYV12 to %dx%d: pixel %d = %08x, want %08x", d[0], d[1], i, uint32(got[i]), uint32(want[i]))
			}
		}
	}
}

// TestOverlayYV12HugeDestination: a destination the size of the whole
// u16 wire range costs only its visible part. Decoding all of it first
// would allocate about 17 GB.
func TestOverlayYV12HugeDestination(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	frame := randomYV12(rnd, 16, 12)
	r := geom.XYWH(0, 0, 65535, 65535)
	f := randomSurface(rnd, 64, 48)
	want := f.Clone()
	// The oracle cannot decode all of r either. At this scale every
	// visible pixel samples source pixel (0, 0).
	want.FillSolid(want.Bounds(), pixel.YUVToRGB(frame.Y[0], frame.U[0], frame.V[0]))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f.OverlayYV12(r, frame)
	runtime.ReadMemStats(&after)
	if !f.Equal(want) {
		t.Fatal("visible part differs from the oracle")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 64<<10 {
		t.Errorf("overlay allocated %d bytes, want < 64 KB", d)
	}
	if n := testing.AllocsPerRun(10, func() { f.OverlayYV12(r, frame) }); n > 1 {
		t.Errorf("overlay allocates %v times per call", n)
	}
}

// TestOverlayYV12Allocs pins the video path's memory: the full-screen
// overlay of a 352x240 frame allocates at most once per call (the
// per-pixel path allocated its 3 MB output every time) and at most
// 16 KB.
func TestOverlayYV12Allocs(t *testing.T) {
	frame := randomYV12(rand.New(rand.NewSource(1)), 352, 240)
	f := New(1024, 768)
	if n := testing.AllocsPerRun(20, func() { f.OverlayYV12(f.Bounds(), frame) }); n > 1 {
		t.Errorf("OverlayYV12 allocates %v times per call, want <= 1", n)
	}
	const calls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		f.OverlayYV12(f.Bounds(), frame)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per > 16<<10 {
		t.Errorf("OverlayYV12 allocates %d bytes per call, want <= 16 KB", per)
	}
}

// FuzzOverlayYV12 lets the fuzzer pick the frame, the destination and
// the surface, and compares the kernel with the per-pixel oracle.
func FuzzOverlayYV12(f *testing.F) {
	f.Add(uint8(16), uint8(12), int8(0), int8(0), uint8(40), uint8(30), uint8(40), uint8(30), []byte{1, 2, 3})
	f.Add(uint8(17), uint8(3), int8(-9), int8(5), uint8(70), uint8(9), uint8(33), uint8(21), []byte{0xff, 0})
	f.Add(uint8(5), uint8(40), int8(20), int8(-4), uint8(3), uint8(90), uint8(7), uint8(50), []byte{})
	f.Add(uint8(0), uint8(4), int8(2), int8(2), uint8(10), uint8(10), uint8(12), uint8(12), []byte{9})
	f.Fuzz(func(t *testing.T, w, h uint8, x, y int8, dw, dh, fw, fh uint8, seed []byte) {
		var s int64
		for _, b := range seed {
			s = s*131 + int64(b)
		}
		rnd := rand.New(rand.NewSource(s))
		frame := randomYV12(rnd, int(w%70), int(h%70))
		r := geom.XYWH(int(x), int(y), int(dw), int(dh))
		checkOverlay(t, randomSurface(rnd, int(fw%64)+1, int(fh%64)+1), r, frame)
	})
}

// BenchmarkOverlayYV12 is the video workload's client apply and server
// paint: a 352x240 frame scaled to a 1024x768 screen.
func BenchmarkOverlayYV12(b *testing.B) {
	frame := randomYV12(rand.New(rand.NewSource(1)), 352, 240)
	f := New(1024, 768)
	b.SetBytes(int64(frame.Size()))
	b.ReportAllocs()
	for b.Loop() {
		f.OverlayYV12(f.Bounds(), frame)
	}
}
