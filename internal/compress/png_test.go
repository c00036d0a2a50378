package compress

import (
	"bytes"
	"image"
	"image/png"
	"math/rand"
	"testing"

	"thinc/internal/driver"
	"thinc/internal/geom"
	"thinc/internal/pixel"
	"thinc/internal/workload"
	"thinc/internal/xserver"
)

// stdlibPNG is the encoder appendPNG replaced: the block copied into an
// *image.NRGBA and written by image/png at BestSpeed. It is the oracle
// appendPNG must match byte for byte.
func stdlibPNG(t testing.TB, pix []pixel.ARGB, w, h int) []byte {
	t.Helper()
	img := image.NewNRGBA(image.Rect(0, 0, w, h))
	for i, p := range pix {
		img.Pix[i*4+0], img.Pix[i*4+1], img.Pix[i*4+2], img.Pix[i*4+3] = p.R(), p.G(), p.B(), p.A()
	}
	var buf bytes.Buffer
	enc := png.Encoder{CompressionLevel: png.BestSpeed, BufferPool: &oracleBuffers}
	if err := enc.Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// oracleBuffers keeps the oracle from building a fresh deflater per
// call; it changes nothing in what image/png writes.
var oracleBuffers oraclePool

type oraclePool struct{ b *png.EncoderBuffer }

func (p *oraclePool) Get() *png.EncoderBuffer  { return p.b }
func (p *oraclePool) Put(b *png.EncoderBuffer) { p.b = b }

// checkPNG encodes pix with CodecPNG behind a non-empty dst and compares
// the appended bytes with the oracle's.
func checkPNG(t testing.TB, name string, pix []pixel.ARGB, w, h int) []byte {
	t.Helper()
	prefix := []byte("prefix")
	got, err := EncodeAppend(CodecPNG, append([]byte(nil), prefix...), pix, w, h)
	if err != nil {
		t.Fatalf("%s %dx%d: %v", name, w, h, err)
	}
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("%s %dx%d: dst prefix overwritten", name, w, h)
	}
	got = got[len(prefix):]
	want := stdlibPNG(t, pix, w, h)
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s %dx%d: %d bytes, want %d; first difference at byte %d", name, w, h, len(got), len(want), i)
	}
	return got
}

// pngContents returns the block shapes the exactness test covers.
func pngContents(rnd *rand.Rand, w, h int) map[string][]pixel.ARGB {
	opaque := randomBlock(rnd, w, h)
	translucent := make([]pixel.ARGB, w*h)
	for i := range translucent {
		translucent[i] = pixel.ARGB(rnd.Uint32())
	}
	lastAlpha := randomBlock(rnd, w, h)
	lastAlpha[len(lastAlpha)-1] &= 0xFEFFFFFF
	gradient := make([]pixel.ARGB, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			gradient[y*w+x] = pixel.RGB(uint8(x*7), uint8(y*13), uint8(x*y))
		}
	}
	// Few distinct values, so the filter sums tie often.
	lowEntropy := make([]pixel.ARGB, w*h)
	for i := range lowEntropy {
		lowEntropy[i] = pixel.PackARGB(0xFF-uint8(rnd.Intn(2)), uint8(rnd.Intn(3)), 0, uint8(rnd.Intn(2)*255))
	}
	repeated := randomBlock(rnd, w, h)
	for y := 1; y < h; y++ {
		if rnd.Intn(3) != 0 {
			copy(repeated[y*w:(y+1)*w], repeated[(y-1)*w:y*w])
		}
	}
	return map[string][]pixel.ARGB{
		"opaque": opaque, "translucent": translucent, "last-pixel-translucent": lastAlpha,
		"solid": flatBlock(w, h, pixel.RGB(240, 248, 255)), "solid-alpha": flatBlock(w, h, pixel.PackARGB(7, 1, 2, 3)),
		"gradient": gradient, "low-entropy": lowEntropy, "repeated-rows": repeated,
	}
}

// TestPNGEncodeMatchesStdlib: CodecPNG writes exactly image/png's bytes
// at every block size from 1x1 to 40x20 over opaque, translucent and
// one-translucent-pixel content, flat, smooth, tie-prone and
// repeated-row blocks; and an incompressible full screen, whose stream
// spans several IDAT chunks.
func TestPNGEncodeMatchesStdlib(t *testing.T) {
	rnd := rand.New(rand.NewSource(39))
	for w := 1; w <= 40; w++ {
		for h := 1; h <= 20; h++ {
			for name, pix := range pngContents(rnd, w, h) {
				checkPNG(t, name, pix, w, h)
			}
		}
	}
	const w, h = 1024, 768
	data := checkPNG(t, "incompressible", randomBlock(rnd, w, h), w, h)
	if n := bytes.Count(data, []byte("IDAT")); n < 2 {
		t.Fatalf("incompressible full screen wrote %d IDAT chunks, want several", n)
	}
}

// TestPNGEncodeMatchesStdlibOnWebPages: every page of the web benchmark,
// encoded as one full screen, matches the oracle byte for byte. Under
// the race detector, which finds nothing in this single-goroutine check
// and slows it twentyfold, every fourth page (image-heavy ones among
// them).
func TestPNGEncodeMatchesStdlibOnWebPages(t *testing.T) {
	const w, h = 1024, 768
	step := 1
	if raceEnabled {
		step = 4
	}
	d := xserver.NewDisplay(w, h, driver.Nop{})
	b := &workload.Browser{Dpy: d, Win: d.CreateWindow(geom.XYWH(0, 0, w, h)), DoubleBuffer: true}
	for i := 0; i < workload.NumPages; i += step {
		b.RenderPage(i)
		checkPNG(t, "web page", d.Screen().Pix(), w, h)
	}
}

// TestPNGEncodeRejectsEmptyBlock: a block with no pixels has no PNG
// form (the format forbids a zero width or height).
func TestPNGEncodeRejectsEmptyBlock(t *testing.T) {
	for _, sz := range [][2]int{{0, 0}, {0, 5}, {5, 0}} {
		if _, err := Encode(CodecPNG, nil, sz[0], sz[1]); err == nil {
			t.Errorf("%dx%d PNG encoded without error", sz[0], sz[1])
		}
	}
}

// TestEncodePNGSteadyStateAllocs: a PNG encode into a dst already large
// enough allocates nothing in the steady state (the image/png path it
// replaced made 12 allocations and a 3 MB NRGBA copy per full screen);
// the bound leaves room for a GC emptying the pools mid-run.
func TestEncodePNGSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	pix := webBlock(t)
	dst, err := Encode(CodecPNG, pix, webBlockW, webBlockH)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := EncodeAppend(CodecPNG, dst[:0], pix, webBlockW, webBlockH); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("%.1f allocations per PNG encode into a sized dst, want at most 1", allocs)
	}
}

// FuzzEncodePNG lets the fuzzer pick the block size and pixels and
// compares CodecPNG with image/png byte for byte.
func FuzzEncodePNG(f *testing.F) {
	f.Add(uint8(3), uint8(2), []byte{0xFF, 1, 2, 3, 0xFF, 4, 5, 6})
	f.Add(uint8(17), uint8(9), []byte{0x80, 0xFF, 0, 0})
	f.Add(uint8(40), uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, w, h uint8, data []byte) {
		bw, bh := int(w%64)+1, int(h%32)+1
		pix := make([]pixel.ARGB, bw*bh)
		for i := range pix {
			// Repeat the input so short inputs still fill the block;
			// opaque-by-default keeps the RGB path reachable.
			var b [4]byte
			for k := range b {
				if len(data) > 0 {
					b[k] = data[(4*i+k)%len(data)]
				}
			}
			if len(data) < 4 {
				b[0] = 0xFF
			}
			pix[i] = pixel.PackARGB(b[0], b[1], b[2], b[3])
		}
		checkPNG(t, "fuzz", pix, bw, bh)
	})
}

// webBlock is the shape of the RAW updates the web benchmark sends: a
// 768x85 band of the photo on an image-heavy page, as it sits on the
// screen after the page is drawn.
const webBlockW, webBlockH = 768, 85

func webBlock(t testing.TB) []pixel.ARGB {
	t.Helper()
	const w, h = 1024, 768
	d := xserver.NewDisplay(w, h, driver.Nop{})
	b := &workload.Browser{Dpy: d, Win: d.CreateWindow(geom.XYWH(0, 0, w, h)), DoubleBuffer: true}
	b.RenderPage(8)
	if !workload.ImageHeavy(8) {
		t.Fatal("page 8 is no longer image-heavy")
	}
	return d.Screen().ReadImage(geom.XYWH(w/8, h/8, webBlockW, webBlockH))
}

func BenchmarkEncodePNGWebBlock(b *testing.B) {
	pix := webBlock(b)
	dst, err := Encode(CodecPNG, pix, webBlockW, webBlockH)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(pix) * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeAppend(CodecPNG, dst[:0], pix, webBlockW, webBlockH); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFilterLanesMatchScalar: the eight-byte filter kernels agree with
// the per-byte definitions on every input: every (x, y) byte pair for
// the byte-lane difference, average and absolute value, and every
// (a, b, c) triple for the 16-bit-lane Paeth predictor.
func TestFilterLanesMatchScalar(t *testing.T) {
	for x := 0; x < 256; x++ {
		for y := 0; y < 256; y++ {
			// Put the pair in a middle lane between lanes that would
			// carry or borrow into it.
			X, Y := uint64(x)<<24|0xFF00000000, uint64(y)<<24|0x0000FFFFFF
			lane := func(v uint64) byte { return byte(v >> 24) }
			if got, want := lane(subBytes(X, Y)), byte(x-y); got != want {
				t.Fatalf("subBytes %d-%d = %d, want %d", x, y, got, want)
			}
			if got, want := lane(avgBytes(X, Y)), byte((x+y)>>1); got != want {
				t.Fatalf("avgBytes %d,%d = %d, want %d", x, y, got, want)
			}
		}
		v := uint64(x) << 24
		if got, want := fold16(absSum(v)), abs8(byte(x)); got != want {
			t.Fatalf("absSum %d = %d, want %d", x, got, want)
		}
	}
	for a := uint64(0); a < 256; a++ {
		for b := uint64(0); b < 256; b++ {
			for c := uint64(0); c < 256; c += 4 {
				// Four c values at once, one per 16-bit lane.
				A, B := a*lanes16Lo, b*lanes16Lo
				C := c | (c+1)<<16 | (c+2)<<32 | (c+3)<<48
				pred := paeth16(A, B, C)
				for k := uint64(0); k < 4; k++ {
					if got, want := byte(pred>>(16*k)), paeth(byte(a), byte(b), byte(c+k)); got != want || pred>>(16*k)&0xFF00 != 0 {
						t.Fatalf("paeth16(%d, %d, %d) lane = %#x, want %d", a, b, c+k, pred>>(16*k)&0xFFFF, want)
					}
				}
				x := byte(a ^ b<<1 ^ c)
				abs := paethAbs16(uint64(x)*lanes16Lo, A, B, C)
				for k := uint64(0); k < 4; k++ {
					if got, want := int(abs>>(16*k)&0xFFFF), abs8(x-paeth(byte(a), byte(b), byte(c+k))); got != want {
						t.Fatalf("paethAbs16(%d; %d, %d, %d) = %d, want %d", x, a, b, c+k, got, want)
					}
				}
			}
		}
	}
}
