package pixel

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPackUnpack(t *testing.T) {
	p := PackARGB(0x12, 0x34, 0x56, 0x78)
	if p.A() != 0x12 || p.R() != 0x34 || p.G() != 0x56 || p.B() != 0x78 {
		t.Fatalf("channel round trip failed: %08x", uint32(p))
	}
	if !RGB(1, 2, 3).Opaque() {
		t.Error("RGB should be opaque")
	}
	if PackARGB(0x80, 0, 0, 0).Opaque() {
		t.Error("half-alpha is not opaque")
	}
}

func TestOverOpaqueSrc(t *testing.T) {
	src := RGB(10, 20, 30)
	dst := RGB(200, 200, 200)
	if Over(src, dst) != src {
		t.Error("opaque src should replace dst")
	}
}

func TestOverTransparentSrc(t *testing.T) {
	src := PackARGB(0, 99, 99, 99)
	dst := RGB(1, 2, 3)
	if Over(src, dst) != dst {
		t.Error("transparent src should leave dst")
	}
}

func TestOverHalfBlend(t *testing.T) {
	src := PackARGB(128, 255, 0, 0)
	dst := RGB(0, 0, 255)
	out := Over(src, dst)
	if !out.Opaque() {
		t.Errorf("over opaque dst must stay opaque: a=%d", out.A())
	}
	// Red should land near 128, blue near 127.
	if d := int(out.R()) - 128; d < -3 || d > 3 {
		t.Errorf("red = %d, want ~128", out.R())
	}
	if d := int(out.B()) - 127; d < -3 || d > 3 {
		t.Errorf("blue = %d, want ~127", out.B())
	}
}

func TestOverBothTransparent(t *testing.T) {
	// A fully transparent source never disturbs the destination, and a
	// nearly-transparent source over a transparent destination must not
	// produce a visible pixel.
	dst := PackARGB(0, 9, 9, 9)
	if got := Over(PackARGB(0, 50, 50, 50), dst); got != dst {
		t.Errorf("transparent src must leave dst: got %08x", uint32(got))
	}
	if got := Over(PackARGB(1, 50, 50, 50), PackARGB(0, 9, 9, 9)); got.A() != 1 {
		t.Errorf("alpha should be src alpha over empty dst: got a=%d", got.A())
	}
}

func Test8BitRoundTrip(t *testing.T) {
	// Quantization error must be bounded by the dropped bits.
	f := func(r, g, b uint8) bool {
		q := From8Bit(To8Bit(RGB(r, g, b)))
		dr := int(r) - int(q.R())
		dg := int(g) - int(q.G())
		db := int(b) - int(q.B())
		abs := func(v int) int {
			if v < 0 {
				return -v
			}
			return v
		}
		return abs(dr) < 32 && abs(dg) < 32 && abs(db) < 64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFormatBytes(t *testing.T) {
	if FormatARGB32.BytesPerPixel() != 4 || FormatRGB24.BytesPerPixel() != 3 ||
		Format8Bit.BytesPerPixel() != 1 || FormatYV12.BytesPerPixel() != 0 {
		t.Error("BytesPerPixel wrong")
	}
	for _, f := range []Format{FormatARGB32, FormatRGB24, Format8Bit, FormatYV12} {
		if f.String() == "unknown" {
			t.Errorf("format %d has no name", f)
		}
	}
}

func TestYV12Size(t *testing.T) {
	// 352x240: Y=84480, U=V=44*... cw=176, ch=120 -> 21120 each.
	if got := YV12Size(352, 240); got != 352*240+2*176*120 {
		t.Errorf("YV12Size(352,240) = %d", got)
	}
	// Odd sizes round chroma up.
	if got := YV12Size(3, 3); got != 9+2*4 {
		t.Errorf("YV12Size(3,3) = %d", got)
	}
	// 12 bits per pixel for even geometry.
	if got := YV12Size(1024, 768); got != 1024*768*3/2 {
		t.Errorf("YV12Size(1024,768) = %d, want %d", got, 1024*768*3/2)
	}
}

func TestYUVRoundTrip(t *testing.T) {
	// RGB -> YUV -> RGB must be close for typical colors.
	f := func(r, g, b uint8) bool {
		y, u, v := RGBToYUV(RGB(r, g, b))
		q := YUVToRGB(y, u, v)
		abs := func(v int) int {
			if v < 0 {
				return -v
			}
			return v
		}
		// Studio swing clamps extremes; tolerate small error.
		return abs(int(q.R())-int(r)) <= 6 && abs(int(q.G())-int(g)) <= 6 && abs(int(q.B())-int(b)) <= 6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeYV12(t *testing.T) {
	const w, h = 16, 12
	pix := make([]ARGB, w*h)
	for i := range pix {
		// Gentle gradient; chroma subsampling error stays small.
		v := uint8(i * 255 / len(pix))
		pix[i] = RGB(v, v/2, 255-v)
	}
	img := EncodeYV12(pix, w, w, h)
	if img.Size() != YV12Size(w, h) {
		t.Fatalf("size = %d, want %d", img.Size(), YV12Size(w, h))
	}
	out := DecodeYV12(img, w, h)
	var worst int
	for i := range pix {
		for _, d := range []int{
			int(pix[i].R()) - int(out[i].R()),
			int(pix[i].G()) - int(out[i].G()),
			int(pix[i].B()) - int(out[i].B()),
		} {
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
	}
	if worst > 40 {
		t.Errorf("worst channel error %d too large", worst)
	}
}

func TestDecodeYV12Scaling(t *testing.T) {
	// A solid-color frame must stay solid at any scale (hardware overlay
	// property: scaling is free and lossless for flat content).
	const w, h = 8, 8
	pix := make([]ARGB, w*h)
	for i := range pix {
		pix[i] = RGB(40, 80, 160)
	}
	img := EncodeYV12(pix, w, w, h)
	out := DecodeYV12(img, 32, 24)
	first := out[0]
	for i, p := range out {
		if p != first {
			t.Fatalf("pixel %d = %v differs from %v", i, p, first)
		}
	}
}

func TestMarshalUnmarshalYV12(t *testing.T) {
	img := NewYV12(6, 4)
	rnd := rand.New(rand.NewSource(7))
	for i := range img.Y {
		img.Y[i] = byte(rnd.Intn(256))
	}
	for i := range img.U {
		img.U[i] = byte(rnd.Intn(256))
		img.V[i] = byte(rnd.Intn(256))
	}
	buf := img.Marshal(nil)
	if len(buf) != img.Size() {
		t.Fatalf("marshal size %d != %d", len(buf), img.Size())
	}
	got := UnmarshalYV12(6, 4, buf)
	if got == nil {
		t.Fatal("unmarshal failed")
	}
	for i := range img.Y {
		if got.Y[i] != img.Y[i] {
			t.Fatal("Y plane mismatch")
		}
	}
	for i := range img.U {
		if got.U[i] != img.U[i] || got.V[i] != img.V[i] {
			t.Fatal("chroma plane mismatch")
		}
	}
	if UnmarshalYV12(6, 4, buf[:len(buf)-1]) != nil {
		t.Error("short buffer should fail")
	}
}

// TestYUVTablesMatchYUVToRGB: the overlay kernel's table-driven
// conversion equals the YUVToRGB definition on all 2^24 sample triples.
func TestYUVTablesMatchYUVToRGB(t *testing.T) {
	for y := range 256 {
		for u := range 256 {
			for v := range 256 {
				if got, want := yuvToRGB(uint8(y), uint8(u), uint8(v)), YUVToRGB(uint8(y), uint8(u), uint8(v)); got != want {
					t.Fatalf("yuvToRGB(%d, %d, %d) = %08x, want %08x", y, u, v, uint32(got), uint32(want))
				}
			}
		}
	}
}
