package compress

import (
	"bytes"
	"image"
	"image/color"
	"image/png"
	"math/rand"
	"testing"

	"thinc/internal/pixel"
)

func randomBlock(rnd *rand.Rand, w, h int) []pixel.ARGB {
	pix := make([]pixel.ARGB, w*h)
	for i := range pix {
		pix[i] = pixel.RGB(uint8(rnd.Intn(256)), uint8(rnd.Intn(256)), uint8(rnd.Intn(256)))
	}
	return pix
}

func flatBlock(w, h int, c pixel.ARGB) []pixel.ARGB {
	pix := make([]pixel.ARGB, w*h)
	for i := range pix {
		pix[i] = c
	}
	return pix
}

func TestRoundTripAllCodecs(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	blocks := map[string][]pixel.ARGB{
		"random": randomBlock(rnd, 13, 9),
		"flat":   flatBlock(13, 9, pixel.RGB(200, 100, 50)),
	}
	for name, pix := range blocks {
		for _, c := range []Codec{CodecNone, CodecRLE, CodecPNG} {
			data, err := Encode(c, pix, 13, 9)
			if err != nil {
				t.Fatalf("%s/%v encode: %v", name, c, err)
			}
			got, err := Decode(c, data, 13, 9)
			if err != nil {
				t.Fatalf("%s/%v decode: %v", name, c, err)
			}
			for i := range pix {
				if got[i] != pix[i] {
					t.Fatalf("%s/%v pixel %d: %08x != %08x", name, c, i, got[i], pix[i])
				}
			}
		}
	}
}

func TestAlphaSurvivesPNG(t *testing.T) {
	pix := []pixel.ARGB{pixel.PackARGB(128, 255, 0, 0), pixel.PackARGB(0, 0, 0, 0)}
	data, err := Encode(CodecPNG, pix, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(CodecPNG, data, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].A() != 128 || got[1].A() != 0 {
		t.Errorf("alpha lost: %08x %08x", got[0], got[1])
	}
}

func TestFlatContentCompressesWell(t *testing.T) {
	pix := flatBlock(64, 64, pixel.RGB(255, 255, 255))
	rawLen := 64 * 64 * 4
	for _, c := range []Codec{CodecRLE, CodecPNG} {
		data, err := Encode(c, pix, 64, 64)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) >= rawLen/4 {
			t.Errorf("%v: flat block compressed to %d of %d", c, len(data), rawLen)
		}
	}
}

func TestSizeMismatchRejected(t *testing.T) {
	if _, err := Encode(CodecNone, make([]pixel.ARGB, 5), 2, 2); err == nil {
		t.Error("encode with wrong pixel count should fail")
	}
}

func TestCorruptPayloadRejected(t *testing.T) {
	pix := flatBlock(4, 4, pixel.RGB(1, 2, 3))
	for _, c := range []Codec{CodecNone, CodecRLE, CodecPNG} {
		data, err := Encode(c, pix, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		// Truncate badly.
		if _, err := Decode(c, data[:len(data)/3], 4, 4); err == nil {
			t.Errorf("%v: truncated payload decoded without error", c)
		}
	}
	// Wrong geometry for PNG.
	data, _ := Encode(CodecPNG, pix, 4, 4)
	if _, err := Decode(CodecPNG, data, 5, 5); err == nil {
		t.Error("PNG geometry mismatch not detected")
	}
}

func TestUnknownCodec(t *testing.T) {
	if _, err := Encode(Codec(99), nil, 0, 0); err == nil {
		t.Error("unknown codec encode should fail")
	}
	if _, err := Decode(Codec(99), nil, 0, 0); err == nil {
		t.Error("unknown codec decode should fail")
	}
}

func TestCodecNames(t *testing.T) {
	for _, c := range []Codec{CodecNone, CodecRLE, CodecPNG, CodecDown2} {
		if c.String() == "unknown" {
			t.Errorf("codec %d unnamed", c)
		}
	}
	if Codec(99).String() != "unknown" {
		t.Error("bogus codec should be unknown")
	}
}

func TestRLELongRuns(t *testing.T) {
	// Runs longer than 256 must split correctly.
	pix := flatBlock(300, 2, pixel.RGB(7, 7, 7))
	data, err := Encode(CodecRLE, pix, 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(CodecRLE, data, 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 600 || got[599] != pixel.RGB(7, 7, 7) {
		t.Error("long run round trip failed")
	}
}

// TestDecodePNGMatchesGenericConversion: the direct row reads for the
// two image types the decoder yields on the protocol's own streams, and
// the generic fallback for every other type a foreign PNG decodes to,
// produce exactly the pixels of the per-pixel color-model conversion.
func TestDecodePNGMatchesGenericConversion(t *testing.T) {
	const w, h = 19, 7
	rnd := rand.New(rand.NewSource(7))
	nrgba := image.NewNRGBA(image.Rect(0, 0, w, h))
	rnd.Read(nrgba.Pix)
	opaque := image.NewNRGBA(image.Rect(0, 0, w, h))
	rnd.Read(opaque.Pix)
	for i := 3; i < len(opaque.Pix); i += 4 {
		opaque.Pix[i] = 0xFF
	}
	gray := image.NewGray(image.Rect(0, 0, w, h))
	rnd.Read(gray.Pix)
	deep := image.NewNRGBA64(image.Rect(0, 0, w, h))
	rnd.Read(deep.Pix)
	pal := image.NewPaletted(image.Rect(0, 0, w, h), color.Palette{
		color.NRGBA{R: 1, G: 2, B: 3, A: 255}, color.NRGBA{R: 200, G: 100, B: 50, A: 90}})
	for i := range pal.Pix {
		pal.Pix[i] = uint8(rnd.Intn(2))
	}
	for name, src := range map[string]image.Image{
		"nrgba": nrgba, "opaque": opaque, "gray": gray, "nrgba64": deep, "paletted": pal,
	} {
		var buf bytes.Buffer
		if err := png.Encode(&buf, src); err != nil {
			t.Fatal(err)
		}
		got, err := Decode(CodecPNG, buf.Bytes(), w, h)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, err := png.Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				c := color.NRGBAModel.Convert(ref.At(x, y)).(color.NRGBA)
				if want := pixel.PackARGB(c.A, c.R, c.G, c.B); got[y*w+x] != want {
					t.Fatalf("%s (%T) pixel %d,%d: %08x, want %08x", name, ref, x, y, got[y*w+x], want)
				}
			}
		}
	}
}

// TestDecodePNGAllocsIndependentOfPixels: decoding the protocol's own
// PNG payloads (opaque and alpha-carrying) allocates per image, not per
// pixel.
func TestDecodePNGAllocsIndependentOfPixels(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	opaque := randomBlock(rnd, 64, 64)
	alpha := randomBlock(rnd, 64, 64)
	for i := range alpha {
		alpha[i] &= 0x7FFFFFFF
	}
	for name, pix := range map[string][]pixel.ARGB{"opaque": opaque, "alpha": alpha} {
		data, err := Encode(CodecPNG, pix, 64, 64)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := Decode(CodecPNG, data, 64, 64); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 64 {
			t.Errorf("%s: %.0f allocations decoding 4096 pixels", name, allocs)
		}
	}
}

func BenchmarkEncodePNGPhotoLike(b *testing.B) {
	rnd := rand.New(rand.NewSource(1))
	pix := randomBlock(rnd, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(CodecPNG, pix, 256, 256); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeRLEFlat(b *testing.B) {
	pix := flatBlock(256, 256, pixel.RGB(1, 2, 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(CodecRLE, pix, 256, 256); err != nil {
			b.Fatal(err)
		}
	}
}
