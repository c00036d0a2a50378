package compress

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"slices"
	"testing"

	"thinc/internal/pixel"
)

// allocated reports the bytes f allocates (the TotalAlloc delta).
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// fixedState bounds what a decoder may allocate besides the block's
// pixels (PNG reader state).
const fixedState = 64 << 10

// checkDecodeBounded decodes a payload that does not fill its w x h
// block and requires it refused having allocated no more than limit.
func checkDecodeBounded(t *testing.T, c Codec, data []byte, w, h int, limit uint64) {
	t.Helper()
	var err error
	n := allocated(func() { _, err = Decode(c, data, w, h) })
	if err == nil {
		t.Fatalf("%v: a %d-byte payload decoded as a %dx%d block", c, len(data), w, h)
	}
	if n > limit {
		t.Fatalf("%v: refusing a %d-byte payload for a %dx%d block allocated %d bytes, limit %d",
			c, len(data), w, h, n, limit)
	}
}

// pngChunk appends one PNG chunk: length, type, data, CRC.
func pngChunk(dst []byte, typ string, data []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(data)))
	start := len(dst)
	dst = append(dst, typ...)
	dst = append(dst, data...)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// TestDecodePNGHeaderBomb: a 68-byte PNG whose IHDR names an 8000x8000
// RGB image (its IDAT is an empty zlib stream) in a 4x4 RAW. image/png
// allocates the image the IHDR names before it reads a pixel, so the
// header is held to the block first.
func TestDecodePNGHeaderBomb(t *testing.T) {
	data := pngHeaderBomb()
	if len(data) != 68 {
		t.Fatalf("bomb is %d bytes, want 68", len(data))
	}
	checkDecodeBounded(t, CodecPNG, data, 4, 4, 4*4*4+fixedState)
}

// pngHeaderBomb is a valid PNG whose IHDR names an 8000x8000 RGB image
// and whose IDAT is an empty zlib stream.
func pngHeaderBomb() []byte {
	ihdr := make([]byte, 13)
	binary.BigEndian.PutUint32(ihdr[0:], 8000)
	binary.BigEndian.PutUint32(ihdr[4:], 8000)
	ihdr[8], ihdr[9] = 8, ctTrueColor
	data := pngChunk([]byte(pngSignature), "IHDR", ihdr)
	data = pngChunk(data, "IDAT", []byte("\x78\x01\x01\x00\x00\xff\xff\x00\x00\x00\x01"))
	return pngChunk(data, "IEND", nil)
}

// TestDecodeRLEShortPayload: one 5-byte run in an 8000x8000 RAW. At
// most 256 pixels can come of it, so it is refused before the block is
// allocated at all.
func TestDecodeRLEShortPayload(t *testing.T) {
	checkDecodeBounded(t, CodecRLE, []byte{0xFF, 0xFF, 1, 2, 3}, 8000, 8000, fixedState)
	// Runs past the block stop at the first that overflows it.
	checkDecodeBounded(t, CodecRLE, bytes.Repeat([]byte{0xFF, 0xFF, 1, 2, 3}, 64), 16, 16, 16*16*4+fixedState)
}

// TestDecodeRefusesCodec3: codec byte 3 is unassigned (it was a zlib
// codec nothing emitted). A well-formed zlib payload of a 4x4 block is
// refused under it before anything is allocated for the block, and
// nothing encodes to it.
func TestDecodeRefusesCodec3(t *testing.T) {
	pix := flatBlock(4, 4, pixel.RGB(9, 8, 7))
	var buf bytes.Buffer
	zw := zlib.NewWriter(&buf)
	if _, err := zw.Write(appendRawBytes(nil, pix)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	checkDecodeBounded(t, Codec(3), buf.Bytes(), 4, 4, 1<<10)
	if _, err := Encode(Codec(3), pix, 4, 4); err == nil {
		t.Fatal("codec 3 encoded a block")
	}
	if got := Codec(3).String(); got != "unknown" {
		t.Fatalf("codec 3 is named %q", got)
	}
}

// FuzzDecode feeds every codec arbitrary payloads for blocks of up to
// 64x64: decoding never panics, an accepted payload is exactly the
// block's pixels, and whatever EncodeAppend writes decodes back to its
// input (CodecDown2 is lossy: back to the block's size).
func FuzzDecode(f *testing.F) {
	codecs := []Codec{CodecNone, CodecRLE, CodecPNG, CodecDown2}
	for i, c := range codecs {
		pix := []pixel.ARGB{0xFF010203, 0xFF010203, 0x80FFFFFF, 0}
		data, err := Encode(c, pix, 2, 2)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), uint8(1), uint8(1), data)
		f.Add(uint8(i), uint8(16), uint8(3), []byte{0xFF, 1, 2, 3})
	}
	// The amplification payloads the decoders refuse before allocating.
	f.Add(uint8(2), uint8(3), uint8(3), pngHeaderBomb())
	f.Add(uint8(1), uint8(63), uint8(63), []byte{0xFF, 0xFF, 1, 2, 3})
	f.Fuzz(func(t *testing.T, codec, w, h uint8, data []byte) {
		c := codecs[int(codec)%len(codecs)]
		bw, bh := int(w%64)+1, int(h%64)+1
		if pix, err := Decode(c, data, bw, bh); err == nil && len(pix) != bw*bh {
			t.Fatalf("%v: accepted %d bytes as %d pixels of a %dx%d block", c, len(data), len(pix), bw, bh)
		}

		// The same bytes as pixels, repeated to fill the block.
		pix := make([]pixel.ARGB, bw*bh)
		for i := range pix {
			var b [4]byte
			for k := range b {
				if len(data) > 0 {
					b[k] = data[(4*i+k)%len(data)]
				}
			}
			pix[i] = pixel.PackARGB(b[0], b[1], b[2], b[3])
		}
		enc, err := EncodeAppend(c, nil, pix, bw, bh)
		if err != nil {
			t.Fatalf("%v: encode %dx%d: %v", c, bw, bh, err)
		}
		dec, err := Decode(c, enc, bw, bh)
		if err != nil {
			t.Fatalf("%v: own %dx%d payload refused: %v", c, bw, bh, err)
		}
		if len(dec) != bw*bh || (c != CodecDown2 && !slices.Equal(dec, pix)) {
			t.Fatalf("%v: %dx%d block does not decode back to its input", c, bw, bh)
		}
	})
}
