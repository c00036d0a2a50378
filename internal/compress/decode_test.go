package compress

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/bits"
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
// pixels (zlib and PNG reader state).
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
	ihdr := make([]byte, 13)
	binary.BigEndian.PutUint32(ihdr[0:], 8000)
	binary.BigEndian.PutUint32(ihdr[4:], 8000)
	ihdr[8], ihdr[9] = 8, ctTrueColor
	data := pngChunk([]byte(pngSignature), "IHDR", ihdr)
	data = pngChunk(data, "IDAT", []byte("\x78\x01\x01\x00\x00\xff\xff\x00\x00\x00\x01"))
	data = pngChunk(data, "IEND", nil)
	if len(data) != 68 {
		t.Fatalf("bomb is %d bytes, want 68", len(data))
	}
	checkDecodeBounded(t, CodecPNG, data, 4, 4, 4*4*4+fixedState)
}

// TestDecodeRLEShortPayload: one 5-byte run in an 8000x8000 RAW. At
// most 256 pixels can come of it, so it is refused before the block is
// allocated at all.
func TestDecodeRLEShortPayload(t *testing.T) {
	checkDecodeBounded(t, CodecRLE, []byte{0xFF, 0xFF, 1, 2, 3}, 8000, 8000, fixedState)
	// Runs past the block stop at the first that overflows it.
	checkDecodeBounded(t, CodecRLE, bytes.Repeat([]byte{0xFF, 0xFF, 1, 2, 3}, 64), 16, 16, 16*16*4+fixedState)
}

// zlibBomb returns a well-formed zlib stream of about size bytes that
// inflates to about 160 times that many zero bytes: one fixed-Huffman
// block of a literal 0 and then (length 258, distance 1) copies, 13
// bits each.
func zlibBomb(size int) []byte {
	out := []byte{0x78, 0x01}
	var acc uint64
	var nbits uint
	put := func(v uint64, n uint) {
		acc |= v << nbits
		for nbits += n; nbits >= 8; nbits -= 8 {
			out = append(out, byte(acc))
			acc >>= 8
		}
	}
	// Huffman codes go out most significant bit first.
	code := func(c uint64, n uint) { put(bits.Reverse64(c)>>(64-n), n) }
	put(1, 1)     // BFINAL
	put(1, 2)     // BTYPE 01: fixed Huffman codes
	code(0x30, 8) // literal 0
	inflated := 1
	for len(out) < size {
		code(0xC5, 8) // length symbol 285: 258 bytes
		code(0, 5)    // distance code 0: distance 1
		inflated += 258
	}
	code(0, 7) // end of block
	if nbits > 0 {
		put(0, 8-nbits) // pad to a byte
	}
	// Adler-32 of zeros: a stays 1, b counts the bytes.
	return binary.BigEndian.AppendUint32(out, uint32(inflated%65521)<<16|1)
}

// TestDecodeZlibBomb: a 255 KB zlib payload that inflates to 41 MB, in
// a 4x4 RAW. The decoder takes no more from the stream than the block
// holds.
func TestDecodeZlibBomb(t *testing.T) {
	data := zlibBomb(255 << 10)
	// The bomb is real: it inflates to zeros well past the block.
	zr, err := zlib.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	head := make([]byte, 1<<16)
	if _, err := io.ReadFull(zr, head); err != nil || slices.ContainsFunc(head, func(b byte) bool { return b != 0 }) {
		t.Fatalf("bomb does not inflate to zeros: %v", err)
	}
	checkDecodeBounded(t, CodecZlib, data, 4, 4, 4*4*4+fixedState)
}

// FuzzDecode feeds every codec arbitrary payloads for blocks of up to
// 64x64: decoding never panics, an accepted payload is exactly the
// block's pixels, and whatever EncodeAppend writes decodes back to its
// input (CodecDown2 is lossy: back to the block's size).
func FuzzDecode(f *testing.F) {
	for c := CodecNone; c <= CodecDown2; c++ {
		pix := []pixel.ARGB{0xFF010203, 0xFF010203, 0x80FFFFFF, 0}
		data, err := Encode(c, pix, 2, 2)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(c), uint8(1), uint8(1), data)
		f.Add(uint8(c), uint8(16), uint8(3), []byte{0xFF, 1, 2, 3})
	}
	f.Fuzz(func(t *testing.T, codec, w, h uint8, data []byte) {
		c := Codec(codec % uint8(CodecDown2+1))
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
