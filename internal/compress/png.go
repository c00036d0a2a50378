package compress

import (
	"bufio"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"sync"

	"thinc/internal/pixel"
)

// The PNG writer behind CodecPNG. It writes exactly the bytes
// image/png's Encoder{CompressionLevel: BestSpeed} writes for the same
// block as an *image.NRGBA — 8-bit RGB when every pixel is opaque, else
// RGBA; the same per-row filter; the same zlib stream cut into the same
// IDAT chunks — but reads the ARGB pixels directly, converting each row
// once into pooled row buffers instead of copying the whole block into
// an NRGBA first, and picks the row filter in one fused pass instead of
// materialising every candidate row.

const pngSignature = "\x89PNG\r\n\x1a\n"

// PNG colour types (PNG spec §11.2.2) and row filter types (§9.2).
const (
	ctTrueColor      = 2
	ctTrueColorAlpha = 6

	ftNone    = 0
	ftSub     = 1
	ftUp      = 2
	ftAverage = 3
	ftPaeth   = 4
)

// pngIEND is the fixed trailing chunk: zero length, type, CRC.
var pngIEND = []byte{0, 0, 0, 0, 'I', 'E', 'N', 'D', 0xAE, 0x42, 0x60, 0x82}

// pngWriter is the pooled per-encode state: the bufio.Writer between
// zlib and the IDAT chunker (the same 32 KiB image/png uses, so chunk
// boundaries match by construction), the chunker, and the current,
// previous and filtered row, each with its filter-type byte first.
type pngWriter struct {
	bw             *bufio.Writer
	idat           idatWriter
	cur, prev, out []byte
}

var pngWriters = sync.Pool{New: func() any {
	e := new(pngWriter)
	e.bw = bufio.NewWriterSize(&e.idat, 1<<15)
	return e
}}

// idatWriter appends every write it receives as one IDAT chunk.
type idatWriter struct{ b []byte }

func (w *idatWriter) Write(p []byte) (int, error) {
	w.b = appendChunk(w.b, "IDAT", p)
	return len(p), nil
}

// appendChunk appends a PNG chunk: length, type, data, CRC over type
// and data.
func appendChunk(dst []byte, name string, data []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(data)))
	start := len(dst)
	dst = append(dst, name...)
	dst = append(dst, data...)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

func appendPNG(dst []byte, pix []pixel.ARGB, w, h int) ([]byte, error) {
	if w <= 0 || h <= 0 || int64(w) >= 1<<32 || int64(h) >= 1<<32 {
		return dst, fmt.Errorf("compress: invalid PNG size %dx%d", w, h)
	}
	opaque := true
	for _, p := range pix {
		if p.A() != 0xFF {
			opaque = false
			break
		}
	}
	bpp, ct := 3, byte(ctTrueColor)
	if !opaque {
		bpp, ct = 4, ctTrueColorAlpha
	}
	var ihdr [13]byte
	binary.BigEndian.PutUint32(ihdr[0:], uint32(w))
	binary.BigEndian.PutUint32(ihdr[4:], uint32(h))
	ihdr[8] = 8 // bit depth; compression, filter and interlace methods stay 0
	ihdr[9] = ct
	out := append(dst, pngSignature...)
	out = appendChunk(out, "IHDR", ihdr[:])

	e := pngWriters.Get().(*pngWriter)
	e.idat.b = out
	e.bw.Reset(&e.idat)
	zw, _ := zlibWriters.Get().(*zlib.Writer)
	if zw == nil {
		zw, _ = zlib.NewWriterLevel(e.bw, zlib.BestSpeed) // a valid level cannot fail
	} else {
		zw.Reset(e.bw)
	}
	n := 1 + bpp*w
	e.cur, e.prev, e.out = grow(e.cur[:0], n), grow(e.prev[:0], n), grow(e.out[:0], n)
	clear(e.prev)
	e.cur[0] = ftNone
	var err error
	for y := 0; y < h && err == nil; y++ {
		row := pix[y*w : (y+1)*w]
		if opaque {
			rgbRow(e.cur[1:], row)
		} else {
			rgbaRow(e.cur[1:], row)
		}
		_, err = zw.Write(e.filterRow(bpp))
		e.cur, e.prev = e.prev, e.cur
	}
	if err == nil {
		err = zw.Close()
	}
	if err == nil {
		err = e.bw.Flush()
	}
	out = e.idat.b
	e.idat.b = nil
	pngWriters.Put(e)
	if err != nil {
		return dst, err
	}
	zlibWriters.Put(zw)
	return append(out, pngIEND...), nil
}

func rgbRow(dst []byte, row []pixel.ARGB) {
	dst = dst[:3*len(row)]
	for x, p := range row {
		d := dst[3*x : 3*x+3 : 3*x+3]
		d[0], d[1], d[2] = p.R(), p.G(), p.B()
	}
}

func rgbaRow(dst []byte, row []pixel.ARGB) {
	dst = dst[:4*len(row)]
	for x, p := range row {
		binary.BigEndian.PutUint32(dst[4*x:], bits.RotateLeft32(uint32(p), 8))
	}
}
