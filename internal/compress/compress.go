// Package compress provides the payload encoders used on the wire. THINC
// compresses only RAW pixel updates (every other command is already a
// compact semantic encoding); the prototype used PNG for that purpose
// (§7), with a cheap RLE as the low-CPU alternative. A zlib codec is
// provided for the baseline systems (VNC/NX-class) that compress
// everything.
package compress

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"

	"thinc/internal/pixel"
)

// Codec identifies a RAW payload encoding.
type Codec uint8

// Supported codecs.
const (
	CodecNone  Codec = iota // raw ARGB32, no compression
	CodecRLE                // run-length encoding of ARGB32 pixels
	CodecPNG                // PNG (the prototype's choice)
	CodecZlib               // zlib over ARGB32 (baseline systems)
	CodecDown2              // lossy half-resolution downscale + RLE (overload rung 2)
)

func (c Codec) String() string {
	switch c {
	case CodecNone:
		return "none"
	case CodecRLE:
		return "rle"
	case CodecPNG:
		return "png"
	case CodecZlib:
		return "zlib"
	case CodecDown2:
		return "down2"
	default:
		return "unknown"
	}
}

// ErrCorrupt is returned when a payload cannot be decoded.
var ErrCorrupt = errors.New("compress: corrupt payload")

// Encode compresses a w x h block of pixels with the chosen codec into
// a fresh buffer. Hot paths should use EncodeAppend with a pooled
// scratch buffer from GetScratch.
func Encode(c Codec, pix []pixel.ARGB, w, h int) ([]byte, error) {
	return EncodeAppend(c, nil, pix, w, h)
}

// EncodeAppend compresses a w x h block of pixels with the chosen
// codec, appending the payload to dst (which may be nil or a pooled
// scratch from GetScratch) and returning the extended slice. The
// encoders reuse pooled zlib/PNG state, so steady-state encoding
// allocates only when the payload outgrows its buffer.
func EncodeAppend(c Codec, dst []byte, pix []pixel.ARGB, w, h int) ([]byte, error) {
	if len(pix) != w*h {
		return dst, fmt.Errorf("compress: %dx%d block with %d pixels", w, h, len(pix))
	}
	switch c {
	case CodecNone:
		return appendRawBytes(dst, pix), nil
	case CodecRLE:
		return appendRLE(dst, pix), nil
	case CodecPNG:
		return appendPNG(dst, pix, w, h)
	case CodecZlib:
		return appendZlib(dst, pix)
	case CodecDown2:
		return appendDown2(dst, pix, w, h), nil
	default:
		return dst, fmt.Errorf("compress: unknown codec %d", c)
	}
}

// Decode reverses Encode for a block known to be w x h.
func Decode(c Codec, data []byte, w, h int) ([]pixel.ARGB, error) {
	switch c {
	case CodecNone:
		return decodeRawBytes(data, w*h)
	case CodecRLE:
		return decodeRLE(data, w*h)
	case CodecPNG:
		return decodePNG(data, w, h)
	case CodecZlib:
		raw, err := decodeZlib(data)
		if err != nil {
			return nil, err
		}
		return decodeRawBytes(raw, w*h)
	case CodecDown2:
		return decodeDown2(data, w, h)
	default:
		return nil, fmt.Errorf("compress: unknown codec %d", c)
	}
}

func appendRawBytes(dst []byte, pix []pixel.ARGB) []byte {
	off := len(dst)
	dst = grow(dst, len(pix)*4)
	buf := dst[off:]
	for i, p := range pix {
		binary.BigEndian.PutUint32(buf[i*4:], uint32(p))
	}
	return dst
}

// grow extends dst by n bytes, reallocating at most once.
func grow(dst []byte, n int) []byte {
	if need := len(dst) + n; cap(dst) < need {
		dst = append(make([]byte, 0, need), dst...)
	}
	return dst[:len(dst)+n]
}

func decodeRawBytes(data []byte, n int) ([]pixel.ARGB, error) {
	if len(data) != n*4 {
		return nil, ErrCorrupt
	}
	pix := make([]pixel.ARGB, n)
	for i := range pix {
		pix[i] = pixel.ARGB(binary.BigEndian.Uint32(data[i*4:]))
	}
	return pix, nil
}

// appendRLE emits (count-1 byte, ARGB32) pairs; runs cap at 256.
func appendRLE(out []byte, pix []pixel.ARGB) []byte {
	for i := 0; i < len(pix); {
		run := 1
		for i+run < len(pix) && run < 256 && pix[i+run] == pix[i] {
			run++
		}
		out = append(out, byte(run-1),
			byte(pix[i]>>24), byte(pix[i]>>16), byte(pix[i]>>8), byte(pix[i]))
		i += run
	}
	return out
}

func decodeRLE(data []byte, n int) ([]pixel.ARGB, error) {
	if len(data)%5 != 0 {
		return nil, ErrCorrupt
	}
	pix := make([]pixel.ARGB, 0, n)
	for o := 0; o < len(data); o += 5 {
		run := int(data[o]) + 1
		p := pixel.ARGB(binary.BigEndian.Uint32(data[o+1:]))
		for k := 0; k < run; k++ {
			pix = append(pix, p)
		}
	}
	if len(pix) != n {
		return nil, ErrCorrupt
	}
	return pix, nil
}

func decodePNG(data []byte, w, h int) ([]pixel.ARGB, error) {
	img, err := png.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	b := img.Bounds()
	if b.Dx() != w || b.Dy() != h {
		return nil, ErrCorrupt
	}
	pix := make([]pixel.ARGB, w*h)
	// The decoder hands back *image.NRGBA for truecolor with alpha and
	// *image.RGBA (opaque, so premultiplication is the identity) for
	// truecolor without: read those rows directly. img.At boxes a color
	// per pixel, which was most of a page's client-side allocations.
	var src []uint8
	var stride int
	premul := false
	switch v := img.(type) {
	case *image.NRGBA:
		src, stride = v.Pix[v.PixOffset(b.Min.X, b.Min.Y):], v.Stride
	case *image.RGBA:
		src, stride, premul = v.Pix[v.PixOffset(b.Min.X, b.Min.Y):], v.Stride, true
	default:
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				pix[y*w+x] = nrgbaPixel(img.At(b.Min.X+x, b.Min.Y+y))
			}
		}
		return pix, nil
	}
	for y := 0; y < h; y++ {
		row := src[y*stride:]
		for x := 0; x < w; x++ {
			s := row[x*4 : x*4+4 : x*4+4]
			if premul && s[3] != 0xFF {
				pix[y*w+x] = nrgbaPixel(color.RGBA{R: s[0], G: s[1], B: s[2], A: s[3]})
				continue
			}
			pix[y*w+x] = pixel.PackARGB(s[3], s[0], s[1], s[2])
		}
	}
	return pix, nil
}

// nrgbaPixel converts any decoded color to the protocol's
// non-premultiplied ARGB.
func nrgbaPixel(c color.Color) pixel.ARGB {
	n := color.NRGBAModel.Convert(c).(color.NRGBA)
	return pixel.PackARGB(n.A, n.R, n.G, n.B)
}

func appendZlib(dst []byte, pix []pixel.ARGB) ([]byte, error) {
	raw := appendRawBytes(GetScratch(), pix)
	out, err := appendZlibBytes(dst, raw)
	PutScratch(raw)
	return out, err
}

func appendZlibBytes(dst, raw []byte) ([]byte, error) {
	sw := &sliceWriter{b: dst}
	zw, _ := zlibWriters.Get().(*zlib.Writer)
	if zw == nil {
		var err error
		zw, err = zlib.NewWriterLevel(sw, zlib.BestSpeed)
		if err != nil {
			return dst, err
		}
	} else {
		zw.Reset(sw)
	}
	if _, err := zw.Write(raw); err != nil {
		return dst, err
	}
	if err := zw.Close(); err != nil {
		return dst, err
	}
	zlibWriters.Put(zw)
	return sw.b, nil
}

func decodeZlib(data []byte) ([]byte, error) {
	zr, err := zlib.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	defer zr.Close()
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return raw, nil
}
