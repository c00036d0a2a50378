package pixel

import "thinc/internal/geom"

// YV12 conversion. YV12 is planar YUV 4:2:0 with the V plane before the U
// plane: Y at full resolution, then V and U subsampled 2x2. It is the
// preferred output format of MPEG decoders and the format THINC exports to
// applications through its XVideo-like interface; the client "hardware"
// converts it back to RGB while scaling (§4.2 of the paper).

// YV12Image is a planar YUV 4:2:0 frame.
type YV12Image struct {
	W, H int
	Y    []byte // W*H luma samples
	V    []byte // ceil(W/2)*ceil(H/2) chroma
	U    []byte // ceil(W/2)*ceil(H/2) chroma
}

// NewYV12 allocates a frame of the given geometry.
func NewYV12(w, h int) *YV12Image {
	cw, ch := (w+1)/2, (h+1)/2
	return &YV12Image{
		W: w, H: h,
		Y: make([]byte, w*h),
		V: make([]byte, cw*ch),
		U: make([]byte, cw*ch),
	}
}

// Size returns the total byte size of the frame.
func (img *YV12Image) Size() int { return len(img.Y) + len(img.V) + len(img.U) }

// Marshal appends the three planes (Y, V, U) to dst and returns it.
func (img *YV12Image) Marshal(dst []byte) []byte {
	dst = append(dst, img.Y...)
	dst = append(dst, img.V...)
	dst = append(dst, img.U...)
	return dst
}

// UnmarshalYV12 parses a frame of the given geometry from buf.
// It returns nil if buf is too short.
func UnmarshalYV12(w, h int, buf []byte) *YV12Image {
	if len(buf) < YV12Size(w, h) {
		return nil
	}
	cw, ch := (w+1)/2, (h+1)/2
	img := &YV12Image{W: w, H: h}
	img.Y = buf[: w*h : w*h]
	img.V = buf[w*h : w*h+cw*ch : w*h+cw*ch]
	img.U = buf[w*h+cw*ch : w*h+2*cw*ch : w*h+2*cw*ch]
	return img
}

// RGBToYUV converts one pixel using the BT.601 studio-swing matrix.
func RGBToYUV(p ARGB) (y, u, v uint8) {
	r, g, b := int32(p.R()), int32(p.G()), int32(p.B())
	yy := (66*r + 129*g + 25*b + 128) >> 8
	uu := (-38*r - 74*g + 112*b + 128) >> 8
	vv := (112*r - 94*g - 18*b + 128) >> 8
	return clamp8(yy + 16), clamp8(uu + 128), clamp8(vv + 128)
}

// YUVToRGB converts one sample triple back to an opaque RGB pixel.
func YUVToRGB(y, u, v uint8) ARGB {
	c := int32(y) - 16
	d := int32(u) - 128
	e := int32(v) - 128
	r := (298*c + 409*e + 128) >> 8
	g := (298*c - 100*d - 208*e + 128) >> 8
	b := (298*c + 516*d + 128) >> 8
	return RGB(clamp8(r), clamp8(g), clamp8(b))
}

func clamp8(v int32) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// EncodeYV12 converts a rectangle of ARGB pixels (given as a row-major
// slice with the given stride in pixels) into a YV12 frame. Chroma is
// averaged over each 2x2 block.
func EncodeYV12(pix []ARGB, stride, w, h int) *YV12Image {
	img := NewYV12(w, h)
	cw := (w + 1) / 2
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			yy, _, _ := RGBToYUV(pix[y*stride+x])
			img.Y[y*w+x] = yy
		}
	}
	for cy := 0; cy < (h+1)/2; cy++ {
		for cx := 0; cx < cw; cx++ {
			var us, vs, n int32
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					px, py := cx*2+dx, cy*2+dy
					if px >= w || py >= h {
						continue
					}
					_, u, v := RGBToYUV(pix[py*stride+px])
					us += int32(u)
					vs += int32(v)
					n++
				}
			}
			img.U[cy*cw+cx] = uint8(us / n)
			img.V[cy*cw+cx] = uint8(vs / n)
		}
	}
	return img
}

// DecodeYV12 converts the frame to ARGB pixels, scaling to dw x dh with
// nearest-neighbor sampling — modeling the client video hardware's
// combined color-space conversion and scaling (the "hardware overlay").
// It allocates the output and runs ScaleYV12 over all of it.
func DecodeYV12(img *YV12Image, dw, dh int) []ARGB {
	out := make([]ARGB, dw*dh)
	ScaleYV12(out, dw, img, dw, dh, geom.XYWH(0, 0, dw, dh))
	return out
}

// ScaleYV12 is the overlay kernel: it converts img to ARGB and scales it
// to dw x dh by nearest-neighbor sampling, writing only the pixels of
// the scaled image that lie inside win. Pixel (x, y) of the scaled image
// lands at dst[(y-win.Y0)*stride + x-win.X0]. Source pixel (x*W/dw,
// y*H/dh) supplies destination (x, y); a frame with no pixels paints
// win transparent black.
//
// The work follows the clipped window, never dw x dh: each destination
// row whose source row equals the previous one is a copy of that row,
// and each new source row is converted once, over just the columns win
// samples, then gathered through a column map computed once per call.
func ScaleYV12(dst []ARGB, stride int, img *YV12Image, dw, dh int, win geom.Rect) {
	win = win.Intersect(geom.XYWH(0, 0, dw, dh))
	if win.Empty() {
		return
	}
	w, h := win.W(), win.H()
	if img.W == 0 || img.H == 0 {
		for y := 0; y < h; y++ {
			clear(dst[y*stride : y*stride+w])
		}
		return
	}
	// Source columns lo..hi are the ones win samples.
	lo := win.X0 * img.W / dw
	hi := (win.X1 - 1) * img.W / dw
	n := hi - lo + 1
	// The column map and row buffer fit on the stack for a 1024-wide
	// window over a frame up to 1024 wide; only wider ones allocate.
	var stack [2048]uint32
	buf := stack[:]
	if w+n > len(buf) {
		buf = make([]uint32, w+n)
	}
	cols, row := buf[:w], buf[w:w+n]
	for i := range cols {
		cols[i] = uint32((win.X0+i)*img.W/dw - lo)
	}
	cw := (img.W + 1) / 2
	prev := -1
	for y := 0; y < h; y++ {
		out := dst[y*stride : y*stride+w]
		sy := (win.Y0 + y) * img.H / dh
		if sy == prev {
			copy(out, dst[(y-1)*stride:(y-1)*stride+w])
			continue
		}
		prev = sy
		off := (sy / 2) * cw
		convertRow(row, img.Y[sy*img.W+lo:sy*img.W+hi+1], img.U[off:off+cw], img.V[off:off+cw], lo)
		for i, c := range cols {
			out[i] = ARGB(row[c])
		}
	}
}

// convertRow converts the luma samples ys, which start at source column
// lo, into opaque ARGB; us and vs are the row's full chroma rows.
func convertRow(row []uint32, ys, us, vs []byte, lo int) {
	row = row[:len(ys)]
	for i, y := range ys {
		cx := (lo + i) >> 1
		row[i] = uint32(yuvToRGB(y, us[cx], vs[cx]))
	}
}

// BT.601 as table lookups: yuvToRGB equals YUVToRGB for every (y, u, v).
// Each product of YUVToRGB is a 256-entry table; lumaTab also carries the
// rounding term and clampBias<<8, so every channel sum is non-negative
// and, shifted down by 8, indexes clampTab directly.
const clampBias = 384

var (
	lumaTab, rvTab, guTab, gvTab, buTab [256]int32
	clampTab                            [1024]uint8 // clamp8(i - clampBias)
)

func init() {
	for i := range 256 {
		c, d := int32(i)-16, int32(i)-128
		lumaTab[i] = 298*c + 128 + clampBias<<8
		rvTab[i] = 409 * d
		guTab[i] = -100 * d
		gvTab[i] = -208 * d
		buTab[i] = 516 * d
	}
	for i := range clampTab {
		clampTab[i] = clamp8(int32(i) - clampBias)
	}
}

func yuvToRGB(y, u, v uint8) ARGB {
	c := lumaTab[y]
	r := clampTab[(c+rvTab[v])>>8&1023]
	g := clampTab[(c+guTab[u]+gvTab[v])>>8&1023]
	b := clampTab[(c+buTab[u])>>8&1023]
	return 0xff000000 | ARGB(r)<<16 | ARGB(g)<<8 | ARGB(b)
}
