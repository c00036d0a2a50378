package compress

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// PNG row filtering (PNG spec §9). Every filter predicts byte x of the
// current row from a, the byte bpp to its left; b, the byte above it;
// and c, the byte above a (a and c are 0 in the first pixel) and
// writes x minus the prediction. The kernels work on eight bytes at a
// time in a uint64: differences, averages and absolute values in byte
// lanes, and the Paeth predictor, whose distances need nine bits, in
// 16-bit lanes over the even and the odd bytes.

// filterRow filters e.cur against e.prev with the filter image/png
// picks and returns the filtered row. image/png tries Up, Paeth, None,
// Sub and Average in that order and keeps a later filter only if its
// sum of absolute residues is strictly smaller, so the winner is the
// first of that order with the least sum. The early exits it takes
// only skip filters that cannot win, so full sums choose the same. Up,
// None, Sub and Average are summed in one pass; Paeth, the costliest,
// last and only while it can still win: its sum must stay below Up's
// and at or below each of the other three. A row equal to the previous
// one is Up with zero residue.
func (e *pngWriter) filterRow(bpp int) []byte {
	cur, out := e.cur, e.out
	c, p := cur[1:], e.prev[1:len(cur)]
	if bytes.Equal(c, p) {
		out[0] = ftUp
		clear(out[1:])
		return out
	}
	up, none, sub, avg := filterSums(c, p, bpp)
	f, best := ftUp, up
	if none < best {
		f, best = ftNone, none
	}
	if sub < best {
		f, best = ftSub, sub
	}
	if avg < best {
		f, best = ftAverage, avg
	}
	limit := up
	if f != ftUp {
		limit = best + 1
	}
	if paethSum(c, p, bpp, limit) < limit {
		f = ftPaeth
	}
	out[0] = byte(f)
	if f == ftNone {
		return cur
	}
	applyFilter(f, out[1:len(cur)], c, p, bpp)
	return out
}

// filterSums returns the sums of absolute residues of the Up, None,
// Sub and Average filters over row c with previous row p.
func filterSums(c, p []byte, bpp int) (up, none, sub, avg int) {
	n := len(c)
	i := 0
	for ; i < bpp; i++ {
		up += abs8(filterByte(ftUp, c[i], 0, p[i], 0))
		none += abs8(c[i])
		sub += abs8(c[i])
		avg += abs8(filterByte(ftAverage, c[i], 0, p[i], 0))
	}
	for i+8 <= n {
		// 16-bit lane sums stay below 1<<16 for 255 chunks; fold every 128.
		end := min(i+8*128, n-7)
		var u, o, s, v uint64
		for ; i < end; i += 8 {
			x, a, b := load8(c, i), load8(c, i-bpp), load8(p, i)
			u += absSum(subBytes(x, b))
			o += absSum(x)
			s += absSum(subBytes(x, a))
			v += absSum(subBytes(x, avgBytes(a, b)))
		}
		up, none, sub, avg = up+fold16(u), none+fold16(o), sub+fold16(s), avg+fold16(v)
	}
	for ; i < n; i++ {
		x, a, b := c[i], c[i-bpp], p[i]
		up += abs8(filterByte(ftUp, x, a, b, 0))
		none += abs8(x)
		sub += abs8(filterByte(ftSub, x, a, b, 0))
		avg += abs8(filterByte(ftAverage, x, a, b, 0))
	}
	return up, none, sub, avg
}

// paethSum returns the Paeth filter's sum of absolute residues over
// row c with previous row p, or some value >= limit once the sum
// reaches limit. An eight-byte chunk that equals the previous row and
// whose left bytes equal their up-left bytes adds nothing: there a == c
// and x == b, and the predictor is then b.
func paethSum(c, p []byte, bpp, limit int) int {
	n := len(c)
	sum, i := 0, 0
	for ; i < bpp; i++ {
		sum += abs8(filterByte(ftPaeth, c[i], 0, p[i], 0))
	}
	for i+8 <= n && sum < limit {
		end := min(i+8*64, n-7)
		var acc uint64
		for ; i < end; i += 8 {
			x, a, b, u := load8(c, i), load8(c, i-bpp), load8(p, i), load8(p, i-bpp)
			if x == b && a == u {
				continue
			}
			acc += paethAbs16(x&lanes16Byte, a&lanes16Byte, b&lanes16Byte, u&lanes16Byte) +
				paethAbs16(x>>8&lanes16Byte, a>>8&lanes16Byte, b>>8&lanes16Byte, u>>8&lanes16Byte)
		}
		sum += fold16(acc)
	}
	for ; i < n && sum < limit; i++ {
		sum += abs8(filterByte(ftPaeth, c[i], c[i-bpp], p[i], p[i-bpp]))
	}
	return sum
}

// applyFilter writes row c filtered by f against previous row p to o.
func applyFilter(f int, o, c, p []byte, bpp int) {
	n := len(c)
	o = o[:n]
	i := 0
	for ; i < bpp; i++ {
		o[i] = filterByte(f, c[i], 0, p[i], 0)
	}
	for ; i+8 <= n; i += 8 {
		x, a, b := load8(c, i), load8(c, i-bpp), load8(p, i)
		var pred uint64
		switch f {
		case ftSub:
			pred = a
		case ftUp:
			pred = b
		case ftAverage:
			pred = avgBytes(a, b)
		case ftPaeth:
			u := load8(p, i-bpp)
			pred = paeth16(a&lanes16Byte, b&lanes16Byte, u&lanes16Byte) |
				paeth16(a>>8&lanes16Byte, b>>8&lanes16Byte, u>>8&lanes16Byte)<<8
		}
		binary.LittleEndian.PutUint64(o[i:], subBytes(x, pred))
	}
	for ; i < n; i++ {
		o[i] = filterByte(f, c[i], c[i-bpp], p[i], p[i-bpp])
	}
}

// filterByte is x filtered by f given its left a, up b and up-left c.
func filterByte(f int, x, a, b, c byte) byte {
	switch f {
	case ftSub:
		return x - a
	case ftUp:
		return x - b
	case ftAverage:
		return x - byte((uint(a)+uint(b))>>1)
	case ftPaeth:
		return x - paeth(a, b, c)
	}
	return x
}

// abs8 is the absolute value of d read as a signed byte.
func abs8(d uint8) int { return absInt(int(int8(d))) }

func absInt(x int) int {
	s := x >> (bits.UintSize - 1)
	return (x ^ s) - s
}

// paeth is the PNG Paeth predictor of a (left), b (up) and c (up-left),
// in image/png's operation order.
func paeth(a, b, c uint8) uint8 {
	pc := int(c)
	pa := int(b) - pc
	pb := int(a) - pc
	pc = absInt(pa + pb)
	pa = absInt(pa)
	pb = absInt(pb)
	if pa <= pb && pa <= pc {
		return a
	} else if pb <= pc {
		return b
	}
	return c
}

// Lane masks: the high and the low seven bits of each byte; the low
// byte, the low bit and the high bit of each 16-bit lane.
const (
	lanes8Hi    = 0x8080808080808080
	lanes8Lo7   = 0x7F7F7F7F7F7F7F7F
	lanes16Byte = 0x00FF00FF00FF00FF
	lanes16Lo   = 0x0001000100010001
	lanes16Hi   = 0x8000800080008000
)

func load8(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[i:]) }

// subBytes is x-y mod 256 in each byte lane.
func subBytes(x, y uint64) uint64 {
	return ((x | lanes8Hi) - (y &^ lanes8Hi)) ^ ((x ^ ^y) & lanes8Hi)
}

// avgBytes is (x+y)>>1 in each byte lane.
func avgBytes(x, y uint64) uint64 { return (x & y) + (x^y)>>1&lanes8Lo7 }

// absSum takes |int8| of each byte lane (at most 128) and adds the
// byte lanes pairwise into four 16-bit lanes (at most 256 each).
func absSum(v uint64) uint64 {
	n := v & lanes8Hi >> 7
	v = (v ^ n*0xFF) + n
	return v&lanes16Byte + v>>8&lanes16Byte
}

// fold16 adds the four 16-bit lanes of v.
func fold16(v uint64) int {
	v = v&0x0000FFFF0000FFFF + v>>16&0x0000FFFF0000FFFF
	return int(v&0xFFFFFFFF + v>>32)
}

// paeth16 is the Paeth predictor in each 16-bit lane of bytes a, b and
// c, as paeth computes it: p = b-c and q = a-c as 16-bit two's
// complement, then the three distances and two lane-mask selects.
func paeth16(a, b, c uint64) uint64 {
	p := ((b | lanes16Hi) - c) ^ lanes16Hi
	q := ((a | lanes16Hi) - c) ^ lanes16Hi
	pa, pb := abs16(p), abs16(q)
	pc := abs16(((p &^ lanes16Hi) + (q &^ lanes16Hi)) ^ ((p ^ q) & lanes16Hi))
	mb := le16(pb, pc)
	ma := le16(pa, pb) & le16(pa, pc)
	pred := c&^mb | b&mb
	return pred&^ma | a&ma
}

// paethAbs16 is |int8(x - paeth(a, b, c))| in each 16-bit lane of
// bytes.
func paethAbs16(x, a, b, c uint64) uint64 {
	r := ((x | lanes16Lo<<8) - paeth16(a, b, c)) & lanes16Byte
	n := r >> 7 & lanes16Lo
	return (r ^ n*0xFF) + n
}

// abs16 is the absolute value of each 16-bit two's complement lane
// (|v| < 1<<15).
func abs16(v uint64) uint64 {
	n := v >> 15 & lanes16Lo
	return (v ^ n*0xFFFF) + n
}

// le16 is a lane mask of 0xFFFF where x <= y, for lanes below 1<<15.
func le16(x, y uint64) uint64 {
	return ((y | lanes16Hi) - x) & lanes16Hi >> 15 * 0xFFFF
}
