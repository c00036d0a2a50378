package faultconn

import (
	"io"
	"math/rand"
	"sync"
	"sync/atomic"

	"thinc/internal/compress"
	"thinc/internal/geom"
	"thinc/internal/wire"
)

// Silent payload corruption: unlike the transport faults above, which
// the framing layer or the decoder catches, the Corrupter flips bits
// *inside* well-framed display payloads. Headers, lengths, and message
// metadata are preserved, so every corrupted message still decodes and
// applies cleanly — the divergence is invisible to the parser and can
// only be caught by the wire-v4 integrity audit.

// CorruptPlan scripts a Corrupter. The zero plan flips roughly one bit
// per 4 KiB of eligible payload data with seed 0 and no flip cap.
type CorruptPlan struct {
	// Seed drives the flip positions and bit choices; a given seed over
	// a given byte stream replays exactly.
	Seed int64
	// Gap is the average number of eligible payload bytes between
	// flips; zero means 4096.
	Gap int64
	// MaxFlips caps the total flips (0 = unlimited). A schedule that
	// must bound how many tiles can diverge bounds the flips.
	MaxFlips int64
	// Fixed makes every inter-flip gap exactly Gap instead of seeded
	// uniform in [1, 2*Gap]: flips land on a deterministic stride of
	// the eligible-byte stream (the seed still picks which bit). A
	// schedule that must guarantee every drawn region takes at least
	// one flip — for any seed — uses a fixed stride no longer than the
	// region payload.
	Fixed bool
	// Targets, when set, replaces the stride: each rectangle (screen
	// coordinates) takes exactly one flip, in a colour byte of one
	// seeded pixel inside it, in the first uncompressed RAW that carries
	// that pixel. The flip's payload offset is computed from the RAW's
	// rectangle, so regions §4 merged into one RAW each still take their
	// own flip. Gap and Fixed are ignored; MaxFlips still caps.
	Targets []geom.Rect
}

// target is one Targets entry resolved to a pixel, byte and bit.
type target struct {
	x, y int
	b    int  // byte within the big-endian ARGB pixel: 1-3, a colour
	bit  uint // bit within that byte
	hit  bool
}

// rawData is the payload offset of a RAW's pixel data: rect 8 + codec 1
// + flags 1 + len 4.
const rawData = 14

// Corrupter is a frame-aware io.Reader filter over the decrypted
// protocol stream (below the decoder, above the cipher). It parses
// THINC framing as bytes stream through and flips seeded bits only
// inside the pixel-data portion of display payloads:
//
//	RAW         — the pixel block, and only when the codec is CodecNone
//	              (flipping compressed data would break decode, which is
//	              exactly the loud failure this mode must avoid)
//	SFILL       — the fill color
//	PFILL       — the pattern tile pixels
//	BITMAP      — the stipple bits
//	CACHE_STORE — the cached payload (pixel data for CodecNone RAW-kind
//	              entries, stipple bits for bitmap-kind entries); the
//	              flip must trip the client's digest verification
//	CACHE_PAINT — the digest itself (the only content it carries); the
//	              flipped reference must miss the client's store
//
// Everything else — headers, rects, codec bytes, lengths, COPY
// geometry, control and audio messages, audit probes — passes through
// untouched, so the stream stays perfectly well-formed.
type Corrupter struct {
	mu    sync.Mutex
	r     io.Reader
	rnd   *rand.Rand
	gap   int64
	fixed bool

	active   atomic.Bool
	flips    atomic.Int64
	maxFlips int64

	// Frame parser state, touched only under mu (Read is called by one
	// goroutine, but Disable/Flips may race it).
	hdr       [wire.HeaderSize]byte
	hdrN      int
	typ       wire.Type
	remaining int   // payload bytes left in the current message
	payOff    int   // offset within the current payload
	skip      int   // first eligible payload offset; -1: none eligible
	stop      int   // first ineligible offset past skip; <=0: payload end
	countdown int64 // eligible bytes until the next flip

	targets []target
	meta    [rawData]byte // the current RAW's payload bytes before its data
	aims    []aim         // targets whose flip lands in the current RAW
}

// aim is a target's flip resolved to a payload offset of the current RAW.
type aim struct{ off, target int }

// NewCorrupter wraps r. The corrupter starts active; chaos schedules
// that inject corruption only during one phase call Disable first and
// Enable at the phase boundary.
func NewCorrupter(r io.Reader, plan CorruptPlan) *Corrupter {
	if plan.Gap <= 0 {
		plan.Gap = 4096
	}
	c := &Corrupter{
		r:        r,
		rnd:      rand.New(rand.NewSource(plan.Seed)),
		gap:      plan.Gap,
		fixed:    plan.Fixed,
		maxFlips: plan.MaxFlips,
	}
	c.countdown = c.drawGap()
	for _, r := range plan.Targets {
		c.targets = append(c.targets, target{x: r.X0 + c.rnd.Intn(r.W()), y: r.Y0 + c.rnd.Intn(r.H()),
			b: 1 + c.rnd.Intn(3), bit: uint(c.rnd.Intn(8))})
	}
	c.active.Store(true)
	return c
}

// Enable arms the corrupter; Disable quiesces it. The frame parser
// keeps running either way, so toggling never desynchronizes framing.
func (c *Corrupter) Enable()  { c.active.Store(true) }
func (c *Corrupter) Disable() { c.active.Store(false) }

// Flips returns how many bits have been flipped so far.
func (c *Corrupter) Flips() int64 { return c.flips.Load() }

// drawGap draws the next inter-flip gap: exactly Gap in fixed mode,
// else uniform in [1, 2*Gap] with mean about Gap. Randomness is
// consumed per flip, never per byte, so the flip positions are
// independent of how reads are chunked.
func (c *Corrupter) drawGap() int64 {
	if c.fixed {
		return c.gap
	}
	return 1 + c.rnd.Int63n(2*c.gap)
}

// cachePending marks a CACHE_STORE whose eligible window is unknown
// until its kind byte (payload offset 8) streams past; no offset can
// reach it, so nothing flips before the kind is known.
const cachePending = 1 << 30

// eligibleWindow returns the payload offset range [skip, stop) whose
// bytes may be flipped for a message type: skip -1 means the whole
// payload passes untouched, stop <= 0 means eligibility runs to the
// payload's end.
func eligibleWindow(t wire.Type) (skip, stop int) {
	switch t {
	case wire.TRaw:
		return rawData, 0 // codec re-checked in-stream
	case wire.TSFill:
		return 8, 0 // rect; then the color
	case wire.TPFill:
		return 16, 0 // rect + tile geometry + anchor; then the tile pixels
	case wire.TBitmap:
		return 21, 0 // rect + fg + bg + flags + bit geometry; then the bits
	case wire.TCacheStore:
		return cachePending, 0 // resolved at the kind byte in-stream
	case wire.TCachePaint:
		return 0, 8 // the digest; the rect stays sacred like every rect
	}
	return -1, 0
}

func (c *Corrupter) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.mu.Lock()
		c.filter(p[:n])
		c.mu.Unlock()
	}
	return n, err
}

// filter advances the frame parser over buf, flipping eligible bytes
// in place. Caller holds c.mu.
func (c *Corrupter) filter(buf []byte) {
	for i := range buf {
		if c.hdrN < wire.HeaderSize {
			// Header bytes are sacred: buffer them to learn the type and
			// payload length, never modify them.
			c.hdr[c.hdrN] = buf[i]
			c.hdrN++
			if c.hdrN == wire.HeaderSize {
				c.typ = wire.Type(c.hdr[0])
				c.remaining = int(uint32(c.hdr[1])<<24 | uint32(c.hdr[2])<<16 |
					uint32(c.hdr[3])<<8 | uint32(c.hdr[4]))
				c.payOff = 0
				c.skip, c.stop = eligibleWindow(c.typ)
				if c.remaining == 0 {
					c.hdrN = 0
				}
			}
			continue
		}
		// Payload byte. A RAW's codec byte (payload offset 8) gates its
		// data: only uncompressed pixels survive a flip as *silent*
		// corruption, so anything else makes the message ineligible.
		if c.typ == wire.TRaw && c.payOff == 8 &&
			compress.Codec(buf[i]) != compress.CodecNone {
			c.skip = -1
		}
		// A CACHE_STORE's kind byte (offset 8) steers where its payload
		// starts — digest 8 + kind 1 + rect 8, then the per-kind meta —
		// and a RAW-kind entry's codec byte (offset 17) gates the data
		// exactly like a plain RAW's.
		if c.typ == wire.TCacheStore {
			switch c.payOff {
			case 8:
				switch buf[i] {
				case wire.CacheKindRaw:
					c.skip = 23
				case wire.CacheKindBitmap:
					c.skip = 30
				default:
					c.skip = -1
				}
			case 17:
				if c.skip == 23 && compress.Codec(buf[i]) != compress.CodecNone {
					c.skip = -1
				}
			}
		}
		if c.targets != nil {
			c.flipTargets(buf, i)
		} else if c.skip >= 0 && c.payOff >= c.skip &&
			(c.stop <= 0 || c.payOff < c.stop) && c.active.Load() &&
			(c.maxFlips == 0 || c.flips.Load() < c.maxFlips) {
			c.countdown--
			if c.countdown <= 0 {
				buf[i] ^= 1 << uint(c.rnd.Intn(8))
				c.flips.Add(1)
				c.countdown = c.drawGap()
			}
		}
		c.payOff++
		c.remaining--
		if c.remaining == 0 {
			c.hdrN = 0
		}
	}
}

// flipTargets is filter's Targets mode for payload byte buf[i]: it records a
// RAW's rectangle as it streams past, resolves the unhit targets the RAW
// carries to payload offsets in its rows once the metadata is complete,
// and flips each one's byte as it arrives. Caller holds c.mu.
func (c *Corrupter) flipTargets(buf []byte, i int) {
	if c.typ != wire.TRaw || c.skip < 0 {
		return
	}
	if c.payOff < rawData {
		c.meta[c.payOff] = buf[i]
		if c.payOff == rawData-1 {
			be := func(o int) int { return int(c.meta[o])<<8 | int(c.meta[o+1]) }
			r := geom.XYWH(be(0), be(2), be(4), be(6))
			c.aims = c.aims[:0]
			for k, t := range c.targets {
				if !t.hit && r.Contains(geom.XYWH(t.x, t.y, 1, 1)) {
					off := rawData + ((t.y-r.Y0)*r.W()+t.x-r.X0)*4 + t.b
					c.aims = append(c.aims, aim{off: off, target: k})
				}
			}
		}
		return
	}
	for _, a := range c.aims {
		if a.off != c.payOff || !c.active.Load() ||
			(c.maxFlips != 0 && c.flips.Load() >= c.maxFlips) {
			continue
		}
		t := &c.targets[a.target]
		buf[i] ^= 1 << t.bit
		t.hit = true
		c.flips.Add(1)
	}
}
