package faultconn

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"thinc/internal/compress"
	"thinc/internal/geom"
	"thinc/internal/pixel"
	"thinc/internal/wire"
)

// chunkReader yields the underlying stream in random-size chunks, so
// tests prove the frame parser survives arbitrary read boundaries.
type chunkReader struct {
	r   *bytes.Reader
	rnd *rand.Rand
}

func (c *chunkReader) Read(p []byte) (int, error) {
	max := 1 + c.rnd.Intn(len(p))
	if max < len(p) {
		p = p[:max]
	}
	return c.r.Read(p)
}

// corruptStream is a representative protocol slice: eligible display
// payloads interleaved with messages that must pass through untouched.
func corruptStream(t *testing.T) ([]byte, []wire.Message) {
	t.Helper()
	pix := make([]pixel.ARGB, 16*8)
	for i := range pix {
		pix[i] = pixel.ARGB(0xff000000 | uint32(i*7))
	}
	raw, err := wire.NewRaw(geom.XYWH(0, 0, 16, 8), pix, 16, compress.CodecNone)
	if err != nil {
		t.Fatal(err)
	}
	rle, err := wire.NewRaw(geom.XYWH(16, 0, 16, 8), pix, 16, compress.CodecRLE)
	if err != nil {
		t.Fatal(err)
	}
	msgs := []wire.Message{
		&wire.Ping{Seq: 1, TimeUS: 99},
		raw,
		&wire.Copy{Src: geom.XYWH(0, 0, 8, 8), Dst: geom.Point{X: 40, Y: 40}},
		&wire.SFill{Rect: geom.XYWH(4, 4, 20, 20), Color: pixel.RGB(1, 2, 3)},
		rle,
		&wire.PFill{Rect: geom.XYWH(0, 0, 32, 32), TileW: 4, TileH: 4,
			Tile: make([]pixel.ARGB, 16)},
		&wire.Bitmap{Rect: geom.XYWH(0, 0, 16, 16), Fg: 0xffffffff,
			BitW: 16, BitH: 16, Bits: make([]byte, 32)},
		&wire.AuditProbe{Seq: 5, Tile: 16, Start: 0, Count: 8},
	}
	var stream []byte
	for _, m := range msgs {
		stream, err = wire.AppendMessage(stream, m)
		if err != nil {
			t.Fatal(err)
		}
	}
	return stream, msgs
}

// runCorrupter pushes stream through a Corrupter with the given plan
// and chunking seed, returning the filtered bytes.
func runCorrupter(t *testing.T, stream []byte, plan CorruptPlan, chunkSeed int64) ([]byte, *Corrupter) {
	t.Helper()
	var src io.Reader = bytes.NewReader(stream)
	if chunkSeed != 0 {
		src = &chunkReader{r: bytes.NewReader(stream), rnd: rand.New(rand.NewSource(chunkSeed))}
	}
	c := NewCorrupter(src, plan)
	out, err := io.ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	return out, c
}

// decodeAll parses every message out of a byte stream.
func decodeAll(t *testing.T, stream []byte) []wire.Message {
	t.Helper()
	r := bytes.NewReader(stream)
	var out []wire.Message
	for r.Len() > 0 {
		m, err := wire.ReadMessage(r)
		if err != nil {
			t.Fatalf("corrupted stream failed to decode at message %d: %v", len(out), err)
		}
		out = append(out, m)
	}
	return out
}

func TestCorrupterPreservesFraming(t *testing.T) {
	stream, msgs := corruptStream(t)
	out, c := runCorrupter(t, stream, CorruptPlan{Seed: 42, Gap: 16}, 7)
	if c.Flips() == 0 {
		t.Fatal("no bits flipped")
	}
	if len(out) != len(stream) {
		t.Fatalf("stream length changed: %d -> %d", len(stream), len(out))
	}
	got := decodeAll(t, out)
	if len(got) != len(msgs) {
		t.Fatalf("decoded %d messages, want %d", len(got), len(msgs))
	}
	for i, m := range got {
		if m.Type() != msgs[i].Type() {
			t.Fatalf("message %d type %v, want %v", i, m.Type(), msgs[i].Type())
		}
	}

	// Ineligible messages are byte-identical; eligible ones keep their
	// metadata but carry flipped data.
	reencode := func(m wire.Message) []byte {
		b, err := wire.AppendMessage(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, i := range []int{0, 2, 7} { // Ping, Copy, AuditProbe
		if !bytes.Equal(reencode(got[i]), reencode(msgs[i])) {
			t.Errorf("ineligible message %d (%v) was modified", i, msgs[i].Type())
		}
	}
	r0, r1 := got[1].(*wire.Raw), msgs[1].(*wire.Raw)
	if r0.Rect != r1.Rect || r0.Codec != r1.Codec || len(r0.Data) != len(r1.Data) {
		t.Errorf("RAW metadata modified: %+v vs %+v", r0.Rect, r1.Rect)
	}
	if bytes.Equal(r0.Data, r1.Data) {
		t.Error("uncompressed RAW data survived a gap-16 corrupter intact")
	}
	if _, err := r0.Pixels(); err != nil {
		t.Errorf("corrupted RAW no longer decodes: %v", err)
	}
	// The RLE RAW is ineligible: flipping compressed bytes would break
	// decode, which is a loud failure, not silent corruption.
	if !bytes.Equal(reencode(got[4]), reencode(msgs[4])) {
		t.Error("compressed RAW was modified")
	}
	b0, b1 := got[6].(*wire.Bitmap), msgs[6].(*wire.Bitmap)
	if b0.Rect != b1.Rect || b0.BitW != b1.BitW || b0.BitH != b1.BitH {
		t.Error("BITMAP metadata modified")
	}
	if bytes.Equal(b0.Bits, b1.Bits) {
		t.Error("BITMAP bits survived intact")
	}
}

func TestCorrupterDeterministic(t *testing.T) {
	stream, _ := corruptStream(t)
	a, ca := runCorrupter(t, stream, CorruptPlan{Seed: 9, Gap: 32}, 3)
	b, cb := runCorrupter(t, stream, CorruptPlan{Seed: 9, Gap: 32}, 111)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed over different chunkings produced different corruption")
	}
	if ca.Flips() != cb.Flips() {
		t.Fatalf("flip counts differ: %d vs %d", ca.Flips(), cb.Flips())
	}
	c, _ := runCorrupter(t, stream, CorruptPlan{Seed: 10, Gap: 32}, 3)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical corruption")
	}
}

func TestCorrupterDisabled(t *testing.T) {
	stream, _ := corruptStream(t)
	src := bytes.NewReader(stream)
	c := NewCorrupter(src, CorruptPlan{Seed: 1, Gap: 4})
	c.Disable()
	out, err := io.ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, stream) {
		t.Fatal("disabled corrupter modified the stream")
	}
	if c.Flips() != 0 {
		t.Fatalf("disabled corrupter reported %d flips", c.Flips())
	}
}

func TestCorrupterMaxFlips(t *testing.T) {
	stream, _ := corruptStream(t)
	_, c := runCorrupter(t, stream, CorruptPlan{Seed: 3, Gap: 1, MaxFlips: 3}, 0)
	if c.Flips() != 3 {
		t.Fatalf("Flips() = %d, want exactly MaxFlips=3", c.Flips())
	}
}

// TestCorrupterToggleKeepsFraming proves the parser stays aligned when
// corruption is toggled mid-stream (the chaos phase boundary).
func TestCorrupterToggleKeepsFraming(t *testing.T) {
	stream, msgs := corruptStream(t)
	src := bytes.NewReader(stream)
	c := NewCorrupter(src, CorruptPlan{Seed: 5, Gap: 8})
	c.Disable()
	// Read half disabled, enable, read the rest.
	half := make([]byte, len(stream)/2)
	if _, err := io.ReadFull(c, half); err != nil {
		t.Fatal(err)
	}
	c.Enable()
	rest, err := io.ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	out := append(half, rest...)
	if got := decodeAll(t, out); len(got) != len(msgs) {
		t.Fatalf("decoded %d messages, want %d", len(got), len(msgs))
	}
	if !bytes.Equal(out[:len(half)], stream[:len(half)]) {
		t.Error("disabled phase modified bytes")
	}
}

// cacheStream is a protocol slice of wire-v6 cache traffic: eligible
// cache payloads interleaved with cache messages that must pass through
// untouched.
func cacheStream(t *testing.T) ([]byte, []wire.Message) {
	t.Helper()
	pix := make([]pixel.ARGB, 16*8)
	for i := range pix {
		pix[i] = pixel.ARGB(0xff000000 | uint32(i*13))
	}
	plain, err := compress.EncodeAppend(compress.CodecNone, nil, pix, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	rle, err := compress.EncodeAppend(compress.CodecRLE, nil, pix, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	msgs := []wire.Message{
		&wire.CacheStore{Digest: 0x1111, Kind: wire.CacheKindRaw,
			Rect: geom.XYWH(0, 0, 16, 8), Codec: compress.CodecNone, Data: plain},
		&wire.CachePaint{Digest: 0x2222, Rect: geom.XYWH(16, 0, 16, 8)},
		&wire.CacheStore{Digest: 0x3333, Kind: wire.CacheKindRaw,
			Rect: geom.XYWH(32, 0, 16, 8), Codec: compress.CodecRLE, Data: rle},
		&wire.CacheStore{Digest: 0x4444, Kind: wire.CacheKindBitmap,
			Rect: geom.XYWH(0, 8, 16, 16), Fg: 0xffffffff, Bg: 0xff000000,
			BitW: 16, BitH: 16, Bits: make([]byte, 32)},
		&wire.CacheMiss{Digest: 0x5555, Rect: geom.XYWH(0, 0, 8, 8)},
	}
	var stream []byte
	for _, m := range msgs {
		stream, err = wire.AppendMessage(stream, m)
		if err != nil {
			t.Fatal(err)
		}
	}
	return stream, msgs
}

// TestCorrupterCacheWindows: flips land only inside the cache payloads
// the client verifies — RAW-kind data (uncompressed only), bitmap bits,
// and the CACHE_PAINT digest — never in digests of stores, rects, kind
// or codec bytes, or CACHE_MISS reports.
func TestCorrupterCacheWindows(t *testing.T) {
	stream, msgs := cacheStream(t)
	out, c := runCorrupter(t, stream, CorruptPlan{Seed: 11, Gap: 2, Fixed: true}, 17)
	if c.Flips() == 0 {
		t.Fatal("no bits flipped")
	}
	got := decodeAll(t, out)
	if len(got) != len(msgs) {
		t.Fatalf("decoded %d messages, want %d", len(got), len(msgs))
	}
	reencode := func(m wire.Message) []byte {
		b, err := wire.AppendMessage(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	s0, w0 := got[0].(*wire.CacheStore), msgs[0].(*wire.CacheStore)
	if s0.Digest != w0.Digest || s0.Rect != w0.Rect || s0.Kind != w0.Kind ||
		s0.Codec != w0.Codec || len(s0.Data) != len(w0.Data) {
		t.Error("RAW-kind store metadata modified")
	}
	if bytes.Equal(s0.Data, w0.Data) {
		t.Error("RAW-kind store data survived a fixed gap-2 corrupter intact")
	}

	p1, w1 := got[1].(*wire.CachePaint), msgs[1].(*wire.CachePaint)
	if p1.Digest == w1.Digest {
		t.Error("CACHE_PAINT digest survived intact")
	}
	if p1.Rect != w1.Rect {
		t.Error("CACHE_PAINT rect modified")
	}

	// Compressed store data would break decode — a loud failure, so it
	// stays sacred exactly like a compressed plain RAW.
	if !bytes.Equal(reencode(got[2]), reencode(msgs[2])) {
		t.Error("compressed RAW-kind store was modified")
	}

	s3, w3 := got[3].(*wire.CacheStore), msgs[3].(*wire.CacheStore)
	if s3.Digest != w3.Digest || s3.Fg != w3.Fg || s3.Bg != w3.Bg ||
		s3.BitW != w3.BitW || s3.BitH != w3.BitH {
		t.Error("bitmap-kind store metadata modified")
	}
	if bytes.Equal(s3.Bits, w3.Bits) {
		t.Error("bitmap-kind store bits survived intact")
	}

	if !bytes.Equal(reencode(got[4]), reencode(msgs[4])) {
		t.Error("CACHE_MISS was modified")
	}
}

// TestCorrupterTargetsTilesInsideMergedRaw: two 16x16 tiles carried side
// by side in one 32x16 RAW (rows interleave the tiles) each take exactly
// one flip, in a colour byte of a pixel inside that tile, and a
// compressed RAW over a third target and every other message pass
// untouched — for any read chunking.
func TestCorrupterTargetsTilesInsideMergedRaw(t *testing.T) {
	pix := make([]pixel.ARGB, 32*16)
	for i := range pix {
		pix[i] = pixel.ARGB(0xff000000 | uint32(i*7))
	}
	merged, err := wire.NewRaw(geom.XYWH(32, 16, 32, 16), pix, 32, compress.CodecNone)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := wire.NewRaw(geom.XYWH(0, 0, 16, 16), pix, 32, compress.CodecRLE)
	if err != nil {
		t.Fatal(err)
	}
	msgs := []wire.Message{
		packed,
		&wire.SFill{Rect: geom.XYWH(32, 16, 16, 16), Color: pixel.RGB(1, 2, 3)},
		merged,
		&wire.Ping{Seq: 1, TimeUS: 99},
	}
	var stream []byte
	for _, m := range msgs {
		if stream, err = wire.AppendMessage(stream, m); err != nil {
			t.Fatal(err)
		}
	}
	left, right := geom.XYWH(32, 16, 16, 16), geom.XYWH(48, 16, 16, 16)
	plan := CorruptPlan{Targets: []geom.Rect{left, right, geom.XYWH(0, 0, 16, 16)}}
	for seed := int64(1); seed <= 40; seed++ {
		plan.Seed = seed
		out, c := runCorrupter(t, stream, plan, seed)
		if c.Flips() != 2 {
			t.Fatalf("seed %d: %d flips, want one per tile the uncompressed RAW carries", seed, c.Flips())
		}
		got := decodeAll(t, out)
		for i := range msgs {
			if i == 2 {
				continue
			}
			a, _ := wire.AppendMessage(nil, got[i])
			b, _ := wire.AppendMessage(nil, msgs[i])
			if !bytes.Equal(a, b) {
				t.Fatalf("seed %d: message %d (%T) was modified", seed, i, msgs[i])
			}
		}
		raw := got[2].(*wire.Raw)
		hits := map[geom.Rect]int{}
		for i := 0; i < len(raw.Data); i++ {
			if d := raw.Data[i] ^ merged.Data[i]; d != 0 {
				if i%4 == 0 {
					t.Fatalf("seed %d: alpha byte of pixel %d flipped", seed, i/4)
				}
				if d&(d-1) != 0 {
					t.Fatalf("seed %d: byte %d took more than one bit", seed, i)
				}
				p := geom.XYWH(32+(i/4)%32, 16+(i/4)/32, 1, 1)
				for _, tile := range []geom.Rect{left, right} {
					if tile.Contains(p) {
						hits[tile]++
					}
				}
			}
		}
		if hits[left] != 1 || hits[right] != 1 {
			t.Fatalf("seed %d: flips per tile left=%d right=%d, want 1 and 1", seed, hits[left], hits[right])
		}
	}
}
