package core

import (
	"testing"

	"thinc/internal/compress"
	"thinc/internal/driver"
	"thinc/internal/fb"
	"thinc/internal/geom"
	"thinc/internal/overload"
	"thinc/internal/pixel"
	"thinc/internal/wire"
)

// cachePattern builds pixels whose values depend only on coordinates
// relative to the rect origin, so the same content drawn at different
// positions produces byte-identical payloads (the repeat the cache
// exists to catch).
func cachePattern(r geom.Rect, seed uint32) []pixel.ARGB {
	pix := make([]pixel.ARGB, r.Area())
	for y := 0; y < r.H(); y++ {
		for x := 0; x < r.W(); x++ {
			pix[y*r.W()+x] = pixel.ARGB(0xFF000000 | (seed * uint32(y*r.W()+x+1)))
		}
	}
	return pix
}

// cacheMsgs splits a flush result into its cache-protocol messages.
func cacheMsgs(msgs []wire.Message) (stores []*wire.CacheStore, paints []*wire.CachePaint) {
	for _, m := range msgs {
		switch v := m.(type) {
		case *wire.CacheStore:
			stores = append(stores, v)
		case *wire.CachePaint:
			paints = append(paints, v)
		}
	}
	return stores, paints
}

func newCacheClient(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv, _ := newTestServer(t, Options{})
	c := srv.AttachClient(0, 0)
	c.FlushAll() // drain the attach snapshot
	c.SetCacheSize(64 << 10)
	return srv, c
}

func TestCacheStoreThenPaint(t *testing.T) {
	srv, c := newCacheClient(t)

	r1 := geom.XYWH(0, 0, 16, 16)
	srv.PutImage(driver.Screen, r1, cachePattern(r1, 7), r1.W())
	stores, paints := cacheMsgs(c.FlushAll())
	if len(stores) != 1 || len(paints) != 0 {
		t.Fatalf("first appearance: %d stores / %d paints, want 1/0", len(stores), len(paints))
	}
	st := stores[0]
	if st.Kind != wire.CacheKindRaw || st.Rect != r1 {
		t.Fatalf("store = kind %d rect %v", st.Kind, st.Rect)
	}
	// The stored payload round-trips to the pixels that were drawn, and
	// the advertised digest is the canonical digest of that content.
	raw := wire.Raw{Rect: st.Rect, Codec: st.Codec, Blend: st.Blend, Data: st.Data}
	pix, err := raw.Pixels()
	if err != nil {
		t.Fatal(err)
	}
	if got := fb.CacheDigestRaw(r1.W(), r1.H(), st.Blend, pix); got != st.Digest {
		t.Fatalf("store digest %016x, content digests to %016x", st.Digest, got)
	}
	if !c.CacheHolds(st.Digest) || c.CacheEntries() != 1 {
		t.Fatalf("model does not hold the stored digest (entries=%d)", c.CacheEntries())
	}

	// The same content at a new position rides a ~21-byte reference.
	r2 := geom.XYWH(64, 32, 16, 16)
	srv.PutImage(driver.Screen, r2, cachePattern(r2.Translate(-64, -32).Translate(0, 0), 7), r2.W())
	msgs := c.FlushAll()
	stores, paints = cacheMsgs(msgs)
	if len(stores) != 0 || len(paints) != 1 {
		t.Fatalf("repeat: %d stores / %d paints, want 0/1", len(stores), len(paints))
	}
	if paints[0].Digest != st.Digest || paints[0].Rect != r2 {
		t.Fatalf("paint = %016x at %v, want %016x at %v",
			paints[0].Digest, paints[0].Rect, st.Digest, r2)
	}
	if c.CacheStats.Hits != 1 || c.CacheStats.Stores != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 store", c.CacheStats)
	}
	if c.CacheStats.SavedBytes <= 0 {
		t.Fatalf("SavedBytes = %d, want > 0", c.CacheStats.SavedBytes)
	}
}

func TestCacheBitmapStoreThenPaint(t *testing.T) {
	srv, c := newCacheClient(t)

	// 32x16 stipple: 64 bit-rows bytes, exactly at the admissibility
	// floor. Opaque colors keep it Complete class.
	bm := fb.NewBitmap(32, 16)
	for i := range bm.Bits {
		bm.Bits[i] = byte(i * 37)
	}
	fg, bg := pixel.RGB(10, 20, 30), pixel.RGB(200, 100, 0)
	r1 := geom.XYWH(0, 0, 32, 16)
	srv.FillStipple(driver.Screen, r1, bm, fg, bg, false)
	stores, paints := cacheMsgs(c.FlushAll())
	if len(stores) != 1 || len(paints) != 0 {
		t.Fatalf("first appearance: %d stores / %d paints, want 1/0", len(stores), len(paints))
	}
	st := stores[0]
	if st.Kind != wire.CacheKindBitmap || st.Fg != fg || st.Bg != bg {
		t.Fatalf("store = kind %d fg %v bg %v", st.Kind, st.Fg, st.Bg)
	}
	if got := fb.CacheDigestBitmap(r1.W(), r1.H(), fg, bg, false,
		st.BitW, st.BitH, st.Bits); got != st.Digest {
		t.Fatalf("store digest %016x, content digests to %016x", st.Digest, got)
	}

	// Same glyph block elsewhere; deliberately not abutting r1 so the
	// two commands cannot merge into a wider run.
	r2 := geom.XYWH(64, 48, 32, 16)
	srv.FillStipple(driver.Screen, r2, bm, fg, bg, false)
	stores, paints = cacheMsgs(c.FlushAll())
	if len(stores) != 0 || len(paints) != 1 || paints[0].Digest != st.Digest {
		t.Fatalf("repeat: stores=%d paints=%v", len(stores), paints)
	}
}

// TestCacheDownscaleRung: a lossy CodecDown2 payload must never be
// stored (the wire bytes would not verify against the lossless digest),
// but a repeat of content stored while lossless still hits — the paint
// reference delivers the stored lossless pixels, un-degrading the
// region for 21 bytes.
func TestCacheDownscaleRung(t *testing.T) {
	srv, c := newCacheClient(t)

	r1 := geom.XYWH(0, 0, 16, 16)
	srv.PutImage(driver.Screen, r1, cachePattern(r1, 11), r1.W())
	stores, _ := cacheMsgs(c.FlushAll())
	if len(stores) != 1 {
		t.Fatalf("lossless store count = %d", len(stores))
	}

	c.SetDegrade(overload.RungDownscale)
	r2 := geom.XYWH(32, 0, 16, 16)
	srv.PutImage(driver.Screen, r2, cachePattern(r2, 11), r2.W())
	st2, paints := cacheMsgs(c.FlushAll())
	if len(st2) != 0 || len(paints) != 1 || paints[0].Digest != stores[0].Digest {
		t.Fatalf("lossy-rung repeat: stores=%d paints=%v", len(st2), paints)
	}

	// Fresh content at the lossy rung: delivered plain (and lossy), never
	// stored under a digest its bytes cannot verify.
	r3 := geom.XYWH(64, 0, 16, 16)
	srv.PutImage(driver.Screen, r3, cachePattern(r3, 99), r3.W())
	msgs := c.FlushAll()
	st3, p3 := cacheMsgs(msgs)
	if len(st3) != 0 || len(p3) != 0 {
		t.Fatalf("lossy fresh content used the cache protocol: stores=%d paints=%d", len(st3), len(p3))
	}
	raws := rawMsgs(msgs)
	if len(raws) != 1 || raws[0].Codec != compress.CodecDown2 {
		t.Fatalf("lossy fresh content = %+v, want one CodecDown2 RAW", raws)
	}
	if c.CacheStats.Stores != 1 {
		t.Fatalf("Stores = %d, want 1 (lossy payload must not be stored)", c.CacheStats.Stores)
	}
}

// TestCachePartialOverwriteFallsBack: the digest names the full
// payload, so once overwrite eviction clips a buffered command's live
// region the cache protocol no longer applies — the remainder ships as
// plain per-rect RAW and nothing enters the model.
func TestCachePartialOverwriteFallsBack(t *testing.T) {
	srv, c := newCacheClient(t)

	r := geom.XYWH(0, 0, 32, 32)
	srv.PutImage(driver.Screen, r, cachePattern(r, 5), r.W())
	srv.FillSolid(driver.Screen, geom.XYWH(0, 0, 32, 8), pixel.RGB(1, 2, 3))

	msgs := c.FlushAll()
	stores, paints := cacheMsgs(msgs)
	if len(stores) != 0 || len(paints) != 0 {
		t.Fatalf("clipped command used the cache protocol: stores=%d paints=%d",
			len(stores), len(paints))
	}
	if len(rawMsgs(msgs)) == 0 {
		t.Fatal("no RAW fallback for the clipped remainder")
	}
	if c.CacheEntries() != 0 {
		t.Fatalf("model holds %d entries after a fallback emit", c.CacheEntries())
	}
}

// TestCacheMergeRekeys: merge absorption rewrites the payload, so the
// absorber's cache identity must follow — and the merged payload is the
// repeating unit the cache should key on.
func TestCacheMergeRekeys(t *testing.T) {
	srv, c := newCacheClient(t)

	// Two vertically abutting halves drawn back to back merge in the
	// buffer into one 16x32 command.
	top, bottom := geom.XYWH(0, 0, 16, 16), geom.XYWH(0, 16, 16, 16)
	whole := geom.XYWH(0, 0, 16, 32)
	wholePix := cachePattern(whole, 13)
	srv.PutImage(driver.Screen, top, wholePix[:top.Area()], top.W())
	srv.PutImage(driver.Screen, bottom, wholePix[top.Area():], bottom.W())
	if c.Buf.Stats.Merged == 0 {
		t.Fatal("halves did not merge; the test no longer exercises re-keying")
	}
	stores, _ := cacheMsgs(c.FlushAll())
	if len(stores) != 1 || stores[0].Rect != whole {
		t.Fatalf("merged emit = %+v, want one store covering %v", stores, whole)
	}
	wantDigest := fb.CacheDigestRaw(whole.W(), whole.H(), false, wholePix)
	if stores[0].Digest != wantDigest {
		t.Fatalf("merged digest %016x, want digest of merged payload %016x",
			stores[0].Digest, wantDigest)
	}

	// The same content drawn as one block is the same cache identity.
	at := geom.XYWH(48, 0, 16, 32)
	srv.PutImage(driver.Screen, at, wholePix, at.W())
	st2, paints := cacheMsgs(c.FlushAll())
	if len(st2) != 0 || len(paints) != 1 || paints[0].Digest != wantDigest {
		t.Fatalf("whole-block repeat: stores=%d paints=%v", len(st2), paints)
	}
}

// TestCacheWarmAndColdResize mirrors the negotiation rules: granting
// the capacity already in force keeps the model warm (reattach), any
// other capacity restarts cold (the two sides could not have evicted
// identically under different caps).
func TestCacheWarmAndColdResize(t *testing.T) {
	srv, c := newCacheClient(t)

	r := geom.XYWH(0, 0, 16, 16)
	srv.PutImage(driver.Screen, r, cachePattern(r, 3), r.W())
	c.FlushAll()
	if c.CacheEntries() != 1 {
		t.Fatalf("entries = %d", c.CacheEntries())
	}

	c.SetCacheSize(64 << 10) // unchanged: warm
	if c.CacheEntries() != 1 {
		t.Fatal("unchanged capacity lost the warm model")
	}
	c.SetCacheSize(128 << 10) // changed: cold
	if c.CacheEntries() != 0 {
		t.Fatal("changed capacity kept a model the client cannot match")
	}
	c.SetCacheSize(0)
	if c.CacheSize() != 0 || c.CacheEntries() != 0 {
		t.Fatal("zero grant did not disable the cache")
	}
}

func TestCacheMissRepairForgetsAndRepaints(t *testing.T) {
	srv, c := newCacheClient(t)

	r := geom.XYWH(8, 8, 16, 16)
	srv.PutImage(driver.Screen, r, cachePattern(r, 21), r.W())
	stores, _ := cacheMsgs(c.FlushAll())
	if len(stores) != 1 {
		t.Fatalf("stores = %d", len(stores))
	}
	d := stores[0].Digest

	srv.CacheMissRepair(c, d, r)
	if c.CacheHolds(d) {
		t.Fatal("model still holds the digest the client reported missing")
	}
	if c.CacheStats.Misses != 1 {
		t.Fatalf("Misses = %d, want 1", c.CacheStats.Misses)
	}
	repaired := false
	for _, m := range c.FlushAll() {
		switch v := m.(type) {
		case *wire.Raw:
			if v.Rect.Contains(r) {
				repaired = true
			}
		case *wire.CacheStore:
			if v.Rect.Contains(r) {
				repaired = true // the repair raw is itself cache-eligible
			}
		}
	}
	if !repaired {
		t.Fatal("no repaint of the reported region")
	}

	// Out-of-screen reports are clipped, not executed.
	before := c.Buf.Len()
	srv.CacheMissRepair(c, 42, geom.XYWH(10000, 10000, 5, 5))
	if c.Buf.Len() != before {
		t.Fatal("off-screen miss report queued a repaint")
	}
}

// TestCacheSchedulesHitAtPaintCost: SRSF schedules on wire economy, so
// a kilobyte payload the client holds must sort as a ~21-byte command.
func TestCacheSchedulesHitAtPaintCost(t *testing.T) {
	srv, c := newCacheClient(t)

	r := geom.XYWH(0, 0, 32, 32)
	srv.PutImage(driver.Screen, r, cachePattern(r, 17), r.W())
	c.FlushAll()

	r2 := geom.XYWH(64, 0, 32, 32)
	srv.PutImage(driver.Screen, r2, cachePattern(r2, 17), r2.W())
	if got := c.Buf.entries[0].cmd.WireSize(); got != cachePaintWire {
		t.Fatalf("scheduled size of a hit = %d, want %d", got, cachePaintWire)
	}
	// A cold cache prices the same payload at full cost plus the store
	// overhead.
	c.SetCacheSize(32 << 10)
	if got := c.Buf.entries[0].cmd.WireSize(); got <= cachePaintWire {
		t.Fatalf("scheduled size after cold restart = %d, want full store cost", got)
	}
}

// TestCacheHotPathZeroAlloc enforces the hot-path allocation budget:
// deciding hit-vs-store — memoized digest, model lookup, scheduling
// size — allocates nothing. (Emitting a message allocates the message,
// like every other emit path.)
func TestCacheHotPathZeroAlloc(t *testing.T) {
	srv, c := newCacheClient(t)

	r := geom.XYWH(0, 0, 32, 32)
	srv.PutImage(driver.Screen, r, cachePattern(r, 29), r.W())
	c.FlushAll()

	r2 := geom.XYWH(64, 0, 32, 32)
	srv.PutImage(driver.Screen, r2, cachePattern(r2, 29), r2.W())
	cc, ok := c.Buf.entries[0].cmd.(*cacheCmd)
	if !ok {
		t.Fatalf("buffered command is %T, want *cacheCmd", c.Buf.entries[0].cmd)
	}
	raw := cc.Command.(*RawCmd)
	if n := testing.AllocsPerRun(1000, func() {
		if rawCmdDigest(raw) != cc.digest {
			t.Fatal("memoized digest diverged")
		}
		if !c.CacheHolds(cc.digest) {
			t.Fatal("model lost the digest")
		}
		if cc.WireSize() != cachePaintWire {
			t.Fatal("hit not priced as a paint")
		}
	}); n != 0 {
		t.Fatalf("cache hot path allocates %.1f per decision, want 0", n)
	}
}

// TestCacheDisabledIsByteIdentical: with no grant the wire stream must
// not change at all — the default-off guarantee every uncached test
// and peer relies on.
func TestCacheDisabledIsByteIdentical(t *testing.T) {
	srv, c := newCacheClient(t)
	c.SetCacheSize(0)

	r := geom.XYWH(0, 0, 16, 16)
	srv.PutImage(driver.Screen, r, cachePattern(r, 31), r.W())
	srv.PutImage(driver.Screen, r.Translate(32, 0), cachePattern(r, 31), r.W())
	for _, m := range c.FlushAll() {
		switch m.(type) {
		case *wire.CacheStore, *wire.CachePaint:
			t.Fatalf("disabled cache emitted %v", m.Type())
		}
	}
	if c.CacheStats.Stores != 0 || c.CacheStats.Hits != 0 {
		t.Fatalf("disabled cache accrued stats %+v", c.CacheStats)
	}
}
