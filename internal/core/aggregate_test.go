package core

import (
	"runtime"
	"testing"

	"thinc/internal/compress"
	"thinc/internal/driver"
	"thinc/internal/fb"
	"thinc/internal/geom"
	"thinc/internal/pixel"
)

// newAggregateServer returns a server over a w x h screen with one
// attached client (buffer emptied) and one w x h pixmap: the two places
// §4 aggregation happens — ClientBuffer.Add and Queue.Add.
func newAggregateServer(w, h int) (*Server, *Client, driver.DrawableID) {
	srv := NewServer(Options{})
	mem := &fakeMem{w: w, h: h, pix: map[driver.DrawableID][2]int{}}
	srv.Init(mem, w, h)
	c := srv.AttachClient(w, h)
	c.Buf.Clear()
	pm := mem.NewPixmap(w, h)
	srv.CreatePixmap(pm, w, h)
	return srv, c, pm
}

// scanline returns row y of a w-wide image; rows differ (mod 256), so a
// misplaced or rewritten row is visible.
func scanline(w, y int) []pixel.ARGB {
	return mkPix(geom.XYWH(0, y, w, 1), uint8(y))
}

// TestRawMergeCopyOnWriteThenInPlace: while a clone shares the backing
// the absorber detaches and the clone keeps its pixels; once the
// absorber is sole owner (after the detach, or after the sharer is
// released) scanlines are appended to the same backing.
func TestRawMergeCopyOnWriteThenInPlace(t *testing.T) {
	const w = 32
	row := func(y int) *RawCmd {
		return NewRaw(geom.XYWH(0, y, w, 1), scanline(w, y), w, false, compress.CodecNone)
	}
	orig := row(0)
	if !orig.Merge(row(1)) {
		t.Fatal("scanline merge refused")
	}
	clone := orig.Clone().(*RawCmd)
	if orig.PayloadShares() != 2 || clone.PayloadShares() != 2 {
		t.Fatalf("shares = %d/%d, want 2/2", orig.PayloadShares(), clone.PayloadShares())
	}
	snapshot := append([]pixel.ARGB(nil), clone.Pix...)

	for y := 2; y < 40; y++ {
		if !orig.Merge(row(y)) {
			t.Fatalf("row %d refused", y)
		}
	}
	if clone.Bounds() != geom.XYWH(0, 0, w, 2) || len(clone.Pix) != len(snapshot) {
		t.Fatalf("clone grew with the original: bounds %v, %d pixels", clone.Bounds(), len(clone.Pix))
	}
	for i, p := range snapshot {
		if clone.Pix[i] != p {
			t.Fatalf("clone pixel %d changed under the original's merges", i)
		}
	}
	if orig.PayloadShares() != 1 || clone.PayloadShares() != 1 {
		t.Fatalf("shares after detach = %d/%d, want 1/1", orig.PayloadShares(), clone.PayloadShares())
	}
	for y := 0; y < 40; y++ {
		for x, p := range scanline(w, y) {
			if orig.Pix[y*w+x] != p {
				t.Fatalf("merged pixel (%d,%d) wrong", x, y)
			}
		}
	}

	// A sharer that is absorbed elsewhere releases its share; the
	// survivor is sole owner again and its next absorb is in place.
	// Room for the next row is reserved first so "in place" is
	// observable as an unchanged first-element address.
	grown := make([]pixel.ARGB, len(orig.Pix), len(orig.Pix)+4*w)
	copy(grown, orig.Pix)
	orig.setPix(grown)
	sharer := orig.Clone().(*RawCmd)
	sharer.release()
	if orig.PayloadShares() != 1 {
		t.Fatalf("shares after release = %d, want 1", orig.PayloadShares())
	}
	backing := &orig.Pix[0]
	if !orig.Merge(row(40)) {
		t.Fatal("row 40 refused")
	}
	if &orig.Pix[0] != backing {
		t.Fatal("sole owner with spare capacity moved to a new backing")
	}
	// And a live sharer forces the detach, whatever the spare capacity.
	sharer = orig.Clone().(*RawCmd)
	if !orig.Merge(row(41)) {
		t.Fatal("row 41 refused")
	}
	if &orig.Pix[0] == backing {
		t.Fatal("absorbed in place while a clone shared the backing")
	}
	if len(sharer.Pix) != 41*w || sharer.Pix[40*w] != scanline(w, 40)[0] {
		t.Fatal("sharer's payload disturbed")
	}
}

// TestRawMergeInPlaceResetsDigestMemo: the backing's memoized cache
// digest must not survive an in-place absorb — a stale key would file
// the merged payload under the first scanline's identity and desync the
// client's store.
func TestRawMergeInPlaceResetsDigestMemo(t *testing.T) {
	const w, h = 24, 9
	var whole []pixel.ARGB
	c := NewRaw(geom.XYWH(3, 0, w, 1), scanline(w, 0), w, false, compress.CodecNone)
	whole = append(whole, scanline(w, 0)...)
	for y := 1; y < h; y++ {
		rawCmdDigest(c) // memoize, as cacheTransform and every re-key do
		if !c.Merge(NewRaw(geom.XYWH(3, y, w, 1), scanline(w, y), w, false, compress.CodecNone)) {
			t.Fatalf("row %d refused", y)
		}
		whole = append(whole, scanline(w, y)...)
		if got, want := rawCmdDigest(c), fb.CacheDigestRaw(w, y+1, false, whole); got != want {
			t.Fatalf("after %d rows: digest %016x, want %016x", y+1, got, want)
		}
	}
	fresh := NewRaw(geom.XYWH(3, 0, w, h), whole, w, false, compress.CodecNone)
	if rawCmdDigest(c) != rawCmdDigest(fresh) {
		t.Fatal("merged command and a freshly built equal command disagree on cache identity")
	}
}

// TestAggregateRunAllocatesLinearly pins the cost contract of
// docs/TRANSLATION.md rule 4 deterministically: absorbing a 512-row
// scanline image through the driver entry point allocates a small
// multiple of the final payload (each row's own command, plus the
// absorber's geometric growth), where re-copying the accumulated image
// per row allocated about rows/2 = 256 times it.
func TestAggregateRunAllocatesLinearly(t *testing.T) {
	const w, h = 256, 512
	srv, _, pm := newAggregateServer(w, h)
	rows := make([][]pixel.ARGB, h)
	for y := range rows {
		rows[y] = scanline(w, y)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for y, row := range rows {
		srv.PutImage(pm, geom.XYWH(0, y, w, 1), row, w)
	}
	runtime.ReadMemStats(&after)

	q := srv.offscreen[pm]
	if q.Len() != 1 || q.Merged != h-1 {
		t.Fatalf("queue holds %d commands after %d merges, want 1 after %d", q.Len(), q.Merged, h-1)
	}
	payload := uint64(w * h * 4)
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*payload {
		t.Errorf("absorbing %d scanlines allocated %d bytes = %.1fx the %d-byte image, want <= 4x",
			h, got, float64(got)/float64(payload), payload)
	}
}

// BenchmarkAggregateRun measures §4 aggregation through the driver
// entry points, so route, Queue.Add and ClientBuffer.Add are on the
// clock: one op draws the run to the screen (absorbed in the client's
// buffer) and to a pixmap (absorbed in its offscreen queue).
func BenchmarkAggregateRun(b *testing.B) {
	b.Run("glyphs=80", func(b *testing.B) {
		const gw, gh, n = 7, 13, 80 // 7 px cells: every bit alignment occurs
		srv, c, pm := newAggregateServer(gw*n, gh)
		glyph := fb.NewBitmap(gw, gh)
		for y := 0; y < gh; y++ {
			glyph.SetBit(y%gw, y, true)
		}
		fg := pixel.RGB(0, 0, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, d := range []driver.DrawableID{driver.Screen, pm} {
				for g := 0; g < n; g++ {
					srv.FillStipple(d, geom.XYWH(g*gw, 0, gw, gh), glyph, fg, 0, true)
				}
			}
			if c.Buf.Len() != 1 || srv.offscreen[pm].Len() != 1 {
				b.Fatalf("run not aggregated: %d buffered, %d queued", c.Buf.Len(), srv.offscreen[pm].Len())
			}
			c.Buf.Clear()
			srv.offscreen[pm].Clear()
		}
	})
	b.Run("scanlines=256x256", func(b *testing.B) {
		const w, h = 256, 256
		srv, c, pm := newAggregateServer(w, h)
		rows := make([][]pixel.ARGB, h)
		for y := range rows {
			rows[y] = scanline(w, y)
		}
		b.SetBytes(2 * w * h * 4)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, d := range []driver.DrawableID{driver.Screen, pm} {
				for y, row := range rows {
					srv.PutImage(d, geom.XYWH(0, y, w, 1), row, w)
				}
			}
			if c.Buf.Len() != 1 || srv.offscreen[pm].Len() != 1 {
				b.Fatalf("image not aggregated: %d buffered, %d queued", c.Buf.Len(), srv.offscreen[pm].Len())
			}
			c.Buf.Clear()
			srv.offscreen[pm].Clear()
		}
	})
}
