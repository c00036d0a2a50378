package core

import (
	"testing"

	"thinc/internal/compress"
	"thinc/internal/fb"
	"thinc/internal/geom"
	"thinc/internal/pixel"
	"thinc/internal/wire"
)

func TestSizeQueueBoundaries(t *testing.T) {
	cases := []struct {
		size, queue int
	}{
		{1, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2},
		{8192, 7}, {16384, 8}, {32768, 9}, {1 << 20, 9},
	}
	for _, c := range cases {
		if got := sizeQueue(c.size); got != c.queue {
			t.Errorf("sizeQueue(%d) = %d, want %d", c.size, got, c.queue)
		}
	}
}

func TestSRSFSmallBeforeLarge(t *testing.T) {
	b := NewClientBuffer()
	big := geom.XYWH(0, 0, 200, 200)
	b.Add(NewRaw(big, mkPix(big, 1), 200, false, compress.CodecNone)) // arrives first
	b.Add(NewFill(geom.XYWH(500, 500, 10, 10), pixel.RGB(1, 1, 1)))   // small, later
	msgs := b.FlushAll()
	if len(msgs) < 2 {
		t.Fatalf("%d messages", len(msgs))
	}
	if _, ok := msgs[0].(*wire.SFill); !ok {
		t.Fatalf("small fill should be delivered first, got %T", msgs[0])
	}
}

func TestArrivalOrderWithinQueue(t *testing.T) {
	b := NewClientBuffer()
	b.Add(NewFill(geom.XYWH(0, 0, 5, 5), pixel.RGB(1, 1, 1)))
	b.Add(NewFill(geom.XYWH(10, 0, 5, 5), pixel.RGB(2, 2, 2)))
	msgs := b.FlushAll()
	if msgs[0].(*wire.SFill).Color != pixel.RGB(1, 1, 1) {
		t.Fatal("same-queue commands must flush in arrival order")
	}
}

func TestDependencyOrderingTransparentAfterBase(t *testing.T) {
	b := NewClientBuffer()
	big := geom.XYWH(0, 0, 150, 150)
	b.Add(NewRaw(big, mkPix(big, 1), 150, false, compress.CodecNone))
	// Transparent blend over part of the raw: must come after it even
	// though it is tiny.
	blend := geom.XYWH(10, 10, 4, 4)
	b.Add(NewRaw(blend, mkPix(blend, 2), 4, true, compress.CodecNone))
	msgs := b.FlushAll()
	sawBase := false
	for _, m := range msgs {
		if r, ok := m.(*wire.Raw); ok {
			if !r.Blend {
				sawBase = true
			} else if !sawBase {
				t.Fatal("transparent delivered before its base")
			}
		}
	}
}

func TestCopySourceProtection(t *testing.T) {
	// A COPY must flush after the command that drew its source, and any
	// later command overwriting the source must flush after the COPY.
	b := NewClientBuffer()
	src := geom.XYWH(0, 0, 120, 120)
	b.Add(NewRaw(src, mkPix(src, 1), 120, false, compress.CodecNone)) // draws source
	b.Add(NewCopy(geom.XYWH(0, 0, 50, 50), geom.Point{X: 300, Y: 300}))
	msgs := b.FlushAll()
	var order []wire.Type
	for _, m := range msgs {
		order = append(order, m.Type())
	}
	// RAW (source content) must precede COPY.
	for _, ty := range order {
		if ty == wire.TCopy {
			t.Fatalf("COPY before its source RAW: %v", order)
		}
		if ty == wire.TRaw {
			break
		}
	}
}

func TestRealtimePreemption(t *testing.T) {
	b := NewClientBuffer()
	big := geom.XYWH(0, 0, 200, 200)
	b.Add(NewRaw(big, mkPix(big, 1), 200, false, compress.CodecNone))
	// Click at (500,500); the button redraw near it is realtime.
	b.NotifyInput(geom.Point{X: 500, Y: 500})
	b.Add(NewFill(geom.XYWH(495, 495, 20, 10), pixel.RGB(9, 9, 9)))
	// Another small but far-away fill is NOT realtime.
	b.Add(NewFill(geom.XYWH(900, 50, 20, 10), pixel.RGB(8, 8, 8)))
	msgs := b.Flush(1 << 30)
	first := msgs[0].(*wire.SFill)
	if first.Rect != geom.XYWH(495, 495, 20, 10) {
		t.Fatalf("realtime update not first: %v", first.Rect)
	}
}

func TestRealtimeRegionExpires(t *testing.T) {
	b := NewClientBuffer()
	b.NotifyInput(geom.Point{X: 100, Y: 100})
	for i := 0; i < rtLifetime+1; i++ {
		b.Flush(1 << 30)
	}
	if rt := b.rtRegion(); !rt.Empty() {
		t.Fatal("input region should expire")
	}
}

func TestNonBlockingFlushSplitsRaw(t *testing.T) {
	b := NewClientBuffer()
	big := geom.XYWH(0, 0, 100, 100)
	b.Add(NewRaw(big, mkPix(big, 1), 100, false, compress.CodecNone))
	total := b.QueuedBytes()

	budget := total / 4
	msgs := b.Flush(budget)
	if len(msgs) == 0 {
		t.Fatal("no progress under small budget")
	}
	var sent int
	for _, m := range msgs {
		sent += wire.WireSize(m)
	}
	if sent > budget {
		t.Fatalf("flush exceeded budget: %d > %d", sent, budget)
	}
	if b.Len() != 1 {
		t.Fatalf("remainder should stay buffered, len=%d", b.Len())
	}
	if b.Stats.Splits != 1 {
		t.Fatalf("splits = %d", b.Stats.Splits)
	}
	// Eventually drains.
	for i := 0; i < 10 && b.Len() > 0; i++ {
		b.Flush(budget)
	}
	if b.Len() != 0 {
		t.Fatal("buffer did not drain")
	}
}

func TestFlushStopsAtUnsplittable(t *testing.T) {
	b := NewClientBuffer()
	// A tile command bigger than budget cannot split: flush returns empty.
	tile := fb.NewTile(64, 64, make([]pixel.ARGB, 64*64))
	b.Add(NewTile(geom.XYWH(0, 0, 100, 100), tile))
	msgs := b.Flush(100)
	if len(msgs) != 0 {
		t.Fatalf("unsplittable command partially flushed: %d msgs", len(msgs))
	}
	if b.Len() != 1 {
		t.Fatal("command lost")
	}
}

func TestVideoFrameReplacement(t *testing.T) {
	b := NewClientBuffer()
	frame := func(seq uint32) *FrameCmd {
		img := pixel.NewYV12(16, 16)
		return NewFrame(1, seq, uint64(seq)*1000, img, geom.XYWH(0, 0, 64, 64))
	}
	if b.AddFrame(frame(1)) {
		t.Fatal("first frame should not drop")
	}
	if !b.AddFrame(frame(2)) {
		t.Fatal("second frame should replace the first")
	}
	if b.Stats.FrameDrops != 1 {
		t.Fatalf("frame drops %d", b.Stats.FrameDrops)
	}
	msgs := b.FlushAll()
	count := 0
	for _, m := range msgs {
		if vf, ok := m.(*wire.VideoFrame); ok {
			count++
			if vf.Seq != 2 {
				t.Fatalf("stale frame delivered: seq %d", vf.Seq)
			}
		}
	}
	if count != 1 {
		t.Fatalf("%d frames delivered, want 1", count)
	}
}

func TestVideoFramesPerStreamIndependent(t *testing.T) {
	b := NewClientBuffer()
	img := pixel.NewYV12(8, 8)
	b.AddFrame(NewFrame(1, 1, 0, img, geom.XYWH(0, 0, 8, 8)))
	b.AddFrame(NewFrame(2, 1, 0, img, geom.XYWH(8, 0, 8, 8)))
	if b.Stats.FrameDrops != 0 {
		t.Fatal("frames of different streams must not replace each other")
	}
	if b.Len() != 2 {
		t.Fatalf("len %d", b.Len())
	}
}

func TestAudioIsRealtime(t *testing.T) {
	b := NewClientBuffer()
	big := geom.XYWH(0, 0, 200, 200)
	b.Add(NewRaw(big, mkPix(big, 1), 200, false, compress.CodecNone))
	b.Add(NewAudio(123, make([]byte, 512)))
	msgs := b.Flush(1 << 30)
	if _, ok := msgs[0].(*wire.AudioData); !ok {
		t.Fatalf("audio should preempt display, got %T first", msgs[0])
	}
}

func TestBufferEvictionCountsStats(t *testing.T) {
	b := NewClientBuffer()
	b.Add(NewFill(geom.XYWH(0, 0, 10, 10), pixel.RGB(1, 1, 1)))
	b.Add(NewFill(geom.XYWH(0, 0, 10, 10), pixel.RGB(2, 2, 2)))
	if b.Stats.Evicted != 1 || b.Len() != 1 {
		t.Fatalf("evicted=%d len=%d", b.Stats.Evicted, b.Len())
	}
	msgs := b.FlushAll()
	if len(msgs) != 1 || msgs[0].(*wire.SFill).Color != pixel.RGB(2, 2, 2) {
		t.Fatal("outdated fill was delivered")
	}
}

func TestFlushEmptyAndZeroBudget(t *testing.T) {
	b := NewClientBuffer()
	if msgs := b.Flush(1000); msgs != nil {
		t.Fatal("empty buffer should flush nothing")
	}
	b.Add(NewFill(geom.XYWH(0, 0, 1, 1), pixel.RGB(1, 1, 1)))
	if msgs := b.Flush(0); msgs != nil {
		t.Fatal("zero budget should flush nothing")
	}
}

// TestFlushMoreContinuesThePass: FlushMore drains like Flush but does
// not open a new delivery pass, so the per-pass counters — the input
// region's lifetime and queue residency — count passes, however many
// batches a pass takes.
func TestFlushMoreContinuesThePass(t *testing.T) {
	b := NewClientBuffer()
	b.NotifyInput(geom.Point{X: 500, Y: 500})
	for i := 0; i < rtLifetime-1; i++ {
		b.Add(NewFill(geom.XYWH(0, 0, 5, 5), pixel.RGB(uint8(i), 1, 1)))
		if len(b.Flush(1<<20)) == 0 {
			t.Fatal("Flush delivered nothing")
		}
		for k := 0; k < 3; k++ {
			b.Add(NewFill(geom.XYWH(0, 0, 5, 5), pixel.RGB(uint8(i), 2, 2)))
			if len(b.FlushMore(1<<20)) == 0 {
				t.Fatal("FlushMore delivered nothing")
			}
		}
	}
	if b.flushes != rtLifetime-1 {
		t.Fatalf("%d passes counted for %d Flush calls", b.flushes, rtLifetime-1)
	}
	if b.rtRegion().Empty() {
		t.Fatalf("input region expired after %d passes; it lives %d", rtLifetime-1, rtLifetime)
	}
	if b.Flush(1 << 20); !b.rtRegion().Empty() {
		t.Fatal("input region outlived its passes")
	}
}
