package core

import (
	"testing"

	"thinc/internal/compress"
	"thinc/internal/fb"
	"thinc/internal/geom"
	"thinc/internal/overload"
	"thinc/internal/pixel"
	"thinc/internal/wire"
)

// rawMsgs filters a flush result down to its RAW payloads.
func rawMsgs(msgs []wire.Message) []*wire.Raw {
	var out []*wire.Raw
	for _, m := range msgs {
		if r, ok := m.(*wire.Raw); ok {
			out = append(out, r)
		}
	}
	return out
}

func TestDegradeCompressRungSwitchesCodec(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	healthy := srv.AttachClient(0, 0)
	slow := srv.AttachClient(0, 0)
	healthy.FlushAll()
	slow.FlushAll()

	slow.SetDegrade(overload.RungCompress)
	r := geom.XYWH(0, 0, 64, 48)
	srv.PutImage(0, r, make([]pixel.ARGB, r.Area()), r.W())

	sr := rawMsgs(slow.FlushAll())
	hr := rawMsgs(healthy.FlushAll())
	if len(sr) != 1 || len(hr) != 1 {
		t.Fatalf("raw counts = %d/%d, want 1/1", len(sr), len(hr))
	}
	if sr[0].Codec != compress.CodecPNG {
		t.Fatalf("degraded codec = %v, want PNG", sr[0].Codec)
	}
	// The shared broadcast original must stay untouched for the
	// healthy client (clone-before-mutate).
	if hr[0].Codec != compress.CodecNone {
		t.Fatalf("healthy client codec = %v, want None", hr[0].Codec)
	}
}

func TestDegradeDownscaleRung(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	c := srv.AttachClient(0, 0)
	c.FlushAll()
	c.SetDegrade(overload.RungDownscale)

	r := geom.XYWH(0, 0, 64, 48)
	srv.PutImage(0, r, make([]pixel.ARGB, r.Area()), r.W())
	tile := fb.NewTile(8, 8, make([]pixel.ARGB, 64))
	srv.FillTile(0, geom.XYWH(64, 0, 32, 32), tile)

	msgs := c.FlushAll()
	raws := rawMsgs(msgs)
	if len(raws) != 1 || raws[0].Codec != compress.CodecDown2 {
		t.Fatalf("raw = %+v, want one CodecDown2 payload", raws)
	}
	found := false
	for _, m := range msgs {
		if pf, ok := m.(*wire.PFill); ok {
			found = true
			if pf.TileW != 4 || pf.TileH != 4 {
				t.Fatalf("degraded tile = %dx%d, want 4x4", pf.TileW, pf.TileH)
			}
		}
	}
	if !found {
		t.Fatal("no PFILL in flush")
	}
	// Round-trip of the lossy payload still yields full-geometry pixels.
	pix, err := raws[0].Pixels()
	if err != nil {
		t.Fatal(err)
	}
	if len(pix) != r.Area() {
		t.Fatalf("decoded %d pixels, want %d", len(pix), r.Area())
	}
}

func TestDegradeDropVideoKeepsAudio(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	c := srv.AttachClient(0, 0)
	c.FlushAll()
	c.SetDegrade(overload.RungDropVideo)

	srv.VideoSetup(7, 32, 24, geom.XYWH(0, 0, 32, 24))
	frame := &pixel.YV12Image{W: 32, H: 24,
		Y: make([]byte, 32*24), V: make([]byte, 16*12), U: make([]byte, 16*12)}
	srv.VideoFrame(7, frame, 1000)
	srv.PushAudio(1000, make([]byte, 256))

	if c.VideoDrops != 1 {
		t.Fatalf("VideoDrops = %d, want 1", c.VideoDrops)
	}
	if st := srv.Stream(7); st.FramesDropped != 1 {
		t.Fatalf("FramesDropped = %d, want 1", st.FramesDropped)
	}
	var video, audio int
	for _, m := range c.FlushAll() {
		switch m.(type) {
		case *wire.VideoFrame:
			video++
		case *wire.AudioData:
			audio++
		}
	}
	if video != 0 || audio != 1 {
		t.Fatalf("flush carried %d video / %d audio, want 0/1", video, audio)
	}
}

// TestVideoStopRepaintsVacatedOverlay: the client composites video
// into its framebuffer (software overlay), so stopping or moving a
// stream must repaint the vacated screen area from the real
// framebuffer — otherwise the last frame lingers forever.
func TestVideoStopRepaintsVacatedOverlay(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	c := srv.AttachClient(0, 0)
	c.FlushAll()

	dst := geom.XYWH(8, 8, 32, 24)
	srv.VideoSetup(3, 32, 24, dst)
	frame := &pixel.YV12Image{W: 32, H: 24,
		Y: make([]byte, 32*24), V: make([]byte, 16*12), U: make([]byte, 16*12)}
	srv.VideoFrame(3, frame, 1)
	c.FlushAll()

	moved := geom.XYWH(40, 20, 32, 24)
	srv.VideoMove(3, moved)
	repaired := false
	for _, m := range c.FlushAll() {
		if r, ok := m.(*wire.Raw); ok && r.Rect.Contains(dst) {
			repaired = true
		}
	}
	if !repaired {
		t.Fatal("VideoMove left no repaint of the old overlay position")
	}

	srv.VideoStop(3)
	var ended, repainted bool
	for _, m := range c.FlushAll() {
		switch v := m.(type) {
		case *wire.VideoEnd:
			ended = true
		case *wire.Raw:
			if v.Rect.Contains(moved) {
				repainted = true
			}
		}
	}
	if !ended {
		t.Fatal("no VideoEnd in flush")
	}
	if !repainted {
		t.Fatal("VideoStop left no repaint of the vacated overlay")
	}
}

func TestQueueBudgetEvictsToRaw(t *testing.T) {
	srv, _ := newTestServer(t, Options{QueueBudgetBytes: 32 << 10})
	c := srv.AttachClient(0, 0)
	c.FlushAll() // drain the attach snapshot

	// Disjoint 32x32 RAWs (4 KiB each): no overwrite eviction can help,
	// only the budget can keep the backlog bounded.
	for i := 0; i < 40; i++ {
		r := geom.XYWH((i%4)*32, (i/4)*8, 32, 8)
		srv.PutImage(0, r, make([]pixel.ARGB, r.Area()), r.W())
	}
	if got := c.Buf.QueuedBytes(); got > 48<<10 {
		t.Fatalf("backlog %d bytes escaped a 32 KiB budget", got)
	}
	if c.Buf.Stats.BudgetEvicted == 0 || c.BudgetSweeps == 0 {
		t.Fatalf("no budget activity recorded: evicted=%d sweeps=%d",
			c.Buf.Stats.BudgetEvicted, c.BudgetSweeps)
	}
	// Everything still flushes — the replacement RAWs deliver.
	if msgs := c.FlushAll(); len(msgs) == 0 {
		t.Fatal("nothing left to flush")
	}
}

func TestQueueBudgetSparesRealtime(t *testing.T) {
	srv, _ := newTestServer(t, Options{QueueBudgetBytes: 16 << 10})
	c := srv.AttachClient(0, 0)
	c.FlushAll()

	srv.PushAudio(1, make([]byte, 4096))
	for i := 0; i < 20; i++ {
		r := geom.XYWH((i%4)*32, (i/4)*16, 32, 16)
		srv.PutImage(0, r, make([]pixel.ARGB, r.Area()), r.W())
	}
	audio := 0
	for _, m := range c.FlushAll() {
		if _, ok := m.(*wire.AudioData); ok {
			audio++
		}
	}
	if audio != 1 {
		t.Fatalf("audio messages delivered = %d, want 1 (never evicted)", audio)
	}
}

func TestOffscreenQueueBudgetFallsBackToPixels(t *testing.T) {
	q := &Queue{MaxBytes: 8 << 10}
	r := geom.XYWH(0, 0, 32, 16) // 2 KiB each
	for i := 0; i < 8; i++ {
		q.Add(NewRaw(r.Translate(0, i*16), make([]pixel.ARGB, r.Area()), r.W(), false, compress.CodecNone))
	}
	if q.Overflows == 0 {
		t.Fatal("queue never overflowed")
	}
	// The dropped prefix is no longer reproducible from commands: it
	// must land in the raw fallback region.
	_, fallback := q.CopyOut(geom.XYWH(0, 0, 32, 128))
	if fallback.Empty() {
		t.Fatal("dropped commands left no fallback region")
	}
	if !fallback.OverlapsRect(geom.XYWH(0, 0, 32, 16)) {
		t.Fatal("fallback does not cover the evicted oldest command")
	}
}

// TestFlushOvershootsForOversizedCommand: an unsplittable command
// larger than the whole flush budget must still go out via the
// FlushOne streaming path — otherwise it blocks every future flush and
// the queue wedges forever. The chaos harness found exactly this: a
// 1764-byte audio write against a modem-class 512-byte pacing budget
// froze the session. This exercises the drain discipline the server's
// delivery pump uses: Flush, then FlushOne when it stalls non-empty.
func TestFlushOvershootsForOversizedCommand(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	c := srv.AttachClient(0, 0)
	c.FlushAll()

	srv.PushAudio(1, make([]byte, 1764))
	r := geom.XYWH(0, 0, 16, 16)
	srv.PutImage(0, r, make([]pixel.ARGB, r.Area()), r.W())

	if msgs := c.Flush(512); len(msgs) != 0 {
		t.Fatalf("budgeted flush delivered %d messages past an oversized head", len(msgs))
	}
	msgs := c.Buf.FlushOne()
	if len(msgs) != 1 {
		t.Fatalf("FlushOne delivered %d messages, want the oversized one", len(msgs))
	}
	if _, ok := msgs[0].(*wire.AudioData); !ok {
		t.Fatalf("FlushOne delivered %T, want *wire.AudioData", msgs[0])
	}
	if c.Buf.Stats.Overshoots != 1 {
		t.Fatalf("Overshoots = %d, want 1", c.Buf.Stats.Overshoots)
	}
	// The queue keeps draining under the same discipline.
	for i := 0; i < 100 && c.Buf.Len() > 0; i++ {
		if len(c.Flush(512)) == 0 && len(c.Buf.FlushOne()) == 0 {
			t.Fatal("flush wedged after the overshoot")
		}
	}
	if c.Buf.Len() != 0 {
		t.Fatal("backlog never drained")
	}
}

func TestRefreshClientRepaintsFullScreen(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	c := srv.AttachClient(0, 0)
	c.FlushAll()

	srv.RefreshClient(c)
	raws := rawMsgs(c.FlushAll())
	total := 0
	for _, r := range raws {
		total += r.Rect.Area()
	}
	if w, h := srv.ScreenSize(); total != w*h {
		t.Fatalf("refresh covered %d pixels, want %d", total, w*h)
	}
}

func TestSetDegradeClamps(t *testing.T) {
	c := &Client{}
	c.SetDegrade(-3)
	if c.Degrade() != overload.RungLossless {
		t.Fatalf("negative rung = %d", c.Degrade())
	}
	c.SetDegrade(99)
	if c.Degrade() != overload.NumRungs-1 {
		t.Fatalf("oversized rung = %d", c.Degrade())
	}
}
