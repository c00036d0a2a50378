package core

import (
	"strings"
	"testing"

	"thinc/internal/compress"
	"thinc/internal/driver"
	"thinc/internal/geom"
	"thinc/internal/pixel"
	"thinc/internal/telemetry"
	"thinc/internal/wire"
)

// fakeMem is a minimal driver.Memory: surfaces read back as zero pixels.
type fakeMem struct {
	w, h int
	pix  map[driver.DrawableID][2]int
	next driver.DrawableID
}

func (m *fakeMem) NewPixmap(w, h int) driver.DrawableID {
	m.next++
	m.pix[m.next] = [2]int{w, h}
	return m.next
}

func (m *fakeMem) ReadPixels(_ driver.DrawableID, r geom.Rect) []pixel.ARGB {
	return make([]pixel.ARGB, r.Area())
}

func (m *fakeMem) SurfaceSize(d driver.DrawableID) (int, int) {
	if s, ok := m.pix[d]; ok {
		return s[0], s[1]
	}
	return m.w, m.h
}

func newTestServer(t *testing.T, opts Options) (*Server, *fakeMem) {
	t.Helper()
	srv := NewServer(opts)
	mem := &fakeMem{w: 128, h: 96, pix: map[driver.DrawableID][2]int{}}
	srv.Init(mem, 128, 96)
	return srv, mem
}

// TestSplitRemainderRequeued is the regression test for queue-size
// accounting after flush-budget RAW splitting: once a large RAW has been
// partially delivered, the remainder must be scheduled by its *reduced*
// wire size, competing in the small queues — not in the queue its
// original size selected. SRSF then delivers it ahead of genuinely
// larger commands (§5's smallest-first policy).
func TestSplitRemainderRequeued(t *testing.T) {
	b := NewClientBuffer()

	// A 64x64 RAW: ~16 KB of pixels, top queue.
	big := geom.XYWH(0, 0, 64, 64)
	b.Add(NewRaw(big, make([]pixel.ARGB, big.Area()), big.W(), false, compress.CodecNone))

	origQueue := sizeQueue(b.entries[0].cmd.WireSize())

	// Split it down until the remainder is small: each 2 KB flush takes
	// a band of rows off the top.
	for b.QueuedBytes() > 600 {
		if msgs := b.Flush(2048); len(msgs) == 0 {
			t.Fatal("no progress splitting the RAW")
		}
	}
	if b.Len() != 1 {
		t.Fatalf("expected one remainder entry, have %d", b.Len())
	}
	rem := b.entries[0]
	newQueue := sizeQueue(rem.size)
	if newQueue >= origQueue {
		t.Fatalf("remainder still in queue %d (original %d); not rescheduled by reduced size",
			newQueue, origQueue)
	}

	// Per-queue occupancy must agree: the remainder counts in its
	// reduced-size queue, and the original queue is empty.
	var depth, bytes [NumQueues + 1]int64
	b.queueLoads(&depth, &bytes)
	if depth[origQueue] != 0 {
		t.Fatalf("queue %d still reports depth %d", origQueue, depth[origQueue])
	}
	if depth[newQueue] != 1 || bytes[newQueue] != int64(rem.cmd.WireSize()) {
		t.Fatalf("queue %d: depth=%d bytes=%d, want 1/%d",
			newQueue, depth[newQueue], bytes[newQueue], rem.cmd.WireSize())
	}

	// A mid-size competitor in a higher queue loses to the remainder.
	mid := geom.XYWH(100, 0, 32, 32) // ~4 KB
	b.Add(NewRaw(mid, make([]pixel.ARGB, mid.Area()), mid.W(), false, compress.CodecNone))
	msgs := b.FlushOne()
	if len(msgs) != 1 {
		t.Fatalf("FlushOne delivered %d messages", len(msgs))
	}
	raw, ok := msgs[0].(*wire.Raw)
	if !ok {
		t.Fatalf("delivered %T, want *wire.Raw", msgs[0])
	}
	if raw.Rect.X0 != 0 {
		t.Fatalf("delivered rect %v; mid-size command jumped the split remainder", raw.Rect)
	}
}

// TestSchedulerMetricsFlow drives a buffer wired to a live registry and
// checks the series agree with the scheduler's own stats.
func TestSchedulerMetricsFlow(t *testing.T) {
	reg := telemetry.NewRegistry()
	met := NewMetrics(reg)
	b := NewClientBufferWith(met)

	big := geom.XYWH(0, 0, 64, 32) // 8 KB → will split under budget
	b.Add(NewRaw(big, make([]pixel.ARGB, big.Area()), big.W(), false, compress.CodecNone))
	b.Add(NewFill(geom.XYWH(100, 0, 10, 10), pixel.RGB(1, 2, 3)))
	b.Add(NewFill(geom.XYWH(100, 0, 10, 10), pixel.RGB(4, 5, 6))) // merges (same rect)

	for b.Len() > 0 {
		if msgs := b.Flush(2048); len(msgs) == 0 {
			t.Fatal("no progress")
		}
	}

	if got := reg.Total("thinc_sched_commands_queued_total"); got != 3 {
		t.Fatalf("queued_total = %d, want 3", got)
	}
	if got := reg.Value("thinc_sched_commands_merged_total"); got != int64(b.Stats.Merged) {
		t.Fatalf("merged_total = %d, scheduler saw %d", got, b.Stats.Merged)
	}
	if got := reg.Value("thinc_sched_raw_splits_total"); got != int64(b.Stats.Splits) || got == 0 {
		t.Fatalf("raw_splits_total = %d, scheduler saw %d", got, b.Stats.Splits)
	}
	if got := reg.Value("thinc_sched_commands_sent_total"); got != int64(b.Stats.Sent) {
		t.Fatalf("sent_total = %d, scheduler saw %d", got, b.Stats.Sent)
	}
	if got := reg.Value("thinc_sched_bytes_sent_total"); got != b.Stats.BytesSent {
		t.Fatalf("bytes_sent_total = %d, scheduler saw %d", got, b.Stats.BytesSent)
	}
	if count, _ := reg.HistogramStats("thinc_sched_command_size_bytes"); count != 3 {
		t.Fatalf("command_size count = %d, want 3", count)
	}
	if count, _ := reg.HistogramStats("thinc_sched_queue_wait_flushes"); count != int64(b.Stats.Sent) {
		t.Fatalf("queue_wait count = %d, want one observation per sent command (%d)",
			count, b.Stats.Sent)
	}
}

// TestTranslateMetricsFlow exercises a server core end to end and checks
// the translation-layer series mirror TranslateStats exactly.
func TestTranslateMetricsFlow(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, mem := newTestServer(t, Options{Metrics: NewMetrics(reg)})
	srv.AttachClient(0, 0)

	srv.FillSolid(driver.Screen, geom.XYWH(0, 0, 10, 10), pixel.RGB(9, 9, 9))
	pm := mem.NewPixmap(40, 40)
	srv.CreatePixmap(pm, 40, 40)
	srv.FillSolid(pm, geom.XYWH(0, 0, 40, 40), pixel.RGB(1, 1, 1))
	for y := 0; y < 3; y++ { // three scanlines: two absorbed by the first
		row := geom.XYWH(0, y, 40, 1)
		srv.PutImage(pm, row, mkPix(row, uint8(y)), 40)
	}
	srv.CopyArea(driver.Screen, pm, geom.XYWH(0, 0, 40, 40), geom.Point{X: 5, Y: 5})

	check := func(name string, want int) {
		t.Helper()
		if got := reg.Total(name); got != int64(want) || want == 0 {
			t.Fatalf("%s = %d, want %d (nonzero)", name, got, want)
		}
	}
	check("thinc_translate_commands_total", srv.Stats.OnscreenCmds+srv.Stats.OffscreenCmds)
	check("thinc_translate_offscreen_execs_total", srv.Stats.OffscreenExecs)
	check("thinc_offscreen_commands_merged_total", srv.Stats.OffscreenMerges)
	if srv.Stats.OffscreenMerges != 2 {
		t.Fatalf("OffscreenMerges = %d, want 2", srv.Stats.OffscreenMerges)
	}
	if got := reg.Value("thinc_translate_commands_total", telemetry.L("dest", "offscreen")); got != int64(srv.Stats.OffscreenCmds) {
		t.Fatalf("offscreen commands = %d, stats %d", got, srv.Stats.OffscreenCmds)
	}

	// The registry renders every series the bundle registered.
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	for _, want := range []string{
		"thinc_translate_commands_total", "thinc_sched_commands_queued_total",
		"thinc_sched_command_size_bytes_bucket", "thinc_sched_bytes_sent_total",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("/metrics missing %s", want)
		}
	}
}

// TestQueueLoads checks the scrape-time per-queue gauges: depth and
// bytes land in the queue matching each command's wire size, with the
// real-time queue at index NumQueues.
func TestQueueLoads(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	c := srv.AttachClient(0, 0)
	c.Buf.Clear() // drop the attach-time sync for a clean slate

	small := geom.XYWH(0, 0, 4, 4)
	srv.FillSolid(driver.Screen, small, pixel.RGB(1, 2, 3))
	big := geom.XYWH(0, 0, 64, 64)
	srv.PutImage(driver.Screen, big, make([]pixel.ARGB, big.Area()), big.W())

	depth, bytes := srv.QueueLoads()
	var totalDepth, totalBytes int64
	for i := range depth {
		totalDepth += depth[i]
		totalBytes += bytes[i]
	}
	if totalDepth != int64(c.Buf.Len()) {
		t.Fatalf("QueueLoads depth %d, buffer holds %d", totalDepth, c.Buf.Len())
	}
	if totalBytes != int64(c.Buf.QueuedBytes()) {
		t.Fatalf("QueueLoads bytes %d, buffer holds %d", totalBytes, c.Buf.QueuedBytes())
	}
	bigQ := sizeQueue(NewRaw(big, make([]pixel.ARGB, big.Area()), big.W(), false, compress.CodecNone).WireSize())
	if depth[bigQ] == 0 {
		t.Fatalf("big RAW not accounted in queue %d (depth=%v)", bigQ, depth)
	}
}
