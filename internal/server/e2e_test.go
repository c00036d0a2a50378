package server

import (
	"testing"
	"time"

	"thinc/internal/client"
	"thinc/internal/compress"
	"thinc/internal/geom"
	"thinc/internal/overload"
	"thinc/internal/pixel"
	"thinc/internal/telemetry"
	"thinc/internal/wire"
	"thinc/internal/xserver"
)

// e2eOptions: fast flush and mark cadence so a test sees acked marks in
// milliseconds, with the audit off to keep the wire quiet.
func e2eOptions() Options {
	return Options{
		FlushInterval: time.Millisecond,
		MarkInterval:  time.Millisecond,
		MarkTimeout:   150 * time.Millisecond,
		DisableAudit:  true,
	}
}

// TestE2EMarkAckFlow runs the mark loop at the lossless rung and at the
// downscale rung, each pinned with Host.ForceRung: marks are acked,
// every pipeline stage has samples, the acks land in the rung's e2e
// histogram, and the stages sum to the headline figure.
func TestE2EMarkAckFlow(t *testing.T) {
	for _, rung := range []int{overload.RungLossless, overload.RungDownscale} {
		t.Run(overload.RungName(rung), func(t *testing.T) {
			opts := e2eOptions()
			opts.DisableOverload = true // the rung is pinned below
			host, addr := startHost(t, 96, 64, opts)
			conn, err := client.Dial(addr, "owner", "pw", 96, 64)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			go conn.Run()
			waitFor(t, "attach", func() bool { return idle(host) })
			host.ForceRung(rung)

			paintTestScene(host)
			if rung == overload.RungLossless {
				want := host.ScreenChecksum()
				waitFor(t, "convergence", func() bool {
					return conn.Snapshot().Checksum() == want
				})
			}
			reg := host.Telemetry()
			waitFor(t, "acked marks at the rung", func() bool {
				n, _ := reg.HistogramStats("thinc_e2e_latency_us",
					telemetry.L("rung", overload.RungName(rung)))
				return n > 0
			})
			checkMarkLoop(t, host, conn)
		})
	}
}

// checkMarkLoop checks a session's acked marks: the client saw and
// acked them, every stage has samples, and the stage decomposition is
// consistent with the headline figure by construction —
// queue+write+wire+apply == e2e, modulo the ns→µs truncation of each
// e2e observation.
func checkMarkLoop(t *testing.T, host *Host, conn *client.Conn) {
	t.Helper()
	rs := host.Resilience()
	if rs.E2EAcks == 0 || rs.E2EMarks < rs.E2EAcks {
		t.Errorf("marks %d, acks %d: want acks, and no more than marks", rs.E2EMarks, rs.E2EAcks)
	}
	st := conn.Stats()
	if st.MarksSeen == 0 || st.MarkAcksSent == 0 {
		t.Errorf("client saw %d marks / sent %d acks", st.MarksSeen, st.MarkAcksSent)
	}
	reg := host.Telemetry()
	var stageSumNS, stageCount int64
	for _, stage := range []string{"queue", "write", "wire", "apply"} {
		n, sum := reg.HistogramStats("thinc_e2e_stage_ns", telemetry.L("stage", stage))
		if n == 0 {
			t.Errorf("stage %q has no observations", stage)
		}
		stageSumNS += sum
		stageCount = n
	}
	e2eCount, e2eSumUS := int64(0), int64(0)
	for _, s := range reg.Snapshot() {
		if s.Name == "thinc_e2e_latency_us" && s.Histogram != nil {
			e2eCount += s.Histogram.Count
			e2eSumUS += s.Histogram.Sum
		}
	}
	if e2eCount != stageCount {
		t.Errorf("e2e observations %d != per-stage observations %d", e2eCount, stageCount)
	}
	if diff := stageSumNS - e2eSumUS*1000; diff < 0 || diff >= e2eCount*1000 {
		t.Errorf("stage sum %dns vs e2e sum %dus: inconsistent (diff %d, acks %d)",
			stageSumNS, e2eSumUS, diff, e2eCount)
	}
}

// TestE2EMarkNamesWholePass: a delivery pass of several batches carries
// one mark, on its last batch, naming the newest epoch the pass
// delivered. Sixteen PNG-friendly 32x32 images drawn at once, apart so
// they do not merge, are 64 KB of RAW against an 8 KB drain budget but
// leave as a few KB: one pass of many batches. A mark paced per batch
// named the first batch's epoch, so its ack timed only the first slice
// of the pass.
func TestE2EMarkNamesWholePass(t *testing.T) {
	const images, side, slot = 16, 32, 36
	opts := e2eOptions()
	opts.FlushBudget = 8 << 10
	opts.HeartbeatTimeout = 10 * time.Second // a hand-rolled peer sends no pongs
	opts.DisableOverload = true
	opts.Core.RawCodec = compress.CodecPNG
	host, addr := startHost(t, 4*slot, 4*slot, opts)
	nc, enc := rawSession(t, addr, "owner", "pw",
		&wire.ClientInit{ViewW: 4 * slot, ViewH: 4 * slot, Name: "marks"})
	defer nc.Close()
	var win *xserver.Window
	host.Do(func(d *xserver.Display) { win = d.CreateWindow(geom.XYWH(0, 0, 4*slot, 4*slot)) })
	waitFor(t, "attach delivered", func() bool { return idle(host) })

	reg := host.Telemetry()
	batchesBefore, _ := reg.HistogramStats("thinc_server_flush_batch_bytes")
	passesBefore, _ := passes(host)
	var before, want uint64
	host.Do(func(d *xserver.Display) {
		before = host.core.Epoch()
		pix := make([]pixel.ARGB, side*side)
		for i := 0; i < images; i++ {
			for j := range pix {
				pix[j] = pixel.RGB(uint8(j%side*8), uint8(j/side*8), uint8(i*16))
			}
			d.PutImage(win, geom.XYWH(i%4*slot, i/4*slot, side, side), pix, side)
		}
		want = host.core.Epoch()
	})
	// Read up to the first mark naming anything the burst drew,
	// counting the RAW pixels since the mark before it (the drain
	// splits RAWs at the budget).
	var mark *wire.TimeMark
	raws := 0
	_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	for mark == nil {
		m, err := wire.ReadMessage(enc)
		if err != nil {
			t.Fatalf("reading the update stream: %v", err)
		}
		switch v := m.(type) {
		case *wire.Raw:
			raws += v.Rect.W() * v.Rect.H()
		case *wire.TimeMark:
			if v.Epoch <= before {
				raws = 0
				continue
			}
			mark = v
		}
	}
	waitFor(t, "burst delivered", func() bool { return idle(host) })
	batchesAfter, _ := reg.HistogramStats("thinc_server_flush_batch_bytes")
	passesAfter, _ := passes(host)
	if p, b := passesAfter-passesBefore, batchesAfter-batchesBefore; p != 1 || b < 2 {
		t.Fatalf("the burst took %d passes of %d batches, want one pass of several", p, b)
	}
	if raws != images*side*side || mark.Epoch != want {
		t.Fatalf("the pass's mark followed %d of %d RAW pixels and names epoch %d; want all of them and epoch %d (the burst drew %d..%d)",
			raws, images*side*side, mark.Epoch, want, before+1, want)
	}
	if err := wire.WriteMessage(enc, &wire.MarkAck{Epoch: mark.Epoch, TimeUS: mark.TimeUS}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the pass's mark acked", func() bool { return host.Resilience().E2EAcks >= 1 })
}

func TestE2EDisabled(t *testing.T) {
	opts := e2eOptions()
	opts.DisableE2E = true
	host, addr := startHost(t, 96, 64, opts)
	conn, err := client.Dial(addr, "owner", "pw", 96, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go conn.Run()

	paintTestScene(host)
	want := host.ScreenChecksum()
	waitFor(t, "convergence", func() bool {
		return conn.Snapshot().Checksum() == want
	})
	time.Sleep(30 * time.Millisecond)
	if rs := host.Resilience(); rs.E2EMarks != 0 {
		t.Errorf("DisableE2E sent %d marks", rs.E2EMarks)
	}
	if st := conn.Stats(); st.MarksSeen != 0 {
		t.Errorf("client saw %d marks with e2e disabled", st.MarksSeen)
	}
}
