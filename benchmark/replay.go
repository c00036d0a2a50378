package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"thinc/internal/cipher"
	"thinc/internal/client"
	"thinc/internal/compress"
	"thinc/internal/core"
	"thinc/internal/driver"
	"thinc/internal/fb"
	"thinc/internal/geom"
	"thinc/internal/telemetry"
	"thinc/internal/wire"
	"thinc/internal/xserver"
)

// The staged replay pushes a workload's ops through the pipeline one
// public call at a time, on one goroutine with no network, and records
// a span around each call: xserver drawing on a driver-less display,
// the same drawing through core.Server (the difference is translation),
// Client.Flush, Batch.Append+WriteTo into an RC4 StreamConn over a
// buffer, wire.ReadMessage from the peer StreamConn, client.Apply.
// Every op is a root span; its stages are children.

// flushBudget is server.Options' default per-tick byte budget.
const flushBudget = 256 << 10

var replayKey = []byte("thinc-benchmark-replay-key")

// stage names, also the span names in -trace-out.
const (
	stXDraw    = "xserver.draw"
	stCoreDraw = "core.draw"
	stFlush    = "core.flush"
	stEncode   = "compress.encode"
	stWireEnc  = "wire.encode"
	stEncrypt  = "cipher.encrypt"
	stWireDec  = "wire.decode"
	stDecrypt  = "cipher.decrypt"
	stApply    = "client.apply"
	stDecode   = "compress.decode"
	stDigest   = "fb.digest"
)

type replay struct {
	rec    *recorder
	allocs map[string]uint64 // mallocs per stage, counted off the clock

	drawNop, drawCore func(int) drawn
	dpy               *xserver.Display
	srv               *core.Server
	cl                *core.Client
	reg               *telemetry.Registry
	cli               *client.Client

	pipe     bytes.Buffer // ciphertext in flight
	enc, dec *cipher.StreamConn
	batch    *wire.Batch
	rc4      *cipher.RC4 // independent keystream for re-measuring cipher cost
	scratch  []byte

	ops, msgs             int
	wireBytes             int64
	rawPixelBytes, rawEnc int64 // RAW payloads: pixels in, bytes out
	pixelsPainted         int64
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// stage runs f as a child span of root and counts its allocations.
func (rp *replay) stage(name string, root, op int, f func()) int {
	var before uint64
	rp.rec.offClock(func() { before = mallocs() })
	id := rp.rec.begin(name, root, op)
	f()
	rp.rec.end(id)
	rp.rec.offClock(func() { rp.allocs[name] += mallocs() - before })
	return id
}

func newReplay(spec *workloadSpec, seed int64) (*replay, error) {
	sc := spec.Script(seed, 1) // one pipeline: fleet replays its line on one display
	rp := &replay{rec: newRecorder(spec.Name), allocs: map[string]uint64{},
		reg: telemetry.NewRegistry(), batch: wire.NewBatch()}

	nop := xserver.NewDisplay(spec.W, spec.H, driver.Nop{})
	paintDesktop(nop, seed)
	rp.drawNop = sc.bind(0, nop)

	rp.srv = core.NewServer(core.Options{RawCodec: compress.CodecPNG, Metrics: core.NewMetrics(rp.reg)})
	rp.dpy = xserver.NewDisplay(spec.W, spec.H, rp.srv)
	paintDesktop(rp.dpy, seed)
	rp.drawCore = sc.bind(0, rp.dpy)
	rp.cl = rp.srv.AttachClient(spec.W, spec.H)
	rp.cli = client.New(spec.W, spec.H)
	if spec.WAN {
		rp.cl.SetCacheSize(client.DefaultCacheRequestKB << 10)
		rp.cli.EnableCache(client.DefaultCacheRequestKB << 10)
	}

	var err error
	if rp.enc, err = cipher.NewStreamConn(&rp.pipe, replayKey, true); err != nil {
		return nil, err
	}
	if rp.dec, err = cipher.NewStreamConn(&rp.pipe, replayKey, false); err != nil {
		return nil, err
	}
	if rp.rc4, err = cipher.NewRC4(replayKey); err != nil {
		return nil, err
	}
	// The attach-time full-screen sync goes through first; what it
	// recorded and counted is dropped.
	err = rp.deliver(rp.rec.begin("attach", 0, -1), -1)
	rp.rec = newRecorder(spec.Name)
	rp.allocs = map[string]uint64{}
	rp.msgs, rp.wireBytes, rp.rawPixelBytes, rp.rawEnc = 0, 0, 0, 0
	return rp, err
}

// rawPayload returns the compressed pixel payload a message carries.
func rawPayload(m wire.Message) (codec compress.Codec, data []byte, r geom.Rect, ok bool) {
	switch v := m.(type) {
	case *wire.Raw:
		return v.Codec, v.Data, v.Rect, v.Codec != compress.CodecNone
	case *wire.CacheStore:
		return v.Codec, v.Data, v.Rect, v.Kind == wire.CacheKindRaw && v.Codec != compress.CodecNone
	}
	return 0, nil, geom.Rect{}, false
}

// deliver drains the client buffer through flush, wire encode, cipher,
// wire decode and apply, as children of root.
func (rp *replay) deliver(root, op int) error {
	for rp.cl.Buf.Len() > 0 {
		var msgs []wire.Message
		flush := rp.stage(stFlush, root, op, func() {
			msgs = rp.cl.Flush(flushBudget)
			if len(msgs) == 0 {
				msgs = rp.cl.Buf.FlushOne() // one unsplittable command over budget, as the server does
			}
		})
		if len(msgs) == 0 {
			return errors.New("replay: client buffer will not drain")
		}
		rp.msgs += len(msgs)

		// Re-measure, off the clock, the PNG work hidden inside Flush
		// (encode) and inside Apply (decode), on the same pixels.
		var encNS, decNS int64
		var encErr error
		rp.rec.offClock(func() {
			for _, m := range msgs {
				codec, data, r, ok := rawPayload(m)
				if !ok {
					continue
				}
				t0 := time.Now()
				pix, err := compress.Decode(codec, data, r.W(), r.H())
				decNS += int64(time.Since(t0))
				if err != nil {
					encErr = err
					return
				}
				t0 = time.Now()
				rp.scratch, err = compress.EncodeAppend(codec, rp.scratch[:0], pix, r.W(), r.H())
				encNS += int64(time.Since(t0))
				if err != nil {
					encErr = err
					return
				}
				rp.rawPixelBytes += int64(len(pix)) * 4
				rp.rawEnc += int64(len(data))
			}
		})
		if encErr != nil {
			return fmt.Errorf("replay: re-measure RAW: %w", encErr)
		}
		rp.rec.remeasured(stEncode, flush, encNS)

		var werr error
		var wrote int64
		wenc := rp.stage(stWireEnc, root, op, func() {
			for _, m := range msgs {
				if werr = rp.batch.Append(m); werr != nil {
					return
				}
			}
			wrote, werr = rp.batch.WriteTo(rp.enc)
			rp.batch.Reset()
		})
		if werr != nil {
			return fmt.Errorf("replay: wire encode: %w", werr)
		}
		rp.wireBytes += wrote
		var xorNS int64
		rp.rec.offClock(func() {
			core.RecycleMessages(msgs) // as flushTick does once the write is out
			if cap(rp.scratch) < int(wrote) {
				rp.scratch = make([]byte, wrote)
			}
			buf := rp.scratch[:wrote]
			t0 := time.Now()
			rp.rc4.XORKeyStream(buf, buf)
			xorNS = int64(time.Since(t0))
		})
		rp.rec.remeasured(stEncrypt, wenc, xorNS)

		decoded := make([]wire.Message, 0, len(msgs))
		wdec := rp.stage(stWireDec, root, op, func() {
			for range msgs {
				var m wire.Message
				if m, werr = wire.ReadMessage(rp.dec); werr != nil {
					return
				}
				decoded = append(decoded, m)
			}
		})
		if werr != nil {
			return fmt.Errorf("replay: wire decode: %w", werr)
		}
		rp.rec.offClock(func() {
			// The client decrypts a header and then a payload per message.
			buf := rp.scratch[:wrote]
			t0 := time.Now()
			for _, m := range decoded {
				n := wire.WireSize(m)
				rp.rc4.XORKeyStream(buf[:wire.HeaderSize], buf[:wire.HeaderSize])
				rp.rc4.XORKeyStream(buf[wire.HeaderSize:n], buf[wire.HeaderSize:n])
			}
			xorNS = int64(time.Since(t0))
		})
		rp.rec.remeasured(stDecrypt, wdec, xorNS)

		apply := rp.stage(stApply, root, op, func() { werr = rp.cli.ApplyAll(decoded) })
		if werr != nil {
			return fmt.Errorf("replay: apply: %w", werr)
		}
		rp.rec.remeasured(stDecode, apply, decNS)
	}
	return nil
}

// step replays op k.
func (rp *replay) step(k int) error {
	root := rp.rec.begin("op", 0, k)
	rp.stage(stXDraw, root, k, func() { rp.drawNop(k) })
	var out drawn
	rp.stage(stCoreDraw, root, k, func() {
		out = rp.drawCore(k)
		if out.audio != nil {
			rp.srv.PushAudio(out.pts, out.audio)
		}
	})
	err := rp.deliver(root, k)
	rp.rec.end(root)
	rp.ops++
	for _, r := range out.rects {
		rp.pixelsPainted += int64(r.Area())
	}
	if out.pts != 0 {
		rp.pixelsPainted += int64(rp.dpy.Bounds().Area())
	}
	return err
}

// digest times a cold full-screen pass of the audit tile index, which
// the integrity audit pays a window of every AuditInterval.
func (rp *replay) digest() float64 {
	screen := rp.cli.FB()
	ix := fb.NewTileIndex(screen.W(), screen.H(), core.DefaultAuditTile)
	var dst []uint64
	var runs []float64
	for i := 0; i < 5; i++ {
		ix.MarkAll()
		id := rp.rec.begin(stDigest, 0, -1)
		dst = ix.DigestRange(screen, 0, ix.Tiles(), dst[:0])
		rp.rec.end(id)
		runs = append(runs, float64(rp.rec.spans[id-1].dur()))
	}
	sort.Float64s(runs)
	return percentile(runs, 0.5)
}

// metrics turns the recorded spans and counters into per-layer values.
func (rp *replay) metrics(into map[string]float64) {
	self := selfByName(rp.rec.spans)
	ops, msgs := float64(rp.ops), float64(max(rp.msgs, 1))
	per := func(name string, n float64) float64 { return float64(self[name]) / n }
	count := func(name string) float64 { return float64(rp.reg.Total(name)) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	var rootTotal int64
	for _, s := range rp.rec.spans {
		if s.Parent == 0 && s.Name == "op" {
			rootTotal += s.dur()
		}
	}
	encNS, decNS := float64(self[stEncode]), float64(self[stDecode])
	applyNS := float64(self[stApply]) + decNS // what Client.Apply costs, decode included

	into["xserver.draw_ns_per_op"] = per(stXDraw, ops)
	into["xserver.draw_allocs_per_op"] = float64(rp.allocs[stXDraw]) / ops
	into["core.translate_ns_per_op"] = per(stCoreDraw, ops) - per(stXDraw, ops)
	into["core.translate_allocs_per_op"] = (float64(rp.allocs[stCoreDraw]) - float64(rp.allocs[stXDraw])) / ops
	into["core.cmds_per_op"] = count("thinc_translate_commands_total") / ops
	into["core.evicted_per_op"] = count("thinc_sched_commands_evicted_total") / ops
	into["core.merged_per_op"] = count("thinc_sched_commands_merged_total") / ops
	into["core.offscreen_execs_per_op"] = count("thinc_translate_offscreen_execs_total") / ops
	into["core.raw_fallbacks_per_op"] = count("thinc_translate_raw_fallbacks_total") / ops
	into["core.flush_self_ns_per_op"] = per(stFlush, ops)
	into["core.flush_allocs_per_op"] = float64(rp.allocs[stFlush]) / ops
	into["core.flush_msgs_per_op"] = float64(rp.msgs) / ops
	into["compress.encode_ns_per_op"] = encNS / ops
	into["compress.encode_mb_per_s"] = ratio(float64(rp.rawPixelBytes)/1e6, encNS/1e9)
	into["compress.ratio"] = ratio(float64(rp.rawPixelBytes), float64(rp.rawEnc))
	into["compress.decode_ns_per_op"] = decNS / ops
	into["wire.encode_ns_per_msg"] = per(stWireEnc, msgs)
	into["wire.encode_allocs_per_msg"] = float64(rp.allocs[stWireEnc]) / msgs
	into["wire.decode_ns_per_msg"] = per(stWireDec, msgs)
	into["wire.decode_allocs_per_msg"] = float64(rp.allocs[stWireDec]) / msgs
	into["wire.bytes_per_op"] = float64(rp.wireBytes) / ops
	into["cipher.encrypt_ns_per_kb"] = ratio(float64(self[stEncrypt]), float64(rp.wireBytes)/1024)
	into["cipher.decrypt_ns_per_kb"] = ratio(float64(self[stDecrypt]), float64(rp.wireBytes)/1024)
	into["client.apply_ns_per_op"] = applyNS / ops
	into["client.apply_allocs_per_op"] = float64(rp.allocs[stApply]) / ops
	into["client.apply_mpix_per_s"] = ratio(float64(rp.pixelsPainted)/1e6, applyNS/1e9)
	hits, stores := count("thinc_cache_hits_total"), count("thinc_cache_stores_total")
	into["payloadcache.hit_ratio"] = ratio(hits, hits+stores)
	into["payloadcache.saved_bytes_per_op"] = count("thinc_cache_saved_bytes_total") / ops
	into["replay.stage_sum_ratio"] = ratio(float64(rootTotal-self["op"]), float64(rootTotal))
}

// runReplay replays n ops of spec and fills the replay-sourced metrics.
func runReplay(spec *workloadSpec, seed int64, n int, into map[string]float64) ([]span, error) {
	rp, err := newReplay(spec, seed)
	if err != nil {
		return nil, err
	}
	defer rp.batch.Release()
	for k := 0; k < n; k++ {
		if err := rp.step(k); err != nil {
			return nil, fmt.Errorf("op %d: %w", k, err)
		}
	}
	if !rp.cli.FB().Equal(rp.dpy.Screen()) {
		return nil, errors.New("replay: client framebuffer differs from the server screen")
	}
	into["fb.digest_ns_per_screen"] = rp.digest()
	rp.metrics(into)
	return rp.rec.spans, nil
}
