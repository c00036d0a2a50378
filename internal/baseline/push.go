package baseline

import (
	"thinc/internal/compress"
	"thinc/internal/core"
	"thinc/internal/driver"
	"thinc/internal/geom"
	"thinc/internal/sim"
	"thinc/internal/simnet"
	"thinc/internal/wire"
	"thinc/internal/xserver"
)

// PushSystem is the family of driver-level, server-push architectures:
// THINC, Sun Ray (similar low-level command set, no offscreen awareness
// or video support, §2), and the rich-command systems ICA and RDP
// (higher per-command overhead, window-based flow control, no native
// MPEG-1 video). All reuse the core translation machinery with the
// knobs the paper's analysis identifies.
type PushSystem struct {
	SysName   string
	Opts      core.Options
	Video     bool       // native video port available
	Audio     bool       // audio channel available
	ResizeBy  ResizeMode // small-screen strategy
	MsgBytes  int        // extra wire bytes per message (richer protocols)
	MsgCPU    sim.Time   // extra server CPU per message (translation cost)
	FlowWin   int        // bytes in flight before stalling (0 = pure push)
	WANZlib   bool       // adaptive: zlib RAW payloads on high-RTT links
	AlwaysZip bool       // zlib RAW payloads everywhere
	ZipCPUx   float64    // compression CPU multiplier (1 when zero)
	// SoftFrameCPU is the per-frame server cost of pushing software
	// video through the protocol stack (translation of full-screen
	// updates through the command pipeline) — calibrated in
	// EXPERIMENTS.md.
	SoftFrameCPU sim.Time
	// PullMode gates every flush behind a client update request (the
	// VNC-style client-pull ablation for §5): the server sends one
	// batch per request, and the next request arrives a round trip
	// after the batch is delivered.
	PullMode bool
}

// THINC builds the paper's system: offscreen awareness, PNG-compressed
// RAW, native video, server-side resize, pure push.
func THINC() *PushSystem {
	return &PushSystem{
		SysName:  "THINC",
		Opts:     core.Options{RawCodec: compress.CodecPNG},
		Video:    true,
		Audio:    true,
		ResizeBy: ResizeServer,
	}
}

// THINCWith returns THINC with modified core options (ablations).
func THINCWith(name string, opts core.Options) *PushSystem {
	s := THINC()
	s.SysName = name
	s.Opts = opts
	return s
}

// SunRay models Sun Ray 3: push, low-level commands, no offscreen
// tracking (copies to screen degrade to pixels), no transparent video,
// adaptive compression on slow links (§2, §8.3).
func SunRay() *PushSystem {
	return &PushSystem{
		SysName:      "SunRay",
		Opts:         core.Options{DisableOffscreen: true, PixelTranslate: true},
		Audio:        true,
		WANZlib:      true,
		ZipCPUx:      3, // the "more cpu-intensive compression schemes" of §8.3
		SoftFrameCPU: 110 * sim.Millisecond,
	}
}

// ICA models Citrix MetaFrame: rich command set (per-command overhead
// and translation cost), compression, window-based flow control, no
// offscreen awareness, client-side resize for small screens.
func ICA() *PushSystem {
	return &PushSystem{
		SysName:      "ICA",
		Opts:         core.Options{DisableOffscreen: true},
		Audio:        true,
		ResizeBy:     ResizeClient,
		MsgBytes:     24,
		MsgCPU:       40 * sim.Microsecond,
		FlowWin:      256 << 10,
		AlwaysZip:    true,
		SoftFrameCPU: 100 * sim.Millisecond,
	}
}

// RDP models Microsoft Remote Desktop: like ICA architecturally, with
// viewport clipping instead of resizing on small screens.
func RDP() *PushSystem {
	return &PushSystem{
		SysName:      "RDP",
		Opts:         core.Options{DisableOffscreen: true},
		Audio:        true,
		ResizeBy:     ResizeClip,
		MsgBytes:     20,
		MsgCPU:       35 * sim.Microsecond,
		FlowWin:      384 << 10,
		AlwaysZip:    true,
		SoftFrameCPU: 75 * sim.Millisecond,
	}
}

// Name implements System.
func (s *PushSystem) Name() string { return s.SysName }

// NativeVideo implements System.
func (s *PushSystem) NativeVideo() bool { return s.Video }

// SupportsAudio implements System.
func (s *PushSystem) SupportsAudio() bool { return s.Audio }

// Resize implements System.
func (s *PushSystem) Resize() ResizeMode { return s.ResizeBy }

// ColorBits implements System.
func (s *PushSystem) ColorBits() int { return 24 }

// Flush pacing.
const (
	flushTick  = 2 * sim.Millisecond
	sockBuffer = 64 << 10
)

// NewSession implements System.
func (s *PushSystem) NewSession(cfg SessionConfig) Session {
	srv := core.NewServer(s.Opts)
	ps := &pushSession{sys: s, cfg: cfg, srv: srv,
		pipe: simnet.NewPipe(cfg.Eng, cfg.Link)}
	ps.zip = s.AlwaysZip || (s.WANZlib && cfg.Link.RTT >= 20*sim.Millisecond)
	return ps
}

type pushSession struct {
	sys  *PushSystem
	cfg  SessionConfig
	srv  *core.Server
	cl   *core.Client
	pipe *simnet.Pipe
	dpy  *xserver.Display

	pullToken bool // PullMode: a request is waiting to be served

	zip            bool
	serverBusy     sim.Time
	flushScheduled bool

	videoRect geom.Rect
	soft      *softFrame

	probeRect geom.Rect
	probeAt   sim.Time

	lastVideoDelay sim.Time
	haveVideoDelay bool

	st SessionStats
}

// SetProbe arms a one-shot probe: the arrival time of the first display
// message touching r is recorded (interactive-response measurement for
// the scheduling ablation).
func (p *pushSession) SetProbe(r geom.Rect) { p.probeRect = r; p.probeAt = 0 }

// ProbeTime returns the probe's arrival time (0 until hit).
func (p *pushSession) ProbeTime() sim.Time { return p.probeAt }

// Driver implements Session.
func (p *pushSession) Driver() driver.Driver { return p.srv }

// BindDisplay implements Session.
func (p *pushSession) BindDisplay(d *xserver.Display) {
	p.dpy = d
	// Attach the client after the display exists so the initial refresh
	// reads real content. Server-side resize only for systems that do it.
	if p.sys.ResizeBy == ResizeServer && p.cfg.Scaled() {
		p.cl = p.srv.AttachClient(p.cfg.ViewW, p.cfg.ViewH)
	} else {
		p.cl = p.srv.AttachClient(p.cfg.W, p.cfg.H)
	}
}

// Start implements Session.
func (p *pushSession) Start() {
	if p.sys.PullMode {
		p.requestUpdate()
		return
	}
	p.kick()
}

// requestUpdate is the client-pull loop: one outstanding request.
func (p *pushSession) requestUpdate() {
	p.pipe.C2S.Send(16, nil, func(sim.Time, simnet.Payload) {
		p.pullToken = true
		p.kick()
	})
}

// SetVideoRect implements Session.
func (p *pushSession) SetVideoRect(r geom.Rect) { p.videoRect = r }

// Input implements Session.
func (p *pushSession) Input(ev InputEvent) {
	eng := p.cfg.Eng
	p.pipe.C2S.Send(24, nil, func(at sim.Time, _ simnet.Payload) {
		if p.dpy != nil {
			p.dpy.InjectInput(ev.P)
		}
		// The response costs server CPU before updates can flush.
		busy := at + ev.LayoutCost + ev.RenderCost
		if busy > p.serverBusy {
			p.serverBusy = busy
		}
		ev.OnServer()
		p.kick()
		_ = eng
	})
}

// Damage implements Session.
func (p *pushSession) Damage() { p.kick() }

// WithPull returns a THINC variant that waits for client update
// requests (ablation: server-push vs client-pull, §5).
func WithPull(name string) *PushSystem {
	s := THINC()
	s.SysName = name
	s.PullMode = true
	return s
}

// Audio implements Session.
func (p *pushSession) Audio(ptsUS uint64, size int) {
	if !p.sys.Audio {
		return
	}
	p.srv.PushAudio(ptsUS, make([]byte, size))
	p.kick()
}

// Stats implements Session.
func (p *pushSession) Stats() SessionStats { return p.st }

// kick schedules a flush when one is not already pending, gated on
// server CPU availability.
func (p *pushSession) kick() {
	if p.flushScheduled {
		return
	}
	p.flushScheduled = true
	at := p.cfg.Eng.Now()
	if p.serverBusy > at {
		at = p.serverBusy
	}
	p.cfg.Eng.At(at, p.flush)
}

// flush is the non-blocking commit loop (§5): drain as much of the
// client buffer as the transport accepts without blocking.
func (p *pushSession) flush() {
	p.flushScheduled = false
	if p.cl == nil {
		return
	}
	if p.sys.PullMode && !p.pullToken {
		return // wait for the client's request
	}
	// Socket-buffer model: in-flight bytes occupy the link queue.
	inflight := int(float64(p.pipe.S2C.QueueDelay()) / float64(sim.Second) * p.pipe.S2C.Params().EffectiveRate())
	budget := sockBuffer - inflight
	sent := 0
	if budget > 0 && p.soft != nil && p.soft.size <= budget {
		sf := *p.soft
		p.soft = nil
		budget -= sf.size
		p.sendSoft(sf)
		sent++
	}
	if budget > 0 {
		msgs := p.cl.Flush(budget)
		for _, m := range msgs {
			p.sendMsg(m)
		}
		sent += len(msgs)
	}
	// A command larger than the socket buffer would wedge the session;
	// when the link is idle, stream it anyway (a real kernel accepts a
	// large write and trickles it out).
	if sent == 0 && inflight == 0 {
		if p.soft != nil {
			sf := *p.soft
			p.soft = nil
			p.sendSoft(sf)
			sent++
		} else {
			msgs := p.cl.Buf.FlushOne()
			for _, m := range msgs {
				p.sendMsg(m)
			}
			sent += len(msgs)
		}
	}
	if p.sys.PullMode && sent > 0 {
		// One batch per request; the client asks again after it sees
		// the batch (one-way there + request back = a full RTT gap).
		p.pullToken = false
		p.cfg.Eng.After(p.pipe.S2C.OneWay(), func() { p.requestUpdate() })
		return
	}
	if p.cl.Buf.Len() > 0 || p.soft != nil {
		p.flushScheduled = true
		at := p.cfg.Eng.Now() + flushTick
		if p.serverBusy > at {
			at = p.serverBusy
		}
		p.cfg.Eng.At(at, p.flush)
	}
}

// sendMsg models the wire cost of one message and its delivery.
func (p *pushSession) sendMsg(m wire.Message) {
	size := wire.WireSize(m) + p.sys.MsgBytes
	clipFrac := 1.0
	var decodeCPU sim.Time

	switch v := m.(type) {
	case *wire.Raw:
		if p.zip {
			// Model zlib on the RAW payload (size-bucketed ratio probe
			// keeps the simulation fast).
			f := measure(v.Data)
			size = int(float64(len(v.Data))*f) + 32 + p.sys.MsgBytes
			zc := ZlibCost(int64(len(v.Data)))
			if p.sys.ZipCPUx > 1 {
				zc = sim.Time(float64(zc) * p.sys.ZipCPUx)
			}
			p.serverBusy = maxTime(p.serverBusy, p.cfg.Eng.Now()) + zc
			decodeCPU = UnzlibCost(int64(size))
		}
		if p.sys.ResizeBy == ResizeClip && p.cfg.Scaled() {
			// Clipping client: only the viewport intersection is sent.
			inter := v.Rect.Intersect(p.cfg.Viewport())
			if inter.Empty() {
				return
			}
			clipFrac = float64(inter.Area()) / float64(v.Rect.Area())
			size = int(float64(size) * clipFrac)
		}
	case *wire.VideoFrame:
		// Native video passes through untouched.
	default:
		if p.sys.ResizeBy == ResizeClip && p.cfg.Scaled() {
			b := msgBounds(m)
			if !b.Empty() && !b.Overlaps(p.cfg.Viewport()) {
				return
			}
		}
	}

	p.serverBusy = maxTime(p.serverBusy, p.cfg.Eng.Now()) + p.sys.MsgCPU
	send := func() {
		p.pipe.S2C.Send(size, m, func(at sim.Time, _ simnet.Payload) {
			p.st.BytesToClient += int64(size)
			p.st.MsgsToClient++
			p.st.LastDelivery = at
			apply := CostClientPerMsg + ByteCost(int64(size)) + decodeCPU
			if p.sys.ResizeBy == ResizeClient && p.cfg.Scaled() {
				// The client scales every update to its viewport.
				apply += ResampleCost(msgPixels(m))
			}
			p.st.ClientCPU += ClientTime(apply)
			p.noteVideo(m, at)
		})
	}
	if stall := p.flowStall(size); stall > 0 {
		// The sender blocks while the window drains: subsequent flushes
		// queue behind the stall.
		p.serverBusy = maxTime(p.serverBusy, p.cfg.Eng.Now()) + stall
		p.cfg.Eng.At(p.serverBusy, send)
	} else {
		send()
	}
}

// flowStall models window-based flow control on a large transfer: the
// sender can keep only FlowWin bytes outstanding per round trip, so a
// message of the given size effectively streams at FlowWin/RTT when
// that is below the link rate (ICA/RDP's WAN sluggishness, §2).
func (p *pushSession) flowStall(size int) sim.Time {
	if p.sys.FlowWin <= 0 {
		return 0
	}
	rtt := p.pipe.S2C.Params().RTT.Seconds()
	if rtt <= 0 {
		return 0
	}
	winRate := float64(p.sys.FlowWin) / rtt
	linkRate := p.pipe.S2C.Params().EffectiveRate()
	if winRate >= linkRate {
		return 0
	}
	stall := float64(size)/winRate - float64(size)/linkRate
	return sim.Time(stall * float64(sim.Second))
}

// sendSoft transmits a software-video frame update.
func (p *pushSession) sendSoft(sf softFrame) {
	p.serverBusy = maxTime(p.serverBusy, p.cfg.Eng.Now()) + sf.cpu
	size := sf.size + p.sys.MsgBytes
	if p.sys.ResizeBy == ResizeClip && p.cfg.Scaled() {
		// Only the viewport slice of the full-screen blit is sent.
		size = size * (p.cfg.ViewW * p.cfg.ViewH) / (p.cfg.W * p.cfg.H)
	}
	p.serverBusy = maxTime(p.serverBusy, p.cfg.Eng.Now()) + p.sys.MsgCPU
	send := func() {
		p.pipe.S2C.Send(size, nil, func(at sim.Time, _ simnet.Payload) {
			p.st.BytesToClient += int64(size)
			p.st.MsgsToClient++
			p.st.LastDelivery = at
			apply := CostClientPerMsg + ByteCost(int64(size))
			if p.zip {
				apply += UnzlibCost(int64(size))
			}
			if p.sys.ResizeBy == ResizeClient && p.cfg.Scaled() {
				apply += ResampleCost(p.cfg.W * p.cfg.H)
			}
			p.st.ClientCPU += ClientTime(apply)
			p.markFrame(at)
		})
	}
	if stall := p.flowStall(size); stall > 0 {
		p.serverBusy = maxTime(p.serverBusy, p.cfg.Eng.Now()) + stall
		p.cfg.Eng.At(p.serverBusy, send)
	} else {
		send()
	}
}

// noteVideo counts displayed video frames: native frames directly,
// software playback as full-coverage raw updates of the video rect.
func (p *pushSession) noteVideo(m wire.Message, at sim.Time) {
	if p.probeAt == 0 && !p.probeRect.Empty() {
		if b := msgBounds(m); !b.Empty() && b.Overlaps(p.probeRect) {
			p.probeAt = at
		}
	}
	switch v := m.(type) {
	case *wire.VideoFrame:
		p.markFrame(at)
		p.lastVideoDelay = at - sim.Time(v.PTS)
		p.haveVideoDelay = true
	case *wire.AudioData:
		// Audio counts only when it arrives close enough to its
		// timestamp to play (1s of client buffering).
		if at <= sim.Time(v.PTS)+audioSlack {
			p.st.AudioChunks++
		}
		if p.haveVideoDelay {
			skew := (at - sim.Time(v.PTS)) - p.lastVideoDelay
			if skew < 0 {
				skew = -skew
			}
			if skew > p.st.MaxAVSkew {
				p.st.MaxAVSkew = skew
			}
		}
	case *wire.Raw:
		if !p.videoRect.Empty() && !v.Blend {
			inter := v.Rect.Intersect(p.videoRect)
			if inter.Area()*10 >= p.videoRect.Area()*8 {
				p.markFrame(at)
			}
		}
	}
}

func (p *pushSession) markFrame(at sim.Time) {
	p.st.VideoFrames++
	if p.st.FirstFrame == 0 {
		p.st.FirstFrame = at
	}
	p.st.LastFrame = at
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}

// msgBounds extracts a display message's destination rectangle.
func msgBounds(m wire.Message) geom.Rect {
	switch v := m.(type) {
	case *wire.Raw:
		return v.Rect
	case *wire.SFill:
		return v.Rect
	case *wire.PFill:
		return v.Rect
	case *wire.Bitmap:
		return v.Rect
	case *wire.Copy:
		return geom.XYWH(v.Dst.X, v.Dst.Y, v.Src.W(), v.Src.H())
	default:
		return geom.Rect{}
	}
}

// msgPixels returns the pixel area a message touches (client resize
// cost accounting).
func msgPixels(m wire.Message) int {
	return msgBounds(m).Area()
}

// softFrame is a pending software-video update.
type softFrame struct {
	seq  int
	size int
	cpu  sim.Time // server CPU paid when the frame is sent
}

// SoftwareFrame implements Session for the software playback path: the
// full-screen blit becomes one large update with replacement semantics
// (exactly what command-queue eviction does to full-coverage raws).
func (p *pushSession) SoftwareFrame(seq int, ptsUS uint64, rawBytes int, ratio24, _ float64) {
	size := rawBytes
	cpu := p.sys.SoftFrameCPU
	if p.zip {
		size = int(float64(rawBytes) * ratio24)
		zc := ZlibCost(int64(rawBytes))
		if p.sys.ZipCPUx > 1 {
			zc = sim.Time(float64(zc) * p.sys.ZipCPUx)
		}
		cpu += zc
	}
	if p.soft != nil {
		p.soft.seq, p.soft.size, p.soft.cpu = seq, size, cpu // drop the unsent frame
		return
	}
	p.soft = &softFrame{seq: seq, size: size, cpu: cpu}
	p.kick()
}
