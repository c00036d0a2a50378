package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"thinc/internal/audio"
	"thinc/internal/client"
	"thinc/internal/fb"
	"thinc/internal/geom"
	"thinc/internal/pixel"
	"thinc/internal/server"
)

// Glass detection, from outside the program. The harness owns the
// client's transport (client.DialWith / client.Handshake take any
// net.Conn), so it sees every Read the client issues. client.Conn.Run
// reads a message, applies it, and reads again: the entry of a Read is
// therefore the first moment the previous message's pixels are on the
// client's framebuffer. At that moment, and only while an op is
// pending, the harness compares the op's probe pixels (read from the
// server's screen when the op was drawn) with the client framebuffer
// through Conn.WithFB. Nothing polls on a timer while the session is
// quiet, and detection lags the apply by well under a microsecond
// instead of by a timer period (a 100 µs time.Sleep takes 1.1 ms on an
// idle Go process, and a 100 µs timerfd poll costs a quarter of a core).
//
// A safety poller re-checks pending ops every safetyTick, so a client
// that one day decouples reading from applying is still measured (to
// 5 ms); harness.hook_seen_ratio collapsing on interactive and fleet
// says that happened. (The poller also wins honestly when it was queued
// on the framebuffer lock behind a long apply: most video frames.)

// probe is one pixel the op must have put on the client's glass.
type probe struct {
	idx  int32 // index into Framebuffer.Pix
	want pixel.ARGB
}

// pendingOp is an op issued and not yet seen on glass.
type pendingOp struct {
	k        int
	due      time.Time // closed loop: just before Host.Do; open loop: scheduled time
	late     time.Duration
	measured bool
	probes   []probe
	next     int    // first probe not yet seen matching
	pts      uint64 // video: on glass when LastVideoTS reaches it
	last     time.Time
	done     chan struct{}
}

// sample is one finished op.
type sample struct {
	k       int
	latency time.Duration
	gap     time.Duration // since the previous check of this op: the detection resolution
	late    time.Duration
	hook    bool
	failed  bool
}

// session is one server host, its client, and the ops in flight.
type session struct {
	host  *server.Host
	conn  *client.Conn
	draw  func(k int) drawn
	pcm   *audio.Stream
	ended chan struct{} // closed when conn.Run returns
	dead  atomic.Bool

	rx, tx atomic.Int64 // transport bytes, both directions, framing and all

	npending atomic.Int32
	mu       sync.Mutex
	pending  []*pendingOp
	samples  []sample
}

// tapConn is the client's transport with the harness looking on.
type tapConn struct {
	net.Conn
	s *session
}

func (t *tapConn) Read(p []byte) (int, error) {
	if t.s.npending.Load() > 0 {
		t.s.check(true)
	}
	n, err := t.Conn.Read(p)
	t.s.rx.Add(int64(n))
	return n, err
}

func (t *tapConn) Write(p []byte) (int, error) {
	n, err := t.Conn.Write(p)
	t.s.tx.Add(int64(n))
	return n, err
}

// lattice appends probes for r: a grid with corners included, at least
// 6x6 and at most 32 pixels apart, so that any 32x32 block of a large
// rectangle (a late RAW inside a page) holds a probe.
func lattice(dst []probe, screen *fb.Framebuffer, r geom.Rect) []probe {
	r = r.Intersect(screen.Bounds())
	if r.Empty() {
		return dst
	}
	steps := func(n int) int {
		if s := (n+30)/32 + 1; s > 6 {
			return s
		}
		return 6
	}
	nx, ny := steps(r.W()), steps(r.H())
	pix, w := screen.Pix(), screen.W()
	for j := 0; j < ny; j++ {
		y := r.Y0 + j*(r.H()-1)/(ny-1)
		for i := 0; i < nx; i++ {
			x := r.X0 + i*(r.W()-1)/(nx-1)
			dst = append(dst, probe{idx: int32(y*w + x), want: pix[y*w+x]})
		}
	}
	return dst
}

// onGlass reports whether every probe matches f. It resumes at the
// first probe that did not match last time, then confirms with a full
// pass: an op's own commands may cross a pixel twice (scroll, then
// text), so a probe seen once is not yet final.
func (p *pendingOp) onGlass(pix []pixel.ARGB) bool {
	for ; p.next < len(p.probes); p.next++ {
		if pix[p.probes[p.next].idx] != p.probes[p.next].want {
			return false
		}
	}
	for i, pr := range p.probes {
		if pix[pr.idx] != pr.want {
			p.next = i
			return false
		}
	}
	return true
}

// submit registers op p, drawn a moment ago inside Host.Do, as pending.
// In a closed loop the client is quiet, so an op none of whose probes
// differs from the client's current pixels could never be told from its
// predecessor: it is unobservable and fails.
func (s *session) submit(p *pendingOp, closedLoop bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if closedLoop && len(p.probes) > 0 {
		observable := false
		s.conn.WithFB(func(f *fb.Framebuffer) {
			pix := f.Pix()
			for _, pr := range p.probes {
				if pix[pr.idx] != pr.want {
					observable = true
					return
				}
			}
		})
		if !observable {
			s.finish(p, sample{failed: true})
			return
		}
	}
	p.last = p.due
	s.pending = append(s.pending, p)
	s.npending.Add(1)
}

// finish records p's outcome and releases its waiter; s.mu is held.
func (s *session) finish(p *pendingOp, sm sample) {
	sm.k, sm.late = p.k, p.late
	if p.measured {
		s.samples = append(s.samples, sm)
	}
	close(p.done)
}

// check looks for pending ops on the client's glass. The time is read
// after the framebuffer lock is won: a caller that waited out an apply
// must not stamp the op with the moment it started waiting.
func (s *session) check(hook bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) == 0 {
		return
	}
	var shownPTS uint64
	if s.pending[0].pts != 0 {
		shownPTS = s.conn.Stats().LastVideoTS
	}
	kept := s.pending[:0]
	s.conn.WithFB(func(f *fb.Framebuffer) {
		now, pix := time.Now(), f.Pix()
		for _, p := range s.pending {
			seen := false
			if p.pts != 0 {
				seen = shownPTS >= p.pts
			} else {
				seen = p.onGlass(pix)
			}
			switch {
			case seen:
				s.finish(p, sample{latency: now.Sub(p.due), gap: now.Sub(p.last), hook: hook})
			case now.Sub(p.due) > opTimeout || s.dead.Load():
				s.finish(p, sample{failed: true})
			default:
				p.last = now
				kept = append(kept, p)
			}
		}
	})
	for i := len(kept); i < len(s.pending); i++ {
		s.pending[i] = nil
	}
	s.npending.Add(int32(len(kept) - len(s.pending)))
	s.pending = kept
}
