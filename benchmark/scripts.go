package main

import (
	"fmt"
	"hash/crc32"
	"math/rand"

	"thinc/internal/driver"
	"thinc/internal/geom"
	"thinc/internal/pixel"
	"thinc/internal/workload"
	"thinc/internal/xserver"
)

// A script is a seeded op sequence that does not depend on what it is
// drawn on: the live sessions, the staged replay and the input
// fingerprint all run the same ops. The program under test sees only
// the drawing calls.
type script interface {
	// target names the session op k draws on.
	target(k int) int
	// period is the number of ops after which the op mix repeats (the
	// same pages, frames, rows): per-op costs are compared over whole
	// periods only.
	period() int
	// bind prepares display d for session sess (window, video port) and
	// returns the function that draws op k there. Only ops targeting
	// sess may be passed to it.
	bind(sess int, d *xserver.Display) func(k int) drawn
}

// drawn is what one op did, for the glass probe: the screen rectangles
// it drew, or for video the presentation timestamp it carried.
type drawn struct {
	rects []geom.Rect
	pts   uint64
	audio []byte // PCM the op plays beside its frame
}

// stepColour derives a fill colour from the op number so that every op
// changes the pixels it draws (consecutive ops never share a colour).
func stepColour(k int) pixel.ARGB {
	return pixel.RGB(uint8(64+k*37%160), uint8(64+k*59%160), uint8(64+k*83%160))
}

// textScript is the interactive line: erase a strip, draw ~40 glyphs.
// Scrolling, the strip is the bottom line of a terminal-like region
// that a CopyArea moves up every 8th step. Otherwise ops go round the
// sessions in seeded order and rotate over 16 rows, so an op in flight
// is not overdrawn for 16 visits (640 ms at fleet's 1600 updates/s).
type textScript struct {
	n      int
	scroll bool
	x0, y0 int
	width  int
	order  []int
	lines  []string
}

const (
	lineH       = 14
	scrollRows  = 600
	scrollBy    = 16
	scrollEvery = 8
	rotateRows  = 16
)

func newTextScript(seed int64, sessions int, scroll bool, x0, y0, width int) script {
	rnd := rand.New(rand.NewSource(seed))
	s := &textScript{n: sessions, scroll: scroll, x0: x0, y0: y0, width: width, order: rnd.Perm(sessions)}
	const letters = "abcdefghijklmnopqrstuvwxyz"
	for i := 0; i < 64; i++ {
		b := make([]byte, 40)
		for j := range b {
			if j%6 == 5 {
				b[j] = ' '
			} else {
				b[j] = letters[rnd.Intn(len(letters))]
			}
		}
		s.lines = append(s.lines, string(b))
	}
	return s
}

func (s *textScript) target(k int) int { return s.order[k%s.n] }
func (s *textScript) period() int {
	if s.scroll {
		return len(s.lines) // a multiple of scrollEvery
	}
	return s.n * rotateRows
}

func (s *textScript) bind(_ int, d *xserver.Display) func(int) drawn {
	win := d.CreateWindow(d.Bounds())
	ink := &xserver.GC{Fg: pixel.RGB(16, 16, 16)}
	return func(k int) drawn {
		var out drawn
		y := s.y0 + (k/s.n%rotateRows)*lineH
		if s.scroll {
			y = s.y0 + scrollRows
			if k%scrollEvery == 0 {
				src := geom.XYWH(s.x0, s.y0+scrollBy, s.width, scrollRows)
				d.CopyArea(win, win, src, geom.Point{X: s.x0, Y: s.y0})
				out.rects = append(out.rects, geom.XYWH(s.x0, s.y0, s.width, scrollRows))
			}
		}
		strip := geom.XYWH(s.x0, y, s.width, lineH)
		d.FillRect(win, &xserver.GC{Fg: stepColour(k)}, strip)
		d.DrawText(win, ink, s.x0+2, y+2, s.lines[k%len(s.lines)])
		out.rects = append(out.rects, strip)
		return out
	}
}

// webScript cycles a seeded permutation of the 54 benchmark pages
// through Mozilla-style double buffering.
type webScript struct{ order []int }

func newWebScript(seed int64, _ int) script {
	return &webScript{order: rand.New(rand.NewSource(seed)).Perm(workload.NumPages)}
}

func (s *webScript) target(int) int { return 0 }
func (s *webScript) period() int    { return len(s.order) }

func (s *webScript) bind(_ int, d *xserver.Display) func(int) drawn {
	b := &workload.Browser{Dpy: d, Win: d.CreateWindow(d.Bounds()), DoubleBuffer: true}
	return func(k int) drawn {
		b.RenderPage(s.order[k%len(s.order)])
		return drawn{rects: []geom.Rect{b.Win.Bounds()}}
	}
}

// videoScript plays DefaultClip frames (48 pre-synthesised, cycled) to
// a full-screen port; frame k carries PTS k+1 so the client's
// LastVideoTS names the newest frame shown. Audio chunks ride along at
// the track's 50 ms cadence.
type videoScript struct {
	clip   *workload.VideoClip
	frames []*pixel.YV12Image
	track  *workload.AudioTrack
	chunks [][]byte
}

const videoFramePool = 48

func newVideoScript(seed int64, _ int) script {
	s := &videoScript{clip: workload.DefaultClip(), track: workload.DefaultAudio()}
	first := int(seed & 1023)
	for i := 0; i < videoFramePool; i++ {
		s.frames = append(s.frames, s.clip.Frame(first+i))
	}
	for i := 0; i < 8; i++ {
		s.chunks = append(s.chunks, s.track.Chunk(first+i))
	}
	return s
}

func (s *videoScript) target(int) int { return 0 }
func (s *videoScript) period() int    { return len(s.frames) }

func (s *videoScript) bind(_ int, d *xserver.Display) func(int) drawn {
	vp := d.CreateVideoPort(s.clip.W, s.clip.H, d.Bounds())
	frameUS, chunkUS := int(s.clip.FrameInterval()), int(s.track.ChunkDur)
	return func(k int) drawn {
		out := drawn{pts: uint64(k + 1)}
		vp.PutFrame(s.frames[k%len(s.frames)], out.pts)
		if chunk := (k + 1) * frameUS / chunkUS; chunk > k*frameUS/chunkUS {
			out.audio = s.chunks[chunk%len(s.chunks)]
		}
		return out
	}
}

// paintDesktop gives a fresh display non-blank content, so that the
// attach-time full-screen sync is observable as convergence.
func paintDesktop(d *xserver.Display, seed int64) {
	win := d.CreateWindow(d.Bounds())
	d.FillRect(win, &xserver.GC{Fg: stepColour(int(seed & 4095))}, d.Bounds())
	d.DrawText(win, &xserver.GC{Fg: pixel.RGB(250, 250, 250)}, 8, 8, "thinc benchmark desktop")
}

// fingerprint renders the first fingerprintOps ops on driver-less
// displays and folds the screen after every op, and the op count, into
// one CRC. A later edit to internal/workload or internal/xserver that
// changes what is drawn changes it, and results from before and after
// must not be compared.
func fingerprint(spec *workloadSpec, seed int64) string {
	sc := spec.Script(seed, spec.Sessions)
	displays := make([]*xserver.Display, spec.Sessions)
	draw := make([]func(int) drawn, spec.Sessions)
	for i := range displays {
		displays[i] = xserver.NewDisplay(spec.W, spec.H, driver.Nop{})
		paintDesktop(displays[i], seed)
		draw[i] = sc.bind(i, displays[i])
	}
	crc := crc32.NewIEEE()
	put := func(v uint32) {
		_, _ = crc.Write([]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}) // hash.Hash writes never fail
	}
	for k := 0; k < fingerprintOps; k++ {
		sess := sc.target(k)
		draw[sess](k)
		put(displays[sess].Screen().Checksum())
	}
	put(fingerprintOps)
	return fmt.Sprintf("%08x", crc.Sum32())
}
