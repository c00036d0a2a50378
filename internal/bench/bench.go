// Package bench is the slow-motion benchmarking harness (§8): it runs
// every system under test against the web and A/V workloads over the
// emulated network environments, measures page latency, data
// transferred, and A/V quality the way the paper does, and regenerates
// each figure of the evaluation as a table of numbers.
package bench

import (
	"thinc/internal/baseline"
	"thinc/internal/driver"
	"thinc/internal/geom"
	"thinc/internal/sim"
	"thinc/internal/simnet"
	"thinc/internal/workload"
	"thinc/internal/xserver"
)

// Screen geometry of the session (§8.1: 1024x768 24-bit).
const (
	ScreenW = 1024
	ScreenH = 768
)

// Config is one evaluation environment.
type Config struct {
	Name         string
	Link         simnet.LinkParams
	ViewW, ViewH int
}

// LANDesktop is the 100 Mbps LAN configuration.
func LANDesktop() Config {
	return Config{Name: "LAN Desktop", Link: simnet.LAN(), ViewW: ScreenW, ViewH: ScreenH}
}

// WANDesktop is the 100 Mbps / 66 ms RTT configuration.
func WANDesktop() Config {
	return Config{Name: "WAN Desktop", Link: simnet.WAN(), ViewW: ScreenW, ViewH: ScreenH}
}

// PDA is the 802.11g small-screen configuration (320x240 viewport).
func PDA() Config {
	return Config{Name: "802.11g PDA", Link: simnet.PDA80211g(), ViewW: 320, ViewH: 240}
}

// PDAFor adapts the PDA viewport to a system's constraints (GoToMyPC's
// minimum is 640x480, §8.1).
func PDAFor(sys baseline.System) Config {
	c := PDA()
	if sys.ColorBits() == 8 {
		c.ViewW, c.ViewH = 640, 480
	}
	return c
}

// Systems returns the evaluated platforms in the paper's order.
func Systems() []baseline.System {
	return []baseline.System{
		baseline.Local(),
		baseline.THINC(),
		baseline.X(),
		baseline.NX(),
		baseline.SunRay(),
		baseline.VNC(),
		baseline.ICA(),
		baseline.RDP(),
		baseline.GoToMyPC(),
	}
}

// SystemByName finds a system by display name (nil if unknown).
func SystemByName(name string) baseline.System {
	for _, s := range Systems() {
		if s.Name() == name {
			return s
		}
	}
	return nil
}

// interPageGap separates page loads so they can be disambiguated, like
// the paper's packet-capture methodology.
const interPageGap = 300 * sim.Millisecond

// PageResult measures one page load.
type PageResult struct {
	LatencyNet  sim.Time // click to last display data delivered
	LatencyFull sim.Time // including client processing time
	Bytes       int64
	ImageHeavy  bool
}

// WebResult is a complete web benchmark run.
type WebResult struct {
	System string
	Config string
	Pages  []PageResult
}

// AvgLatencyNet returns the mean page latency (network measure).
func (w WebResult) AvgLatencyNet() sim.Time {
	return w.avg(func(p PageResult) sim.Time { return p.LatencyNet })
}

// AvgLatencyFull returns the mean latency including client processing.
func (w WebResult) AvgLatencyFull() sim.Time {
	return w.avg(func(p PageResult) sim.Time { return p.LatencyFull })
}

// AvgBytes returns mean data transferred per page.
func (w WebResult) AvgBytes() int64 {
	var n int64
	for _, p := range w.Pages {
		n += p.Bytes
	}
	if len(w.Pages) == 0 {
		return 0
	}
	return n / int64(len(w.Pages))
}

func (w WebResult) avg(f func(PageResult) sim.Time) sim.Time {
	var t sim.Time
	for _, p := range w.Pages {
		t += f(p)
	}
	if len(w.Pages) == 0 {
		return 0
	}
	return t / sim.Time(len(w.Pages))
}

// pageCosts derives the CPU model inputs from a page's statistics.
func pageCosts(st workload.PageStats) (layout, render sim.Time) {
	pixels := st.ImagePixels + st.FillPixels + st.Glyphs*xserver.GlyphW*xserver.GlyphH
	return baseline.CostPageLayout, baseline.RenderCost(st.Ops, pixels)
}

// pageStatsCache precomputes page statistics once (pages are
// deterministic), so cost-model inputs are known before rendering.
var pageStatsCache []workload.PageStats

func pageStats() []workload.PageStats {
	if pageStatsCache != nil {
		return pageStatsCache
	}
	d := xserver.NewDisplay(ScreenW, ScreenH, driver.Nop{})
	b := &workload.Browser{Dpy: d, Win: d.CreateWindow(geom.XYWH(0, 0, ScreenW, ScreenH)), DoubleBuffer: true}
	out := make([]workload.PageStats, workload.NumPages)
	for i := range out {
		out[i] = b.RenderPage(i)
	}
	pageStatsCache = out
	return out
}

// RunWeb executes the 54-page web benchmark (§8.2) for one system and
// configuration. Pages lets callers shorten the run (0 = all pages).
func RunWeb(sys baseline.System, cfg Config, pages int) WebResult {
	if pages <= 0 || pages > workload.NumPages {
		pages = workload.NumPages
	}
	eng := sim.NewEngine()
	scfg := baseline.SessionConfig{
		Eng: eng, Link: cfg.Link,
		W: ScreenW, H: ScreenH, ViewW: cfg.ViewW, ViewH: cfg.ViewH,
	}
	sess := sys.NewSession(scfg)
	dpy := xserver.NewDisplay(ScreenW, ScreenH, sess.Driver())
	sess.BindDisplay(dpy)
	win := dpy.CreateWindow(geom.XYWH(0, 0, ScreenW, ScreenH))
	br := &workload.Browser{Dpy: dpy, Win: win, DoubleBuffer: true}
	sess.Start()
	eng.Run() // drain connection setup / initial refresh

	stats := pageStats()
	res := WebResult{System: sys.Name(), Config: cfg.Name}
	for i := 0; i < pages; i++ {
		st := stats[i]
		layout, render := pageCosts(st)
		before := sess.Stats()
		click := eng.Now() + interPageGap
		i := i
		eng.At(click, func() {
			sess.Input(baseline.InputEvent{
				P:            br.NextLink(),
				LayoutCost:   layout,
				RenderCost:   render,
				ContentBytes: st.IntrinsicBytes,
				OnServer: func() {
					br.RenderPage(i)
					sess.Damage()
				},
			})
		})
		eng.Run()
		after := sess.Stats()
		lat := after.LastDelivery - click
		if lat < 0 {
			lat = 0
		}
		full := lat
		if sys.Name() != "local" { // local folds CPU into delivery time
			full += after.ClientCPU - before.ClientCPU
		}
		res.Pages = append(res.Pages, PageResult{
			LatencyNet:  lat,
			LatencyFull: full,
			Bytes:       after.BytesToClient - before.BytesToClient,
			ImageHeavy:  st.ImageHeavy,
		})
	}
	return res
}

// AVResult is one A/V playback run.
type AVResult struct {
	System       string
	Config       string
	Quality      float64 // 0..1 combined A/V quality (§8.2)
	VideoQuality float64
	AudioQuality float64
	Frames       int
	Bytes        int64
	Mbps         float64  // average bandwidth over the clip
	MaxAVSkew    sim.Time // §4.2 synchronization bound (native path)
}

// avWeightVideo weighs video over audio in the combined measure; the
// paper's single-connection captures weigh data volume, and video
// dominates the bytes.
const avWeightVideo = 0.9

// RunAV plays the A/V clip (§8.2) full-screen for one system and
// configuration. seconds lets callers shorten the clip (0 = full).
func RunAV(sys baseline.System, cfg Config, seconds float64) AVResult {
	clip := workload.DefaultClip()
	track := workload.DefaultAudio()
	if seconds > 0 && sim.Time(seconds*float64(sim.Second)) < clip.Duration {
		clip.Duration = sim.Time(seconds * float64(sim.Second))
		track.Duration = clip.Duration
	}

	eng := sim.NewEngine()
	scfg := baseline.SessionConfig{
		Eng: eng, Link: cfg.Link,
		W: ScreenW, H: ScreenH, ViewW: cfg.ViewW, ViewH: cfg.ViewH,
	}
	sess := sys.NewSession(scfg)
	dpy := xserver.NewDisplay(ScreenW, ScreenH, sess.Driver())
	dpy.SkipOverlayRender = true
	sess.BindDisplay(dpy)
	fullScreen := geom.XYWH(0, 0, ScreenW, ScreenH)
	sess.SetVideoRect(fullScreen)
	sess.Start()
	eng.Run()

	t0 := eng.Now() + 200*sim.Millisecond
	frames := clip.NumFrames()
	chunks := track.NumChunks()

	switch s := sess.(type) {
	case interface {
		PlayClip(frames int, duration sim.Time, mpegBytes int64)
	}:
		// Local PC: native playback of the encoded stream.
		eng.At(t0, func() { s.PlayClip(frames, clip.Duration, clip.MPEGBytes()) })
		for j := 0; j < chunks; j++ {
			j := j
			eng.At(t0+sim.Time(track.PTS(j)), func() { sess.Audio(track.PTS(j), track.ChunkBytes()) })
		}
	default:
		if sys.NativeVideo() {
			vp := dpy.CreateVideoPort(clip.W, clip.H, fullScreen)
			for i := 0; i < frames; i++ {
				i := i
				at := t0 + sim.Time(clip.PTS(i))
				eng.At(at, func() {
					vp.PutFrame(clip.Frame(i), uint64(at))
					sess.Damage()
				})
			}
		} else {
			// Software playback: the player scales the decoded frame to
			// full screen and blits it. Measure the blit's zlib ratios
			// once from a real upscaled frame.
			r24, r8 := softwareFrameRatios(clip)
			rawBytes := ScreenW * ScreenH * 4
			for i := 0; i < frames; i++ {
				i := i
				at := t0 + sim.Time(clip.PTS(i))
				eng.At(at, func() {
					sess.SoftwareFrame(i, uint64(at), rawBytes, r24, r8)
					sess.Damage()
				})
			}
		}
		if sys.SupportsAudio() {
			for j := 0; j < chunks; j++ {
				j := j
				at := t0 + sim.Time(track.PTS(j))
				eng.At(at, func() { sess.Audio(uint64(at), track.ChunkBytes()) })
			}
		}
	}
	eng.Run()

	st := sess.Stats()
	res := AVResult{System: sys.Name(), Config: cfg.Name, Frames: st.VideoFrames,
		Bytes: st.BytesToClient, MaxAVSkew: st.MaxAVSkew}

	videoFrac := float64(st.VideoFrames) / float64(frames)
	if videoFrac > 1 {
		videoFrac = 1
	}
	actual := clip.Duration
	if st.VideoFrames > 0 {
		if d := st.LastFrame - st.FirstFrame + clip.FrameInterval(); d > actual {
			actual = d
		}
	}
	res.VideoQuality = videoFrac * float64(clip.Duration) / float64(actual)

	if sys.SupportsAudio() {
		af := float64(st.AudioChunks) / float64(chunks)
		if af > 1 {
			af = 1
		}
		res.AudioQuality = af
		res.Quality = avWeightVideo*res.VideoQuality + (1-avWeightVideo)*res.AudioQuality
	} else {
		res.Quality = res.VideoQuality // video-only systems (§8.2)
	}
	span := clip.Duration
	if st.LastDelivery > t0 && st.LastDelivery-t0 > span {
		span = st.LastDelivery - t0
	}
	res.Mbps = float64(res.Bytes*8) / span.Seconds() / 1e6
	return res
}

// softwareRatio caches the upscaled-frame compressibility measurement.
var softwareRatio24, softwareRatio8 float64

func softwareFrameRatios(clip *workload.VideoClip) (r24, r8 float64) {
	if softwareRatio24 != 0 {
		return softwareRatio24, softwareRatio8
	}
	softwareRatio24, softwareRatio8 = measureFrameRatios(clip)
	return softwareRatio24, softwareRatio8
}
