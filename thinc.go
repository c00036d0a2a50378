// Package thinc is a from-scratch reproduction of THINC, the virtual
// display architecture for thin-client computing (Baratto, Kim, Nieh —
// SOSP 2005).
//
// THINC virtualizes the display at the video device driver interface:
// a virtual driver intercepts drawing commands below an unmodified
// window system, translates them — preserving their semantics — into a
// five-command wire protocol (RAW, COPY, SFILL, PFILL, BITMAP), and
// pushes them to simple, stateless clients. The translation layer
// tracks offscreen drawing so double-buffered interfaces ship as
// commands instead of pixels, video streams pass through in YV12 to a
// client overlay, a shortest-remaining-size-first scheduler with a
// real-time queue orders delivery, and the server resamples updates
// for small-screen clients.
//
// # Quick start
//
// Host a session, draw through the window system, serve clients:
//
//	accounts := thinc.NewAccounts()
//	accounts.Add("alice", "secret")
//	host := thinc.NewHost(1024, 768, thinc.NewAuthenticator("alice", accounts),
//		thinc.HostOptions{Core: thinc.CoreOptions{RawCodec: thinc.CodecPNG}})
//	go host.Serve(listener)
//	host.Do(func(d *thinc.Display) {
//		win := d.CreateWindow(thinc.XYWH(0, 0, 1024, 768))
//		d.FillRect(win, &thinc.GC{Fg: thinc.RGB(245, 245, 250)}, win.Bounds())
//	})
//
// Connect a client:
//
//	conn, err := thinc.Dial(addr, "alice", "secret", 1024, 768)
//	go conn.Run()
//	fb := conn.Snapshot() // the pixels the user sees
//
// The packages under internal/ hold the implementation: the geometry
// and raster substrate, the wire protocol, the translation core, the
// miniature window system, the discrete-event network simulator, the
// comparison systems, and the benchmark harness that regenerates every
// figure of the paper's evaluation (see cmd/thinc-bench).
package thinc

import (
	"io"
	"net"

	"thinc/internal/auth"
	"thinc/internal/bench"
	"thinc/internal/client"
	"thinc/internal/compress"
	"thinc/internal/core"
	"thinc/internal/driver"
	"thinc/internal/fb"
	"thinc/internal/geom"
	"thinc/internal/pixel"
	"thinc/internal/server"
	"thinc/internal/wire"
	"thinc/internal/xserver"
)

// Geometry.
type (
	// Point is an integer screen coordinate.
	Point = geom.Point
	// Rect is a half-open screen rectangle.
	Rect = geom.Rect
	// Region is a set of pixels as disjoint rectangles.
	Region = geom.Region
)

// XYWH builds a rectangle from origin and size.
func XYWH(x, y, w, h int) Rect { return geom.XYWH(x, y, w, h) }

// Pixels and surfaces.
type (
	// ARGB is a 32-bit pixel with alpha.
	ARGB = pixel.ARGB
	// Framebuffer is a software pixel surface.
	Framebuffer = fb.Framebuffer
	// Tile is a repeating pattern for PFILL.
	Tile = fb.Tile
	// Bitmap is a 1-bit stipple for BITMAP.
	Bitmap = fb.Bitmap
	// YV12Image is a planar video frame.
	YV12Image = pixel.YV12Image
)

// RGB builds an opaque pixel.
func RGB(r, g, b uint8) ARGB { return pixel.RGB(r, g, b) }

// PackARGB builds a pixel with alpha.
func PackARGB(a, r, g, b uint8) ARGB { return pixel.PackARGB(a, r, g, b) }

// Window system (the substrate THINC plugs into).
type (
	// Display is a window-system instance.
	Display = xserver.Display
	// Window is an on-screen drawable.
	Window = xserver.Window
	// Pixmap is an offscreen drawable.
	Pixmap = xserver.Pixmap
	// GC is drawing state.
	GC = xserver.GC
	// VideoPort is the XVideo-like stream interface.
	VideoPort = xserver.VideoPort
)

// Translation core.
type (
	// CoreOptions configures the translation layer.
	CoreOptions = core.Options
	// CoreServer is the virtual display driver (embed in custom hosts).
	CoreServer = core.Server
	// CoreClient is a per-connection command buffer handle.
	CoreClient = core.Client
)

// RAW payload codecs.
const (
	CodecNone = compress.CodecNone
	CodecRLE  = compress.CodecRLE
	CodecPNG  = compress.CodecPNG
)

// NewCoreServer builds a bare translation core; attach it to a display
// with NewDisplay for in-process use without a network.
func NewCoreServer(opts CoreOptions) *CoreServer { return core.NewServer(opts) }

// NewDisplay creates a window system with the given driver attached.
// Pass a *CoreServer to intercept drawing the THINC way, or NopDriver
// for a purely local display.
func NewDisplay(w, h int, drv Driver) *Display { return xserver.NewDisplay(w, h, drv) }

// Driver is the video device driver interface THINC virtualizes (§3):
// implement it to observe the drawing command stream below the window
// system.
type Driver = driver.Driver

// NopDriver ignores every driver call — the local display path.
type NopDriver = driver.Nop

// Authentication.
type (
	// Accounts is the user database.
	Accounts = auth.Accounts
	// Authenticator gates session access.
	Authenticator = auth.Authenticator
)

// NewAccounts returns an empty user database.
func NewAccounts() *Accounts { return auth.NewAccounts() }

// NewAuthenticator gates a session owned by owner.
func NewAuthenticator(owner string, accounts *Accounts) *Authenticator {
	return auth.NewAuthenticator(owner, accounts)
}

// Server side.
type (
	// Host owns a display session and serves clients.
	Host = server.Host
	// HostOptions configures a Host.
	HostOptions = server.Options
)

// NewHost creates a session of the given geometry.
func NewHost(w, h int, gate *Authenticator, opts HostOptions) *Host {
	return server.NewHost(w, h, gate, opts)
}

// Client side.
type (
	// Conn is a connected display client.
	Conn = client.Conn
	// Client executes protocol messages against a framebuffer.
	Client = client.Client
	// InputEvent is a user input message.
	InputEvent = wire.Input
)

// Input kinds.
const (
	InputMouseMove   = wire.InputMouseMove
	InputMouseButton = wire.InputMouseButton
	InputKey         = wire.InputKey
)

// Dial connects and authenticates to a THINC server.
func Dial(addr, user, secret string, viewW, viewH int) (*Conn, error) {
	return client.Dial(addr, user, secret, viewW, viewH)
}

// Handshake runs the client handshake over an established transport
// (in-memory pipes, custom tunnels).
func Handshake(nc net.Conn, user, secret string, viewW, viewH int) (*Conn, error) {
	return client.Handshake(nc, user, secret, viewW, viewH)
}

// NewClient builds a local message-executing client (in-process use).
func NewClient(w, h int) *Client { return client.New(w, h) }

// Session recording (the §1 mirroring/support use case).
type (
	// Recorder captures a session's command stream to an io.Writer;
	// obtain one from Host.Record.
	Recorder = server.Recorder
	// Record is one timestamped entry of a recording.
	Record = server.Record
)

// ReadRecord decodes the next recording entry; io.EOF marks the end.
func ReadRecord(r io.Reader) (Record, error) { return server.ReadRecord(r) }

// Experiments exposes the paper-evaluation harness (cmd/thinc-bench is
// a thin wrapper around it).
type Experiments = bench.Suite

// NewExperiments returns a harness; pages/avSeconds of 0 run the full
// paper-scale workloads.
func NewExperiments(pages int, avSeconds float64) *Experiments {
	return bench.NewSuite(pages, avSeconds)
}
