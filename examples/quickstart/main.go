// Quickstart: a complete THINC session in one process — a server
// hosting a virtual display, a client connected over an in-memory
// network connection, drawing flowing through the translation layer
// as protocol commands, and a pixel-exact check at the end.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"thinc/internal/auth"
	"thinc/internal/client"
	"thinc/internal/compress"
	"thinc/internal/core"
	"thinc/internal/geom"
	"thinc/internal/pixel"
	"thinc/internal/server"
	"thinc/internal/wire"
	"thinc/internal/xserver"
)

func main() {
	// 1. A server session: 640x480 display, PNG-compressed RAW updates,
	//    one user account.
	accounts := auth.NewAccounts()
	accounts.Add("alice", "secret")
	gate := auth.NewAuthenticator("alice", accounts)
	host := server.NewHost(640, 480, gate, server.Options{
		Core: core.Options{RawCodec: compress.CodecPNG},
	})

	// 2. Connect a client over an in-memory pipe (swap in net.Dial for
	//    a real network — see cmd/thinc-client).
	serverSide, clientSide := net.Pipe()
	go host.ServeConn(serverSide)
	conn, err := client.Handshake(clientSide, "alice", "secret", 640, 480)
	if err != nil {
		log.Fatalf("handshake: %v", err)
	}
	go conn.Run()
	fmt.Printf("connected to a %dx%d session\n", conn.ServerW, conn.ServerH)

	// 3. An application draws through the window system: fills, text,
	//    and Mozilla-style offscreen double buffering.
	host.Do(func(d *xserver.Display) {
		win := d.CreateWindow(geom.XYWH(0, 0, 640, 480))
		d.FillRect(win, &xserver.GC{Fg: pixel.RGB(245, 245, 250)}, win.Bounds())
		d.DrawText(win, &xserver.GC{Fg: pixel.RGB(10, 10, 10)}, 20, 20,
			"hello from the thin side")

		// Prepare a card offscreen, then flip it onscreen: THINC's
		// offscreen awareness ships the *commands*, not the pixels.
		card := d.CreatePixmap(200, 100)
		d.FillRect(card, &xserver.GC{Fg: pixel.RGB(70, 120, 220)}, card.Bounds())
		d.DrawText(card, &xserver.GC{Fg: pixel.RGB(255, 255, 255)}, 10, 10, "offscreen card")
		d.CopyArea(win, card, card.Bounds(), geom.Point{X: 60, Y: 80})
		d.FreePixmap(card)
	})

	// 4. The client converges to the same pixels.
	want := host.ScreenChecksum()
	for i := 0; i < 500; i++ {
		if conn.Snapshot().Checksum() == want {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	got := conn.Snapshot().Checksum()
	fmt.Printf("server screen %08x, client screen %08x, match=%v\n",
		want, got, want == got)

	// 5. What went over the wire: semantic commands, not a screenshot.
	st := conn.Stats()
	for _, ty := range []wire.Type{wire.TSFill, wire.TBitmap, wire.TRaw, wire.TCopy} {
		if st.Messages[ty] > 0 {
			fmt.Printf("  %-7v x%-4d %6d bytes\n", ty, st.Messages[ty], st.Bytes[ty])
		}
	}
	conn.Close()
}
