// Screenshare demonstrates the collaboration uses of §1: one session,
// multiple viewers. The owner authenticates with their account; a guest
// joins with the shared-session password; a recorder captures the whole
// session for later replay. All three observers converge to identical
// pixels, and the guest's mouse moves the shared cursor everyone sees.
//
// Run with:
//
//	go run ./examples/screenshare
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
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
	accounts := auth.NewAccounts()
	accounts.Add("host", "hostpw")
	gate := auth.NewAuthenticator("host", accounts)
	gate.SetSessionPassword("join-me") // enable peers

	h := server.NewHost(480, 320, gate, server.Options{
		Core: core.Options{RawCodec: compress.CodecPNG},
	})

	// A recorder is a third, file-bound viewer.
	var recording lockedBuffer
	rec := h.Record(&recording)

	connect := func(user, pass string) *client.Conn {
		a, b := net.Pipe()
		go h.ServeConn(a)
		c, err := client.Handshake(b, user, pass, 480, 320)
		if err != nil {
			log.Fatalf("%s: %v", user, err)
		}
		go c.Run()
		return c
	}
	owner := connect("host", "hostpw")
	guest := connect("guest", "join-me")

	// Host application draws a small whiteboard.
	h.Do(func(d *xserver.Display) {
		win := d.CreateWindow(geom.XYWH(0, 0, 480, 320))
		d.FillRect(win, &xserver.GC{Fg: pixel.RGB(252, 252, 248)}, win.Bounds())
		d.DrawText(win, &xserver.GC{Fg: pixel.RGB(30, 30, 30)}, 12, 12,
			"shared whiteboard")
		cursor := make([]pixel.ARGB, 6*6)
		for i := range cursor {
			cursor[i] = pixel.PackARGB(220, 20, 20, 200)
		}
		d.SetCursor(cursor, 6, 6, geom.Point{})
	})

	// The guest scribbles: input events move the shared cursor, the host
	// application draws where they point.
	for i := 0; i < 8; i++ {
		x, y := 60+i*40, 120+(i%2)*40
		guest.SendInput(&wire.Input{Kind: wire.InputMouseButton, X: x, Y: y, Code: 1, Press: true})
		h.Do(func(d *xserver.Display) {
			win := d.CreateWindow(geom.XYWH(0, 0, 480, 320))
			d.FillRect(win, &xserver.GC{Fg: pixel.RGB(40, 120, 220)}, geom.XYWH(x-6, y-6, 12, 12))
		})
	}

	// Everyone converges.
	want := h.ScreenChecksum()
	waitUntil(func() bool {
		return owner.Snapshot().Checksum() == want && guest.Snapshot().Checksum() == want
	})
	fmt.Printf("owner  screen: %08x\n", owner.Snapshot().Checksum())
	fmt.Printf("guest  screen: %08x\n", guest.Snapshot().Checksum())
	fmt.Printf("host   screen: %08x (all equal: %v)\n", want,
		owner.Snapshot().Checksum() == want && guest.Snapshot().Checksum() == want)

	// Stop recording and replay it into a fourth viewer.
	time.Sleep(20 * time.Millisecond)
	if err := rec.Close(); err != nil {
		log.Fatalf("recorder: %v", err)
	}
	replayed := client.New(480, 320)
	r := recording.Reader()
	n := 0
	for {
		recd, err := server.ReadRecord(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatalf("replay: %v", err)
		}
		if err := replayed.Apply(recd.Msg); err != nil {
			log.Fatalf("replay apply: %v", err)
		}
		n++
	}
	fmt.Printf("replayed recording: %d commands, screen %08x (match: %v)\n",
		n, replayed.FB().Checksum(), replayed.FB().Checksum() == want)

	owner.Close()
	guest.Close()
}

func waitUntil(cond func() bool) {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !cond() {
		time.Sleep(2 * time.Millisecond)
	}
}

// lockedBuffer guards the recording buffer against the recorder
// goroutine.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Reader() io.Reader {
	b.mu.Lock()
	defer b.mu.Unlock()
	return bytes.NewReader(b.buf.Bytes())
}
