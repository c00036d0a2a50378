package server

import (
	"net"
	"runtime"
	"testing"
	"time"

	"thinc/internal/client"
	"thinc/internal/geom"
	"thinc/internal/pixel"
	"thinc/internal/xserver"
)

// liveHeap returns the bytes reachable after a full collection (two
// cycles, so sync.Pool victims are gone too).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestConvergedSessionHeap: once a session has converged its live heap
// is two framebuffers — the server's screen and the client's model —
// plus bookkeeping. The initial-sync RAW is a third screen's worth of
// pixels and must not stay reachable from the client buffer after
// delivery.
func TestConvergedSessionHeap(t *testing.T) {
	const w, h = 1024, 768
	const framebuffer = w * h * 4
	const bookkeeping = 3 << 19 // span ring, metrics, cipher and codec scratch
	before := liveHeap()
	host, addr := startHost(t, w, h, Options{})
	host.Do(func(d *xserver.Display) {
		// Not the blank a fresh client starts from: convergence then
		// means the whole initial sync was delivered.
		win := d.CreateWindow(geom.XYWH(0, 0, w, h))
		d.FillRect(win, &xserver.GC{Fg: pixel.RGB(90, 90, 90)}, geom.XYWH(0, 0, w, h))
	})
	conn, err := client.DialWith(func() (net.Conn, error) { return net.Dial("tcp", addr) }, "owner", "pw", w, h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	go conn.Run()
	waitConverged(t, host, conn, 10*time.Second)
	grew := liveHeap() - before
	runtime.KeepAlive(host)
	runtime.KeepAlive(conn)
	if limit := int64(2*framebuffer + bookkeeping); grew > limit {
		t.Errorf("a converged %dx%d session holds %d live bytes, want <= %d (two %d-byte framebuffers + %d)",
			w, h, grew, limit, framebuffer, bookkeeping)
	}
	t.Logf("live heap of one converged session: %d bytes (%.2f framebuffers)", grew, float64(grew)/framebuffer)
}
