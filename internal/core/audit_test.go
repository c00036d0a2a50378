package core_test

import (
	"testing"

	"thinc/internal/core"
	"thinc/internal/geom"
	"thinc/internal/overload"
	"thinc/internal/pixel"
	"thinc/internal/xserver"
)

// clientDigests computes the client-side view of the audit window: the
// client framebuffer tiled with the same grid, digested the same way.
func clientDigests(h *harness, start, n int) []uint64 {
	g := h.srv.AuditGrid()
	out := make([]uint64, 0, n)
	for i := start; i < start+n && i < g.Tiles(); i++ {
		out = append(out, h.dst.FB().DigestRect(g.Rect(i)))
	}
	return out
}

func auditHarness(t *testing.T) *harness {
	// 128x96 with 32px tiles: a 4x3 grid, 12 tiles.
	return newHarness(t, 128, 96, core.Options{AuditTileSize: 32})
}

func TestAuditDigestsTrackDrawing(t *testing.T) {
	h := auditHarness(t)
	if !h.srv.AuditSupported() {
		t.Fatal("xserver-backed core must support auditing")
	}
	g := h.srv.AuditGrid()
	if g.Tiles() != 12 {
		t.Fatalf("grid = %+v, want 12 tiles", g)
	}

	check := func(context string) {
		t.Helper()
		want := clientDigests(h, 0, g.Tiles())
		got := h.srv.AuditDigests(0, g.Tiles(), nil)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: tile %d: server digest %#x, client %#x",
					context, i, got[i], want[i])
			}
		}
	}
	check("after attach sync")

	// Draw through every translated path; the index must follow.
	w := h.dpy.CreateWindow(geom.XYWH(0, 0, 128, 96))
	h.dpy.FillRect(w, &xserver.GC{Fg: pixel.RGB(10, 200, 30)}, geom.XYWH(5, 5, 60, 40))
	h.dpy.CopyArea(w, w, geom.XYWH(0, 0, 40, 40), geom.Point{X: 80, Y: 50})
	h.dpy.PutImage(w, geom.XYWH(30, 60, 20, 15), mkImagePix(geom.XYWH(0, 0, 20, 15), 7), 20)
	h.sync(t)
	check("after drawing")
}

func TestAuditRepairTiles(t *testing.T) {
	h := auditHarness(t)
	g := h.srv.AuditGrid()
	w := h.dpy.CreateWindow(geom.XYWH(0, 0, 128, 96))
	h.dpy.FillRect(w, &xserver.GC{Fg: pixel.RGB(77, 88, 99)}, geom.XYWH(0, 0, 128, 96))
	h.sync(t)
	h.verify(t, "pre-corruption")

	// Silently corrupt two client tiles — past the decoder, invisible to
	// the transport. The audit comparison must localize exactly them.
	for _, i := range []int{1, 7} {
		r := g.Rect(i)
		p := h.dst.FB().At(r.X0, r.Y0)
		h.dst.FB().Set(r.X0, r.Y0, p^0x00000100)
	}
	want := h.srv.AuditDigests(0, g.Tiles(), nil)
	got := clientDigests(h, 0, g.Tiles())
	var bad []int
	for i := range want {
		if want[i] != got[i] {
			bad = append(bad, i)
		}
	}
	if len(bad) != 2 || bad[0] != 1 || bad[1] != 7 {
		t.Fatalf("mismatched tiles = %v, want [1 7]", bad)
	}

	// Targeted repair heals only those tiles and converges byte-exact.
	repaired := h.srv.RepairTiles(h.cl, bad)
	if wantBytes := 2 * 32 * 32 * 4; repaired != wantBytes {
		t.Fatalf("repaired %d bytes, want %d", repaired, wantBytes)
	}
	h.sync(t)
	h.verify(t, "post-repair")
}

// TestAuditRepairSupersedesQueuedCommands pins the ordering argument:
// a repair RAW reads the *current* screen, which already includes the
// effect of every queued-but-unflushed command, and riding the normal
// add path lets overwrite eviction clip what it supersedes — so a
// repair can never resurrect stale bytes however SRSF reorders.
func TestAuditRepairSupersedesQueuedCommands(t *testing.T) {
	h := auditHarness(t)
	w := h.dpy.CreateWindow(geom.XYWH(0, 0, 128, 96))
	// Queue (do not flush) a draw, then repair the tiles it covers.
	h.dpy.FillRect(w, &xserver.GC{Fg: pixel.RGB(200, 10, 10)}, geom.XYWH(0, 0, 64, 64))
	h.srv.RepairTiles(h.cl, []int{0, 1, 4, 5})
	h.sync(t)
	h.verify(t, "repair over queued draw")
}

func TestAuditOverlayTile(t *testing.T) {
	h := auditHarness(t)
	port := h.dpy.CreateVideoPort(32, 24, geom.XYWH(64, 32, 48, 32))
	defer port.Close()
	g := h.srv.AuditGrid()
	overlap := 0
	for i := 0; i < g.Tiles(); i++ {
		r := g.Rect(i)
		over := !r.Intersect(geom.XYWH(64, 32, 48, 32)).Empty()
		if h.srv.AuditOverlayTile(i) != over {
			t.Errorf("tile %d overlay flag = %v, want %v", i, !over, over)
		}
		if over {
			overlap++
		}
	}
	if overlap == 0 {
		t.Fatal("video dst overlaps no tiles; test geometry is wrong")
	}
}

func TestAuditEligibility(t *testing.T) {
	h := auditHarness(t)
	if !h.cl.AuditEligible() {
		t.Fatal("fresh lossless unscaled client must be eligible")
	}
	h.cl.SetDegrade(overload.RungCompress)
	if h.cl.AuditEligible() {
		t.Error("lossy-rung client must not be eligible (audit deferral)")
	}
	h.cl.SetDegrade(overload.RungLossless)
	scaled := h.srv.AttachClient(64, 48)
	if scaled.AuditEligible() {
		t.Error("scaled client must not be eligible")
	}
}

func TestAuditStateRidesReattach(t *testing.T) {
	h := auditHarness(t)
	a := h.cl.Audit()
	a.Misses = 3
	a.Seq = 42
	h.srv.DetachClient(h.cl)
	h.srv.ReattachClient(h.cl, 128, 96)
	if h.cl.Audit().Misses != 3 || h.cl.Audit().Seq != 42 {
		t.Fatal("audit state did not survive detach/reattach")
	}
	a.Sweeping, a.SweepPos, a.SweepBad = true, 5, 3
	a.ResetSweep()
	if a.Sweeping || a.SweepPos != 0 || a.SweepBad != 0 {
		t.Fatal("ResetSweep left residue")
	}
}

func TestAuditUnsupportedMemory(t *testing.T) {
	// A core whose Memory cannot expose the screen (or that was never
	// initialized) must degrade to "no auditing" without panicking.
	srv := core.NewServer(core.Options{})
	if srv.AuditSupported() {
		t.Fatal("uninitialized core claims audit support")
	}
	if g := srv.AuditGrid(); g.Tiles() != 0 {
		t.Fatalf("unsupported grid = %+v", g)
	}
	if d := srv.AuditDigests(0, 4, nil); len(d) != 0 {
		t.Fatalf("unsupported digests = %v", d)
	}
	if srv.AuditOverlayTile(0) {
		t.Fatal("unsupported overlay check returned true")
	}
	c := srv.AttachClient(64, 48)
	if n := srv.RepairTiles(c, []int{0}); n != 0 {
		t.Fatalf("unsupported repair returned %d bytes", n)
	}
}
