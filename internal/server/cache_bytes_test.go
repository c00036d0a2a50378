package server

import (
	"testing"
	"time"

	"thinc/internal/client"
	"thinc/internal/geom"
	"thinc/internal/pixel"
	"thinc/internal/telemetry"
	"thinc/internal/xserver"
)

// Bytes on the wire with the payload cache (wire v6) and across warm
// reattach (wire v7), counted exactly. The scene is a repeat-heavy
// desktop: a bank of icon-sized patterns redrawn every round at
// round-shifted slots of a 256x192 screen. Slots exceed the pattern by
// a margin so draws never abut (RawCmd merging would re-key digests and
// turn repeats into fresh content).
const (
	bankPatterns = 12
	bankW, bankH = 256, 192
	patternW     = 32
	patternH     = 24
	slotW        = patternW + 4
	slotH        = patternH + 4
	bankCols     = bankW / slotW
	bankSlots    = bankCols * (bankH / slotH)
)

// bankPattern is bank entry i: position-independent bytes, so every
// redraw is a digest-identical repeat, varied enough that the damage
// pipeline ships RAW rather than collapsing it to a fill.
func bankPattern(i int) []pixel.ARGB {
	pix := make([]pixel.ARGB, patternW*patternH)
	for j := range pix {
		pix[j] = pixel.RGB(uint8(31*i+j), uint8(j>>2^i*67), uint8(j*13))
	}
	return pix
}

func newBank() [][]pixel.ARGB {
	bank := make([][]pixel.ARGB, bankPatterns)
	for i := range bank {
		bank[i] = bankPattern(i)
	}
	return bank
}

// drawBankRound draws every bank pattern once at its round-shifted
// slot. Slots stay disjoint within a round (the bank is smaller than
// the slot grid and the shift is uniform), so commands never merge.
func drawBankRound(d *xserver.Display, win *xserver.Window, bank [][]pixel.ARGB, round int) {
	for i, pix := range bank {
		slot := (i + round*5) % bankSlots
		r := geom.XYWH((slot%bankCols)*slotW+1, (slot/bankCols)*slotH+1, patternW, patternH)
		d.PutImage(win, r, pix, patternW)
	}
}

// displayBytes sums the host's wire byte counters over every display
// type: what a client applies and counts, leaving out the control
// messages (heartbeats, marks, tickets) its reader answers in-line.
func displayBytes(host *Host) int64 {
	var n int64
	for _, e := range wireTypeLabels {
		if e.label != "control" {
			n += host.Telemetry().Value("thinc_wire_bytes_total", telemetry.L("type", e.label))
		}
	}
	return n
}

// appliedBytes sums the client's per-type counters of applied bytes.
func appliedBytes(conn *client.Conn) int64 {
	var n int64
	for _, b := range conn.Stats().Bytes {
		n += b
	}
	return n
}

// delivered waits until the host's one connection is at rest and the
// client has applied every display byte the host framed since the
// counters read hostFrom and clientFrom, and returns those bytes. The
// host counts a message when it frames it, so equal counts at rest
// mean nothing is left in flight.
func delivered(t *testing.T, host *Host, conn *client.Conn, hostFrom, clientFrom int64) int64 {
	t.Helper()
	waitFor(t, "every framed byte applied", func() bool {
		return idle(host) && displayBytes(host)-hostFrom == appliedBytes(conn)-clientFrom
	})
	return appliedBytes(conn) - clientFrom
}

// bankOptions is a quiet host for byte counting: no audit, no marks,
// no quality ladder, and a budget the scene never splits on.
func bankOptions() Options {
	return Options{
		FlushInterval:    time.Millisecond,
		FlushBudget:      1 << 22,
		HeartbeatTimeout: 10 * time.Second,
		DetachGrace:      20 * time.Second,
		DisableAudit:     true,
		DisableE2E:       true,
		DisableOverload:  true,
	}
}

// TestCacheSteadyBytes: once three warm rounds have stored the bank,
// the steady rounds of the scene are pure repeats, and a cached session
// ships them as CACHE_PAINT references: at least 5x fewer bytes than
// the same rounds with the cache off, a hit ratio of at least 80%, and
// no cache miss. (That a session without the cache sees no cache
// traffic is TestCacheVersionMatrix's.)
func TestCacheSteadyBytes(t *testing.T) {
	const warm, steady = 3, 10
	run := func(t *testing.T, cacheKB int) (int64, *Host, client.Stats) {
		opts := bankOptions()
		opts.CacheKB = cacheKB
		host, addr := startHost(t, bankW, bankH, opts)
		conn, err := client.Dial(addr, "owner", "pw", bankW, bankH)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		go conn.Run()

		bank := newBank()
		var win *xserver.Window
		host.Do(func(d *xserver.Display) {
			win = d.CreateWindow(geom.XYWH(0, 0, bankW, bankH))
			d.FillRect(win, &xserver.GC{Fg: pixel.RGB(24, 26, 32)}, win.Bounds())
		})
		delivered(t, host, conn, 0, 0) // both count from the attach
		var base int64
		for r := 0; r < warm+steady; r++ {
			if r == warm {
				base = appliedBytes(conn)
			}
			h0, c0 := displayBytes(host), appliedBytes(conn)
			host.Do(func(d *xserver.Display) { drawBankRound(d, win, bank, r) })
			delivered(t, host, conn, h0, c0)
		}
		if conn.Snapshot().Checksum() != host.ScreenChecksum() {
			t.Fatal("client did not converge")
		}
		return appliedBytes(conn) - base, host, conn.Stats()
	}
	var cached, plain int64
	t.Run("cached", func(t *testing.T) {
		var host *Host
		var st client.Stats
		cached, host, st = run(t, client.DefaultCacheRequestKB)
		if st.CacheMissReports != 0 {
			t.Errorf("%d cache misses on a lossless link", st.CacheMissReports)
		}
		if st.CachePainted < bankPatterns*steady {
			t.Errorf("%d cache paints over %d steady rounds of %d patterns", st.CachePainted, steady, bankPatterns)
		}
		if hit := host.Telemetry().Value("thinc_cache_hit_ratio_milli"); hit < 800 {
			t.Errorf("cache hit ratio %d/1000, want at least 800", hit)
		}
	})
	t.Run("uncached", func(t *testing.T) { plain, _, _ = run(t, 0) })
	t.Logf("steady bytes over %d rounds: cached %d, uncached %d", steady, cached, plain)
	if cached <= 0 || cached*5 > plain {
		t.Fatalf("steady bytes cached %d vs uncached %d: want at least a 5x reduction", cached, plain)
	}
}
