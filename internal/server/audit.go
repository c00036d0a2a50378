package server

import (
	"fmt"
	"time"

	"thinc/internal/wire"
)

// Integrity auditing and self-healing tile repair (wire v4).
//
// The server keeps per-tile digests of the session framebuffer,
// maintained incrementally by the translation layer as applications
// draw. On each audit tick the pump — the sole writer to the
// client and the sole owner of the audit state machine — probes one
// settled client with AUDIT_PROBE, asking it to digest a sampled
// window of its own framebuffer tiles. The AUDIT_REPLY digests are
// compared against the server's; any divergent tile (silent
// corruption past the decoder, a buggy client raster op, bitflipped
// payload bytes) is healed with a targeted RAW repaint through the
// normal scheduler — no full-screen resync.
//
// Escalation ladder: a sampled window with more than
// AuditEscalateTiles mismatches triggers a full sweep of every tile
// (probed in window-sized chunks); a sweep whose total damage exceeds
// AuditResyncTiles abandons targeted repair for a full resync. A peer
// that answers heartbeats but never answers probes is a pre-v4 client:
// after legacyMissLimit unanswered probes with no reply ever seen it
// is marked legacy and left alone. A peer that used to answer and then
// goes silent for resyncMissLimit probes can no longer be verified and
// is resynced.
//
// Probes are only sent when the client is eligible — settled at the
// lossless rung with an unscaled viewport — and when its command queue
// is fully drained. Because the pump is the only writer, a probe
// sent right after observing an empty queue precedes every
// later-translated command on the wire, so the client framebuffer at
// probe receipt matches the server screen snapshot taken with the
// probe. Tiles under an active video overlay are skipped: the server
// screen never holds video pixels (the client composites them
// locally), so those tiles legitimately differ.

const (
	// legacyMissLimit: unanswered probes (with no reply ever) before a
	// peer is declared pre-v4 and probing stops.
	legacyMissLimit = 2
	// resyncMissLimit: unanswered probes from a peer that used to
	// answer before the server gives up verifying and resyncs.
	resyncMissLimit = 4
)

// auditConn is one connection's in-flight probe state. Owned by the
// pump; the durable cursor (sequence, sweep progress, legacy
// verdict) lives on the core client so it rides reattach.
type auditConn struct {
	inflight bool
	seq      uint32
	sentAt   time.Time
	start, n int      // probed tile window
	total    int      // grid size at probe time
	expect   []uint64 // server-side digests of the window
	skip     []bool   // tiles under a video overlay at probe time
	scrW     int      // screen geometry at probe time; a reply echoing
	scrH     int      // different client geometry is a resize race
	// sweepTiles accumulates divergent tile indices across the chunks
	// of an escalated full sweep, repaired (or abandoned for a resync)
	// when the sweep completes.
	sweepTiles []int
}

// auditTick runs one step of the audit loop: time out a stale probe,
// then send the next one if the client is eligible and fully drained.
func (c *serverConn) auditTick(queue func(wire.Message) error, flush func() error) error {
	o := &c.host.opts
	a := c.cl.Audit()
	if a.Legacy {
		return nil
	}
	met := c.host.met
	if c.aud.inflight {
		if time.Since(c.aud.sentAt) < o.AuditTimeout {
			return nil // still waiting
		}
		c.aud.inflight = false
		a.Misses++
		met.auditTimeouts.Inc()
		c.host.mu.Lock()
		c.host.stats.AuditTimeouts++
		c.host.mu.Unlock()
		if !a.EverReplied && a.Misses >= legacyMissLimit {
			// Never answered a probe: a v2/v3 peer. Stop probing it.
			a.Legacy = true
			met.auditLegacyPeers.Inc()
			c.host.mu.Lock()
			c.host.stats.AuditLegacyPeers++
			c.host.mu.Unlock()
			if tr := met.tr; tr.Enabled() {
				tr.Event("audit.legacy", "user="+c.user)
			}
			return nil
		}
		if a.EverReplied && a.Misses >= resyncMissLimit {
			// It spoke v4 and went silent: integrity can no longer be
			// verified, so resync rather than trust a stale screen.
			c.auditResync("probe timeouts")
			a.Misses = 0
			return nil
		}
	}

	// Build the next probe under the host lock: eligibility, drain
	// check, and the server-side digest snapshot are all taken in one
	// critical section, and the probe is written before the lock-free
	// pump can deliver any later-translated command.
	var probe *wire.AuditProbe
	func() {
		c.host.mu.Lock()
		defer c.host.mu.Unlock()
		co := c.host.core
		if !co.AuditSupported() || !c.cl.AuditEligible() {
			return // deferred: lossy rung, scaled viewport, or no screen
		}
		if c.cl.Buf.QueuedBytes() != 0 {
			return // not settled; try again next tick
		}
		g := co.AuditGrid()
		total := g.Tiles()
		if total == 0 {
			return
		}
		start, n := 0, o.AuditSampleTiles
		if a.Sweeping {
			start = a.SweepPos
			if start >= total { // stale cursor from a resized session
				a.ResetSweep()
				c.aud.sweepTiles = nil
				return
			}
		} else {
			if a.Cursor >= total {
				a.Cursor = 0
			}
			start = a.Cursor
		}
		if start+n > total {
			n = total - start
		}
		if !a.Sweeping {
			a.Cursor = start + n
			if a.Cursor >= total {
				a.Cursor = 0
			}
		}
		c.aud.start, c.aud.n, c.aud.total = start, n, total
		c.aud.expect = co.AuditDigests(start, n, c.aud.expect[:0])
		c.aud.skip = c.aud.skip[:0]
		for i := 0; i < n; i++ {
			c.aud.skip = append(c.aud.skip, co.AuditOverlayTile(start+i))
		}
		c.aud.scrW, c.aud.scrH = co.ScreenSize()
		a.Seq++
		c.aud.seq = a.Seq
		probe = &wire.AuditProbe{Seq: a.Seq, Tile: uint16(g.Side),
			Start: uint32(start), Count: uint16(n)}
	}()
	if probe == nil {
		return nil
	}
	c.aud.inflight = true
	c.aud.sentAt = time.Now()
	met.auditProbes.Inc()
	c.host.mu.Lock()
	c.host.stats.AuditProbes++
	c.host.mu.Unlock()
	if err := queue(probe); err != nil {
		return err
	}
	return flush()
}

// auditReply consumes one digest reply: compare, heal divergent tiles
// with targeted repairs, and walk the escalation ladder.
func (c *serverConn) auditReply(r *wire.AuditReply) {
	met := c.host.met
	a := c.cl.Audit()
	a.EverReplied = true
	a.Misses = 0
	met.auditReplies.Inc()
	c.host.mu.Lock()
	c.host.stats.AuditReplies++
	c.host.mu.Unlock()
	if !c.aud.inflight || r.Seq != c.aud.seq {
		return // stale or duplicate reply
	}
	c.aud.inflight = false
	if us := time.Since(c.aud.sentAt).Microseconds(); us >= 0 {
		met.auditRTT.Observe(us)
	}
	if int(r.W) != c.aud.scrW || int(r.H) != c.aud.scrH {
		return // resize race: the reply digests a different geometry
	}

	n := len(r.Digests)
	if n > len(c.aud.expect) {
		n = len(c.aud.expect)
	}
	var bad []int
	for i := 0; i < n; i++ {
		if c.aud.skip[i] {
			continue // live video overlay; legitimately divergent
		}
		if r.Digests[i] != c.aud.expect[i] {
			bad = append(bad, c.aud.start+i)
		}
	}
	if len(bad) > 0 {
		met.auditMismatchedTiles.Add(int64(len(bad)))
		c.host.mu.Lock()
		c.host.stats.AuditMismatches += len(bad)
		c.host.mu.Unlock()
		if tr := met.tr; tr.Enabled() {
			tr.Event("audit.mismatch", fmt.Sprintf("user=%s tiles=%d window=[%d,%d)",
				c.user, len(bad), c.aud.start, c.aud.start+c.aud.n))
		}
	}

	o := &c.host.opts
	if a.Sweeping {
		c.aud.sweepTiles = append(c.aud.sweepTiles, bad...)
		a.SweepBad += len(bad)
		a.SweepPos = c.aud.start + c.aud.n
		if a.SweepPos < c.aud.total {
			return // next chunk goes out on the next audit tick
		}
		// Sweep complete: heal everything it found, or give up on
		// targeted repair when the damage is too broad.
		if a.SweepBad > o.AuditResyncTiles {
			c.auditResync(fmt.Sprintf("sweep found %d divergent tiles", a.SweepBad))
		} else {
			c.auditRepair(c.aud.sweepTiles)
		}
		a.ResetSweep()
		c.aud.sweepTiles = nil
		return
	}
	if len(bad) > o.AuditEscalateTiles {
		// Too much damage for one window: sweep the whole screen before
		// deciding between targeted repair and resync.
		a.Sweeping = true
		a.SweepPos = 0
		a.SweepBad = 0
		c.aud.sweepTiles = nil
		met.auditSweeps.Inc()
		c.host.mu.Lock()
		c.host.stats.AuditSweeps++
		c.host.mu.Unlock()
		if tr := met.tr; tr.Enabled() {
			tr.Event("audit.sweep", fmt.Sprintf("user=%s trigger=%d", c.user, len(bad)))
		}
		return
	}
	if len(bad) > 0 {
		c.auditRepair(bad)
	}
}

// auditRepair queues targeted RAW repaints of the listed tiles.
func (c *serverConn) auditRepair(tiles []int) {
	if len(tiles) == 0 {
		return
	}
	var bytes int
	c.host.mu.Lock()
	bytes = c.host.core.RepairTiles(c.cl, tiles)
	c.host.stats.AuditRepairs += len(tiles)
	c.host.stats.AuditRepairBytes += bytes
	c.host.mu.Unlock()
	met := c.host.met
	met.auditRepairedTiles.Add(int64(len(tiles)))
	met.auditRepairedBytes.Add(int64(bytes))
	if tr := met.tr; tr.Enabled() {
		tr.Event("audit.repair", fmt.Sprintf("user=%s tiles=%d bytes=%d",
			c.user, len(tiles), bytes))
	}
}

// auditResync is the ladder's last rung: a full-screen resync.
func (c *serverConn) auditResync(why string) {
	c.host.mu.Lock()
	c.host.core.ResyncClient(c.cl)
	c.host.stats.AuditResyncs++
	c.host.mu.Unlock()
	c.host.met.auditResyncs.Inc()
	if tr := c.host.met.tr; tr.Enabled() {
		tr.Event("audit.resync", "user="+c.user+" why="+why)
	}
	c.cl.Audit().ResetSweep()
	c.aud.sweepTiles = nil
	c.aud.inflight = false
}
