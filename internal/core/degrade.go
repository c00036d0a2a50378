package core

import (
	"fmt"
	"sort"

	"thinc/internal/compress"
	"thinc/internal/driver"
	"thinc/internal/fb"
	"thinc/internal/geom"
	"thinc/internal/overload"
	"thinc/internal/resample"
)

// Overload protection in the translation layer: per-client degradation
// of command payloads (the ladder's content rungs) and hard byte
// budgets on the command queues with deterministic eviction-to-RAW.
// The *decision* of which rung a client rides lives in
// internal/overload; this file applies it to commands.

// SetDegrade sets the client's active degradation rung (see the
// overload package's ladder). Rung changes only affect commands
// translated afterwards; the transport layer is responsible for the
// repair refresh when a client descends out of the lossy rungs.
func (c *Client) SetDegrade(rung int) {
	if rung < overload.RungLossless {
		rung = overload.RungLossless
	}
	if rung >= overload.NumRungs {
		rung = overload.NumRungs - 1
	}
	c.degrade = rung
}

// Degrade returns the client's active degradation rung.
func (c *Client) Degrade() int { return c.degrade }

// degradeTransform rewrites a translated command for the client's
// rung. Commands are never mutated in place — broadcast hands the
// first client the shared original — so any rewrite clones first
// (RAW pixel slabs are immutable and shared, keeping clones cheap).
func (c *Client) degradeTransform(cmd Command) Command {
	if c.degrade < overload.RungCompress {
		return cmd
	}
	switch v := cmd.(type) {
	case *RawCmd:
		// Rung 1: the heaviest lossless codec. Rung 2+: half-resolution
		// downscale baked into the payload codec (§6's resampler).
		codec := compress.CodecPNG
		if c.degrade >= overload.RungDownscale {
			codec = compress.CodecDown2
		}
		if v.Codec == codec {
			return cmd
		}
		cp := v.Clone().(*RawCmd)
		cp.Codec = codec
		return cp
	case *TileCmd:
		// Rung 2+: ship the pattern tile at half resolution. The fill
		// geometry is untouched; the client tiles the smaller pattern,
		// trading fidelity for a quarter of the payload.
		if c.degrade < overload.RungDownscale {
			return cmd
		}
		tw, th := (v.Tile.W+1)/2, (v.Tile.H+1)/2
		if tw >= v.Tile.W && th >= v.Tile.H {
			return cmd
		}
		pix := resample.Fant(v.Tile.Pix, v.Tile.W, v.Tile.W, v.Tile.H, tw, th)
		cp := v.Clone().(*TileCmd)
		cp.Tile = fb.NewTile(tw, th, pix)
		return cp
	}
	return cmd
}

// RefreshClient queues a full-screen repaint from the rendered screen
// without discarding the client's backlog — the repair step when a
// client descends out of the lossy rungs (or after budget evictions
// were visible). Adding it through the normal path lets overwrite
// eviction clip everything the repaint supersedes.
func (s *Server) RefreshClient(c *Client) {
	if s.mem == nil {
		return
	}
	full := geom.XYWH(0, 0, s.w, s.h)
	pix := s.mem.ReadPixels(driver.Screen, full)
	c.add(NewRaw(full, pix, full.W(), false, s.opts.RawCodec))
}

// enforceBudget applies the hard per-client byte cap: when the
// buffered backlog exceeds the budget, the largest evictable commands
// are discarded and the screen regions they would have painted are
// replaced with one RAW snapshot of the *current* rendered content —
// deterministic eviction-to-RAW. The replacement rides the normal add
// path, so it clips whatever it supersedes and lands behind the
// survivors it overlaps (the screen already holds their final result).
func (c *Client) enforceBudget() {
	max := c.budget
	if max <= 0 || c.inBudget || c.srv.mem == nil {
		return
	}
	if c.Buf.QueuedBytes() <= max {
		return
	}
	c.inBudget = true
	defer func() { c.inBudget = false }()

	region := c.Buf.evictForBudget(max / 2)
	if region.Empty() {
		return
	}
	c.BudgetSweeps++
	c.srv.met.budgetSweeps.Inc()
	if tr := c.srv.met.Trace; tr.Enabled() {
		tr.Event("sched.budget_sweep",
			fmt.Sprintf("budget=%d rects=%d", max, len(region.Rects())))
	}
	for _, r := range region.Rects() {
		sr := c.unscaleRect(r)
		if sr.Empty() {
			continue
		}
		pix := c.srv.mem.ReadPixels(driver.Screen, sr)
		c.add(NewRaw(sr, pix, sr.W(), false, c.srv.opts.RawCodec))
	}
}

// unscaleRect maps a viewport rectangle back to the smallest screen
// rectangle whose scaled image covers it (identity when the client is
// unscaled). Budget eviction records regions in buffered — viewport —
// coordinates, but replacement pixels are read from the screen.
func (c *Client) unscaleRect(r geom.Rect) geom.Rect {
	s := c.srv
	screen := geom.XYWH(0, 0, s.w, s.h)
	if !c.Scaled() {
		return r.Intersect(screen)
	}
	vw, vh := c.view.W(), c.view.H()
	out := geom.Rect{
		X0: r.X0 * s.w / vw,
		Y0: r.Y0 * s.h / vh,
		X1: (r.X1*s.w + vw - 1) / vw,
		Y1: (r.Y1*s.h + vh - 1) / vh,
	}
	return out.Intersect(screen)
}

// budgetMinEvict is the smallest entry worth budget-evicting: below
// it, the replacement RAW would cost more than the eviction saves.
const budgetMinEvict = 2048

// evictForBudget removes the largest evictable entries (ties broken by
// arrival order) until the buffered bytes drop to target, returning
// the union of their live output regions for the caller to repaint.
//
// Never evicted: real-time entries (audio must keep flowing, cursor
// feedback stays), video frames (at most one per stream, replaced in
// place anyway), control messages, slot entries, and — mirroring
// overwrite eviction's shield — anything a buffered COPY still reads,
// because repainting a copy source with *current* pixels would feed
// the copy content from the wrong point in time.
func (b *ClientBuffer) evictForBudget(target int) geom.Region {
	total := b.QueuedBytes()
	if total <= target {
		return geom.Region{}
	}
	var protected geom.Region
	for _, e := range b.entries {
		if rs := e.cmd.ReadsFrom(); !rs.Empty() {
			protected.UnionRect(rs)
		}
	}
	var cand []*entry
	for _, e := range b.entries {
		if e.realtime || e.isFrame || e.slot != "" || e.size < budgetMinEvict {
			continue
		}
		switch e.cmd.(type) {
		case *ctlCmd, *AudioCmd, *FrameCmd:
			continue
		}
		shielded := false
		for _, pr := range protected.Rects() {
			if e.cmd.Live().OverlapsRect(pr) {
				shielded = true
				break
			}
		}
		if shielded {
			continue
		}
		cand = append(cand, e)
	}
	sort.SliceStable(cand, func(i, j int) bool {
		if cand[i].size != cand[j].size {
			return cand[i].size > cand[j].size
		}
		return cand[i].seq < cand[j].seq
	})

	victims := make(map[*entry]bool)
	var region geom.Region
	for _, e := range cand {
		if total <= target {
			break
		}
		victims[e] = true
		total -= e.size
		region.Union(e.cmd.Live())
	}
	if len(victims) == 0 {
		return geom.Region{}
	}
	kept := b.entries[:0]
	for _, e := range b.entries {
		if victims[e] {
			continue
		}
		kept = append(kept, e)
	}
	clear(b.entries[len(kept):]) // victims must not stay reachable
	b.entries = kept
	b.Stats.BudgetEvicted += len(victims)
	b.met.budgetEvicted.Add(int64(len(victims)))
	return region
}
