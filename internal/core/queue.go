package core

import (
	"thinc/internal/geom"
)

// Queue is a command queue (§4): commands drawing to one surface,
// ordered by arrival, with the invariant that only commands relevant to
// the surface's current contents remain queued. As new commands
// overwrite old ones, overwritten commands are clipped (Partial) or
// evicted (all classes), according to their overwrite class.
type Queue struct {
	cmds []Command

	// Evicted counts commands that became irrelevant before delivery —
	// the work the translation layer saves (read by benchmarks).
	Evicted int
	// Merged counts commands absorbed into their predecessor — the §4
	// update aggregation (glyph runs, scanline images).
	Merged int

	// MaxBytes caps the queue's summed wire size (0 = unbounded). When
	// an Add overflows the cap, the oldest commands are dropped until
	// the queue holds at most half the cap: their regions simply stop
	// being reproducible from commands, so CopyOut routes them to the
	// raw-pixel fallback — eviction-to-RAW, deferred to copy-out time.
	MaxBytes int
	// Overflows counts budget overflow sweeps.
	Overflows int
}

// Len returns the number of queued commands.
func (q *Queue) Len() int { return len(q.cmds) }

// Commands returns the queued commands in arrival order. The slice is
// owned by the queue.
func (q *Queue) Commands() []Command { return q.cmds }

// Clear drops everything.
func (q *Queue) Clear() {
	clear(q.cmds)
	q.cmds = q.cmds[:0]
}

// Add inserts c, first evicting or clipping the commands it overwrites
// (opaque classes only — transparent commands overwrite nothing), then
// attempting to merge c into the most recent surviving command
// (scanline and abutting-fill aggregation, §4).
func (q *Queue) Add(c Command) {
	if c.Class() != Transparent {
		// Evict by the command's *live* region: a clone extracted by
		// CopyOut may cover less than its bounds, and must not evict
		// content it will not repaint.
		cover := c.Live().Rects()
		kept := q.cmds[:0]
		for _, b := range q.cmds {
			evicted := false
			for _, r := range cover {
				if b.CoverOutput(r) {
					evicted = true
					break
				}
			}
			if evicted {
				q.Evicted++
				continue
			}
			kept = append(kept, b)
		}
		clear(q.cmds[len(kept):])
		q.cmds = kept
	}
	if n := len(q.cmds); n > 0 && q.cmds[n-1].Merge(c) {
		q.Merged++
		q.enforceBudget()
		return
	}
	q.cmds = append(q.cmds, c)
	q.enforceBudget()
}

// enforceBudget applies MaxBytes: oldest-first drops down to half the
// cap. Dropping a prefix is always safe — the surface itself holds the
// rendered result, and CopyOut reads it as raw pixels for any region
// the remaining commands no longer cover.
func (q *Queue) enforceBudget() {
	if q.MaxBytes <= 0 {
		return
	}
	total := 0
	for _, c := range q.cmds {
		total += c.WireSize()
	}
	if total <= q.MaxBytes {
		return
	}
	q.Overflows++
	i := 0
	for ; i < len(q.cmds) && total > q.MaxBytes/2; i++ {
		total -= q.cmds[i].WireSize()
		q.Evicted++
	}
	n := copy(q.cmds, q.cmds[i:])
	clear(q.cmds[n:])
	q.cmds = q.cmds[:n]
}

// LiveRegion returns the union of all queued commands' live regions.
func (q *Queue) LiveRegion() geom.Region {
	var rg geom.Region
	for _, c := range q.cmds {
		rg.Union(c.Live())
	}
	return rg
}

// CopyOut extracts clones of the commands needed to reproduce the src
// rectangle of this queue's surface elsewhere (§4.1). It returns the
// clones — clipped to src where the class permits, in arrival order,
// still in source coordinates — plus the fallback region: the part of
// src whose content is not reproducible from commands and must be
// transferred as raw pixels by the caller.
//
// Class rules:
//   - Partial commands are cloned with their live region clipped to src.
//   - Complete commands are cloned only when fully inside src; a
//     partially-overlapping Complete command's area falls to the
//     fallback (its payload cannot be split).
//   - Transparent commands are cloned only when the content they blend
//     over is itself fully reproduced by the cloned opaque commands;
//     otherwise their effect is already baked into the fallback pixels.
//
// The caller must emit the fallback pixels *before* the cloned commands
// (the clones repaint or blend consistently over them).
//
// Transparent eligibility uses *prefix* coverage — the opaque content
// reproduced by clones that arrived before the transparent command —
// because that is what the command blended over. If any transparent
// command in src is ineligible, the whole extraction degrades to the
// raw fallback: its blend result exists only in the rendered surface,
// and replaying any sibling commands around a baked snapshot risks
// double blends or stale repaints.
func (q *Queue) CopyOut(src geom.Rect) (clones []Command, fallback geom.Region) {
	var covered geom.Region // coverage by cloned opaque commands so far
	for _, b := range q.cmds {
		switch b.Class() {
		case Partial:
			inter := b.Live().Clone()
			inter.IntersectRect(src)
			if inter.Empty() {
				continue
			}
			cl := b.Clone()
			cl.Live().IntersectRect(src)
			covered.Union(&inter)
			clones = append(clones, cl)
		case Complete:
			if !b.Live().OverlapsRect(src) {
				continue
			}
			if src.Contains(b.Bounds()) {
				covered.Union(b.Live())
				clones = append(clones, b.Clone())
			}
			// Else: its visible part falls to the raw fallback.
		case Transparent:
			if !b.Live().OverlapsRect(src) {
				continue
			}
			if src.Contains(b.Bounds()) && covered.ContainsRect(b.Bounds()) {
				clones = append(clones, b.Clone())
				continue
			}
			// Ineligible transparent command: bail out to pixels.
			return nil, geom.RegionOf(src)
		}
	}
	fallback = geom.RegionOf(src)
	fallback.Subtract(&covered)
	return clones, fallback
}
