package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"thinc/internal/geom"
	"thinc/internal/wire"
)

// Delivery scheduling (§5). The per-client command buffer keeps the
// commands awaiting transmission with the command-queue overwrite
// invariants, and delivers them with a multi-queue
// Shortest-Remaining-Size-First (SRSF) scheduler: NumQueues queues with
// power-of-two size boundaries, flushed in increasing order, each
// ordered by arrival. A real-time queue preempts everything for updates
// near recent user input. Flushing is non-blocking: the caller offers a
// byte budget (how much the transport will take without blocking), and
// oversized RAW commands are broken so the remainder waits, reformatted,
// for the next flush period.
//
// Reordering correctness: commands may be delivered out of arrival
// order only when no dependency exists between them. Dependencies are
// recorded explicitly at insertion — paint-order (the new command's
// output overlaps a buffered command's surviving output), read-after-
// write (the new command reads a buffered command's output — COPY
// sources, transparent blends), and write-after-read (the new command
// overwrites what a buffered COPY still needs to read). The flusher
// delivers a command only after all of its dependencies.

// Scheduler geometry.
const (
	// NumQueues is the number of SRSF size queues (the paper's
	// implementation uses 10).
	NumQueues = 10
	// queueBase is the size bound of the first queue; queue i holds
	// commands of wire size <= queueBase << i.
	queueBase = 64
	// rtMaxSize bounds commands eligible for the real-time queue —
	// "small to medium-sized" updates issued in response to input.
	rtMaxSize = 8 * 1024
	// rtRadius is the half-size of the region around the last input
	// event whose updates are considered interactive feedback.
	rtRadius = 48
	// rtLifetime is how many flush periods an input event keeps its
	// region hot.
	rtLifetime = 8
)

// sizeQueue maps a wire size to its SRSF queue index.
func sizeQueue(size int) int {
	bound := queueBase
	for i := 0; i < NumQueues-1; i++ {
		if size <= bound {
			return i
		}
		bound <<= 1
	}
	return NumQueues - 1
}

// entry is a buffered command plus its scheduling state.
type entry struct {
	cmd      Command
	seq      uint64
	deps     []*entry // must be delivered (or evicted) first
	realtime bool     // preempts the size queues
	stream   uint32
	isFrame  bool
	slot     string // replacement-slot key ("" = none)
	inFlush  uint64 // flush counter at insertion (queue-residency metric)
	drain    uint64 // id of the drain that found it queued; 0 once that drain delivered it
	// epoch and damageNS carry the translation layer's batch stamp
	// through the scheduler (wire v5 e2e tracing; see trace.go).
	epoch    uint64
	damageNS int64
	// size caches cmd.WireSize() so queue classification, backlog
	// accounting, and flush budgeting never recompute it. It is
	// refreshed whenever the live remainder changes: overwrite
	// eviction shrinking a survivor, merge absorption, RAW splitting.
	size int
}

// BufferStats accounts a client buffer's activity.
type BufferStats struct {
	Queued     int // commands accepted
	Merged     int // commands absorbed into a predecessor
	Evicted    int // commands dropped as irrelevant before delivery
	FrameDrops int // video frames replaced before delivery
	Sent       int // commands fully delivered
	Splits     int // RAW commands broken for non-blocking flush
	BytesSent  int64

	// BudgetEvicted counts commands replaced by the per-client byte
	// budget's eviction-to-RAW sweeps.
	BudgetEvicted int

	// Overshoots counts commands streamed past the flush budget by
	// FlushOne — the forward-progress guarantee when the head command
	// is unsplittable and larger than the whole budget.
	Overshoots int
}

// ClientBuffer is the per-client command buffer (§5).
type ClientBuffer struct {
	entries []*entry
	seq     uint64
	flushes uint64   // delivery passes opened by Flush (queue-residency metric)
	drains  uint64   // drain calls (Flush, FlushMore, FlushOne) that scheduled entries
	order   []*entry // a drain's delivery order, reused between drains

	rtCenter geom.Point
	rtTTL    int

	// stampEpoch/stampDamageNS are applied to each added entry;
	// lastFlush summarizes the most recent delivering flush (trace.go).
	stampEpoch    uint64
	stampDamageNS int64
	lastFlush     FlushTrace

	// FIFO disables SRSF and real-time scheduling: commands flush in
	// arrival order (the ablation baseline for §5).
	FIFO bool

	Stats BufferStats

	met *Metrics

	// onQueued, when set, fires after every successful insert (Add,
	// AddSlot, AddFrame — replacements included). It is the damage
	// hook of push delivery: the server runs a delivery pass when there
	// is something to deliver, not on a clock, so an idle session costs
	// no timer at all. Called under whatever lock guards the buffer, so
	// it must be cheap and must not call back in.
	onQueued func()
}

// SetOnQueued installs (or clears, with nil) the insert hook. The
// caller must hold the same lock that guards the buffer's inserts.
func (b *ClientBuffer) SetOnQueued(fn func()) { b.onQueued = fn }

// notifyQueued fires the insert hook, if any.
func (b *ClientBuffer) notifyQueued() {
	if b.onQueued != nil {
		b.onQueued()
	}
}

// NewClientBuffer returns an empty buffer.
func NewClientBuffer() *ClientBuffer { return &ClientBuffer{met: nopMetrics} }

// NewClientBufferWith returns an empty buffer reporting into the given
// instrument bundle (nil falls back to detached instruments).
func NewClientBufferWith(met *Metrics) *ClientBuffer {
	if met == nil {
		met = nopMetrics
	}
	return &ClientBuffer{met: met}
}

// Clear drops every buffered command without delivering it — the
// slow-client policy: when a peer cannot keep up, stale commands are
// discarded wholesale and the caller queues a full resync instead of
// letting the backlog grow without bound.
func (b *ClientBuffer) Clear() {
	b.Stats.Evicted += len(b.entries)
	b.met.evicted.Add(int64(len(b.entries)))
	b.met.bufferClears.Inc()
	if b.met.Trace.Enabled() {
		b.met.Trace.Event("sched.clear", fmt.Sprintf("dropped=%d", len(b.entries)))
	}
	clear(b.entries)
	b.entries = b.entries[:0]
}

// Len returns the number of buffered commands.
func (b *ClientBuffer) Len() int { return len(b.entries) }

// QueuedBytes returns the total remaining wire size buffered.
func (b *ClientBuffer) QueuedBytes() int {
	n := 0
	for _, e := range b.entries {
		n += e.size
	}
	return n
}

// NotifyInput marks the region around p as interactive: subsequent
// overlapping small updates are delivered through the real-time queue.
func (b *ClientBuffer) NotifyInput(p geom.Point) {
	b.rtCenter = p
	b.rtTTL = rtLifetime
}

func (b *ClientBuffer) rtRegion() geom.Rect {
	if b.rtTTL <= 0 {
		return geom.Rect{}
	}
	return geom.XYWH(b.rtCenter.X-rtRadius, b.rtCenter.Y-rtRadius, 2*rtRadius, 2*rtRadius)
}

// Add inserts a command, applying overwrite eviction, merge
// aggregation, dependency recording, and real-time classification.
func (b *ClientBuffer) Add(cmd Command) {
	b.Stats.Queued++
	b.met.queuedByClass[cmd.Class()].Inc()
	size := cmd.WireSize()
	b.met.cmdSize.Observe(int64(size))

	// Overwrite eviction (opaque commands only). Regions a buffered COPY
	// still reads from are protected: clipping the command that drew a
	// copy's source would make the client execute the copy over content
	// it never received. Protected commands survive whole; the
	// dependency edges below keep the delivery order correct.
	if cmd.Class() != Transparent {
		var protected geom.Region
		for _, e := range b.entries {
			if rs := e.cmd.ReadsFrom(); !rs.Empty() {
				protected.UnionRect(rs)
			}
		}
		// A scroll-style COPY overwrites part of what it reads: its own
		// source needs the same protection.
		if rs := cmd.ReadsFrom(); !rs.Empty() {
			protected.UnionRect(rs)
		}
		// Evict by the command's *live* region: a clone extracted by
		// CopyOut may cover less than its bounds, and must not evict
		// content it will not repaint.
		cover := cmd.Live().Rects()
		kept := b.entries[:0]
		for _, e := range b.entries {
			shielded := false
			if !protected.Empty() {
			shieldCheck:
				for _, r := range cover {
					if !e.cmd.Live().OverlapsRect(r) {
						continue
					}
					for _, pr := range protected.Rects() {
						if e.cmd.Live().OverlapsRect(pr.Intersect(r)) {
							shielded = true
							break shieldCheck
						}
					}
				}
			}
			if shielded {
				kept = append(kept, e)
				continue
			}
			evicted, touched := false, false
			for _, r := range cover {
				if !e.cmd.Live().OverlapsRect(r) {
					continue // CoverOutput would be a no-op
				}
				touched = true
				if e.cmd.CoverOutput(r) {
					evicted = true
					break
				}
			}
			if evicted {
				b.Stats.Evicted++
				b.met.evicted.Inc()
				continue
			}
			if touched {
				// Partial coverage shrank the live remainder; the cached
				// size must track it or SRSF schedules on stale bytes.
				e.size = e.cmd.WireSize()
			}
			kept = append(kept, e)
		}
		clear(b.entries[len(kept):]) // evicted commands must not stay reachable
		b.entries = kept
	}

	// Dependency edges: the new command must be delivered after any
	// buffered command whose surviving output it overlaps or reads, and
	// after any buffered command that still reads what it overwrites.
	var deps []*entry
	nb := cmd.Bounds()
	ns := cmd.ReadsFrom()
	for _, e := range b.entries {
		dep := false
		if !nb.Empty() && e.cmd.Live().OverlapsRect(nb) {
			dep = true // paint order
		}
		if !dep && !ns.Empty() && e.cmd.Live().OverlapsRect(ns) {
			dep = true // read after write
		}
		if !dep {
			if es := e.cmd.ReadsFrom(); !es.Empty() && !nb.Empty() && es.Overlaps(nb) {
				dep = true // write after read
			}
		}
		if dep {
			deps = append(deps, e)
		}
	}

	// Merge aggregation with the most recent command; the merged entry
	// absorbs the newcomer's dependencies.
	if n := len(b.entries); n > 0 && b.entries[n-1].cmd.Merge(cmd) {
		b.Stats.Merged++
		b.met.merged.Inc()
		last := b.entries[n-1]
		last.size = last.cmd.WireSize() // absorption grew the command
		last.deps = appendNewDeps(last.deps, deps, last)
		if len(last.deps) > 0 {
			last.realtime = false
		}
		b.notifyQueued()
		return
	}

	e := &entry{cmd: cmd, seq: b.seq, deps: deps, inFlush: b.flushes, size: size,
		epoch: b.stampEpoch, damageNS: b.stampDamageNS}
	b.seq++

	// Real-time classification: small, dependency-free updates
	// overlapping the recent input region jump the size queues.
	if rt := b.rtRegion(); !rt.Empty() && !nb.Empty() &&
		nb.Overlaps(rt) && size <= rtMaxSize && len(deps) == 0 {
		e.realtime = true
	}
	if _, ok := cmd.(*AudioCmd); ok {
		e.realtime = true // audio rides the interactive path (§4.2)
	}
	if cc, ok := cmd.(*ctlCmd); ok && cc.rt && len(deps) == 0 {
		e.realtime = true // cursor traffic is interactive feedback
	}
	if e.realtime {
		b.met.rtPromotions.Inc()
	}
	b.entries = append(b.entries, e)
	b.notifyQueued()
}

// Slot keys for AddSlot.
const slotCursorMove = "cursor-move"

// AddSlot inserts a command into a named replacement slot: an unsent
// predecessor with the same key is superseded in place (cursor moves;
// video frames use the same mechanism keyed per stream).
func (b *ClientBuffer) AddSlot(cmd Command, key string) {
	b.Stats.Queued++
	b.met.queuedByClass[cmd.Class()].Inc()
	size := cmd.WireSize()
	b.met.cmdSize.Observe(int64(size))
	for i, e := range b.entries {
		if e.slot == key {
			e2 := &entry{cmd: cmd, seq: e.seq, deps: e.deps,
				realtime: e.realtime, slot: key, inFlush: e.inFlush, size: size,
				epoch: b.stampEpoch, damageNS: b.stampDamageNS}
			b.entries[i] = e2
			b.redirectDeps(e, e2)
			b.notifyQueued()
			return
		}
	}
	e := &entry{cmd: cmd, seq: b.seq, slot: key, inFlush: b.flushes, size: size,
		epoch: b.stampEpoch, damageNS: b.stampDamageNS}
	b.seq++
	if cc, ok := cmd.(*ctlCmd); ok && cc.rt {
		e.realtime = true
	}
	b.entries = append(b.entries, e)
	b.notifyQueued()
}

// appendNewDeps merges dep lists, dropping duplicates and self-edges.
func appendNewDeps(dst, add []*entry, self *entry) []*entry {
	for _, d := range add {
		if d == self {
			continue
		}
		seen := false
		for _, x := range dst {
			if x == d {
				seen = true
				break
			}
		}
		if !seen {
			dst = append(dst, d)
		}
	}
	return dst
}

// AddFrame inserts a video frame, replacing any undelivered frame of
// the same stream (drop-at-server instead of queue-stale-video).
// It reports whether an older frame was dropped.
func (b *ClientBuffer) AddFrame(cmd *FrameCmd) (dropped bool) {
	b.Stats.Queued++
	b.met.queuedByClass[cmd.Class()].Inc()
	size := cmd.WireSize()
	b.met.cmdSize.Observe(int64(size))
	for i, e := range b.entries {
		if e.isFrame && e.stream == cmd.StreamID {
			e2 := &entry{cmd: cmd, seq: e.seq, deps: e.deps,
				stream: cmd.StreamID, isFrame: true, inFlush: e.inFlush, size: size,
				epoch: b.stampEpoch, damageNS: b.stampDamageNS}
			b.entries[i] = e2
			b.redirectDeps(e, e2)
			b.Stats.FrameDrops++
			b.met.frameDrops.Inc()
			b.notifyQueued()
			return true
		}
	}
	e := &entry{cmd: cmd, seq: b.seq, stream: cmd.StreamID, isFrame: true,
		inFlush: b.flushes, size: size,
		epoch: b.stampEpoch, damageNS: b.stampDamageNS}
	b.seq++
	b.entries = append(b.entries, e)
	b.notifyQueued()
	return false
}

// redirectDeps repoints dependency edges from old to new when an entry
// is replaced in place.
func (b *ClientBuffer) redirectDeps(old, new *entry) {
	for _, e := range b.entries {
		for i, d := range e.deps {
			if d == old {
				e.deps[i] = new
			}
		}
	}
}

// srsfCmp is the SRSF delivery order: real-time entries first, by
// arrival; then the size queues in increasing order of each entry's
// *remaining* wire size (cached; refreshed on eviction shrink, merge and
// split), by arrival within a queue.
func srsfCmp(a, b *entry) int {
	if a.realtime != b.realtime {
		if a.realtime {
			return -1
		}
		return 1
	}
	if !a.realtime {
		if c := cmp.Compare(sizeQueue(a.size), sizeQueue(b.size)); c != 0 {
			return c
		}
	}
	return cmp.Compare(a.seq, b.seq)
}

// schedule opens one drain: it stamps every buffered entry with a fresh
// drain id (an entry's dependency is pending exactly while the
// dependency carries the id of the drain looking at it) and returns the
// entries in delivery order, SRSF or (srsf false) arrival order. The
// slice is the buffer's scratch; the drain clears it when done, so
// delivered commands do not stay reachable through it.
func (b *ClientBuffer) schedule(srsf bool) []*entry {
	b.drains++
	b.order = append(b.order[:0], b.entries...)
	for _, e := range b.order {
		e.drain = b.drains
	}
	if srsf {
		slices.SortStableFunc(b.order, srsfCmp)
	}
	return b.order
}

// ready reports whether every dependency of e has left the buffer: it
// was delivered or evicted before this drain, or delivered by it.
func ready(e *entry, drain uint64) bool {
	for _, d := range e.deps {
		if d.drain == drain {
			return false
		}
	}
	return true
}

// sent accounts an entry the current drain delivered in full and takes
// it out of the drain's pending set.
func (b *ClientBuffer) sent(e *entry, drainNS int64) {
	e.drain = 0
	b.Stats.Sent++
	b.met.sent.Inc()
	// Queue residency in delivery passes; an entry queued between two
	// calls of the pass that delivers it waited none.
	var waited uint64
	if e.inFlush < b.flushes {
		waited = b.flushes - 1 - e.inFlush
	}
	b.met.queueWait.Observe(int64(waited))
	b.noteDelivered(e, drainNS)
}

// keepPending drops every entry the current drain delivered from the
// buffer and releases the drain's scratch order.
func (b *ClientBuffer) keepPending() {
	kept := b.entries[:0]
	for _, e := range b.entries {
		if e.drain == b.drains {
			kept = append(kept, e)
		}
	}
	clear(b.entries[len(kept):]) // delivered commands must not stay reachable
	b.entries = kept
	clear(b.order)
}

// Flush opens a delivery pass and delivers up to budget bytes of
// commands in scheduler order: real-time first, then queues in
// increasing size order, arrival order within a queue — holding back
// any command whose dependencies have not been delivered yet. A RAW
// command that does not fit is split; anything else that does not fit
// stops the flush (non-blocking commit, §5). It returns the wire
// messages to transmit. The budget is charged with each command's
// pre-compression wire size, so the bytes that leave may be far fewer;
// a transport that paces by those can go on with FlushMore.
func (b *ClientBuffer) Flush(budget int) []wire.Message {
	if b.rtTTL > 0 {
		b.rtTTL--
	}
	if len(b.entries) == 0 || budget <= 0 {
		return nil
	}
	b.flushes++
	return b.drain(budget)
}

// FlushMore is Flush continuing the delivery pass the last Flush
// opened: the same budget rule, but the pass counters — the real-time
// region's lifetime and queue residency — are not advanced again.
func (b *ClientBuffer) FlushMore(budget int) []wire.Message {
	if len(b.entries) == 0 || budget <= 0 {
		return nil
	}
	return b.drain(budget)
}

// drain is one budgeted call of a delivery pass (Flush, FlushMore).
func (b *ClientBuffer) drain(budget int) []wire.Message {
	b.lastFlush = FlushTrace{}
	drainNS := time.Now().UnixNano()
	order := b.schedule(!b.FIFO)
	drain := b.drains

	var out []wire.Message
	blocked := false
	for progress := true; progress && !blocked; {
		progress = false
		for _, e := range order {
			if e.drain != drain || !ready(e, drain) {
				continue
			}
			sz := e.size
			if sz <= budget {
				out = e.cmd.Emit(out)
				budget -= sz
				b.sent(e, drainNS)
				progress = true
				continue
			}
			// Command breaking: only RAW payloads split cleanly. The
			// remainder keeps waiting with its *reduced* wire size, so the
			// next flush reschedules it in the queue matching what is
			// actually left to send (see TestSplitRemainderRequeued).
			if rc, ok := e.cmd.(*RawCmd); ok {
				if part := rc.SplitTop(budget); part != nil {
					out = part.Emit(out)
					budget -= part.WireSize()
					e.size = rc.WireSize() // remainder reschedules by what is left
					b.Stats.Splits++
					b.met.splits.Inc()
					if b.met.Trace.Enabled() {
						b.met.Trace.Event("sched.split",
							fmt.Sprintf("part=%dB remaining=%dB", part.WireSize(), e.size))
					}
					if rc.Live().Empty() {
						b.sent(e, drainNS)
					}
				}
			}
			blocked = true // transport would block; stop flushing (§5)
			break
		}
	}
	b.keepPending()
	b.account(out)
	return out
}

// account adds a drain's messages to the bytes-sent counters.
func (b *ClientBuffer) account(out []wire.Message) {
	if len(out) == 0 {
		return
	}
	var flushed int64
	for _, m := range out {
		flushed += int64(wire.WireSize(m))
	}
	b.Stats.BytesSent += flushed
	b.met.bytesSent.Add(flushed)
	b.met.flushBytes.Observe(flushed)
}

// FlushAll drains the buffer completely, ignoring budgets — used by
// tests and by transports with no backpressure.
func (b *ClientBuffer) FlushAll() []wire.Message {
	var out []wire.Message
	for b.Len() > 0 {
		msgs := b.Flush(1 << 30)
		if len(msgs) == 0 {
			break
		}
		out = append(out, msgs...)
	}
	return out
}

// FlushOne delivers exactly the first eligible command in SRSF order
// regardless of size — the transport path for a command larger than
// the socket buffer when the link is otherwise idle: the kernel streams
// a large write over time, it does not refuse it.
func (b *ClientBuffer) FlushOne() []wire.Message {
	if len(b.entries) == 0 {
		return nil
	}
	order := b.schedule(true)
	drain := b.drains
	for _, e := range order {
		if !ready(e, drain) {
			continue
		}
		out := e.cmd.Emit(nil)
		e.drain = 0
		b.keepPending()
		b.lastFlush = FlushTrace{}
		b.noteDelivered(e, time.Now().UnixNano())
		b.Stats.Sent++
		b.Stats.Overshoots++
		b.met.sent.Inc()
		b.met.overshoots.Inc()
		b.account(out)
		return out
	}
	clear(order)
	return nil
}
