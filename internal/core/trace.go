package core

import "time"

// End-to-end update tracing (wire v5): the translation layer stamps
// every command batch with a monotonically increasing flush epoch and
// the wall-clock instant the damage entered the driver. The stamps
// ride each buffered entry through the SRSF scheduler, so a flush can
// report the newest epoch and the oldest damage instant it delivered —
// the two numbers the transport needs to close the loop with a
// TimeMark and attribute the client's MarkAck back to a damage time.

// stampDamage opens a new flush epoch. It is called at every driver
// entry point that produces client-bound commands, so a batch of
// translated commands (one broadcast, one video frame, one resync)
// shares one epoch and one damage instant.
func (s *Server) stampDamage() {
	s.epoch++
	s.damageNS = time.Now().UnixNano()
}

// Epoch returns the current flush epoch — the number of stamped
// command batches translated so far.
func (s *Server) Epoch() uint64 { return s.epoch }

// FlushTrace summarizes what one Flush delivered, for the transport's
// end-to-end mark loop.
type FlushTrace struct {
	// MaxEpoch is the newest flush epoch among delivered commands.
	MaxEpoch uint64
	// OldestDamageNS is the earliest damage instant among delivered
	// commands (zero when nothing stamped was delivered).
	OldestDamageNS int64
	// Delivered counts commands fully delivered by the flush.
	Delivered int
}

// Add folds o, the trace of a later flush of the same delivery pass,
// into t, so t summarizes the whole pass.
func (t *FlushTrace) Add(o FlushTrace) {
	t.Delivered += o.Delivered
	t.MaxEpoch = max(t.MaxEpoch, o.MaxEpoch)
	if o.OldestDamageNS > 0 && (t.OldestDamageNS == 0 || o.OldestDamageNS < t.OldestDamageNS) {
		t.OldestDamageNS = o.OldestDamageNS
	}
}

// LastFlush returns the trace of the most recent Flush or FlushOne
// that delivered anything. Callers must check that the flush they just
// issued was non-empty before reading it.
func (b *ClientBuffer) LastFlush() FlushTrace { return b.lastFlush }

// SetStamp records the epoch/damage stamp applied to subsequently
// added commands. The core sets it from the server's current stamp on
// every add path; transports never call it.
func (b *ClientBuffer) SetStamp(epoch uint64, damageNS int64) {
	b.stampEpoch, b.stampDamageNS = epoch, damageNS
}

// noteDelivered folds one delivered entry into the running flush trace
// and observes its damage-to-drain latency (the queue stage of the
// end-to-end pipeline) with sub-millisecond resolution.
func (b *ClientBuffer) noteDelivered(e *entry, nowNS int64) {
	b.lastFlush.Delivered++
	if e.epoch > b.lastFlush.MaxEpoch {
		b.lastFlush.MaxEpoch = e.epoch
	}
	if e.damageNS > 0 {
		if b.lastFlush.OldestDamageNS == 0 || e.damageNS < b.lastFlush.OldestDamageNS {
			b.lastFlush.OldestDamageNS = e.damageNS
		}
		if d := nowNS - e.damageNS; d >= 0 {
			b.met.queueLatNS.Observe(d)
		}
	}
}
