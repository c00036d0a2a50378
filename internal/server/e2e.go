package server

import (
	"fmt"
	"sync/atomic"
	"time"

	"thinc/internal/core"
	"thinc/internal/overload"
	"thinc/internal/wire"
)

// End-to-end update tracing (wire v5).
//
// Server-side telemetry ends at the socket write; the user-visible
// latency ends when the client has decoded and painted the update. To
// close that gap without clock synchronization, the pump — the
// sole writer and the sole owner of this state machine — appends a
// TIME_MARK after a flush that delivered commands, naming the newest
// flush epoch the batch contained. The client answers with a MARK_ACK
// once everything up to the mark is on its framebuffer, carrying the
// decode+apply time it spent since the previous ack. All arithmetic
// stays on the server clock:
//
//	queue = flush drain   - oldest damage instant delivered
//	write = write done    - flush drain
//	apply = client-reported decode+apply time
//	wire  = ack received  - write done - minRTT/2 - apply
//	e2e   = queue + write + wire + apply
//
// The return leg of the ack is estimated as half the heartbeat
// min-RTT — the estimator's bufferbloat-free floor — so the wire stage
// absorbs queueing delay on the forward path, which is exactly the
// delay a user perceives. Stage sums equal the end-to-end figure by
// construction.
//
// A v4 peer skips TIME_MARK as an unknown-but-well-framed type and
// never acks: after markLegacyMissLimit marks expire unanswered with
// no ack ever seen, the peer is marked legacy on the retained core
// client (riding reattach, like the audit verdict) and the server
// stops marking its batches.

const (
	// markLegacyMissLimit: expired marks (with no ack ever) before a
	// peer is declared pre-v5 and marking stops.
	markLegacyMissLimit = 2
	// maxInflightMarks bounds the per-connection mark window; when it
	// is full no new mark is sent until an ack or a timeout frees one.
	maxInflightMarks = 64
)

// markRec is one in-flight mark: the server-clock instants of the
// pipeline stages behind it.
type markRec struct {
	epoch    uint64
	timeUS   uint64 // echoed opaquely by the ack
	damageNS int64  // oldest damage instant the flush delivered (0 = unstamped)
	drainNS  int64  // when the scheduler drain returned
	writeNS  int64  // when the batch write completed
}

// e2eConn is one connection's mark state. Owned by the pump; the
// durable cursor (legacy verdict, miss count) lives on the core client
// so it rides reattach.
type e2eConn struct {
	inflight   []markRec
	lastMarkNS int64
}

// e2eMark decides whether the flush that just completed should carry a
// mark and, if so, returns the record to arm after the write. Called
// with the flush trace read under the host lock and the drain instant.
func (c *serverConn) e2eMark(ft core.FlushTrace, drainNS int64) *wire.TimeMark {
	o := &c.host.opts
	if o.DisableE2E || ft.Delivered == 0 {
		return nil
	}
	ts := c.cl.Trace()
	if ts.Legacy {
		return nil
	}
	c.e2eExpire()
	if ts.Legacy { // the expiry pass may have just reached the verdict
		return nil
	}
	if len(c.e2e.inflight) >= maxInflightMarks {
		return nil // window full; wait for acks or timeouts
	}
	if c.e2e.lastMarkNS != 0 && drainNS-c.e2e.lastMarkNS < int64(o.MarkInterval) {
		return nil // pacing: at most one mark per MarkInterval
	}
	c.e2e.lastMarkNS = drainNS
	ts.Sent++
	m := &wire.TimeMark{Epoch: ft.MaxEpoch, TimeUS: uint64(time.Now().UnixMicro())}
	c.e2e.inflight = append(c.e2e.inflight, markRec{
		epoch:    m.Epoch,
		timeUS:   m.TimeUS,
		damageNS: ft.OldestDamageNS,
		drainNS:  drainNS,
	})
	met := c.host.met
	met.e2eMarks.Inc()
	c.host.mu.Lock()
	c.host.stats.E2EMarks++
	c.host.mu.Unlock()
	return m
}

// e2eArm finalizes the just-sent mark with the instant its batch write
// completed. Must follow the flush that carried the mark.
func (c *serverConn) e2eArm() {
	c.e2e.inflight[len(c.e2e.inflight)-1].writeNS = time.Now().UnixNano()
}

// e2eExpire times out stale marks and walks the legacy verdict —
// exactly the audit loop's never-answered pattern.
func (c *serverConn) e2eExpire() {
	timeout := int64(c.host.opts.MarkTimeout)
	now := time.Now().UnixNano()
	ts := c.cl.Trace()
	met := c.host.met
	expired := 0
	for _, r := range c.e2e.inflight {
		// writeNS may still be zero if the mark's flush errored mid-way;
		// fall back to the drain instant.
		sent := r.writeNS
		if sent == 0 {
			sent = r.drainNS
		}
		if now-sent < timeout {
			break // FIFO: everything later is younger
		}
		expired++
	}
	if expired == 0 {
		return
	}
	c.e2e.inflight = c.e2e.inflight[:copy(c.e2e.inflight, c.e2e.inflight[expired:])]
	ts.Misses += expired
	met.e2eTimeouts.Add(int64(expired))
	c.host.mu.Lock()
	c.host.stats.E2ETimeouts += expired
	c.host.mu.Unlock()
	if !ts.EverAcked && ts.Misses >= markLegacyMissLimit {
		// Never acked a mark: a pre-v5 peer. Stop marking it.
		ts.Legacy = true
		c.e2e.inflight = c.e2e.inflight[:0]
		met.e2eLegacyPeers.Inc()
		c.host.mu.Lock()
		c.host.stats.E2ELegacyPeers++
		c.host.mu.Unlock()
		if tr := met.tr; tr.Enabled() {
			tr.SessionEvent(c.user, "e2e.legacy", "peer never acked a mark")
		}
	}
}

// e2eAck closes the loop on one acknowledged mark: compute the stage
// decomposition and feed the histograms.
func (c *serverConn) e2eAck(ack *wire.MarkAck) {
	ackNS := time.Now().UnixNano()
	ts := c.cl.Trace()
	met := c.host.met
	// Find the acked mark; acks arrive in order over TCP, so anything
	// older in the window was skipped (its flush write failed mid-batch
	// or the ack was lost to a reconnect) and is dropped as missed.
	idx := -1
	for i, r := range c.e2e.inflight {
		if r.epoch == ack.Epoch && r.timeUS == ack.TimeUS {
			idx = i
			break
		}
	}
	if idx < 0 {
		return // stale or duplicate ack (reattach race); ignore
	}
	ts.EverAcked = true
	ts.Misses = 0
	rec := c.e2e.inflight[idx]
	c.e2e.inflight = c.e2e.inflight[:copy(c.e2e.inflight, c.e2e.inflight[idx+1:])]
	met.e2eAcks.Inc()
	c.host.mu.Lock()
	c.host.stats.E2EAcks++
	c.host.mu.Unlock()

	if rec.writeNS == 0 {
		return // mark write never completed cleanly; stages undefined
	}
	// One-way skew correction: the ack's return leg is estimated as half
	// the heartbeat min-RTT (the estimator's bufferbloat-free floor), so
	// forward-path queueing delay stays inside the wire stage where the
	// user perceives it.
	c.estMu.Lock()
	retNS := int64(c.est.MinRTTMicros()*1000) / 2
	c.estMu.Unlock()

	queueNS := int64(0)
	if rec.damageNS > 0 && rec.drainNS > rec.damageNS {
		queueNS = rec.drainNS - rec.damageNS
	}
	writeNS := max64(0, rec.writeNS-rec.drainNS)
	applyNS := int64(ack.ApplyUS) * 1000
	wireNS := max64(0, ackNS-rec.writeNS-retNS-applyNS)
	e2eNS := queueNS + writeNS + wireNS + applyNS

	met.e2eStageQueue.Observe(queueNS)
	met.e2eStageWrite.Observe(writeNS)
	met.e2eStageWire.Observe(wireNS)
	met.e2eStageApply.Observe(applyNS)
	rung := int(atomic.LoadInt32(&c.rung))
	if rung < 0 || rung >= overload.NumRungs {
		rung = 0
	}
	met.e2eLatency[rung].Observe(e2eNS / 1000)
	if tr := met.tr; tr.Enabled() {
		tr.SessionEvent(c.user, "e2e.ack",
			fmt.Sprintf("epoch=%d rung=%s e2e_us=%d queue_us=%d write_us=%d wire_us=%d apply_us=%d",
				ack.Epoch, overload.RungName(rung), e2eNS/1000, queueNS/1000,
				writeNS/1000, wireNS/1000, applyNS/1000))
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
