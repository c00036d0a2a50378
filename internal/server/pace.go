package server

import (
	"sync/atomic"
	"time"

	"thinc/internal/core"
	"thinc/internal/wire"
)

// Delivery pacing (§5). THINC pushes: an update leaves when there is
// one, and the command buffer coalesces only while the link is busy.
// The one rule, shared by the connection pump (sched.go) and the
// Recorder: a delivery pass is due at
//
//	max(now, previous pass + FlushInterval)
//
// so damage on a connection that has been quiet for an interval is
// delivered at once, while a sustained stream still gets at most
// FlushBudget bytes per FlushInterval — the link model the overload
// controller's streak counts and the chaos link budgets are built on.
// Those are bytes that leave: a pass keeps draining budget-sized SRSF
// batches (core.ClientBuffer.Flush, then FlushMore) and writing each
// at once, charging it what it put on the wire, until its allowance is
// spent (allowance). A 3 MB screen that PNG shrinks to a few KB leaves
// in one pass, not in one pass per 256 KiB of raw pixels. Dropping the
// interval altogether (write progress as the only throttle) is
// deliberately not done here: it would remove that model.

// pacing is the due-time arithmetic. It is owned by one flusher and
// needs no lock.
type pacing struct {
	interval time.Duration
	next     time.Time // earliest start of the next pass; zero before the first
}

// wait reports how long a pass wanted at now must be held back: zero
// once an interval has gone by since the previous pass.
func (p *pacing) wait(now time.Time) time.Duration {
	if d := p.next.Sub(now); d > 0 {
		return d
	}
	return 0
}

// delivered records a pass that started at start. A pass that ran at
// once on damage restarts the cadence from its own start. A paced pass
// (one that waited on the timer) advances the cadence from the time it
// was due, not from when the timer actually got it running, so timer
// latency never accumulates over a long drain — the drift-free cadence
// of the ticker this replaces. One that ran a whole interval late
// restarts the cadence instead, as a ticker drops the ticks it missed
// rather than bursting to catch up.
func (p *pacing) delivered(start time.Time, paced bool) {
	if !paced || start.Sub(p.next) >= p.interval {
		p.next = start
	}
	p.next = p.next.Add(p.interval)
}

// allowance is the byte arithmetic of a pass: each pass may emit
// FlushBudget bytes, less what the previous pass overshot. A pass takes
// a further batch only while what is left of its allowance would pay
// for one as large as the batch before, so a stream of like batches
// never overshoots and leaves at most FlushBudget bytes per pass; a
// batch larger than the one before it can overshoot, and the next pass
// pays that back. It is owned by one flusher and needs no lock.
type allowance struct {
	budget int // FlushBudget
	debt   int // bytes the previous pass emitted past its allowance
}

// drainCall says which drain of the client buffer one step of a pass
// makes.
type drainCall uint8

const (
	drainOpen  drainCall = iota // Flush: the pass's first batch
	drainMore                   // FlushMore: a further batch of the same pass
	drainWhole                  // FlushOne: the head command, larger than a whole budget
)

// take makes the drain on buf; the caller holds the buffer's lock.
func (d drainCall) take(buf *core.ClientBuffer, budget int) []wire.Message {
	switch d {
	case drainOpen:
		return buf.Flush(budget)
	case drainMore:
		return buf.FlushMore(budget)
	default:
		return buf.FlushOne()
	}
}

// pass runs one delivery pass. step drains one batch with the given
// call, writes it, and reports the bytes that left and whether
// commands are still queued; it is told the allowance left before it,
// so it can know with ends whether its batch is the pass's last. The
// pass goes on while commands are queued, the last batch emitted
// anything, and the allowance left would pay for another like it. When
// the opening batch is empty although commands are queued, the head
// command is unsplittable and larger than the whole budget (a long
// audio write against a modem-class budget): it is streamed whole,
// like a kernel taking one oversized write, or the queue would wedge;
// the passes after it pay for it. pass reports the bytes the pass
// emitted and whether any step ran (a pass still paying off debt runs
// none).
func (a *allowance) pass(step func(call drainCall, left int) (sent int, queued bool, err error)) (sent int, stepped bool, err error) {
	left := a.budget - a.debt
	for call := drainOpen; left > 0; call = drainMore {
		n, queued, err := step(call, left)
		if err == nil && n == 0 && queued && call == drainOpen {
			n, queued, err = step(drainWhole, left)
		}
		last := ends(left, n, queued)
		sent += n
		left -= n
		stepped = true
		if err != nil {
			return sent, stepped, err
		}
		if last {
			break
		}
	}
	a.debt = max(0, -left)
	return sent, stepped, nil
}

// ends reports whether a pass ends after a step that emitted n of the
// left bytes of its allowance: nothing is queued, the batch was empty,
// or what is left could not pay for another batch as large. Appending
// to a non-empty batch that ends the pass cannot make it go on.
func ends(left, n int, queued bool) bool {
	return n == 0 || !queued || left-n < n
}

// pusher is the push-on-damage state machine around pacing: the damage
// hook (any goroutine, under the lock that guards the command buffer)
// calls request; the flusher calls deliver when woken, by the hook or
// by the one-shot timer it booked for deliver's previous return value.
// At most one pass is pending at a time, so an idle connection holds no
// timer and a burst of inserts costs one wake.
type pusher struct {
	pacing
	allowance
	wake func() // wakes the flusher; called under the buffer's lock, must not block

	// armed marks a pass pending: requested and not yet run, or booked
	// on the flusher's timer.
	armed atomic.Bool
	// booked (flusher-owned) marks the pending pass as one deliver held
	// back, so the next deliver call knows the timer woke it.
	booked bool
}

func newPusher(interval time.Duration, budget int, wake func()) *pusher {
	return &pusher{pacing: pacing{interval: interval}, allowance: allowance{budget: budget}, wake: wake}
}

// request asks for a delivery pass. It is the damage hook, and the
// nudge for out-of-band work (a parked DegradeNotice, the attach
// resync queued before the hook was installed).
func (p *pusher) request() {
	if p.armed.CompareAndSwap(false, true) {
		p.wake()
	}
}

// deliver runs every pass that is due now and returns how long the
// flusher must wait before calling it again, or zero when the
// connection went idle (the next request will wake it). pass runs one
// delivery pass, told whether it was held back by the pacing rule or
// ran at once on damage; it reports whether it wrote anything and
// whether paced passes must continue with nothing new queued (backlog
// left over, or state that needs the cadence to resolve). pending
// reports whether any work a request stands for is waiting; requesters
// publish their work before calling request, so the check after the
// disarm cannot miss a request the armed flag swallowed.
func (p *pusher) deliver(pass func(paced bool) (wrote, more bool, err error), pending func() bool) (time.Duration, error) {
	paced := p.booked
	p.booked = false
	for {
		start := time.Now()
		if wait := p.wait(start); wait > 0 {
			p.booked = true
			return wait, nil
		}
		wrote, more, err := pass(paced)
		if err != nil {
			return 0, err
		}
		// A pass that found nothing (a request that raced the previous
		// drain) must not move the clock, or the next real update would
		// wait out an interval it never used.
		if wrote || more {
			p.delivered(start, paced)
		}
		paced = true
		if more {
			continue
		}
		p.armed.Store(false)
		// Work published while the pass ran saw armed still set and did
		// not wake us; pick it up here. Losing the swap means a newer
		// request did, and its wake is already on the way.
		if !pending() || !p.armed.CompareAndSwap(false, true) {
			return 0, nil
		}
	}
}
