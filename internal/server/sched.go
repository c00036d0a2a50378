package server

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"time"

	"thinc/internal/shard"
	"thinc/internal/wire"
)

// This file is the sharded, event-driven connection driver selected by
// Options.Sched. The classic driver (run) spends two goroutines, two
// tickers and a pacing timer per connection; at thousands of sessions
// the scheduler and timer heaps dominate the host. Under Sched every connection is
// one shard.Task on a fixed worker pool, its pacing rides the shared
// timer wheel, and — crucially — an idle session arms nothing at all:
// the damage hook (core.ClientBuffer.SetOnQueued) wakes the pump when
// there is something to deliver, a one-shot wheel entry is booked only
// for a pass the pacing rule holds back, heartbeats are batched wheel
// entries, and the pump runs only when damage, a timer or an inbound
// control message wakes it. Wire behavior is byte-identical to the
// goroutine driver; the pacing rule (pace.go), flushTick,
// heartbeatTick, auditTick, and dispatch are the same code in both.
type schedConn struct {
	task *shard.Task
	sess *session

	// batch plus its bound queue/flush pair; owned by the pump (the
	// sole writer), released by finishSched.
	batch *wire.Batch
	queue func(wire.Message) error
	flush func() error
	// pass and pending are the pusher's view of this connection, bound
	// once so a pump run allocates nothing.
	pass    func(paced bool) (wrote, more bool, err error)
	pending func() bool

	hbTimer    *shard.Timer // periodic heartbeat wheel entry
	auditTimer *shard.Timer // periodic audit wheel entry (nil when disabled)

	// due flags, set by wheel callbacks (flushDue also by the damage
	// hook, see wakeFlush) and consumed by the pump. A timer callback
	// only stores a flag and wakes the task, so wheel advancing never
	// blocks on connection work.
	hbDue    atomic.Bool
	auditDue atomic.Bool
	flushDue atomic.Bool

	// lastIn is the unix-nano time of the last inbound message; the
	// heartbeat pass reaps an event-driven peer silent past the
	// timeout (a socket conn's blocking reader enforces its own read
	// deadline instead). lastHB is the time of our previous heartbeat
	// pass: silence is judged against our own ping cadence, so a pass
	// that arrives late (scheduler backlog, attach storm) never reaps
	// a peer that answered every ping it was actually sent.
	lastIn atomic.Int64
	lastHB atomic.Int64

	// Teardown. failed gates the one fail() winner; err is written
	// before done closes and read only after; finished gates the one
	// finishSched run; finC closes when teardown is fully complete.
	failed   atomic.Bool
	finished atomic.Bool
	err      error
	done     chan struct{}
	finC     chan struct{}

	// event marks an EventSession-driven connection: no reader
	// goroutine exists, so finishSched itself runs the Host teardown
	// tail (a socket conn's runScheduled caller does it instead).
	event bool
}

// errSessionClosed tears down an EventSession on explicit Close.
var errSessionClosed = errors.New("server: event session closed")

// initSched wires the connection to the shard scheduler: the task is
// pinned to the shard the session ticket hashes to, so a reattached
// session lands on the same worker and its state never migrates
// mid-flight.
func (c *serverConn) initSched(sess *session, event bool) {
	s := &c.sched
	s.sess = sess
	s.event = event
	s.batch = wire.NewBatch()
	s.queue, s.flush = c.makeQueueFlush(s.batch)
	s.pass, s.pending = c.flushPass(s.batch, s.queue, s.flush), c.flushPending
	s.done = make(chan struct{})
	s.finC = make(chan struct{})
	s.lastIn.Store(time.Now().UnixNano())
	s.task = c.host.opts.Sched.Pool().Task(shard.Hash(sess.ticket), c.pump)
}

// startSched arms the periodic wheel entries.
func (c *serverConn) startSched() {
	s := &c.sched
	w := c.host.opts.Sched.Wheel()
	s.hbTimer = w.Every(c.host.opts.HeartbeatInterval, func() {
		s.hbDue.Store(true)
		s.task.Wake()
	})
	if !c.host.opts.DisableAudit {
		s.auditTimer = w.Every(c.host.opts.AuditInterval, func() {
			s.auditDue.Store(true)
			s.task.Wake()
		})
	}
}

// wakeControl nudges the pump after dispatch queued a control answer
// (pong echo, audit reply, e2e ack); a no-op under the goroutine
// driver, whose flush loop selects on the channels directly.
func (c *serverConn) wakeControl() {
	if c.sched.task != nil {
		c.sched.task.Wake()
	}
}

// pump is the task callback: one scheduled pass over everything due.
// It runs under the same watchdog as the classic loops, so a panic in
// the command path tears this connection down instead of the worker.
func (c *serverConn) pump() {
	s := &c.sched
	select {
	case <-s.done:
		c.finishSched()
		return
	default:
	}
	err := c.guard("pump", s.done, func(<-chan struct{}) error { return c.pumpOnce() })
	if err == nil {
		return
	}
	if !s.failed.CompareAndSwap(false, true) {
		return // a concurrent fail() won; its Wake books the final pass
	}
	s.err = err
	close(s.done)
	_ = c.nc.Close() // unblock the socket reader, if one exists
	if !s.task.Wake() {
		// The pool stopped beneath us and will never run the task
		// again; we are the in-flight run, so finishing inline is safe.
		c.finishSched()
	}
}

// pumpOnce services everything currently due on this connection.
func (c *serverConn) pumpOnce() error {
	s := &c.sched
	// Drain queued control answers first: cheap, already ordered.
	for drained := false; !drained; {
		select {
		case pg := <-c.pongs:
			if err := s.queue(pg); err != nil {
				return err
			}
			if err := s.flush(); err != nil {
				return err
			}
		case r := <-c.replies:
			c.auditReply(r)
		case a := <-c.acks:
			c.e2eAck(a)
		default:
			drained = true
		}
	}
	if s.auditDue.Swap(false) {
		if err := c.auditTick(s.queue, s.flush); err != nil {
			return err
		}
	}
	if s.hbDue.Swap(false) {
		if s.event {
			// No reader enforces a deadline for an event-driven peer;
			// the heartbeat pass is its liveness check. A peer is dead
			// only if it produced nothing since before our PREVIOUS
			// pass — i.e. it ignored a full ping round — and the total
			// silence exceeds the timeout. Judging against our own
			// cadence instead of the wall clock means late passes
			// (scheduler backlog) never reap a responsive peer. The
			// wrapped os.ErrDeadlineExceeded satisfies net.Error's
			// Timeout, so teardown counts a reap like a socket timeout.
			now := time.Now().UnixNano()
			prev := s.lastHB.Swap(now)
			in := s.lastIn.Load()
			if prev != 0 && in < prev {
				if silent := time.Duration(now - in); silent > c.host.opts.HeartbeatTimeout {
					return fmt.Errorf("server: peer silent for %v: %w", silent, os.ErrDeadlineExceeded)
				}
			}
		}
		if err := c.heartbeatTick(s.queue, s.flush); err != nil {
			return err
		}
	}
	if s.flushDue.Swap(false) {
		wait, err := c.push.deliver(s.pass, s.pending)
		if err != nil {
			return err
		}
		if wait > 0 {
			// The pacing rule holds the next pass back: book it on the
			// wheel, which never fires it early.
			c.host.opts.Sched.Wheel().NotBefore(wait, c.push.wake)
		}
	}
	return nil
}

// fail tears the connection down from outside the pump: the socket
// reader, Host.Close, or EventSession.Close/Deliver. The actual
// teardown is delegated to a final pump pass so it serializes with any
// in-flight run on the worker.
func (c *serverConn) fail(err error) {
	s := &c.sched
	if !s.failed.CompareAndSwap(false, true) {
		return
	}
	s.err = err
	close(s.done)
	_ = c.nc.Close()
	if s.task.Wake() {
		return
	}
	// The pool will never run the task again (stopped, or the task is
	// closed); drain any in-flight run, then finish here.
	s.task.CloseWait()
	c.finishSched()
}

// finishSched is the single teardown tail of a scheduled connection:
// stop the wheel entries, close the task, release the batch, and — for
// event sessions, which have no serving goroutine — run the Host
// teardown that runScheduled's caller performs for socket conns.
func (c *serverConn) finishSched() {
	s := &c.sched
	if !s.finished.CompareAndSwap(false, true) {
		return
	}
	if s.hbTimer != nil {
		s.hbTimer.Stop()
	}
	if s.auditTimer != nil {
		s.auditTimer.Stop()
	}
	s.task.Close()
	s.batch.Release()
	if s.event {
		c.host.finishConn(c, s.sess, s.err)
		c.host.wg.Done()
	}
	close(s.finC)
}

// runScheduled drives a socket connection under the sharded core: the
// calling goroutine becomes the blocking reader (one goroutine per
// socket — the kernel requires it — instead of the classic two), while
// delivery runs on the shard workers. It returns after the pump-side
// teardown completes.
func (c *serverConn) runScheduled() error {
	s := &c.sched
	err := c.guard("read", s.done, c.readLoop)
	if err != nil {
		c.fail(err)
	}
	<-s.finC
	if s.err != nil {
		return s.err
	}
	return err
}

// EventSession is a fully event-driven connection: no reader goroutine
// exists, and inbound messages are injected pre-decoded via Deliver.
// This is the substrate the 10k-session load harness runs on — an idle
// event session costs zero goroutines and zero armed timers beyond its
// batched heartbeat wheel entry.
type EventSession struct {
	sc *serverConn
}

// ServeEvent authenticates a connection exactly like ServeConn (the
// handshake is synchronous on the caller), then attaches it to the
// sharded core and returns. Outbound traffic flows through nc as
// usual; inbound messages must be injected with Deliver. Requires
// Options.Sched.
func (h *Host) ServeEvent(nc net.Conn) (*EventSession, error) {
	if h.opts.Sched == nil {
		return nil, errors.New("server: ServeEvent requires Options.Sched")
	}
	hr, err := h.handshake(nc)
	if err != nil {
		return nil, err
	}
	h.wg.Add(1)
	sc := h.attachConn(nc, hr, true)
	return &EventSession{sc: sc}, nil
}

// Deliver injects one decoded client-to-server message, exactly as if
// the read loop had decoded it from the socket. A dispatch error tears
// the session down and is returned.
func (es *EventSession) Deliver(m wire.Message) error {
	sc := es.sc
	s := &sc.sched
	s.lastIn.Store(time.Now().UnixNano())
	select {
	case <-s.done:
		return errSessionClosed
	default:
	}
	err := sc.guard("dispatch", s.done, func(<-chan struct{}) error { return sc.dispatch(m) })
	if err != nil {
		sc.fail(err)
	}
	return err
}

// Done is closed when the session has fully torn down.
func (es *EventSession) Done() <-chan struct{} { return es.sc.sched.finC }

// Err reports why the session ended; valid after Done is closed.
func (es *EventSession) Err() error {
	select {
	case <-es.sc.sched.finC:
		return es.sc.sched.err
	default:
		return nil
	}
}

// Close tears the session down (idempotent); it returns once teardown
// completes.
func (es *EventSession) Close() {
	es.sc.fail(errSessionClosed)
	<-es.sc.sched.finC
}
