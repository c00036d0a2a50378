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

// This file is the one delivery state machine every connection runs.
// A connection is one shard.Task: the damage hook
// (core.ClientBuffer.SetOnQueued), an inbound control message or one of
// its timers wakes it, and the pump then runs one pass over everything
// due. An idle session runs no delivery pass and books no
// pacing timer: a one-shot runtime timer is booked only for a pass the
// pacing rule (pace.go) holds back, and the heartbeat and audit passes
// are beats (beat.go) the pump books again after the pass each
// triggered.
//
// Where the pump runs is fixed by how the host was built (delivery). A
// Fleet host shares the fleet's worker pool and beats clock, so ten
// thousand sessions cost a handful of goroutines. A plain NewHost
// gives each connection its own one-worker pool: a socket peer that
// stops draining then blocks only its own worker (for up to
// WriteTimeout), never a sibling's delivery.
type schedConn struct {
	delivery
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

	// The next heartbeat and audit pass (the audit one unused when
	// disabled). A beat only sets its due flag and wakes the task, so
	// a timer never runs connection work itself; flushDue is the same
	// flag for the pusher's wake (wakeFlush).
	hb, audit beat
	flushDue  atomic.Bool

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
	// tail (a socket conn's run caller does it instead).
	event bool
}

// delivery is what runs one client's delivery passes; every
// connection and Recorder holds one. Its task runs on a Fleet host's
// shared pool or, on a plain host, on a one-worker pool of its own, so
// no two peers share a worker. The pusher paces the task's passes
// (pace.go) and paced wakes the pass the pacing rule held back.
type delivery struct {
	pool  *shard.Pool // the private pool; nil on a Fleet host
	task  *shard.Task
	push  *pusher
	paced *time.Timer
}

// open builds the task, which runs run and is pinned by key, and the
// pusher, whose requests call wake.
func (d *delivery) open(h *Host, key uint64, run, wake func()) {
	pool := h.pool
	if pool == nil {
		d.pool = shard.NewPool(1)
		d.pool.OnWait, d.pool.OnRun = h.met.taskWait.Observe, h.met.taskRun.Observe
		d.pool.Start()
		pool = d.pool
	}
	d.task = pool.Task(key, run)
	d.push = newPusher(h.opts.FlushInterval, h.opts.FlushBudget, wake)
	// Created stopped, so Reset books it with no channel to drain.
	d.paced = time.AfterFunc(time.Hour, wake)
	d.paced.Stop()
}

// deliver runs the passes due now and books the paced timer for the
// one the pacing rule holds back. Only the task's run calls it.
func (d *delivery) deliver(pass func(paced bool) (wrote, more bool, err error), pending func() bool) error {
	wait, err := d.push.deliver(pass, pending)
	if wait > 0 {
		d.paced.Reset(wait)
	}
	return err
}

// stop ends the deliveries from the task's own run: no run starts
// after it and no held pass stays booked.
func (d *delivery) stop() {
	d.task.Close()
	d.paced.Stop()
}

// release is stop from off the task's worker: it also waits out a run
// in flight, then stops the private pool.
func (d *delivery) release() {
	d.task.CloseWait()
	d.paced.Stop()
	if d.pool != nil {
		d.pool.Stop()
	}
}

// wakes reports the task wakes its private pool has taken, for the
// host's wakes counter; 0 on a Fleet host, whose pool counts its own.
func (d *delivery) wakes() int64 {
	if d.pool == nil {
		return 0
	}
	return d.pool.Stats().Wakes
}

// errSessionClosed tears down an EventSession on explicit Close.
var errSessionClosed = errors.New("server: event session closed")

// initSched builds the connection's delivery and beats. On a Fleet host
// the task is pinned to the shard the session ticket hashes to, so a
// reattached session lands on the same worker and its state never
// migrates mid-flight. The beats start unbooked; startSched books them
// once the connection is fully set up.
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
	s.open(c.host, shard.Hash(sess.ticket), c.pump, c.wakeFlush)
	s.hb.task, s.audit.task = s.task, s.task
}

// startSched books the first heartbeat and audit passes.
func (c *serverConn) startSched() {
	s, h := &c.sched, c.host
	h.beats.book(&s.hb, h.opts.HeartbeatInterval)
	if !h.opts.DisableAudit {
		h.beats.book(&s.audit, h.opts.AuditInterval)
	}
}

// pump is the task callback: one scheduled pass over everything due.
// It runs under the watchdog, so a panic in the command path tears
// this connection down instead of the worker.
func (c *serverConn) pump() {
	s := &c.sched
	select {
	case <-s.done:
		c.finishSched()
		return
	default:
	}
	err := c.guard("pump", c.pumpOnce)
	if err != nil && c.markFailed(err) && !s.task.Wake() {
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
	if s.audit.due.Swap(false) {
		if err := c.auditTick(s.queue, s.flush); err != nil {
			return err
		}
		c.host.beats.book(&s.audit, c.host.opts.AuditInterval)
	}
	if s.hb.due.Swap(false) {
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
		c.host.beats.book(&s.hb, c.host.opts.HeartbeatInterval)
	}
	if s.flushDue.Swap(false) {
		return s.deliver(s.pass, s.pending)
	}
	return nil
}

// fail tears the connection down from outside the pump: the socket
// reader, Host.Close, or EventSession.Close/Deliver. The actual
// teardown is delegated to a final pump pass so it serializes with any
// in-flight run on the worker.
func (c *serverConn) fail(err error) {
	if c.markFailed(err) && !c.sched.task.Wake() {
		// The pool will never run the task again (stopped, or the task
		// is closed); drain any in-flight run, then finish here.
		c.sched.task.CloseWait()
		c.finishSched()
	}
}

// markFailed records why the connection ends and unblocks its socket
// reader, if one exists. Only the first caller wins; its Wake books the
// final pass.
func (c *serverConn) markFailed(err error) bool {
	s := &c.sched
	if !s.failed.CompareAndSwap(false, true) {
		return false
	}
	s.err = err
	close(s.done)
	_ = c.nc.Close()
	return true
}

// finishSched is the single teardown tail of a connection: stop the
// delivery and the beats, release the batch, and — for event sessions,
// which have no serving goroutine — run the Host teardown that run's
// caller performs for socket conns.
func (c *serverConn) finishSched() {
	s := &c.sched
	if !s.finished.CompareAndSwap(false, true) {
		return
	}
	c.host.beats.stop(&s.hb)
	c.host.beats.stop(&s.audit)
	s.stop()
	s.batch.Release()
	if s.event {
		h := c.host
		h.finishConn(c, s.sess, s.err)
		if s.pool != nil {
			// This may be the pool's own worker, which cannot wait for
			// itself to exit; the host's wait group covers the release.
			go func() {
				defer h.wg.Done()
				s.release()
			}()
		} else {
			h.wg.Done()
		}
	}
	close(s.finC)
}

// run drives a socket connection: the calling goroutine becomes the
// blocking reader (the kernel requires one per socket) while delivery
// runs on the pump. It returns after the pump-side teardown completes
// and the connection's private pool, if any, has stopped.
func (c *serverConn) run() error {
	s := &c.sched
	err := c.guard("read", c.readLoop)
	if err != nil {
		c.fail(err)
	}
	<-s.finC
	s.release()
	if s.err != nil {
		return s.err
	}
	return err
}

// EventSession is a fully event-driven connection: no reader goroutine
// exists, and inbound messages are injected pre-decoded via Deliver.
// This is the substrate the 10k-session load harness runs on — on a
// Fleet host an idle event session costs zero goroutines and one
// heartbeat beat.
type EventSession struct {
	sc *serverConn
}

// ServeEvent authenticates a connection exactly like ServeConn (the
// handshake is synchronous on the caller), then attaches it to the
// delivery core and returns. Outbound traffic flows through nc as
// usual; inbound messages must be injected with Deliver.
func (h *Host) ServeEvent(nc net.Conn) (*EventSession, error) {
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
	err := sc.guard("dispatch", func() error { return sc.dispatch(m) })
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

// poolWakes sums the task wakes of a plain host's private pools: the
// live connections' plus, in retiredWakes, those of closed connections
// and recorders. A live recorder's wakes join when it closes.
func (h *Host) poolWakes() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := h.retiredWakes
	for sc := range h.conns {
		n += sc.sched.wakes()
	}
	return n
}
