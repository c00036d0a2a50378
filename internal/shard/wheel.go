package shard

import (
	"sync"
	"sync/atomic"
	"time"
)

// Wheel is a hashed timer wheel: timers hash into slots by deadline
// tick, one driver goroutine advances the wheel and fires every due
// timer in the slot it lands on. Arming and canceling are O(1) and
// lock only one slot, so 10k sessions' heartbeat timers cost a few
// batched wakeups per tick instead of 10k runtime timers.
//
// Callbacks run on the driver goroutine and must be cheap and
// non-blocking — the convention throughout the delivery core is that
// a wheel callback only flips a "due" flag and Wakes a Task.
type Wheel struct {
	tick  time.Duration
	mask  int64
	slots []wheelSlot

	start time.Time
	pos   atomic.Int64 // last fully-fired absolute tick

	stopC chan struct{}
	doneC chan struct{}
	state atomic.Int32 // 0 new, 1 started, 2 stopped

	scheduled atomic.Int64
	fired     atomic.Int64
	canceled  atomic.Int64
	pending   atomic.Int64
	lagNS     atomic.Int64 // lag of the most recent firing pass
}

type wheelSlot struct {
	mu     sync.Mutex
	timers []*Timer
}

// Timer states.
const (
	timerArmed int32 = iota
	timerFiring
	timerStopped
)

// Timer is a handle to a scheduled callback.
type Timer struct {
	w        *Wheel
	fn       func()
	period   int64 // ticks; 0 for one-shot
	deadline int64 // absolute tick
	state    atomic.Int32
}

// NewWheel builds a wheel with the given tick and slot count (rounded
// up to a power of two). Call Start to begin firing.
func NewWheel(tick time.Duration, slots int) *Wheel {
	if tick <= 0 {
		tick = DefaultWheelTick
	}
	n := 1
	for n < slots {
		n <<= 1
	}
	w := &Wheel{
		tick:  tick,
		mask:  int64(n - 1),
		slots: make([]wheelSlot, n),
		start: time.Now(),
		stopC: make(chan struct{}),
		doneC: make(chan struct{}),
	}
	return w
}

// Start launches the driver goroutine.
func (w *Wheel) Start() {
	if !w.state.CompareAndSwap(0, 1) {
		return
	}
	go w.run()
}

// Stop halts the driver. Timers that have not fired never will.
func (w *Wheel) Stop() {
	if w.state.CompareAndSwap(1, 2) {
		close(w.stopC)
		<-w.doneC
		return
	}
	// Never started: mark stopped so After callers see a dead wheel.
	w.state.CompareAndSwap(0, 2)
}

func (w *Wheel) run() {
	defer close(w.doneC)
	t := time.NewTicker(w.tick)
	defer t.Stop()
	for {
		select {
		case <-w.stopC:
			return
		case <-t.C:
			now := time.Since(w.start)
			w.advance(int64(now / w.tick))
		}
	}
}

// advance fires every slot between the current position and target,
// in deadline order. Exposed to in-package tests for deterministic
// driving; production use is only from run().
func (w *Wheel) advance(target int64) {
	pos := w.pos.Load()
	if target <= pos {
		return
	}
	// Lag of this pass: how far behind real time the oldest unfired
	// tick was when we got to it.
	w.lagNS.Store(int64(time.Since(w.start)) - pos*int64(w.tick))
	var due []*Timer
	for pos < target {
		pos++
		w.pos.Store(pos)
		s := &w.slots[pos&w.mask]
		due = w.collect(s, pos, due[:0])
		for _, t := range due {
			w.fire(t)
		}
	}
}

// collect removes due and stopped timers from the slot, returning the
// due ones in insertion (FIFO) order.
func (w *Wheel) collect(s *wheelSlot, pos int64, due []*Timer) []*Timer {
	s.mu.Lock()
	keep := s.timers[:0]
	for _, t := range s.timers {
		switch {
		case t.state.Load() == timerStopped:
			// Dropped lazily; pending was decremented by Stop.
		case t.deadline <= pos:
			due = append(due, t)
		default:
			keep = append(keep, t)
		}
	}
	for i := len(keep); i < len(s.timers); i++ {
		s.timers[i] = nil
	}
	s.timers = keep
	s.mu.Unlock()
	return due
}

func (w *Wheel) fire(t *Timer) {
	if !t.state.CompareAndSwap(timerArmed, timerFiring) {
		return // stopped between collect and fire
	}
	w.fired.Add(1)
	w.pending.Add(-1)
	t.fn()
	if t.period > 0 && t.state.CompareAndSwap(timerFiring, timerArmed) {
		// Re-arm relative to the nominal deadline so periodic timers
		// do not drift, but never into the past after a stall.
		next := t.deadline + t.period
		if pos := w.pos.Load(); next <= pos {
			next = pos + 1
		}
		t.deadline = next
		w.insert(t)
		return
	}
	t.state.Store(timerStopped)
}

func (w *Wheel) insert(t *Timer) {
	w.scheduled.Add(1)
	w.pending.Add(1)
	s := &w.slots[t.deadline&w.mask]
	s.mu.Lock()
	s.timers = append(s.timers, t)
	s.mu.Unlock()
}

// ticks converts a duration to a tick count, minimum one.
func (w *Wheel) ticks(d time.Duration) int64 {
	n := int64(d / w.tick)
	if n < 1 {
		n = 1
	}
	return n
}

// After schedules fn to run once, about d from now (rounded up to the
// wheel tick). The returned Timer can be stopped.
func (w *Wheel) After(d time.Duration, fn func()) *Timer {
	t := &Timer{w: w, fn: fn, deadline: w.pos.Load() + w.ticks(d)}
	w.insert(t)
	return t
}

// NotBefore is After for callers that must never run early. After
// counts whole ticks from the wheel's last fired position, which trails
// the clock, so it can fire up to two ticks short of d; NotBefore picks
// the first tick that lies wholly past now+d and so fires within
// [d, d+2 ticks).
func (w *Wheel) NotBefore(d time.Duration, fn func()) *Timer {
	t := &Timer{w: w, fn: fn, deadline: int64((time.Since(w.start)+d)/w.tick) + 1}
	w.insert(t)
	return t
}

// Every schedules fn to run about every d, first firing one period
// from now. The returned Timer cancels the series when stopped.
func (w *Wheel) Every(d time.Duration, fn func()) *Timer {
	p := w.ticks(d)
	t := &Timer{w: w, fn: fn, period: p, deadline: w.pos.Load() + p}
	w.insert(t)
	return t
}

// Stop cancels the timer. It returns true if the cancel won — the
// callback has not run and will not. Returning false means the timer
// already fired, is firing on the driver goroutine right now, or was
// already stopped; Stop does not wait for an in-flight callback.
func (t *Timer) Stop() bool {
	if t.state.CompareAndSwap(timerArmed, timerStopped) {
		t.w.canceled.Add(1)
		t.w.pending.Add(-1)
		return true
	}
	// A periodic timer mid-fire: make sure it does not re-arm.
	t.state.CompareAndSwap(timerFiring, timerStopped)
	return false
}

// WheelStats is a point-in-time snapshot of wheel accounting.
type WheelStats struct {
	Scheduled int64 // timers ever inserted (periodic re-arms count)
	Fired     int64
	Canceled  int64
	Pending   int64 // currently armed
	LagNS     int64 // lag of the most recent firing pass
}

// Stats returns current counters.
func (w *Wheel) Stats() WheelStats {
	return WheelStats{
		Scheduled: w.scheduled.Load(),
		Fired:     w.fired.Load(),
		Canceled:  w.canceled.Load(),
		Pending:   w.pending.Load(),
		LagNS:     w.lagNS.Load(),
	}
}
