package shard

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests drive the wheel by calling advance directly (the wheel is
// never Started), so firing is deterministic — no sleeps, no flakes.

func TestWheelAfterFiresOnce(t *testing.T) {
	w := NewWheel(time.Millisecond, 8)
	var fired atomic.Int64
	w.After(3*time.Millisecond, func() { fired.Add(1) })
	w.advance(2)
	if fired.Load() != 0 {
		t.Fatalf("fired early at tick 2")
	}
	w.advance(3)
	if fired.Load() != 1 {
		t.Fatalf("fired=%d at deadline, want 1", fired.Load())
	}
	w.advance(100)
	if fired.Load() != 1 {
		t.Fatalf("one-shot fired again: %d", fired.Load())
	}
	if st := w.Stats(); st.Fired != 1 || st.Pending != 0 {
		t.Fatalf("stats = %+v, want Fired=1 Pending=0", st)
	}
}

func TestWheelSubTickRoundsUp(t *testing.T) {
	w := NewWheel(time.Millisecond, 8)
	var fired atomic.Int64
	w.After(0, func() { fired.Add(1) })
	w.After(time.Microsecond, func() { fired.Add(1) })
	w.advance(1)
	if fired.Load() != 2 {
		t.Fatalf("fired=%d after one tick, want 2", fired.Load())
	}
}

func TestWheelEveryRearms(t *testing.T) {
	w := NewWheel(time.Millisecond, 8)
	var fired atomic.Int64
	tm := w.Every(2*time.Millisecond, func() { fired.Add(1) })
	for i := int64(1); i <= 10; i++ {
		w.advance(i)
	}
	if fired.Load() != 5 {
		t.Fatalf("periodic fired %d times over 10 ticks, want 5", fired.Load())
	}
	if !tm.Stop() {
		t.Fatalf("Stop on re-armed periodic returned false")
	}
}

func TestWheelEveryStop(t *testing.T) {
	w := NewWheel(time.Millisecond, 8)
	var fired atomic.Int64
	tm := w.Every(2*time.Millisecond, func() { fired.Add(1) })
	w.advance(2)
	if fired.Load() != 1 {
		t.Fatalf("fired=%d, want 1", fired.Load())
	}
	if !tm.Stop() {
		t.Fatalf("Stop on re-armed periodic returned false")
	}
	w.advance(20)
	if fired.Load() != 1 {
		t.Fatalf("periodic fired after Stop: %d", fired.Load())
	}
}

func TestWheelStopPreventsFire(t *testing.T) {
	w := NewWheel(time.Millisecond, 8)
	var fired atomic.Int64
	tm := w.After(3*time.Millisecond, func() { fired.Add(1) })
	if !tm.Stop() {
		t.Fatalf("Stop before firing returned false")
	}
	if tm.Stop() {
		t.Fatalf("second Stop returned true")
	}
	w.advance(10)
	if fired.Load() != 0 {
		t.Fatalf("stopped timer fired")
	}
	st := w.Stats()
	if st.Canceled != 1 || st.Pending != 0 || st.Fired != 0 {
		t.Fatalf("stats = %+v, want Canceled=1 Pending=0 Fired=0", st)
	}
}

// Timers sharing a slot and deadline fire in insertion order — the
// harness depends on FIFO delivery for RC4 stream alignment.
func TestWheelFIFOWithinSlot(t *testing.T) {
	w := NewWheel(time.Millisecond, 8)
	var mu sync.Mutex
	var order []int
	for i := 0; i < 16; i++ {
		i := i
		w.After(4*time.Millisecond, func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	w.advance(10)
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 16 {
		t.Fatalf("fired %d of 16", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("fire order %v not FIFO", order)
		}
	}
}

// A deadline farther out than the slot count must survive the wheel
// wrapping past its slot (lazy rounds).
func TestWheelLongDeadlineSurvivesWrap(t *testing.T) {
	w := NewWheel(time.Millisecond, 8) // 8 slots
	var fired atomic.Int64
	w.After(20*time.Millisecond, func() { fired.Add(1) })
	w.advance(19)
	if fired.Load() != 0 {
		t.Fatalf("fired before deadline despite slot wrap")
	}
	w.advance(20)
	if fired.Load() != 1 {
		t.Fatalf("did not fire at wrapped deadline")
	}
}

// A stalled wheel catching up must fire a periodic timer without
// scheduling it into the past (no firing storm).
func TestWheelStallCatchup(t *testing.T) {
	w := NewWheel(time.Millisecond, 8)
	var fired atomic.Int64
	w.Every(2*time.Millisecond, func() { fired.Add(1) })
	w.advance(100) // one big jump: each pass fires at most once per slot visit
	n := fired.Load()
	if n == 0 {
		t.Fatalf("periodic never fired across stall")
	}
	// After the jump the timer must be armed in the future, not
	// looping: two more ticks fire at most one more time.
	w.advance(101)
	w.advance(102)
	if extra := fired.Load() - n; extra > 1 {
		t.Fatalf("firing storm after stall: %d extra fires", extra)
	}
}

func TestWheelLiveDriver(t *testing.T) {
	w := NewWheel(time.Millisecond, 64)
	w.Start()
	defer w.Stop()
	done := make(chan struct{})
	w.After(5*time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("live wheel never fired a 5ms timer")
	}
	var periodic atomic.Int64
	tm := w.Every(2*time.Millisecond, func() { periodic.Add(1) })
	deadline := time.Now().Add(2 * time.Second)
	for periodic.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if periodic.Load() < 3 {
		t.Fatalf("live periodic fired %d times, want >= 3", periodic.Load())
	}
	tm.Stop()
}

// TestWheelNotBeforeNeverEarly: After counts ticks from the last fired
// position, which trails the clock, so it can run short of d; NotBefore
// counts from the clock itself. Run against a live wheel whose tick is
// coarse next to d, where After's shortfall would be plain.
func TestWheelNotBeforeNeverEarly(t *testing.T) {
	w := NewWheel(5*time.Millisecond, 64)
	w.Start()
	defer w.Stop()
	const d = 7 * time.Millisecond
	for i := 0; i < 20; i++ {
		time.Sleep(time.Duration(i%5) * time.Millisecond) // every phase of the tick
		at := time.Now()
		fired := make(chan time.Duration, 1)
		w.NotBefore(d, func() { fired <- time.Since(at) })
		select {
		case took := <-fired:
			if took < d {
				t.Fatalf("NotBefore(%v) fired after %v", d, took)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("NotBefore timer never fired")
		}
	}
	if st := w.Stats(); st.Pending != 0 {
		t.Fatalf("stats = %+v, want Pending=0", st)
	}
}

func TestWheelStopIdempotent(t *testing.T) {
	w := NewWheel(time.Millisecond, 8)
	w.Start()
	w.Stop()
	w.Stop() // must not panic or hang
	// After Stop, After still returns a (dead) timer.
	tm := w.After(time.Millisecond, func() { t.Error("fired after Stop") })
	tm.Stop()

	// Stop before Start must not hang either.
	w2 := NewWheel(time.Millisecond, 8)
	w2.Stop()
}
