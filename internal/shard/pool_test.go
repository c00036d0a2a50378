package shard

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func TestTaskWakeRuns(t *testing.T) {
	p := NewPool(2)
	p.Start()
	defer p.Stop()
	var runs atomic.Int64
	tk := p.Task(7, func() { runs.Add(1) })
	if !tk.Wake() {
		t.Fatalf("Wake returned false on live pool")
	}
	waitFor(t, "task run", func() bool { return runs.Load() == 1 })
}

// Wakes landing while a task is queued coalesce into one run; a wake
// landing mid-run buys exactly one follow-up run.
func TestWakeCoalesce(t *testing.T) {
	p := NewPool(1)
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	var runs atomic.Int64
	var tk *Task
	tk = p.Task(0, func() {
		runs.Add(1)
		if runs.Load() == 1 {
			started <- struct{}{}
			<-gate
		}
	})
	// Queue ten wakes before any worker exists: they must coalesce to
	// one queue slot.
	for i := 0; i < 10; i++ {
		tk.Wake()
	}
	p.Start()
	defer p.Stop()
	<-started
	// Mid-run wakes coalesce to a single follow-up.
	for i := 0; i < 10; i++ {
		tk.Wake()
	}
	close(gate)
	waitFor(t, "follow-up run", func() bool { return runs.Load() == 2 })
	time.Sleep(5 * time.Millisecond)
	if got := runs.Load(); got != 2 {
		t.Fatalf("runs=%d, want exactly 2 (1 coalesced + 1 follow-up)", got)
	}
}

// A task with continuous damage (re-wakes itself every run) must not
// starve a shard sibling: the sibling runs within one hog turn of its
// wake, because re-enqueues go to the tail.
func TestFairnessNoStarvation(t *testing.T) {
	p := NewPool(1)
	var hogRuns, bRun, mark, hogTurnsBeforeB atomic.Int64
	var hog, b *Task
	b = p.Task(0, func() {
		bRun.Add(1)
		hogTurnsBeforeB.Store(hogRuns.Load())
	})
	hog = p.Task(0, func() {
		n := hogRuns.Add(1)
		if n == 100 {
			// Wake the sibling from inside a hog turn — the worst
			// case for it: the hog immediately re-wakes itself too.
			mark.Store(n)
			b.Wake()
		}
		hog.Wake() // continuous damage
	})
	p.Start()
	defer func() {
		hog.Close()
		b.Close()
		p.Stop()
	}()
	hog.Wake()
	waitFor(t, "starved task to run", func() bool { return bRun.Load() == 1 })
	// B was queued during hog turn 100; the hog's re-enqueue goes to
	// the tail behind it, so B runs after at most one more hog turn.
	if turns := hogTurnsBeforeB.Load() - mark.Load(); turns > 1 {
		t.Fatalf("sibling waited %d hog turns, want <= 1", turns)
	}
}

// Idle tasks — never woken — consume zero runs and zero queue space.
func TestIdleTasksCostNothing(t *testing.T) {
	p := NewPool(4)
	p.Start()
	defer p.Stop()
	var runs atomic.Int64
	for i := 0; i < 1000; i++ {
		p.Task(uint64(i), func() { runs.Add(1) })
	}
	active := p.Task(1, func() { runs.Add(1) })
	active.Wake()
	waitFor(t, "active task", func() bool { return runs.Load() == 1 })
	st := p.Stats()
	if st.Runs != 1 || st.Wakes != 1 {
		t.Fatalf("1000 idle + 1 active: Runs=%d Wakes=%d, want 1/1", st.Runs, st.Wakes)
	}
	if st.Tasks != 1001 {
		t.Fatalf("Tasks=%d, want 1001", st.Tasks)
	}
	if st.Depth != 0 {
		t.Fatalf("Depth=%d after drain, want 0", st.Depth)
	}
}

func TestCloseSkipsQueuedRun(t *testing.T) {
	p := NewPool(1)
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	blocker := p.Task(0, func() { started <- struct{}{}; <-gate })
	var runs atomic.Int64
	victim := p.Task(0, func() { runs.Add(1) })
	p.Start()
	defer p.Stop()
	blocker.Wake()
	<-started
	victim.Wake()
	victim.Close()
	if victim.Wake() {
		t.Fatalf("Wake after Close returned true")
	}
	close(gate)
	time.Sleep(5 * time.Millisecond)
	if runs.Load() != 0 {
		t.Fatalf("closed task still ran")
	}
}

func TestCloseWaitBlocksForInflight(t *testing.T) {
	p := NewPool(1)
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	var done atomic.Bool
	tk := p.Task(0, func() {
		started <- struct{}{}
		<-gate
		done.Store(true)
	})
	p.Start()
	defer p.Stop()
	tk.Wake()
	<-started
	closed := make(chan struct{})
	go func() {
		tk.CloseWait()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatalf("CloseWait returned while callback in flight")
	case <-time.After(10 * time.Millisecond):
	}
	close(gate)
	<-closed
	if !done.Load() {
		t.Fatalf("CloseWait returned before callback finished")
	}
}

// Teardown runs on the shard worker itself — a task closing itself
// from inside its callback must not deadlock.
func TestSelfCloseFromCallback(t *testing.T) {
	p := NewPool(1)
	p.Start()
	defer p.Stop()
	done := make(chan struct{})
	var tk *Task
	tk = p.Task(0, func() {
		tk.Close()
		close(done)
	})
	tk.Wake()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("self-close deadlocked")
	}
}

func TestStopDrainsQueued(t *testing.T) {
	p := NewPool(2)
	var runs atomic.Int64
	var tasks []*Task
	for i := 0; i < 50; i++ {
		tasks = append(tasks, p.Task(uint64(i), func() { runs.Add(1) }))
	}
	for _, tk := range tasks {
		tk.Wake()
	}
	p.Start()
	p.Stop()
	if runs.Load() != 50 {
		t.Fatalf("Stop drained %d of 50 queued runs", runs.Load())
	}
	if tasks[0].Wake() {
		t.Fatalf("Wake after Stop returned true")
	}
}

func TestPoolHooksObserveWaitAndRun(t *testing.T) {
	p := NewPool(1)
	var waits, runsObs atomic.Int64
	p.OnWait = func(ns int64) { waits.Add(1) }
	p.OnRun = func(ns int64) {
		if ns < 0 {
			t.Errorf("negative run time")
		}
		runsObs.Add(1)
	}
	p.Start()
	tk := p.Task(0, func() { time.Sleep(time.Millisecond) })
	tk.Wake()
	p.Stop()
	if waits.Load() != 1 || runsObs.Load() != 1 {
		t.Fatalf("hooks observed waits=%d runs=%d, want 1/1", waits.Load(), runsObs.Load())
	}
}

// Hammer the queue state machine under the race detector.
func TestPoolConcurrentWakeClose(t *testing.T) {
	p := NewPool(4)
	p.Start()
	defer p.Stop()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			var n atomic.Int64
			tk := p.Task(uint64(i), func() { n.Add(1) })
			for j := 0; j < 200; j++ {
				tk.Wake()
				if j%50 == 49 {
					time.Sleep(time.Millisecond)
				}
			}
			tk.CloseWait()
		}()
	}
	wg.Wait()
}

func TestSchedulerLifecycle(t *testing.T) {
	s := NewScheduler(Options{})
	if s.Pool().NumShards() != DefaultShards {
		t.Fatalf("default shards = %d", s.Pool().NumShards())
	}
	var ran atomic.Bool
	done := make(chan struct{})
	tk := s.Pool().Task(Hash("ticket"), func() { ran.Store(true); close(done) })
	time.AfterFunc(time.Millisecond, func() { tk.Wake() })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("timer→task pipeline never fired")
	}
	s.Registry().Attach("ticket", 1)
	if s.Registry().Len() != 1 {
		t.Fatalf("registry len")
	}
	s.Close()
	if !ran.Load() {
		t.Fatalf("task never ran")
	}
}
