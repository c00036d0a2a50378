package server

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"thinc/internal/shard"
)

// beats batches the periodic timers of many connections — the
// heartbeat and audit passes. A booking's due time is rounded up to
// beatGrain and joins every other booking due at that instant; one
// runtime timer per instant fires the whole batch. A Go runtime timer
// callback runs on a fresh goroutine, so ten thousand sessions
// heartbeating once a second on timers of their own would start ten
// thousand goroutines a second; batched, a Fleet starts at most one per
// grain. A clock with nothing booked holds no timer.
type beats struct {
	mu    sync.Mutex
	due   map[int64]beatBatch // unix-nano instant → its batch
	spare [][]*beat           // fired batches' slices, emptied for reuse
}

type beatBatch struct {
	t  *time.Timer
	es []*beat
}

// beat is one connection's periodic pass on a beats clock. Firing only
// sets due and wakes the connection's task, which runs the pass and
// books the beat again.
type beat struct {
	at   int64 // the instant it is booked for, 0 while unbooked; guarded by the clock's mu
	due  atomic.Bool
	task *shard.Task
}

// beatGrain is how late a beat may fire. A coarser grain starts fewer
// timer goroutines but fires larger batches, whose passes queue ahead
// of active sessions' deliveries: at 10k Fleet sessions a 10 ms grain
// raised thinc-load's damage-to-glass p99 from ≈ 2 to ≈ 7 ms; at 1 ms
// it stays ≈ 2 ms.
const beatGrain = time.Millisecond

func newBeats() *beats { return &beats{due: make(map[int64]beatBatch)} }

// book fires e once, d from now rounded up to the grain.
func (b *beats) book(e *beat, d time.Duration) {
	const g = int64(beatGrain)
	at := (time.Now().UnixNano() + int64(d) + g - 1) / g * g
	b.mu.Lock()
	defer b.mu.Unlock()
	e.at = at
	bt, ok := b.due[at]
	if !ok {
		bt.t = time.AfterFunc(time.Until(time.Unix(0, at)), func() { b.fire(at) })
		if n := len(b.spare); n > 0 {
			bt.es, b.spare = b.spare[n-1], b.spare[:n-1]
		}
	}
	bt.es = append(bt.es, e)
	b.due[at] = bt
}

func (b *beats) fire(at int64) {
	b.mu.Lock()
	bt, ok := b.due[at]
	delete(b.due, at)
	for _, e := range bt.es {
		e.at = 0
	}
	b.mu.Unlock()
	if !ok {
		return // emptied by stop after its timer had gone off
	}
	for _, e := range bt.es {
		e.due.Store(true)
		e.task.Wake()
	}
	clear(bt.es)
	b.mu.Lock()
	b.spare = append(b.spare, bt.es[:0])
	b.mu.Unlock()
}

// stop cancels e's booking, and the timer of a batch it leaves empty.
// A batch already firing may still fire e.
func (b *beats) stop(e *beat) {
	b.mu.Lock()
	defer b.mu.Unlock()
	bt, ok := b.due[e.at]
	if !ok {
		return
	}
	bt.es = slices.DeleteFunc(bt.es, func(x *beat) bool { return x == e })
	if len(bt.es) == 0 {
		bt.t.Stop()
		delete(b.due, e.at)
	} else {
		b.due[e.at] = bt
	}
	e.at = 0
}
