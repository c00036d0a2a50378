package server

import (
	"testing"
	"time"

	"thinc/internal/shard"
)

// TestBeats: a booked beat fires once and never before its period;
// beats due in the same grain share one batch, so one runtime timer; a
// stopped beat does not fire, and a batch it leaves empty is dropped
// with its timer; a clock whose batches have fired holds nothing.
func TestBeats(t *testing.T) {
	const d = 40 * time.Millisecond
	b := newBeats()
	pool := shard.NewPool(1)
	pool.Start()
	defer pool.Stop()
	fired := make(chan int, 8)
	es := make([]*beat, 3)
	for i := range es {
		e := &beat{}
		e.task = pool.Task(0, func() {
			if e.due.Swap(false) {
				fired <- i
			}
		})
		es[i] = e
	}
	start := time.Now()
	for _, e := range es {
		b.book(e, d)
	}
	b.stop(es[2])
	b.mu.Lock()
	batches := len(b.due)
	shared := es[0].at == es[1].at
	b.mu.Unlock()
	if shared && batches != 1 {
		t.Fatalf("beats due at one instant made %d batches", batches)
	}

	seen := map[int]bool{}
	for len(seen) < 2 {
		select {
		case i := <-fired:
			if early := d - time.Since(start); early > 0 {
				t.Fatalf("beat %d fired %v early", i, early)
			}
			if i == 2 || seen[i] {
				t.Fatalf("beat %d fired again or after stop", i)
			}
			seen[i] = true
		case <-time.After(5 * time.Second):
			t.Fatal("a booked beat never fired")
		}
	}
	b.book(es[2], d)
	b.stop(es[2])
	b.mu.Lock()
	batches = len(b.due)
	b.mu.Unlock()
	if batches != 0 {
		t.Fatal("stopping the only beat of a batch left it booked")
	}
	select {
	case i := <-fired:
		t.Fatalf("beat %d fired after its batch or its stop", i)
	case <-time.After(2 * d):
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.due) != 0 {
		t.Fatalf("%d batches left on a clock with nothing booked", len(b.due))
	}
}
