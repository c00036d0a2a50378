package server

import (
	"errors"
	"math/rand"
	"testing"
)

// batches is a scripted client buffer for allowance.pass: each step
// emits the next batch size, and commands stay queued while batches
// remain. A zero size is a Flush that returned nothing with commands
// queued (the head is larger than a whole budget); the drainWhole step
// that must follow it emits whole.
type batches struct {
	sizes []int
	whole int
	calls []drainCall
}

func (b *batches) step(call drainCall, _ int) (int, bool, error) {
	b.calls = append(b.calls, call)
	if call == drainWhole {
		return b.whole, len(b.sizes) > 0, nil
	}
	if len(b.sizes) == 0 {
		return 0, false, nil
	}
	n := b.sizes[0]
	b.sizes = b.sizes[1:]
	return n, len(b.sizes) > 0, nil
}

// TestPushAllowance is the emitted-byte arithmetic of a pass on its
// own: no socket, no clock.
func TestPushAllowance(t *testing.T) {
	const budget = 1000
	pass := func(a *allowance, b *batches) int {
		t.Helper()
		sent, _, err := a.pass(b.step)
		if err != nil {
			t.Fatal(err)
		}
		return sent
	}

	// A compressible stream: batches far under the budget all leave in
	// one pass, the first opening it and the rest continuing it.
	a := allowance{budget: budget}
	b := &batches{sizes: []int{100, 100, 100, 100, 100, 100, 100, 100, 100, 100, 100}}
	if sent := pass(&a, b); sent != budget || len(b.sizes) != 1 || a.debt != 0 {
		t.Fatalf("ten 100-byte batches against %d: sent %d, %d left queued, debt %d; want %d, 1, 0",
			budget, sent, len(b.sizes), a.debt, budget)
	}
	if b.calls[0] != drainOpen || b.calls[1] != drainMore {
		t.Fatalf("calls %v: the pass must open with Flush and go on with FlushMore", b.calls)
	}

	// Incompressible: a batch that spends most of the allowance is the
	// pass's last, and one batch per pass leaves, never two.
	a = allowance{budget: budget}
	b = &batches{sizes: []int{950, 950, 950}}
	for i := 0; i < 3; i++ {
		if sent := pass(&a, b); sent != 950 || a.debt != 0 {
			t.Fatalf("pass %d of 950-byte batches sent %d (debt %d), want one batch and no debt", i, sent, a.debt)
		}
	}

	// A batch larger than the one before overshoots; the next pass's
	// allowance is the budget less the overshoot.
	a = allowance{budget: budget}
	b = &batches{sizes: []int{100, 1200, 300, 300, 300}}
	if sent := pass(&a, b); sent != 1300 || a.debt != 300 {
		t.Fatalf("100 then 1200: sent %d, debt %d; want 1300, 300", sent, a.debt)
	}
	if sent := pass(&a, b); sent != 600 || a.debt != 0 {
		t.Fatalf("paying back 300: sent %d, debt %d; want 600 (700 allowed), 0", sent, a.debt)
	}

	// The head larger than a whole budget goes whole, once; passes that
	// owe more than a budget take no step at all until it is paid.
	a = allowance{budget: budget}
	b = &batches{sizes: []int{0, 500}, whole: 3500}
	if sent := pass(&a, b); sent != 3500 || a.debt != 2500 {
		t.Fatalf("oversized head: sent %d, debt %d; want 3500, 2500", sent, a.debt)
	}
	if b.calls[1] != drainWhole {
		t.Fatalf("calls %v: an empty opening batch with commands queued must fall back to FlushOne", b.calls)
	}
	for _, want := range []int{1500, 500} {
		if _, stepped, _ := a.pass(b.step); stepped || a.debt != want {
			t.Fatalf("in debt: stepped %v, debt %d; want no step, debt %d", stepped, a.debt, want)
		}
	}
	if sent := pass(&a, b); sent != 500 || a.debt != 0 {
		t.Fatalf("the last 500 owed: sent %d, debt %d; want the queued 500, 0", sent, a.debt)
	}

	// An empty buffer is not an oversized head.
	a = allowance{budget: budget}
	b = &batches{}
	if sent := pass(&a, b); sent != 0 || len(b.calls) != 1 {
		t.Fatalf("empty buffer: sent %d in calls %v, want nothing in one call", sent, b.calls)
	}

	// A failed write ends the pass at once.
	a = allowance{budget: budget}
	boom := errors.New("write failed")
	calls := 0
	if _, _, err := a.pass(func(drainCall, int) (int, bool, error) {
		calls++
		return 10, true, boom
	}); err != boom || calls != 1 {
		t.Fatalf("failed write: err %v after %d calls, want it returned after one", err, calls)
	}

	// The rate bound over a random stream of batches no larger than the
	// budget: no k consecutive passes emit more than k+1 budgets.
	rng := rand.New(rand.NewSource(1))
	sizes := make([]int, 20000)
	for i := range sizes {
		sizes[i] = 1 + rng.Intn(budget)
	}
	a = allowance{budget: budget}
	b = &batches{sizes: sizes}
	var sent []int
	for len(b.sizes) > 0 {
		sent = append(sent, pass(&a, b))
	}
	for i := range sent {
		sum := 0
		for k := 1; k <= 8 && i+k <= len(sent); k++ {
			sum += sent[i+k-1]
			if sum > (k+1)*budget {
				t.Fatalf("passes %d..%d emitted %d bytes, over %d budgets", i, i+k-1, sum, k+1)
			}
		}
	}
}
