package shard

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestRegistryBasicLifecycle(t *testing.T) {
	r := NewRegistry(4)
	a, b := new(int), new(int)
	if !r.Attach("k", a) {
		t.Fatalf("attach new key failed")
	}
	if r.Attach("k", b) {
		t.Fatalf("double attach succeeded")
	}
	if v, det, ok := r.Get("k"); !ok || det || v != a {
		t.Fatalf("Get = %v %v %v", v, det, ok)
	}
	// Identity-checked ops refuse a stale value.
	if r.Detach("k", b) {
		t.Fatalf("detach with wrong identity succeeded")
	}
	if r.Remove("k", b) {
		t.Fatalf("remove with wrong identity succeeded")
	}
	// Claim only consumes detached entries.
	if _, ok := r.Claim("k", nil); ok {
		t.Fatalf("claimed an attached entry")
	}
	if !r.Detach("k", a) {
		t.Fatalf("detach failed")
	}
	if r.Detach("k", a) {
		t.Fatalf("double detach succeeded")
	}
	if r.NumDetached() != 1 {
		t.Fatalf("NumDetached = %d", r.NumDetached())
	}
	// Predicate veto leaves the entry.
	if _, ok := r.Claim("k", func(any) bool { return false }); ok {
		t.Fatalf("claim passed a vetoing predicate")
	}
	v, ok := r.Claim("k", func(got any) bool { return got == a })
	if !ok || v != a {
		t.Fatalf("claim = %v %v", v, ok)
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d after claim", r.Len())
	}
	// Remove with matching identity.
	r.Attach("k2", a)
	if !r.Remove("k2", a) {
		t.Fatalf("remove failed")
	}
	if r.Remove("k2", a) {
		t.Fatalf("remove of missing key succeeded")
	}
}

func TestRegistryRange(t *testing.T) {
	r := NewRegistry(8)
	vals := map[string]*int{}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("t%d", i)
		v := new(int)
		vals[k] = v
		r.Attach(k, v)
		if i%3 == 0 {
			r.Detach(k, v)
		}
	}
	seen, det := 0, 0
	r.Range(func(k string, v any, detached bool) bool {
		if vals[k] != v {
			t.Errorf("range saw wrong value for %s", k)
		}
		seen++
		if detached {
			det++
		}
		// Re-entrancy: calling back into the registry must not
		// deadlock (snapshot-outside-lock contract).
		r.Get(k)
		return true
	})
	if seen != 100 || det != 34 {
		t.Fatalf("range saw %d entries (%d detached), want 100/34", seen, det)
	}
	// Early stop.
	n := 0
	r.Range(func(string, any, bool) bool { n++; return false })
	if n != 1 {
		t.Fatalf("range ignored early stop: %d", n)
	}
}

// refRegistry is the single-mutex reference model: one map, one lock,
// semantics written as directly as possible. The sharded registry
// must be indistinguishable from it.
type refRegistry struct {
	mu sync.Mutex
	m  map[string]regEntry
}

func newRefRegistry() *refRegistry { return &refRegistry{m: map[string]regEntry{}} }

func (r *refRegistry) Attach(k string, v any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[k]; ok {
		return false
	}
	r.m[k] = regEntry{val: v}
	return true
}

func (r *refRegistry) Get(k string) (any, bool, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.m[k]
	return e.val, e.detached, ok
}

func (r *refRegistry) Detach(k string, v any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.m[k]
	if !ok || e.val != v || e.detached {
		return false
	}
	e.detached = true
	r.m[k] = e
	return true
}

func (r *refRegistry) Claim(k string, ok func(any) bool) (any, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, present := r.m[k]
	if !present || !e.detached || (ok != nil && !ok(e.val)) {
		return nil, false
	}
	delete(r.m, k)
	return e.val, true
}

func (r *refRegistry) Remove(k string, v any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.m[k]
	if !ok || e.val != v {
		return false
	}
	delete(r.m, k)
	return true
}

// TestRegistryPropertyVsReference drives the sharded registry and the
// single-mutex reference model through 10k randomized session
// lifecycle ops — attach, detach, reattach-claim, reap-remove, and
// broadcast sweeps — asserting equivalent results and equivalent
// state after every step. The seed is logged; set THINC_SHARD_SEED to
// replay a failure exactly, chaos-harness style.
func TestRegistryPropertyVsReference(t *testing.T) {
	seed := time.Now().UnixNano()
	if s := os.Getenv("THINC_SHARD_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad THINC_SHARD_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("registry property seed=%d (replay: THINC_SHARD_SEED=%d)", seed, seed)
	rng := rand.New(rand.NewSource(seed))

	const ops = 10000
	const keys = 64
	key := func(i int) string { return fmt.Sprintf("ticket-%d", i) }
	// Session values: pointers so identity checks are meaningful. A
	// fresh attach under a reused key gets a fresh value, and ops
	// sometimes present a stale (previous) value on purpose.
	live := map[string]*int{}  // current value per key, ref-maintained
	stale := map[string]*int{} // a previously-current value per key
	sh := NewRegistry(7)       // odd shard count: exercises uneven hashing
	ref := newRefRegistry()

	check := func(step int, op string) {
		t.Helper()
		for i := 0; i < keys; i++ {
			k := key(i)
			sv, sd, sok := sh.Get(k)
			rv, rd, rok := ref.Get(k)
			if sv != rv || sd != rd || sok != rok {
				t.Fatalf("step %d (%s): key %s diverged: sharded=(%v,%v,%v) ref=(%v,%v,%v) [seed=%d]",
					step, op, k, sv, sd, sok, rv, rd, rok, seed)
			}
		}
		if sh.Len() != len(ref.m) {
			t.Fatalf("step %d (%s): Len %d != ref %d [seed=%d]", step, op, sh.Len(), len(ref.m), seed)
		}
	}

	for step := 0; step < ops; step++ {
		k := key(rng.Intn(keys))
		var op string
		switch rng.Intn(10) {
		case 0, 1, 2: // attach
			op = "attach"
			v := new(int)
			*v = step
			got := sh.Attach(k, v)
			want := ref.Attach(k, v)
			if got != want {
				t.Fatalf("step %d attach(%s) = %v, ref %v [seed=%d]", step, k, got, want, seed)
			}
			if want {
				if old := live[k]; old != nil {
					stale[k] = old
				}
				live[k] = v
			}
		case 3, 4: // detach (sometimes with a stale identity)
			op = "detach"
			v := live[k]
			if rng.Intn(4) == 0 && stale[k] != nil {
				v = stale[k]
			}
			if got, want := sh.Detach(k, v), ref.Detach(k, v); got != want {
				t.Fatalf("step %d detach(%s) = %v, ref %v [seed=%d]", step, k, got, want, seed)
			}
		case 5, 6: // reattach-claim, sometimes predicate-vetoed
			op = "claim"
			var pred func(any) bool
			if rng.Intn(4) == 0 {
				pred = func(any) bool { return false }
			}
			gv, gok := sh.Claim(k, pred)
			wv, wok := ref.Claim(k, pred)
			if gv != wv || gok != wok {
				t.Fatalf("step %d claim(%s) = (%v,%v), ref (%v,%v) [seed=%d]", step, k, gv, gok, wv, wok, seed)
			}
			if wok {
				delete(live, k)
			}
		case 7: // reap-remove (sometimes stale identity, like an expired timer)
			op = "remove"
			v := live[k]
			if rng.Intn(4) == 0 && stale[k] != nil {
				v = stale[k]
			}
			got, want := sh.Remove(k, v), ref.Remove(k, v)
			if got != want {
				t.Fatalf("step %d remove(%s) = %v, ref %v [seed=%d]", step, k, got, want, seed)
			}
			if want {
				delete(live, k)
			}
		case 8: // broadcast sweep: Range must see exactly ref's state
			op = "broadcast"
			type ent struct {
				v   any
				det bool
			}
			got := map[string]ent{}
			sh.Range(func(k string, v any, det bool) bool {
				got[k] = ent{v, det}
				return true
			})
			if len(got) != len(ref.m) {
				t.Fatalf("step %d broadcast saw %d entries, ref %d [seed=%d]", step, len(got), len(ref.m), seed)
			}
			for rk, re := range ref.m {
				ge, ok := got[rk]
				if !ok || ge.v != re.val || ge.det != re.detached {
					t.Fatalf("step %d broadcast diverged at %s [seed=%d]", step, rk, seed)
				}
			}
		case 9: // counters
			op = "counters"
			refDet := 0
			for _, e := range ref.m {
				if e.detached {
					refDet++
				}
			}
			if sh.NumDetached() != refDet {
				t.Fatalf("step %d NumDetached %d != ref %d [seed=%d]", step, sh.NumDetached(), refDet, seed)
			}
		}
		check(step, op)
	}
}

// Race-detector exercise: concurrent mixed ops across many keys.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("g%d-k%d", g, rng.Intn(32))
				v := new(int)
				switch rng.Intn(4) {
				case 0:
					if r.Attach(k, v) {
						r.Detach(k, v)
					}
				case 1:
					r.Claim(k, nil)
				case 2:
					if got, _, ok := r.Get(k); ok {
						r.Remove(k, got)
					}
				case 3:
					r.Len()
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 50; i++ {
			r.Range(func(string, any, bool) bool { return true })
			r.NumDetached()
		}
		close(done)
	}()
	wg.Wait()
	<-done
}
