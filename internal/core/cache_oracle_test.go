package core_test

import (
	"math/rand"
	"testing"

	"thinc/internal/client"
	"thinc/internal/core"
	"thinc/internal/geom"
	"thinc/internal/pixel"
	"thinc/internal/wire"
	"thinc/internal/xserver"
)

// The wire-v6 convergence oracle: a cached client and an uncached
// client attach to the same server core and replay randomized,
// repeat-heavy draw sequences under random flush budgets. The cached
// pair negotiates a deliberately small store so the deterministic LRU
// evicts mid-sequence; the uncached pair is the ground truth — its
// stream carries no cache message. Both must land byte-identical to the
// server screen (and therefore to each other) after every sequence,
// and the cached stream must never produce a CACHE_MISS: in-order
// lossless delivery keeps the two LRUs in perfect sync by
// construction, so any miss is a model/store divergence bug.

// cacheOracleCap is small enough that the pattern bank plus fresh
// images overflow it repeatedly — eviction agreement is the hard part
// of the no-eviction-messages design, so the oracle must exercise it.
const cacheOracleCap = 4 << 10

// oraclePattern is one bank entry: fixed geometry (the digest covers
// content dimensions) and fixed bytes, replayed at random positions.
type oraclePattern struct {
	w, h  int
	pix   []pixel.ARGB
	blend bool
}

func mkOraclePattern(rnd *rand.Rand, blend bool) oraclePattern {
	p := oraclePattern{w: 8 + rnd.Intn(9), h: 6 + rnd.Intn(7), blend: blend}
	p.pix = make([]pixel.ARGB, p.w*p.h)
	for i := range p.pix {
		a := uint8(255)
		if blend {
			a = uint8(64 + rnd.Intn(128))
		}
		p.pix[i] = pixel.PackARGB(a, uint8(rnd.Intn(256)),
			uint8(rnd.Intn(256)), uint8(rnd.Intn(256)))
	}
	return p
}

// oracleClient is one attached translation pipeline plus the display
// client consuming it.
type oracleClient struct {
	cl  *core.Client
	dst *client.Client
}

// pump flushes under budget (<= 0 drains everything) and applies,
// counting cache messages seen.
func (oc *oracleClient) pump(t *testing.T, seed, budget int, stores, paints *int) {
	t.Helper()
	msgs := oc.cl.Flush(budget)
	if budget <= 0 {
		msgs = oc.cl.FlushAll()
	}
	for _, m := range msgs {
		switch m.(type) {
		case *wire.CacheStore:
			*stores++
		case *wire.CachePaint:
			*paints++
		}
	}
	if err := oc.dst.ApplyAll(msgs); err != nil {
		t.Fatalf("seed %d: apply: %v", seed, err)
	}
}

// TestCacheConvergenceOracle is the brute-force property test behind
// the CACHE_PAINT delta protocol: 1000 randomized draw sequences (a
// reduced draw in -short), each replayed to a cached and an uncached
// client, must converge byte-identical to the server screen. The
// uncached stream must stay free of cache messages (the v6 extension
// is invisible until negotiated), the cached stream must hit, store,
// and evict without ever reporting a miss.
func TestCacheConvergenceOracle(t *testing.T) {
	const w, h = 64, 48
	seqs := 1000
	if testing.Short() {
		seqs = 80
	}
	var hits, stores, evictions int64
	var wireStores, wirePaints, uncachedCacheMsgs int
	for seed := 0; seed < seqs; seed++ {
		rnd := rand.New(rand.NewSource(int64(seed)))
		srv := core.NewServer(core.Options{})
		dpy := xserver.NewDisplay(w, h, srv)

		cached := &oracleClient{cl: srv.AttachClient(w, h), dst: client.New(w, h)}
		cached.cl.SetCacheSize(cacheOracleCap)
		cached.dst.EnableCache(cacheOracleCap)
		plain := &oracleClient{cl: srv.AttachClient(w, h), dst: client.New(w, h)}
		for _, oc := range []*oracleClient{cached, plain} {
			if err := oc.dst.ApplyAll(oc.cl.FlushAll()); err != nil {
				t.Fatalf("seed %d: initial sync: %v", seed, err)
			}
		}

		bank := make([]oraclePattern, 5)
		for i := range bank {
			bank[i] = mkOraclePattern(rnd, i == 4) // one translucent entry
		}
		win := dpy.CreateWindow(geom.XYWH(0, 0, w, h))

		for op := 0; op < 40; op++ {
			switch rnd.Intn(8) {
			case 0, 1, 2, 3: // repeat-heavy: replay a bank pattern somewhere new
				p := bank[rnd.Intn(len(bank))]
				r := geom.XYWH(rnd.Intn(w-p.w), rnd.Intn(h-p.h), p.w, p.h)
				if p.blend {
					dpy.Composite(win, r, p.pix, p.w)
				} else {
					dpy.PutImage(win, r, p.pix, p.w)
				}
			case 4: // fresh image: store-once traffic and eviction pressure
				r := geom.XYWH(rnd.Intn(w-20), rnd.Intn(h-14), 4+rnd.Intn(16), 4+rnd.Intn(10))
				pix := make([]pixel.ARGB, r.Area())
				for i := range pix {
					pix[i] = pixel.RGB(uint8(rnd.Intn(256)), uint8(op*29), uint8(seed))
				}
				dpy.PutImage(win, r, pix, r.W())
			case 5: // solid fill: SFILL, never cached
				dpy.FillRect(win, &xserver.GC{Fg: pixel.RGB(uint8(rnd.Intn(256)),
					uint8(rnd.Intn(256)), uint8(rnd.Intn(256)))},
					geom.XYWH(rnd.Intn(w-16), rnd.Intn(h-12), 1+rnd.Intn(16), 1+rnd.Intn(12)))
			case 6: // copy: Partial overwrite reading prior state
				r := geom.XYWH(rnd.Intn(w-12), rnd.Intn(h-8), 1+rnd.Intn(12), 1+rnd.Intn(8))
				dpy.CopyArea(win, win, r, geom.Point{X: rnd.Intn(w - r.W()), Y: rnd.Intn(h - r.H())})
			default: // glyph runs: BITMAP traffic, cacheable when wide enough
				dpy.DrawText(win, &xserver.GC{Fg: pixel.RGB(240, 240, 240)},
					rnd.Intn(w-40), rnd.Intn(h-10), [3]string{"ls -la", "make -j", "git log"}[rnd.Intn(3)])
			}
			if rnd.Intn(6) == 0 {
				// Independent random budgets: the two pipelines split and
				// coalesce differently, yet must land on the same bytes.
				cached.pump(t, seed, 96+rnd.Intn(4096), &wireStores, &wirePaints)
				plain.pump(t, seed, 96+rnd.Intn(4096), &uncachedCacheMsgs, &uncachedCacheMsgs)
			}
		}
		cached.pump(t, seed, 0, &wireStores, &wirePaints)
		plain.pump(t, seed, 0, &uncachedCacheMsgs, &uncachedCacheMsgs)

		if !cached.dst.FB().Equal(dpy.Screen()) {
			d := cached.dst.FB().DiffRegion(dpy.Screen())
			t.Fatalf("seed %d: cached client diverged from screen: %v", seed, d.Bounds())
		}
		if !plain.dst.FB().Equal(dpy.Screen()) {
			d := plain.dst.FB().DiffRegion(dpy.Screen())
			t.Fatalf("seed %d: uncached client diverged from screen: %v", seed, d.Bounds())
		}
		if !cached.dst.FB().Equal(plain.dst.FB()) {
			t.Fatalf("seed %d: cached and uncached clients diverged from each other", seed)
		}
		cs := cached.cl.CacheStats
		if cs.Misses != 0 {
			t.Fatalf("seed %d: %d cache misses on a lossless in-order stream", seed, cs.Misses)
		}
		hits += int64(cs.Hits)
		stores += int64(cs.Stores)
		evictions += int64(cs.Stores - cached.cl.CacheEntries())
	}
	if uncachedCacheMsgs != 0 {
		t.Fatalf("uncached client received %d cache messages; v6 must be invisible until negotiated",
			uncachedCacheMsgs)
	}
	if hits == 0 || stores == 0 {
		t.Fatalf("oracle never exercised the cache: hits=%d stores=%d", hits, stores)
	}
	if wirePaints == 0 || wireStores == 0 {
		t.Fatalf("no cache messages observed on the wire: stores=%d paints=%d", wireStores, wirePaints)
	}
	if evictions == 0 {
		t.Fatalf("the %d-byte store never evicted; the oracle must exercise LRU agreement", cacheOracleCap)
	}
	t.Logf("cache oracle: %d sequences, %d hits, %d stores, %d evictions, wire stores=%d paints=%d",
		seqs, hits, stores, evictions, wireStores, wirePaints)
}
