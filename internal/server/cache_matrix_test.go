package server

import (
	"net"
	"testing"
	"time"

	"thinc/internal/cipher"
	"thinc/internal/geom"
	"thinc/internal/pixel"
	"thinc/internal/wire"
	"thinc/internal/xserver"
)

// The payload-cache negotiation matrix: the cache is granted only to a
// hello that requests it, so a ClientInit with CacheKB 0 must never see
// a cache message. Each row attaches with its hello and then watches a
// repeat-heavy workload for cache traffic; the cached rows prove the
// same workload does produce CACHE_STORE and CACHE_PAINT once
// negotiated, so an empty zero-request row is evidence, not a vacuous
// pass.

// drainTypes reads messages until the deadline, returning counts by
// type. Read errors after the deadline are the normal exit.
func drainTypes(nc net.Conn, enc *cipher.StreamConn, window time.Duration) map[wire.Type]int {
	counts := map[wire.Type]int{}
	deadline := time.Now().Add(window)
	for {
		_ = nc.SetReadDeadline(deadline)
		m, err := wire.ReadMessage(enc)
		if err != nil {
			return counts
		}
		counts[m.Type()]++
	}
}

// matrixWorkload draws one pattern at two non-abutting positions: a
// first appearance and a byte-identical repeat — the minimal sequence
// that must produce a CACHE_STORE then a CACHE_PAINT on a negotiated
// session and plain RAWs everywhere else.
func matrixWorkload(host *Host) {
	pix := make([]pixel.ARGB, 16*16)
	for i := range pix {
		pix[i] = pixel.RGB(uint8(i*7), uint8(i>>2), uint8(201-i))
	}
	host.Do(func(d *xserver.Display) {
		win := d.CreateWindow(geom.XYWH(0, 0, 64, 48))
		d.PutImage(win, geom.XYWH(2, 2, 16, 16), pix, 16)
		d.PutImage(win, geom.XYWH(40, 24, 16, 16), pix, 16)
	})
}

// TestCacheVersionMatrix runs the matrix. The zero-request row must see
// zero cache messages and a ServerInit granting no cache; the cached
// rows must see both cache message kinds and the clamped grant, with
// the warm-verdict byte at 0 (the warm path exists only for Reattach).
func TestCacheVersionMatrix(t *testing.T) {
	cases := []struct {
		name      string
		hello     *wire.ClientInit
		wantGrant uint32
		wantCache bool
	}{
		{"v6-zero-request", &wire.ClientInit{ViewW: 64, ViewH: 48, Name: "v6z"}, 0, false},
		{"v6-cached", &wire.ClientInit{ViewW: 64, ViewH: 48, Name: "v6c", CacheKB: 4096}, 1024, true},
		{"v7-cached", &wire.ClientInit{ViewW: 64, ViewH: 48, Name: "v7c", CacheKB: 8192}, 1024, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			opts := fastOptions()
			opts.HeartbeatTimeout = 10 * time.Second // no pongs from a hand-rolled peer
			opts.CacheKB = 1024
			host, addr := startHost(t, 64, 48, opts)

			nc, enc := rawSession(t, addr, "owner", "pw", tc.hello)
			defer nc.Close()
			_ = nc.SetReadDeadline(time.Now().Add(5 * time.Second))
			m, err := wire.ReadMessage(enc)
			if err != nil {
				t.Fatalf("no ServerInit: %v", err)
			}
			si, ok := m.(*wire.ServerInit)
			if !ok {
				t.Fatalf("expected ServerInit, got %v", m.Type())
			}
			if si.CacheKB != tc.wantGrant {
				t.Fatalf("ServerInit.CacheKB = %d, want %d", si.CacheKB, tc.wantGrant)
			}
			if si.CacheWarm != 0 {
				t.Fatalf("fresh attach claimed a warm cache: %+v", si)
			}

			matrixWorkload(host)
			counts := drainTypes(nc, enc, 400*time.Millisecond)
			stores, paints := counts[wire.TCacheStore], counts[wire.TCachePaint]
			if tc.wantCache {
				if stores < 1 || paints < 1 {
					t.Fatalf("negotiated session saw stores=%d paints=%d, want both >= 1 (types: %v)",
						stores, paints, counts)
				}
				if g := host.Resilience().CacheGrants; g != 1 {
					t.Fatalf("CacheGrants = %d, want 1", g)
				}
			} else {
				if stores != 0 || paints != 0 || counts[wire.TCacheMiss] != 0 {
					t.Fatalf("%s received cache traffic: %v", tc.name, counts)
				}
				if counts[wire.TRaw] < 1 {
					t.Fatalf("workload never arrived: %v", counts)
				}
				if g := host.Resilience().CacheGrants; g != 0 {
					t.Fatalf("CacheGrants = %d, want 0", g)
				}
			}
		})
	}
}
