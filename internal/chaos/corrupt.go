package chaos

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"thinc/internal/auth"
	"thinc/internal/client"
	"thinc/internal/core"
	"thinc/internal/faultconn"
	"thinc/internal/geom"
	"thinc/internal/pixel"
	"thinc/internal/server"
	"thinc/internal/xserver"
)

// The silent-corruption schedule family: where the transport-fault
// schedules above attack the connection, these attack the *content*.
// A frame-aware corrupter sits between the cipher and the decoder on
// the client and flips bits inside well-framed RAW payloads — the
// framing survives, the decode succeeds, the client draws the wrong
// pixels and has no way to know. Nothing in the v1-v3 protocol can
// ever repair this; the run asserts the wire-v4 integrity audit
// detects every injected divergence and heals it with targeted tile
// repairs (no full-screen resync, no reconnect) when few tiles
// diverge, and that broad damage escalates through the sweep to a
// forced resync.

// auditTile is the audit tile side for corruption runs: 16px over the
// 96x64 chaos screen gives a 6x4 grid of 24 tiles.
const auditTile = 16

// corruptTileW/H: each corrupted draw fills exactly one audit tile,
// so the injected divergence is bounded by the draw count.
const (
	corruptTileW = auditTile
	corruptTileH = auditTile
)

// CorruptSchedule scripts one silent-corruption run.
type CorruptSchedule struct {
	Name string
	Seed int64
	// Tiles is how many distinct audit tiles the corruption phase draws
	// (and therefore the exact number of tiles that diverge: the
	// corrupter aims exactly one flip at each drawn tile).
	Tiles int
	// Escalate marks the broad-damage run: enough divergent tiles that
	// the audit must climb the ladder to a full resync.
	Escalate bool
	// MaxWall bounds the whole run; zero means 20s.
	MaxWall time.Duration
}

// CorruptResult is what one corruption schedule produced.
type CorruptResult struct {
	Schedule   CorruptSchedule
	Converged  bool
	MismatchAt int // first differing pixel after quiescence (-1: identical)

	Flips         int64 // bits actually flipped inside payloads
	Probes        int
	Replies       int
	Mismatches    int // divergent tiles the audit detected
	RepairedTiles int
	RepairedBytes int
	Sweeps        int
	Resyncs       int // audit-forced full resyncs

	Reconnects  int // must stay 0: corruption is silent, nothing disconnects
	SlowResyncs int
}

func (r CorruptResult) String() string {
	return fmt.Sprintf("%s seed=%d tiles=%d escalate=%v converged=%v flips=%d probes=%d detected=%d repaired=%d/%dB sweeps=%d resyncs=%d reconnects=%d",
		r.Schedule.Name, r.Schedule.Seed, r.Schedule.Tiles, r.Schedule.Escalate,
		r.Converged, r.Flips, r.Probes, r.Mismatches, r.RepairedTiles,
		r.RepairedBytes, r.Sweeps, r.Resyncs, r.Reconnects)
}

// CorruptionSuite returns the standard silent-corruption schedules:
// 1, 2 and 4 divergent tiles must heal by targeted repair alone, and
// the 20-tile run must escalate to a resync.
func CorruptionSuite() []CorruptSchedule {
	return []CorruptSchedule{
		{Name: "corrupt-1-tile", Seed: 1101, Tiles: 1},
		{Name: "corrupt-2-tiles", Seed: 1202, Tiles: 2},
		{Name: "corrupt-4-tiles", Seed: 1404, Tiles: 4},
		{Name: "corrupt-escalate-resync", Seed: 1606, Tiles: 20, Escalate: true},
	}
}

// SoakCorruptionSchedules derives n randomized corruption schedules
// from one base seed — the soak's content-integrity counterpart to
// SoakSchedules. Three of four runs corrupt 1-4 tiles (targeted
// repair must heal them); every fourth corrupts most of the screen
// (escalation must resync).
func SoakCorruptionSchedules(n int, seed int64) []CorruptSchedule {
	rnd := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
	out := make([]CorruptSchedule, 0, n)
	for i := 0; i < n; i++ {
		s := CorruptSchedule{
			Name:    fmt.Sprintf("soak-corrupt-%03d", i),
			Seed:    rnd.Int63(),
			Tiles:   1 + rnd.Intn(4),
			MaxWall: 90 * time.Second,
		}
		if i%4 == 3 {
			s.Tiles = 18 + rnd.Intn(5) // 18..22 of 24 tiles
			s.Escalate = true
		}
		out = append(out, s)
	}
	return out
}

// RunCorruption executes one silent-corruption schedule in three
// phases: settle clean, inject, quiesce and verify healing.
func RunCorruption(s CorruptSchedule) (CorruptResult, error) {
	res := CorruptResult{Schedule: s, MismatchAt: -1}
	if s.MaxWall <= 0 {
		s.MaxWall = 20 * time.Second
	}
	deadline := time.Now().Add(s.MaxWall)

	acc := auth.NewAccounts()
	acc.Add("owner", "pw")
	opts := server.Options{
		// RawCodec stays CodecNone: repair and draw payloads are plain
		// pixels, so a bit flip is a silent pixel change, never a codec
		// decode error (which would be a loud failure, not corruption).
		Core:              core.Options{AuditTileSize: auditTile},
		FlushInterval:     time.Millisecond,
		FlushBudget:       1 << 20, // the corruption batch flushes whole
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		AuditInterval:     5 * time.Millisecond,
		AuditTimeout:      500 * time.Millisecond,
		DisableOverload:   true, // pinned lossless: audits always eligible
	}
	host := server.NewHost(screenW, screenH, auth.NewAuthenticator("owner", acc), opts)
	defer host.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	defer l.Close()
	go host.Serve(l)

	conn, err := client.DialWith(func() (net.Conn, error) {
		return net.Dial("tcp", l.Addr().String())
	}, "owner", "pw", screenW, screenH)
	if err != nil {
		return res, err
	}
	defer conn.Close()

	// The tiles the corruption phase draws, each one audit tile.
	grid := rand.New(rand.NewSource(s.Seed)).Perm(
		(screenW / corruptTileW) * (screenH / corruptTileH))
	cols := screenW / corruptTileW
	picked := grid[:s.Tiles]
	tiles := make([]geom.Rect, s.Tiles)
	for i, ti := range picked {
		tiles[i] = geom.XYWH((ti%cols)*corruptTileW, (ti/cols)*corruptTileH,
			corruptTileW, corruptTileH)
	}

	// The corrupter sits on the decrypted read stream, below the
	// decoder. Installed dormant; phase two arms it. It aims one flip at
	// each drawn tile, at the offset the tile's pixels take inside
	// whichever RAW carries them — adjacent tiles drawn one after the
	// other merge into one RAW (§4), and each must still diverge — so
	// the divergence set is exactly the drawn tiles, for any seed.
	var corr *faultconn.Corrupter
	conn.SetReadWrapper(func(r io.Reader) io.Reader {
		corr = faultconn.NewCorrupter(r, faultconn.CorruptPlan{
			Seed:     s.Seed,
			Targets:  tiles,
			MaxFlips: int64(s.Tiles),
		})
		corr.Disable()
		return corr
	})
	runDone := make(chan error, 1)
	go func() { runDone <- conn.Run() }()

	// Phase 1: settle clean. Paint a scene and converge byte-exact.
	var win *xserver.Window
	host.Do(func(d *xserver.Display) {
		win = d.CreateWindow(geom.XYWH(0, 0, screenW, screenH))
		d.FillRect(win, &xserver.GC{Fg: pixel.RGB(20, 50, 110)}, geom.XYWH(0, 0, screenW, screenH))
		d.FillRect(win, &xserver.GC{Fg: pixel.RGB(180, 80, 20)}, geom.XYWH(10, 8, 50, 30))
		d.DrawText(win, &xserver.GC{Fg: pixel.RGB(240, 240, 240)}, 8, 44, "integrity")
	})
	if !waitConverged(host, conn, deadline) {
		res.MismatchAt = firstMismatch(host, conn)
		return res, fmt.Errorf("chaos: clean phase never converged (mismatch at %d)", res.MismatchAt)
	}

	// Phase 2: inject. Draw each chosen tile exactly once with the
	// corrupter armed; the flips ride those payloads and nothing
	// overdraws them, so every divergence persists until audited.
	workRnd := rand.New(rand.NewSource(s.Seed ^ 0x1e3779b97f4a7c15))
	corr.Enable()
	host.Do(func(d *xserver.Display) {
		for i, r := range tiles {
			pix := make([]pixel.ARGB, corruptTileW*corruptTileH)
			for j := range pix {
				pix[j] = pixel.RGB(uint8(workRnd.Intn(256)), uint8(j), uint8(picked[i]))
			}
			d.PutImage(win, r, pix, corruptTileW)
		}
	})
	// Every drawn tile takes its one flip; wait for the whole injection
	// to pass through the client.
	for corr.Flips() < int64(s.Tiles) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	res.Flips = corr.Flips()
	corr.Disable()
	if res.Flips == 0 {
		return res, fmt.Errorf("chaos: corrupter never flipped a bit")
	}

	// Phase 3: quiesce and verify self-healing. No workload, no new
	// corruption — the audit must detect the divergence and converge
	// the framebuffers byte-identical within the wall budget.
	res.Converged = waitConverged(host, conn, deadline)
	if !res.Converged {
		res.MismatchAt = firstMismatch(host, conn)
	}

	st := host.Resilience()
	res.Probes = st.AuditProbes
	res.Replies = st.AuditReplies
	res.Mismatches = st.AuditMismatches
	res.RepairedTiles = st.AuditRepairs
	res.RepairedBytes = st.AuditRepairBytes
	res.Sweeps = st.AuditSweeps
	res.Resyncs = st.AuditResyncs
	res.SlowResyncs = st.SlowResyncs
	res.Reconnects = conn.Stats().Reconnects

	conn.Close()
	<-runDone
	return res, nil
}

// waitConverged polls the byte-identity oracle until it holds or the
// deadline passes.
func waitConverged(host *server.Host, conn *client.Conn, deadline time.Time) bool {
	for time.Now().Before(deadline) {
		if firstMismatch(host, conn) < 0 {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}
