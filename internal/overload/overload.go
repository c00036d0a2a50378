// Package overload implements the server's overload-protection brain:
// a per-client bandwidth/RTT estimator fed by flush write progress and
// heartbeat echoes, and a degradation controller that walks an explicit
// quality ladder with hysteresis. THINC's server-push model (§5)
// assumes the client drains updates as fast as the server produces
// them; when it cannot, the controller trades fidelity for liveness one
// rung at a time — and climbs back down the same way once pressure
// subsides — instead of jumping straight to the disconnect-and-resync
// cliff.
package overload

import "time"

// Ladder rungs, mildest to harshest. Rung changes are always by one.
const (
	// RungLossless is normal operation: every update exactly as drawn.
	RungLossless = 0
	// RungCompress keeps updates lossless but switches RAW payloads to
	// the heaviest codec — more CPU for fewer bytes.
	RungCompress = 1
	// RungDownscale transmits RAW/PFILL payloads at half resolution per
	// axis (§6's resampler as a bandwidth valve). Lossy; leaving this
	// rung (or any above it) triggers a full refresh to repair the
	// screen.
	RungDownscale = 2
	// RungDropVideo additionally drops video frames at the server while
	// audio keeps flowing — §4.2's drop-at-server taken to its limit.
	RungDropVideo = 3
	// RungResync is the last rung: the backlog is discarded and replaced
	// with one fresh snapshot, because delivering history the client
	// cannot absorb only grows its staleness.
	RungResync = 4

	// NumRungs counts the ladder rungs.
	NumRungs = 5
)

// RungName names a ladder rung for telemetry and traces.
func RungName(r int) string {
	switch r {
	case RungLossless:
		return "lossless"
	case RungCompress:
		return "compress"
	case RungDownscale:
		return "downscale"
	case RungDropVideo:
		return "drop-video"
	case RungResync:
		return "resync"
	default:
		return "unknown"
	}
}

// ewmaAlpha weighs new samples into the running estimates. One third
// reacts within a few delivery passes without chasing single-batch noise.
const ewmaAlpha = 1.0 / 3

// Estimator tracks one client's drain bandwidth and round-trip time.
// It is passive arithmetic — the owner (the connection's flush loop)
// provides synchronization.
type Estimator struct {
	bps      float64 // EWMA drain rate, bytes/sec (0 = no sample yet)
	rttUS    float64 // EWMA heartbeat RTT, microseconds
	minRTTUS float64 // smallest RTT seen (the uncongested path)
}

// ObserveFlush folds one flush-write observation into the bandwidth
// estimate: n bytes were committed to the transport in elapsed time.
// Tiny batches say nothing about the drain rate and are skipped.
func (e *Estimator) ObserveFlush(n int, elapsed time.Duration) {
	if n < 1024 {
		return
	}
	sec := elapsed.Seconds()
	if sec < 1e-6 {
		// An instant write means the socket buffer took it all: the
		// observable rate is "at least this fast".
		sec = 1e-6
	}
	sample := float64(n) / sec
	if e.bps == 0 {
		e.bps = sample
		return
	}
	e.bps += ewmaAlpha * (sample - e.bps)
}

// ObserveRTT folds one heartbeat round-trip sample (microseconds).
func (e *Estimator) ObserveRTT(us int64) {
	if us <= 0 {
		return
	}
	s := float64(us)
	if e.minRTTUS == 0 || s < e.minRTTUS {
		e.minRTTUS = s
	}
	if e.rttUS == 0 {
		e.rttUS = s
		return
	}
	e.rttUS += ewmaAlpha * (s - e.rttUS)
}

// Bps returns the estimated drain rate in bytes/sec (0 before the
// first usable sample).
func (e *Estimator) Bps() float64 { return e.bps }

// RTTMicros returns the smoothed heartbeat RTT in microseconds.
func (e *Estimator) RTTMicros() float64 { return e.rttUS }

// MinRTTMicros returns the smallest RTT observed.
func (e *Estimator) MinRTTMicros() float64 { return e.minRTTUS }

// Config tunes the controller. The zero value picks the defaults.
type Config struct {
	// UpSec escalates when the backlog's projected drain time stays
	// above it; zero means 0.5s.
	UpSec float64
	// DownSec de-escalates when the projected drain time stays below
	// it; zero means 0.1s. Must be well under UpSec (hysteresis).
	DownSec float64
	// UpTicks is how many consecutive pressured ticks trigger one
	// escalation; zero means 4.
	UpTicks int
	// DownTicks is how many consecutive relaxed ticks trigger one
	// recovery step; zero means 24. Recovery is deliberately slower
	// than escalation so a marginal link does not oscillate.
	DownTicks int
	// FloorBps bounds the assumed drain rate from below when the
	// estimator has no usable sample; zero means 64 KiB/s.
	FloorBps float64
	// MaxRung caps how far the ladder may climb; zero means RungResync.
	MaxRung int
	// RTTInflate escalates when the smoothed RTT exceeds this multiple
	// of the minimum RTT *and* RTTFloorUS — the bufferbloat signal;
	// zero means 10x.
	RTTInflate float64
	// RTTFloorUS is the absolute smoothed-RTT floor (microseconds)
	// below which RTT inflation is never called pressure; zero means
	// 50ms. Loopback and LAN jitter stays far under it.
	RTTFloorUS float64
	// HoldTicks is the settling time: after any rung change the
	// controller holds position this many ticks before judging again,
	// so the change's own side effects — the resync snapshot, the
	// repair refresh — drain instead of being mistaken for fresh
	// pressure and re-escalated. Zero means 16; negative disables.
	HoldTicks int
}

func (c Config) withDefaults() Config {
	if c.UpSec <= 0 {
		c.UpSec = 0.5
	}
	if c.DownSec <= 0 {
		c.DownSec = 0.1
	}
	if c.UpTicks <= 0 {
		c.UpTicks = 4
	}
	if c.DownTicks <= 0 {
		c.DownTicks = 24
	}
	if c.FloorBps <= 0 {
		c.FloorBps = 64 << 10
	}
	if c.MaxRung <= 0 || c.MaxRung >= NumRungs {
		c.MaxRung = RungResync
	}
	if c.RTTInflate <= 0 {
		c.RTTInflate = 10
	}
	if c.RTTFloorUS <= 0 {
		c.RTTFloorUS = 50_000
	}
	if c.HoldTicks == 0 {
		c.HoldTicks = 16
	}
	if c.HoldTicks < 0 {
		c.HoldTicks = 0
	}
	return c
}

// Direction of a rung change.
type Direction int

// Rung change directions.
const (
	// Steady: no change this tick.
	Steady Direction = iota
	// Up: degraded one rung.
	Up
	// Down: recovered one rung.
	Down
)

// Controller walks the ladder from estimator state. Like the estimator
// it is owned by one connection's flush loop and does no locking.
type Controller struct {
	cfg Config
	est *Estimator

	rung       int
	upStreak   int
	downStreak int
	hold       int // settling ticks left after the last rung change

	// Burst settling: a rung change can queue its own byte burst (the
	// resync snapshot, the repair refresh). While that burst drains,
	// its bytes must not read as fresh pressure or the ladder limit-
	// cycles: descend, queue repair, repair re-pressures, re-ascend.
	settling bool
	baseline int // burst peak, captured on the first settled tick (-1 = pending)
	prev     int // previous tick's backlog while settling
}

// NewController builds a controller over est.
func NewController(est *Estimator, cfg Config) *Controller {
	return &Controller{cfg: cfg.withDefaults(), est: est}
}

// Rung returns the active ladder rung.
func (c *Controller) Rung() int { return c.rung }

// ForceRung sets the rung directly — the admin pin, and how a
// reattached session's controller resumes at the rung its client was
// left at instead of silently diverging from the payload degradation
// still applied to it. The controller re-enters settling so the
// attach snapshot or repair burst drains before it judges again.
func (c *Controller) ForceRung(rung int) {
	if rung < RungLossless {
		rung = RungLossless
	}
	if rung > c.cfg.MaxRung {
		rung = c.cfg.MaxRung
	}
	c.rung = rung
	c.upStreak, c.downStreak = 0, 0
	c.hold = c.cfg.HoldTicks
	c.settling, c.baseline = true, -1
}

// Tick evaluates one flush period: backlog is the client's queued wire
// bytes after this period's flush. It returns the (possibly new) rung
// and the direction of any change; at most one rung moves per tick.
func (c *Controller) Tick(backlog int) (rung int, dir Direction) {
	if c.hold > 0 {
		// Settling: the last change's consequences are still draining.
		c.hold--
		c.upStreak, c.downStreak = 0, 0
		return c.rung, Steady
	}
	bps := c.est.Bps()
	if bps < c.cfg.FloorBps {
		bps = c.cfg.FloorBps
	}
	drainSec := float64(backlog) / bps

	if c.settling {
		switch {
		case c.baseline < 0:
			// First look at the post-change backlog: this is the burst's
			// peak. If it is already drained, resume judging immediately.
			c.baseline, c.prev = backlog, backlog
			if drainSec >= c.cfg.DownSec && backlog > 0 {
				return c.rung, Steady
			}
			c.settling = false
		case backlog < c.prev && backlog <= c.baseline && drainSec >= c.cfg.DownSec:
			// Still a shrinking burst: let it drain without judgment.
			c.prev = backlog
			return c.rung, Steady
		default:
			// Drained below the recovery threshold, or growing again —
			// growth past the peak is real pressure, not our burst.
			c.settling = false
		}
	}

	pressured := drainSec > c.cfg.UpSec
	if !pressured && c.est.rttUS > c.cfg.RTTFloorUS &&
		c.est.minRTTUS > 0 && c.est.rttUS > c.cfg.RTTInflate*c.est.minRTTUS {
		pressured = true // bufferbloat: the path is queueing, not losing
	}

	switch {
	case pressured:
		c.downStreak = 0
		c.upStreak++
		if c.upStreak >= c.cfg.UpTicks && c.rung < c.cfg.MaxRung {
			c.upStreak = 0
			c.rung++
			c.hold = c.cfg.HoldTicks
			c.settling, c.baseline = true, -1
			return c.rung, Up
		}
	case drainSec < c.cfg.DownSec:
		c.upStreak = 0
		c.downStreak++
		if c.downStreak >= c.cfg.DownTicks && c.rung > RungLossless {
			c.downStreak = 0
			c.rung--
			c.hold = c.cfg.HoldTicks
			c.settling, c.baseline = true, -1
			return c.rung, Down
		}
	default:
		// The dead band between the thresholds: hold position.
		c.upStreak = 0
		c.downStreak = 0
	}
	return c.rung, Steady
}
