package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"syscall"
	"time"

	"thinc/internal/xserver"
)

// cpuTime is the process's user+system CPU so far: server, client and
// the harness's own (constant) share together.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (r *rig) wireBytes() int64 {
	var n int64
	for _, s := range r.sessions {
		n += s.rx.Load() + s.tx.Load()
	}
	return n
}

// issue draws op k on its session and registers it as pending. due is
// the moment latency counts from.
func (r *rig) issue(k int, due time.Time, measured bool) *pendingOp {
	s := r.sessions[r.script.target(k)]
	p := &pendingOp{k: k, due: due, late: time.Since(due), measured: measured,
		done: make(chan struct{})}
	if s.dead.Load() {
		s.mu.Lock()
		s.finish(p, sample{failed: true})
		s.mu.Unlock()
		return p
	}
	var out drawn
	s.host.Do(func(d *xserver.Display) {
		out = s.draw(k)
		p.pts = out.pts
		for _, rect := range out.rects {
			p.probes = lattice(p.probes, d.Screen(), rect)
		}
		// Still inside Do: no flush can run before the op is pending.
		s.submit(p, r.spec.Rate == 0)
	})
	if out.audio != nil {
		_, _ = s.pcm.Write(out.audio) // whole frames by construction; a closed stream fails the oracle
	}
	return p
}

// mark is the process's running totals when measured op k was issued.
type mark struct {
	k     int
	at    time.Time
	cpu   time.Duration
	bytes int64
}

// window is what the measured part of a run saw: every measured op's
// outcome, a mark at the first measured op and at each whole period of
// the script after it, and one after the last op was seen.
type window struct {
	samples []sample
	period  int
	marks   []mark
	final   mark
	unsent  int // open-loop ops the generator never got to issue
}

// drive runs the workload: warm-up, then `measure` of measured ops,
// then waits for the last op. Closed-loop workloads think 1-9 ms
// (seeded) between ops — without it the loop phase-locks to the
// server's flush ticker; open-loop workloads issue op k at start+k/rate
// (plus the workload's seeded jitter) whatever the system does, and
// time it from then.
func (r *rig) drive(seed int64, warm, measure time.Duration) (window, error) {
	sl, err := newSleeper()
	if err != nil {
		return window{}, err
	}
	defer sl.close()
	think := rand.New(rand.NewSource(seed ^ 0x7468696e6b))

	start := time.Now()
	measureFrom := start.Add(warm)
	end := measureFrom.Add(measure)
	w := window{period: r.script.period()}
	// note marks op k once the measured window is open, at its first op
	// and at every whole period after it.
	note := func(k int) {
		if len(w.marks) == 0 || (k-w.marks[0].k)%w.period == 0 {
			w.marks = append(w.marks, mark{k, time.Now(), cpuTime(), r.wireBytes()})
		}
	}
	var last *pendingOp

	if r.spec.Rate == 0 {
		for k := 0; ; k++ {
			sl.until(time.Now().Add(time.Millisecond + time.Duration(think.Int63n(int64(8*time.Millisecond)))))
			now := time.Now()
			if !now.Before(end) && len(w.marks) > 0 {
				break // the window is over and at least one op fell inside it
			}
			measured := !now.Before(measureFrom)
			if measured {
				note(k)
			}
			last = r.issue(k, time.Now(), measured)
			<-last.done
		}
	} else {
		interval := time.Duration(float64(time.Second) / r.spec.Rate)
		total := int(float64(warm+measure) / float64(interval))
		// A generator this far behind has stalled; what it did not issue
		// counts as failed rather than stretching the run.
		giveUp := end.Add(5 * time.Second)
		for k := 0; k < total; k++ {
			due := start.Add(time.Duration(k) * interval)
			if r.spec.Jitter > 0 {
				due = due.Add(time.Duration(think.Int63n(int64(r.spec.Jitter))))
			}
			sl.until(due)
			if time.Now().After(giveUp) {
				w.unsent = total - k
				break
			}
			measured := !due.Before(measureFrom)
			if measured {
				note(k)
			}
			last = r.issue(k, due, measured)
		}
	}
	if len(w.marks) == 0 {
		return w, fmt.Errorf("%s: no op fell inside the measured window", r.spec.Name)
	}
	// Open loop: everything issued is seen or expired within opTimeout.
	for _, s := range r.sessions {
		for s.npending.Load() > 0 {
			time.Sleep(time.Millisecond)
		}
	}
	w.final = mark{last.k + 1, time.Now(), cpuTime(), r.wireBytes()}
	for _, s := range r.sessions {
		s.mu.Lock()
		w.samples = append(w.samples, s.samples...)
		s.samples = nil
		s.mu.Unlock()
	}
	return w, nil
}

// percentile is the nearest-rank q-quantile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// trustedTail is the highest reported percentile that still has at
// least ten samples beyond it; 0.5 when none has.
func trustedTail(n int) float64 {
	for _, q := range []float64{0.99, 0.95} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// runResult is one run of one workload, timed or traced.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     int                `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   int                `json:"samples"`
	InputCRC  string             `json:"input_crc"`
	Metrics   map[string]float64 `json:"metrics"`
	Notes     []string           `json:"notes,omitempty"`
}

// maxBlocks is how many blocks the measured window is cut into. Latency
// percentiles, CPU and bytes are computed per block and reported as the
// median over blocks: the typical block, which one stall (a GC pause
// stretched by a descheduled vCPU froze one fleet run for 400 ms) does
// not move. Over ten runs fleet's p99 spreads 26 % pooled, 14 % as the
// median of 10 blocks and 5 % as the median of 31. The pooled on-time
// share goes into the run's notes, so rare stalls still show somewhere.
const maxBlocks = 32

// block is a run of whole script periods inside the measured window.
type block struct {
	from, to mark
	lat      []float64 // µs, sorted, successful ops only
	ops      int
	onTime   int
}

// blocks cuts the window at period marks into at most maxBlocks equal
// blocks; a window shorter than one period is a single block.
func (w window) blocks(limit time.Duration) []block {
	var out []block
	if periods := len(w.marks) - 1; periods < 1 {
		out = []block{{from: w.marks[0], to: w.final}}
	} else {
		per := max(1, periods/maxBlocks)
		for i := 0; i+per <= periods; i += per {
			out = append(out, block{from: w.marks[i], to: w.marks[i+per]})
		}
	}
	for _, sm := range w.samples {
		i := sort.Search(len(out), func(i int) bool { return out[i].to.k > sm.k })
		if i == len(out) || sm.k < out[i].from.k {
			continue // past the last whole period
		}
		b := &out[i]
		b.ops++
		if sm.failed {
			continue
		}
		b.lat = append(b.lat, float64(sm.latency)/1e3)
		if sm.latency <= limit {
			b.onTime++
		}
	}
	for i := range out {
		sort.Float64s(out[i].lat)
	}
	return out
}

// live is a summary of one live pass, shared by the timed run and the
// traced run's two quarter-length passes.
type live struct {
	attempted, failed, seen int
	blocks                  int
	p50, p95, p99           float64 // µs
	onTime, onTimePooled    float64
	bytesPerOp, cpuPerOpUS  float64
	opsPerSec, coresBusy    float64
	hookSeen                float64
	gapP99, lateP99         float64 // µs
}

func summarise(spec *workloadSpec, w window) live {
	l := live{attempted: len(w.samples) + w.unsent, failed: w.unsent}
	var gaps, lates []float64
	hooks := 0
	for _, sm := range w.samples {
		lates = append(lates, float64(sm.late)/1e3)
		if sm.failed {
			l.failed++
			continue
		}
		l.seen++
		gaps = append(gaps, float64(sm.gap)/1e3)
		if sm.hook {
			hooks++
		}
	}
	sort.Float64s(gaps)
	sort.Float64s(lates)
	l.gapP99 = percentile(gaps, 0.99)
	l.lateP99 = percentile(lates, 0.99)
	if l.seen > 0 {
		l.hookSeen = float64(hooks) / float64(l.seen)
	}

	blocks := w.blocks(spec.Limit)
	l.blocks = len(blocks)
	over := func(f func(b block) float64) float64 {
		v := make([]float64, len(blocks))
		for i, b := range blocks {
			v[i] = f(b)
		}
		return median(v)
	}
	l.p50 = over(func(b block) float64 { return percentile(b.lat, 0.5) })
	l.p95 = over(func(b block) float64 { return percentile(b.lat, 0.95) })
	l.p99 = over(func(b block) float64 { return percentile(b.lat, 0.99) })
	onTime, ops := 0, 0
	for _, b := range blocks {
		onTime, ops = onTime+b.onTime, ops+b.ops
	}
	l.onTimePooled = float64(onTime) / float64(max(ops, 1))
	l.onTime = over(func(b block) float64 { return float64(b.onTime) / float64(max(b.ops, 1)) })
	l.bytesPerOp = over(func(b block) float64 { return float64(b.to.bytes-b.from.bytes) / float64(max(b.ops, 1)) })
	l.cpuPerOpUS = over(func(b block) float64 { return float64(b.to.cpu-b.from.cpu) / 1e3 / float64(max(b.ops, 1)) })
	l.opsPerSec = over(func(b block) float64 { return float64(b.ops) / b.to.at.Sub(b.from.at).Seconds() })
	l.coresBusy = over(func(b block) float64 { return (b.to.cpu - b.from.cpu).Seconds() / b.to.at.Sub(b.from.at).Seconds() })
	return l
}

// config is what a run needs besides its workload; tests shrink it.
type config struct {
	seed      int64
	seconds   float64
	setupReps int
	replayOps int // 0: the workload's replay length, scaled with seconds
}

func (c config) measure() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }
func (c config) warm() time.Duration    { return time.Duration(warmShare * float64(c.measure())) }

// setUp performs cfg.setupReps complete set-ups, tearing down all but
// the last, and returns the kept rig with the median set-up time.
func setUp(spec *workloadSpec, cfg config, traced bool) (*rig, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		r, err := buildRig(spec, cfg.seed, traced)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, r.setup.Seconds())
		if i+1 >= cfg.setupReps {
			return r, median(times), nil
		}
		r.close()
	}
}

// runTimed is the `--trace 0` run: end-to-end metrics with the
// program's own tracer off.
func runTimed(spec *workloadSpec, cfg config) (*runResult, error) {
	res := &runResult{Workload: spec.Name, Seed: cfg.seed, Seconds: cfg.seconds,
		InputCRC: fingerprint(spec, cfg.seed)}
	r, setupS, err := setUp(spec, cfg, false)
	if err != nil {
		return nil, err
	}
	defer r.close()
	w, err := r.drive(cfg.seed, cfg.warm(), cfg.measure())
	if err != nil {
		return nil, err
	}
	l := summarise(spec, w)
	if err := r.oracle(); err != nil {
		res.Notes = append(res.Notes, "oracle: "+err.Error())
	} else {
		res.Correct = true
	}
	res.Attempted, res.Failed, res.Samples = l.attempted, l.failed, l.seen
	res.Metrics = map[string]float64{
		"setup_s":                setupS,
		"glass_p50_us":           l.p50,
		"glass_p95_us":           l.p95,
		"glass_p99_us":           l.p99,
		"wire_bytes_per_op":      l.bytesPerOp,
		"cpu_us_per_op":          l.cpuPerOpUS,
		"on_time_ratio":          l.onTime,
		"heap_bytes_per_session": float64(r.heapSessions) / float64(spec.Sessions),
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"medians over %d blocks of %d samples; trusted tail p%.0f; %.1f ops/s; %.2f cores busy; "+
			"on time pooled %.4f; hook saw %.4f; check gap p99 %.0f us; late p99 %.0f us",
		l.blocks, l.seen/max(l.blocks, 1), 100*trustedTail(l.seen/max(l.blocks, 1)),
		l.opsPerSec, l.coresBusy, l.onTimePooled, l.hookSeen, l.gapP99, l.lateP99))
	return res, nil
}
