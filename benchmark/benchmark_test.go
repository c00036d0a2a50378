package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"thinc/internal/fb"
	"thinc/internal/geom"
)

// TestBenchmarkJSONMirrorsTables keeps BENCHMARK.json and the Go tables
// that the command actually prints from saying different things.
func TestBenchmarkJSONMirrorsTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, table {%s %s}", i, doc.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the command %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json {%s %s %s}, table {%s %s %s}", kind, i,
					g.Name, g.Unit, g.Better, m.Name, m.Unit, m.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != m.Bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match %v", kind, m.Name, m.Bound)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}

// smokeSeconds is about 1 % of a real run's ops per workload.
var smokeSeconds = map[string]float64{
	"interactive": 0.25, "web": 0.4, "web_wan": 0.4, "video": 0.3, "fleet": 0.25,
}

// TestWorkloadsSmoke runs every workload at about 1 % of its length
// twice with one seed, once timed and once traced: same input
// fingerprint, the convergence oracle passes, and every metric
// BENCHMARK.json names is there and finite. The fleet is cut to 8
// sessions; the sharded driver does not care how many it carries.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		spec := w
		spec.Sessions = min(spec.Sessions, 8)
		t.Run(spec.Name, func(t *testing.T) {
			cfg := config{seed: 7, seconds: smokeSeconds[spec.Name], setupReps: 1, replayOps: 3}
			timed, err := runTimed(&spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			finite(t, timed, endToEnd)
			if !timed.Correct {
				t.Errorf("oracle failed: %v", timed.Notes)
			}
			if timed.Attempted < 1 {
				t.Errorf("attempted %d ops", timed.Attempted)
			}
			res, spans, err := runTraced(&spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			finite(t, res, perLayer)
			if !res.Correct {
				t.Errorf("traced run incorrect: %v", res.Notes)
			}
			if res.InputCRC != timed.InputCRC {
				t.Errorf("input_crc %s timed, %s traced, with one seed", timed.InputCRC, res.InputCRC)
			}
			if r := res.Metrics["replay.stage_sum_ratio"]; r < 0.95 || r > 1 {
				t.Errorf("stage self times sum to %.3f of the op roots, want within 5%%", r)
			}
			roots := 0
			for _, s := range spans {
				if s.Name == "" || s.End < s.Start || (s.Parent == 0) != (s.Name == "op" || s.Name == stDigest) {
					t.Fatalf("malformed span %+v", s)
				}
				if s.Name == "op" {
					roots++
				}
			}
			if roots != cfg.replayOps {
				t.Errorf("%d root spans for %d replayed ops", roots, cfg.replayOps)
			}
		})
	}
}

func finite(t *testing.T, res *runResult, specs []metricSpec) {
	t.Helper()
	for _, m := range specs {
		v, ok := res.Metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: metric %s missing or not finite (%v)", res.Workload, m.Name, v)
		}
	}
}

func TestFingerprintFollowsTheSeed(t *testing.T) {
	spec := findWorkload("interactive")
	a := fingerprint(spec, 1)
	if b := fingerprint(spec, 1); a != b {
		t.Errorf("same seed: %s then %s", a, b)
	}
	if c := fingerprint(spec, 2); a == c {
		t.Errorf("seeds 1 and 2 share fingerprint %s", a)
	}
}

func TestPercentileAndTrustedTail(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0.5: 50, 0.95: 95, 0.99: 99, 1: 100, 0: 1} {
		if got := percentile(v, q); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", q, got, want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
	// The highest percentile with at least ten samples beyond it.
	for n, want := range map[int]float64{32000: 0.99, 1000: 0.99, 999: 0.95, 270: 0.95, 200: 0.95, 199: 0.5, 5: 0.5} {
		if got := trustedTail(n); got != want {
			t.Errorf("trustedTail(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.flush", Start: 10, End: 60},
		{ID: 3, Parent: 2, Name: "compress.encode", Start: 10, End: 40, Remeasured: true},
		{ID: 4, Parent: 1, Name: "client.apply", Start: 60, End: 95},
		// A re-measured child that ran longer than its parent is clipped to it.
		{ID: 5, Parent: 4, Name: "compress.decode", Start: 60, End: 120, Remeasured: true},
		// Overlapping children count the shared part once.
		{ID: 6, Parent: 0, Name: "op", Start: 200, End: 300},
		{ID: 7, Parent: 6, Name: "a", Start: 210, End: 250},
		{ID: 8, Parent: 6, Name: "b", Start: 240, End: 260},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 15, 2: 20, 3: 30, 4: 0, 5: 60, 6: 50, 7: 40, 8: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
	if got := selfByName(spans)["op"]; got != 65 {
		t.Errorf("op self by name %d, want 65", got)
	}
}

func TestRecorderClockStopsOffClock(t *testing.T) {
	r := newRecorder("w")
	id := r.begin("op", 0, 0)
	r.offClock(func() { time.Sleep(20 * time.Millisecond) })
	r.end(id)
	if d := time.Duration(r.spans[0].dur()); d > 10*time.Millisecond {
		t.Errorf("span charged %v of off-clock time", d)
	}
	r.remeasured("child", id, 5)
	if c := r.spans[1]; c.Parent != id || c.Start != r.spans[0].Start || c.dur() != 5 || !c.Remeasured {
		t.Errorf("re-measured child %+v", c)
	}
}

func TestLatticeCoversCornersAndBlocks(t *testing.T) {
	screen := fb.New(1024, 768)
	for _, r := range []geom.Rect{geom.XYWH(16, 640, 480, 14), geom.XYWH(0, 0, 1024, 768), geom.XYWH(5, 5, 3, 3)} {
		got := map[int32]bool{}
		for _, p := range lattice(nil, screen, r) {
			got[p.idx] = true
		}
		for _, c := range [][2]int{{r.X0, r.Y0}, {r.X1 - 1, r.Y0}, {r.X0, r.Y1 - 1}, {r.X1 - 1, r.Y1 - 1}} {
			if !got[int32(c[1]*1024+c[0])] {
				t.Errorf("%v: corner %v has no probe", r, c)
			}
		}
		// Every 32x32 block inside the rectangle holds a probe.
		for y := r.Y0; y+32 <= r.Y1; y += 7 {
			for x := r.X0; x+32 <= r.X1; x += 7 {
				found := false
				for yy := y; yy < y+32 && !found; yy++ {
					for xx := x; xx < x+32; xx++ {
						if got[int32(yy*1024+xx)] {
							found = true
							break
						}
					}
				}
				if !found {
					t.Fatalf("%v: block at (%d,%d) has no probe", r, x, y)
				}
			}
		}
	}
	if n := len(lattice(nil, screen, geom.XYWH(2000, 0, 10, 10))); n != 0 {
		t.Errorf("off-screen rectangle got %d probes", n)
	}
}

func TestSleeperDoesNotWakeEarly(t *testing.T) {
	s, err := newSleeper()
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	for i := 0; i < 20; i++ {
		due := time.Now().Add(300 * time.Microsecond)
		s.until(due)
		if time.Now().Before(due) {
			t.Fatal("woke before the deadline")
		}
	}
	s.until(time.Now().Add(-time.Second)) // a past deadline returns at once
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "glass_p50_us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "on_time_ratio", Better: "higher", Bound: 0.02}
	steady := []float64{100, 101, 99, 100, 100}
	noisy := []float64{100, 140, 70, 125, 90}
	cases := []struct {
		name      string
		m         metricSpec
		base, cur []float64
		want      string
	}{
		{"same", lower, steady, steady, verdictOK},
		{"within bound", lower, steady, []float64{108, 109, 107, 108, 108}, verdictOK},
		{"past bound", lower, steady, []float64{112, 113, 111, 112, 112}, verdictWorse},
		{"better", lower, steady, []float64{50, 51, 49, 50, 50}, verdictOK},
		{"single runs past bound", lower, []float64{100}, []float64{120}, verdictWorse},
		{"spread wider than bound", lower, noisy, noisy, verdictUnresolved},
		{"noisy but every run better", lower, noisy, []float64{40, 60, 30, 50, 45}, verdictOK},
		{"higher is better, fell", higher, []float64{1, 1, 1, 1}, []float64{0.97, 0.97, 0.97, 0.97}, verdictWorse},
		{"higher is better, rose", higher, []float64{0.9, 0.9, 0.9, 0.9}, []float64{1, 1, 1, 1}, verdictOK},
	}
	for _, c := range cases {
		if got, _, _, _, _ := judge(c.m, c.base, c.cur); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64, failed int, crc string) string {
		var runs []*runResult
		for i := 0; i < 4; i++ {
			m := map[string]float64{}
			for _, spec := range endToEnd {
				m[spec.Name] = 10
			}
			m["glass_p50_us"] = p50 + float64(i)
			runs = append(runs, &runResult{Workload: "web", Seed: 1, Correct: true,
				Attempted: 100, Failed: failed, InputCRC: crc, Metrics: m})
		}
		path := filepath.Join(dir, name)
		if err := appendResults(path, runs[:2]); err != nil {
			t.Fatal(err)
		}
		if err := appendResults(path, runs[2:]); err != nil { // a second invocation appends
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 1000, 0, "aaaa")
	for _, c := range []struct {
		name, path, want string
		worse            bool
	}{
		{"same", write("same.json", 1000, 0, "aaaa"), "glass_p50_us", false},
		{"slower", write("slow.json", 1300, 0, "aaaa"), verdictWorse, true},
		{"failing", write("fail.json", 1000, 1, "aaaa"), "failed_ops", true},
		{"other inputs", write("crc.json", 1300, 0, "bbbb"), "inputs differ", false},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, base, c.path)
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: worse=%v, output lacks %q:\n%s", c.name, worse, c.want, out.String())
		}
	}
	if _, err := compareFiles(&bytes.Buffer{}, base, filepath.Join(dir, "absent.json")); err == nil {
		t.Error("comparing against a missing file should fail")
	}
}

// TestRecordedFingerprints fails when what the seed-1 scripts draw no
// longer matches fingerprints.json: an edit to internal/workload or
// internal/xserver changed the benchmark's inputs, and the file must be
// re-recorded (and earlier results no longer compared).
func TestRecordedFingerprints(t *testing.T) {
	for i := range workloads {
		spec := &workloads[i]
		got := fingerprint(spec, 1)
		if want := recordedFingerprint(spec.Name, 1); got != want {
			t.Errorf("%s: input_crc %s, fingerprints.json records %s", spec.Name, got, want)
		}
	}
}
