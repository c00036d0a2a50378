package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"sort"
	"strings"
)

// fingerprints.json records input_crc per workload for seed 1; a run
// with that seed says so loudly when what is drawn no longer matches.
//
//go:embed fingerprints.json
var fingerprintsJSON []byte

func recordedFingerprint(workload string, seed int64) string {
	if seed != 1 {
		return ""
	}
	var recorded map[string]string
	if err := json.Unmarshal(fingerprintsJSON, &recorded); err != nil {
		return ""
	}
	return recorded[workload]
}

// resultFile is what -out writes and -compare reads: every run made,
// appended across invocations so one file can hold a set of runs.
type resultFile struct {
	Schema string            `json:"schema"`
	Env    map[string]string `json:"env"`
	Runs   []*runResult      `json:"runs"`
}

const resultSchema = "thinc-benchmark/v1"

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	return &f, nil
}

func appendResults(path string, runs []*runResult) error {
	f, err := readResults(path)
	if errors.Is(err, fs.ErrNotExist) {
		f, err = &resultFile{Schema: resultSchema}, nil
	}
	if err != nil {
		return err
	}
	f.Env = map[string]string{"go": runtime.Version(),
		"nproc": fmt.Sprint(runtime.NumCPU()), "gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0))}
	f.Runs = append(f.Runs, runs...)
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// verdicts of -compare.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares the runs of one metric. The change is the share of
// the base median by which the new median is worse (negative: better).
// When either side's run-to-run spread (interquartile range over
// median, needing four runs) exceeds the bound the metric cannot
// resolve a change of that size: unresolved, unless every new run beats
// every base run.
func judge(m metricSpec, base, cur []float64) (verdict string, baseMed, curMed, change, spread float64) {
	baseMed, curMed = median(base), median(cur)
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	if baseMed != 0 {
		change = sign * (curMed - baseMed) / baseMed
	}
	spread = max(iqrShare(base), iqrShare(cur))
	switch {
	case spread > m.Bound:
		if allBetter(sign, base, cur) {
			return verdictOK, baseMed, curMed, change, spread
		}
		return verdictUnresolved, baseMed, curMed, change, spread
	case change > m.Bound:
		return verdictWorse, baseMed, curMed, change, spread
	}
	return verdictOK, baseMed, curMed, change, spread
}

// iqrShare is the interquartile range as a share of the median; 0 with
// fewer than four values, where quartiles mean nothing.
func iqrShare(v []float64) float64 {
	if len(v) < 4 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	med := percentile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (percentile(s, 0.75) - percentile(s, 0.25)) / med
}

func allBetter(sign float64, base, cur []float64) bool {
	for _, c := range cur {
		for _, b := range base {
			if sign*(c-b) >= 0 {
				return false
			}
		}
	}
	return true
}

// compareFiles prints, per workload and end-to-end metric, both
// medians, the relative change with its base, the bound and a verdict.
// It reports whether anything was worse. Results whose inputs differ
// (input_crc) are never comparable.
func compareFiles(w io.Writer, basePath, curPath string) (worse bool, err error) {
	base, err := readResults(basePath)
	if err != nil {
		return false, err
	}
	cur, err := readResults(curPath)
	if err != nil {
		return false, err
	}
	timed := func(f *resultFile, workload string) (runs []*runResult, crcs []string) {
		seen := map[string]bool{}
		for _, r := range f.Runs {
			if r.Workload == workload && r.Trace == 0 {
				runs = append(runs, r)
				if key := fmt.Sprintf("%s@seed%d", r.InputCRC, r.Seed); !seen[key] {
					seen[key] = true
					crcs = append(crcs, key)
				}
			}
		}
		sort.Strings(crcs)
		return runs, crcs
	}
	fmt.Fprintf(w, "%-12s %-24s %14s %14s %9s %7s %7s  %s\n",
		"workload", "metric", "base", "new", "change", "bound", "spread", "verdict")
	for _, spec := range workloads {
		b, bcrc := timed(base, spec.Name)
		c, ccrc := timed(cur, spec.Name)
		if len(b) == 0 || len(c) == 0 {
			continue
		}
		if strings.Join(bcrc, ",") != strings.Join(ccrc, ",") {
			fmt.Fprintf(w, "%-12s inputs differ (%s vs %s): %s\n", spec.Name,
				strings.Join(bcrc, ","), strings.Join(ccrc, ","), verdictUnresolved)
			continue
		}
		column := func(runs []*runResult, name string) []float64 {
			var v []float64
			for _, r := range runs {
				v = append(v, r.Metrics[name])
			}
			return v
		}
		for _, m := range endToEnd {
			verdict, bm, cm, change, spread := judge(m, column(b, m.Name), column(c, m.Name))
			fmt.Fprintf(w, "%-12s %-24s %14.3f %14.3f %+8.1f%% %6.0f%% %6.1f%%  %s\n",
				spec.Name, m.Name, bm, cm, 100*change, 100*m.Bound, 100*spread, verdict)
			worse = worse || verdict == verdictWorse
		}
		fail := func(runs []*runResult) (failed, attempted int) {
			for _, r := range runs {
				failed, attempted = failed+r.Failed, attempted+r.Attempted
			}
			return
		}
		bf, ba := fail(b)
		cf, ca := fail(c)
		verdict := verdictOK
		if float64(cf)*float64(ba) > float64(bf)*float64(ca) { // any increase in failed/attempted
			verdict, worse = verdictWorse, true
		}
		fmt.Fprintf(w, "%-12s %-24s %9d/%-6d %7d/%-6d %33s  %s\n", spec.Name, "failed_ops",
			bf, ba, cf, ca, "any increase", verdict)
	}
	return worse, nil
}
