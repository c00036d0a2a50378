// Command benchmark is the repo's benchmark: it drives the real
// server.Host / server.Fleet and real client.Conn in one process and
// measures, from outside the program, when each update is on the
// client's glass, what it cost in bytes and CPU, and — in a separate
// traced pass — what each pipeline layer spent. See README.md.
//
//	go run ./benchmark -seed 1                 every workload, timed then traced
//	go run ./benchmark -workload web -trace 0  one timed run
//	go run ./benchmark -compare a.json b.json  judge two result files
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

func main() {
	workload := flag.String("workload", "", "run one workload (default: all): "+workloadNames())
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Float64("seconds", 20, "measured seconds per timed run")
	trace := flag.Int("trace", -1, "0: timed run only; 1: traced passes only; default both")
	traceOut := flag.String("trace-out", "", "write the staged replay's spans to this file as NDJSON")
	out := flag.String("out", "", "append every run's result to this JSON file (input of -compare)")
	compare := flag.Bool("compare", false, "compare two result files: -compare base.json new.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two result files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	// Two cores, whatever the machine: server, client and harness share
	// them the way a small deployment would, and runs stay comparable.
	runtime.GOMAXPROCS(2)
	fmt.Printf("env go=%s nproc=%d gomaxprocs=%d seed=%d seconds=%g\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), *seed, *seconds)

	specs := workloads
	if *workload != "" {
		spec := findWorkload(*workload)
		if spec == nil {
			fatal(fmt.Errorf("unknown workload %q (have %s)", *workload, workloadNames()))
		}
		specs = []workloadSpec{*spec}
	}
	cfg := config{seed: *seed, seconds: *seconds, setupReps: 3}
	var results []*runResult
	var spans []span
	for i := range specs {
		if *trace != 1 {
			res, err := runTimed(&specs[i], cfg)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", specs[i].Name, err))
			}
			report(os.Stdout, res, endToEnd)
			results = append(results, res)
		}
		if *trace != 0 {
			res, sp, err := runTraced(&specs[i], cfg)
			if err != nil {
				fatal(fmt.Errorf("%s traced: %w", specs[i].Name, err))
			}
			report(os.Stdout, res, perLayer)
			results = append(results, res)
			spans = append(spans, sp...)
		}
	}
	if *traceOut != "" {
		if err := writeSpans(*traceOut, spans); err != nil {
			fatal(err)
		}
	}
	if *out != "" {
		if err := appendResults(*out, results); err != nil {
			fatal(err)
		}
	}
	for _, res := range results {
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// report prints every metric of a run by name with its unit, then the
// one-line JSON object the benchmark contract asks for. Metrics that
// did not come out finite (no successful op) make the run incorrect
// rather than the line unparseable.
func report(w io.Writer, res *runResult, specs []metricSpec) {
	want := recordedFingerprint(res.Workload, res.Seed)
	switch {
	case want == "":
		fmt.Fprintf(w, "%s input_crc %s\n", res.Workload, res.InputCRC)
	case want == res.InputCRC:
		fmt.Fprintf(w, "%s input_crc %s (as recorded)\n", res.Workload, res.InputCRC)
	default:
		fmt.Fprintf(w, "%s input_crc %s DIFFERS from recorded %s: what is drawn changed; "+
			"do not compare with earlier results\n", res.Workload, res.InputCRC, want)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, m := range specs {
		v, ok := res.Metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct, line.Correct = false, false
			res.Notes = append(res.Notes, "metric "+m.Name+" is missing or not finite")
			v = 0
		}
		fmt.Fprintf(w, "%s %s %.4f %s\n", res.Workload, m.Name, v, m.Unit)
		line.Metrics[m.Name] = value{v, m.Unit}
	}
	fmt.Fprintf(w, "%s attempted_ops %d failed_ops %d failed_ratio %.6f samples %d\n", res.Workload,
		res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)), res.Samples)
	for _, n := range res.Notes {
		fmt.Fprintf(w, "%s note: %s\n", res.Workload, n)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err) // finite floats and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", b)
}
