// Command thinc-bench regenerates the tables and figures of the paper's
// evaluation (§8) from the simulated testbed: web page latency and data
// (Figures 2-3), remote-site web performance (Figure 4), A/V quality
// and data (Figures 5-6), remote-site A/V (Figure 7), and the ablation
// studies of THINC's design choices.
//
// Usage:
//
//	thinc-bench                  # full paper-scale run (54 pages, 34.75s clip)
//	thinc-bench -quick           # shortened workloads for a fast look
//	thinc-bench -fig 5           # one figure only
//	thinc-bench -pages 9 -seconds 5
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"thinc/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 2|3|4|5|6|7|ablations|all")
	pages := flag.Int("pages", 0, "web pages per run (0 = full 54-page benchmark)")
	seconds := flag.Float64("seconds", 0, "A/V clip seconds (0 = full 34.75s clip)")
	quick := flag.Bool("quick", false, "shortcut for -pages 9 -seconds 5")
	flag.Parse()

	if *quick {
		if *pages == 0 {
			*pages = 9
		}
		if *seconds == 0 {
			*seconds = 5
		}
	}

	start := time.Now()
	s := bench.NewSuite(*pages, *seconds)
	var tables []*bench.Table
	switch *fig {
	case "2":
		tables = append(tables, s.Fig2())
	case "3":
		tables = append(tables, s.Fig3())
	case "4":
		tables = append(tables, s.Fig4())
	case "5":
		tables = append(tables, s.Fig5())
	case "6":
		tables = append(tables, s.Fig6())
	case "7":
		tables = append(tables, s.Fig7())
	case "ablations":
		tables = append(tables, s.Ablations())
	case "all":
		tables = s.AllTables()
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
	}
	for _, t := range tables {
		fmt.Println(t.String())
	}
	fmt.Printf("completed in %v\n", time.Since(start).Round(time.Millisecond))
}
