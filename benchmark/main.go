// Command benchmark is the repository's benchmark: it drives the
// production assembly (ixp.Build, the bgppipe listen and rsfeed stages,
// the engine) from outside, through public functions only, and prints
// every metric BENCHMARK.json names. See README.md.
//
//	go run -C benchmark . --workload wire_signal --seed 1 --seconds 10 --trace 0
//	go run -C benchmark . -repeat 10 -json a.json     (every workload, ten seeds)
//	go run -C benchmark . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (default: all of them)")
		seed     = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 10, "how long one run measures")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced run")
		traceOut = flag.String("trace-out", "", "with -trace 1: write the spans to FILE as JSON lines")
		jsonOut  = flag.String("json", "", "write every run's report to FILE, the input of -compare")
		repeat   = flag.Int("repeat", 1, "run each workload N times, on seeds seed..seed+N-1, and print medians and quartiles")
		compare  = flag.Bool("compare", false, "compare two -json files given as arguments against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two -json files"))
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
	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []*workload{w}
	}
	if *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need -seconds > 0, -repeat >= 1, -trace 0 or 1"))
	}
	var reports []*report
	failed := false
	for _, w := range selected {
		for i := 0; i < *repeat; i++ {
			var rep *report
			var err error
			if *trace == 1 {
				rep, err = perLayer(w, *seed+uint64(i), *seconds, false, *traceOut)
			} else {
				rep, err = endToEnd(w, *seed+uint64(i), *seconds, false)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				failed = true
			}
			if rep == nil {
				continue
			}
			reports = append(reports, rep)
			printReport(rep)
		}
	}
	if *repeat > 1 {
		printSpread(os.Stdout, reports)
	}
	if *jsonOut != "" {
		b, err := json.MarshalIndent(reports, "", " ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// printReport prints one run for a reader and then, as the last line,
// the one JSON object the driver parses.
func printReport(rep *report) {
	fmt.Printf("# %s seed %d trace %v\n", rep.Workload, rep.Seed, rep.Trace)
	for _, n := range rep.Notes {
		fmt.Println("#", n)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
}
