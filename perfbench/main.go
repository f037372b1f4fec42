// Command perfbench is the serving benchmark of this repository. It builds
// UGache deployments through core.Build, serves them through
// serve.Server.Handle or cluster.Front.Lookup, re-solves them through
// core.System.Refresh, and reports end-to-end and per-layer metrics for
// one workload per run. See README.md for the workloads, the metrics and
// how to read the traced ledger.
//
//	perfbench --workload serve-hot --seed 1 --seconds 10 --trace 0
//	perfbench --workload serve-hot --repeat 5     # spread per metric vs bounds
//	perfbench --quick                             # every workload, short, all checks
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (end-to-end with --trace 0, per-layer with --trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames())
		seed    = flag.Uint64("seed", 1, "input seed; equal seeds give equal inputs")
		seconds = flag.Float64("seconds", 20, "measured seconds per run (closed-loop plus open-loop phases)")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics; 0 = end-to-end metrics")
		quick   = flag.Bool("quick", false, "run every workload briefly with every check on; exit 1 on any failure")
		repeat  = flag.Int("repeat", 0, "run the workload (or all, when --workload is empty) this many times with seeds 1..k and print each metric's median, quartiles and spread against BENCHMARK.json")
	)
	flag.Parse()
	switch {
	case *quick:
		os.Exit(runQuick())
	case *repeat > 0:
		if err := runRepeat(*name, *repeat, *seconds, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	s, err := specByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	rep, err := run(s, options{seed: *seed, seconds: *seconds, traced: *trace == 1, setups: setupRuns})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	if !rep.Correct {
		os.Exit(1)
	}
}

// setupRuns is how many times a run sets its deployment up; setup_s is
// the median.
const setupRuns = 5

func workloadNames() string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return fmt.Sprint(names)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's result. The JSON form is the benchmark's contract
// line; Facts and Checks are printed above it for people.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	facts  [][2]string
	checks []string // failed correctness checks
	extra  map[string]metric
}

func (r *report) fact(k, format string, args ...any) {
	r.facts = append(r.facts, [2]string{k, fmt.Sprintf(format, args...)})
}

func (r *report) fail(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
	r.Correct = false
}

func (r *report) print(w io.Writer) {
	for _, f := range r.facts {
		fmt.Fprintf(w, "%-28s %s\n", f[0], f[1])
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-28s %.6g %s\n", n, m.Value, m.Unit)
	}
	names = names[:0]
	for n := range r.extra {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.extra[n]
		fmt.Fprintf(w, "%-28s %.6g %s (not in this mode's result)\n", n, m.Value, m.Unit)
	}
	for _, c := range r.checks {
		fmt.Fprintln(w, "CHECK FAILED:", c)
	}
	line, _ := json.Marshal(r)
	fmt.Fprintln(w, string(line))
}

// hostFacts records what the run ran on, so a run disturbed by the host
// or measured on another toolchain shows as such.
func hostFacts(r *report) {
	r.fact("host.nproc", "%d", runtime.NumCPU())
	r.fact("host.gomaxprocs", "%d", runtime.GOMAXPROCS(0))
	r.fact("host.go", "%s %s/%s", runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
