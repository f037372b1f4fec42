package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// quickSeconds is the measured length of each workload in quick mode.
const quickSeconds = 2

// runQuick runs every workload once, briefly and traced (so the ledger and
// both open-loop passes are exercised), with every correctness check on.
// It returns the process exit code.
func runQuick() int {
	code := 0
	for _, s := range specs {
		rep, err := run(s, options{seed: 1, seconds: quickSeconds, traced: true, setups: 2})
		switch {
		case err != nil:
			fmt.Printf("FAIL %-14s %v\n", s.name, err)
			code = 1
		case !rep.Correct || rep.Failed > 0:
			fmt.Printf("FAIL %-14s %d/%d failed; checks: %s\n", s.name, rep.Failed, rep.Attempted, strings.Join(rep.checks, "; "))
			code = 1
		default:
			fmt.Printf("ok   %-14s %d requests, model_ms %.6g, p50_ms %.4g\n", s.name, rep.Attempted,
				rep.extra["model_ms"].Value, rep.extra["p50_ms"].Value)
		}
	}
	return code
}

// benchFile is the part of BENCHMARK.json the repeat mode reads.
type benchFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runRepeat runs the named workload (every workload when name is empty) k
// times as child processes with seeds 1..k and prints, per metric, the
// median, the quartiles as Python's statistics.quantiles(n=4) computes
// them, and the quartile and min/max spreads as shares of the median next
// to the metric's bound from BENCHMARK.json (read from the working
// directory when present).
func runRepeat(name string, k int, seconds float64, traced bool) error {
	bounds := map[string]float64{}
	if raw, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bf benchFile
		if err := json.Unmarshal(raw, &bf); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range bf.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := []string{name}
	if name == "" {
		names = nil
		for _, s := range specs {
			names = append(names, s.name)
		}
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	for _, w := range names {
		values := map[string][]float64{}
		units := map[string]string{}
		var failShares []float64
		for seed := 1; seed <= k; seed++ {
			cmd := exec.Command(self, "--workload", w, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var rep report
			if err := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1]))).Decode(&rep); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", w, seed, err)
			}
			if !rep.Correct {
				return fmt.Errorf("%s seed %d: incorrect", w, seed)
			}
			failShares = append(failShares, float64(rep.Failed)/float64(rep.Attempted))
			for n, m := range rep.Metrics {
				values[n] = append(values[n], m.Value)
				units[n] = m.Unit
			}
		}
		fmt.Printf("%s: %d runs, seconds %g, trace %s, failed shares %v\n", w, k, seconds, trace, failShares)
		fmt.Printf("  %-30s %12s %12s %12s %8s %8s %6s %s\n", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound", "")
		metrics := make([]string, 0, len(values))
		for n := range values {
			metrics = append(metrics, n)
		}
		sort.Strings(metrics)
		for _, n := range metrics {
			xs := values[n]
			q1, med, q3 := pyQuartiles(xs)
			lo, hi := minMax(xs)
			iqr, rng := ratio(q3-q1, abs(med)), ratio(hi-lo, abs(med))
			verdict, bound := "", ""
			if b, ok := bounds[n]; ok {
				bound = strconv.FormatFloat(b, 'g', -1, 64)
				verdict = "steady (iqr < bound/3)"
				if n != "setup_s" && iqr > b {
					verdict = "OUTSIDE BOUND"
				} else if iqr >= b/3 {
					verdict = "iqr >= bound/3"
				}
			}
			fmt.Printf("  %-30s %12.6g %12.6g %12.6g %8.4f %8.4f %6s %s %s\n", n, med, q1, q3, iqr, rng, bound, units[n], verdict)
		}
	}
	return nil
}

// pyQuartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method).
func pyQuartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		if len(s) == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
