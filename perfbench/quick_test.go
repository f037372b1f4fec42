package main

import (
	"math"
	"testing"
)

// TestQuick is the benchmark's own test: every workload, briefly and
// traced, with every correctness check on and no failed request.
func TestQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a few seconds")
	}
	for _, s := range specs {
		rep, err := run(s, options{seed: 1, seconds: quickSeconds, traced: true, setups: 1})
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if !rep.Correct || rep.Failed > 0 {
			t.Errorf("%s: %d of %d failed; checks %v", s.name, rep.Failed, rep.Attempted, rep.checks)
		}
		if len(rep.Metrics) == 0 || len(rep.extra) == 0 {
			t.Errorf("%s: no metrics", s.name)
		}
	}
}

// TestModelReplayRepeats checks that the modelled metric is a function of
// the inputs alone: two replays of the same seed agree exactly.
func TestModelReplayRepeats(t *testing.T) {
	s, err := specByName("serve-hot")
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for i := 0; i < 2; i++ {
		in, err := s.makeInputs(3, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.build(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := replay(st, in)
		st.close()
		if err != nil {
			t.Fatal(err)
		}
		if rp.checkErr != nil {
			t.Fatal(rp.checkErr)
		}
		got = append(got, rp.modelMs)
	}
	if got[0] != got[1] || got[0] <= 0 {
		t.Fatalf("model_ms %v, want two equal positive values", got)
	}
}

// TestPyQuartiles pins the quartiles to Python's statistics.quantiles(n=4).
func TestPyQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		q1, q2, q3 := pyQuartiles(c.xs)
		for i, v := range []float64{q1, q2, q3} {
			if math.Abs(v-c.want[i]) > 1e-12 {
				t.Errorf("pyQuartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
				break
			}
		}
	}
}
