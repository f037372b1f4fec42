package main

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"ugache/internal/cluster"
	"ugache/internal/serve"
)

// sampleEvery picks the requests whose rows are kept and checked byte for
// byte after the phase: request i is sampled when i%sampleEvery == 0.
const sampleEvery = 61

// completion is one finished request as the collector sees it.
type completion struct {
	idx  int
	done time.Time
	err  error
	rows []byte // kept for sampled requests only
	// local and remote split a cluster lookup's keys; -1 on one node.
	local, remote int
}

// submit sends request i without blocking the caller. A short-lived waiter
// goroutine receives the reply and stamps its completion time, so the
// stamp is taken when the reply arrives, not when the collector gets to it.
// A sampled reply's rows are copied: they share one allocation with every
// reply of their batch, which must not outlive the phase.
func (st *stack) submit(in *inputs, i int, out chan<- completion) {
	keys := in.req(i)
	node, gpu := in.route(i)
	keep := i%sampleEvery == 0
	if st.front == nil {
		ch := st.srv[node].Handle(gpu, keys)
		go func() {
			r := <-ch
			c := completion{idx: i, done: time.Now(), err: r.Err, local: -1, remote: -1}
			if keep {
				c.rows = append([]byte(nil), r.Rows...)
			}
			out <- c
		}()
		return
	}
	go func() {
		r := st.front.Lookup(node, gpu, keys)
		c := completion{idx: i, done: time.Now(), err: r.Err, local: r.LocalKeys, remote: r.RemoteKeys}
		if keep {
			c.rows = append([]byte(nil), r.Rows...)
		}
		out <- c
	}()
}

// tally is what the collector counted in one phase.
type tally struct {
	sent, served, failed int
	shed, partial        int
	firstErr             error
	splitErr             error // a cluster lookup whose split does not add up
	samples              map[int]sample
	lookupsWithLocal     int // cluster lookups that sent a local leg
	lookupsWithRemote    int // cluster lookups that sent a cross-node leg
}

// sample is one kept reply: its rows and whether a cross-node leg
// contributed to them.
type sample struct {
	rows   []byte
	remote bool
}

func (t *tally) add(in *inputs, c completion) {
	if c.err != nil {
		t.failed++
		switch {
		case errors.Is(c.err, cluster.ErrPartial):
			t.partial++
		case errors.Is(c.err, serve.ErrOverload):
			t.shed++
		}
		if t.firstErr == nil {
			t.firstErr = fmt.Errorf("request %d: %w", c.idx, c.err)
		}
		return
	}
	t.served++
	if c.local >= 0 {
		if c.local+c.remote != keysPerRequest && t.splitErr == nil {
			t.splitErr = fmt.Errorf("request %d: %d local + %d remote keys, want %d",
				c.idx, c.local, c.remote, keysPerRequest)
		}
		if c.local > 0 {
			t.lookupsWithLocal++
		}
		if c.remote > 0 {
			t.lookupsWithRemote++
		}
	}
	if c.idx%sampleEvery == 0 {
		if t.samples == nil {
			t.samples = make(map[int]sample)
		}
		t.samples[c.idx] = sample{rows: c.rows, remote: c.remote > 0}
	}
}

// openResult is one open-loop phase.
type openResult struct {
	tally
	lat     []float64 // ms from intended send to completion, served requests
	lag     []float64 // ms the generator sent late, every request
	cpu     time.Duration
	mem     memSnap // allocation deltas over the phase
	refresh []refreshStat
	// windows[w] holds the latencies of window w: perWindow consecutive
	// requests by intended send time, the remainder joining the last one.
	windows [][]float64
	// steal[w] is the share of CPU time the hypervisor stole while window w
	// was being sent; -1 if unreadable.
	steal []float64
}

// openLoop offers the whole request sequence at its Poisson send times and
// waits for every reply. onSend, when non-nil, runs on the generator right
// after request i is sent (the drift workload triggers refreshes there).
func openLoop(st *stack, in *inputs, perWindow int, onSend func(i int)) *openResult {
	total := in.requests
	res := &openResult{lag: make([]float64, 0, total)}
	nWin := max(1, total/perWindow)
	windowOf := func(i int) int { return min(i/perWindow, nWin-1) }
	lat := make([]float64, total)
	ok := make([]bool, total)
	out := make(chan completion, 1024)
	collected := make(chan struct{})

	m0, c0 := readMem(), cpuTime()
	start := time.Now()
	go func() {
		defer close(collected)
		for n := 0; n < total; n++ {
			c := <-out
			res.tally.add(in, c)
			if c.err == nil {
				lat[c.idx] = float64(c.done.Sub(start.Add(in.at[c.idx]))) / 1e6
				ok[c.idx] = true
			}
		}
	}()
	var marks []stealMeter
	for i := 0; i < total; i++ {
		if i == 0 || windowOf(i) != windowOf(i-1) {
			marks = append(marks, startSteal())
		}
		due := start.Add(in.at[i])
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		st.submit(in, i, out)
		res.lag = append(res.lag, float64(time.Since(due))/1e6)
		if onSend != nil {
			onSend(i)
		}
	}
	marks = append(marks, startSteal())
	<-collected
	res.cpu = cpuTime() - c0
	m1 := readMem()
	res.mem = memSnap{mallocs: m1.mallocs - m0.mallocs, bytes: m1.bytes - m0.bytes, gcs: m1.gcs - m0.gcs}
	res.sent = total
	for w := 1; w < len(marks); w++ {
		res.steal = append(res.steal, marks[w-1].shareUntil(marks[w]))
	}
	res.windows = make([][]float64, nWin)
	for i, v := range ok {
		if v {
			res.lat = append(res.lat, lat[i])
			res.windows[windowOf(i)] = append(res.windows[windowOf(i)], lat[i])
		}
	}
	return res
}

// closedResult is one closed-loop phase.
type closedResult struct {
	tally
	capacity float64   // calmMedian of the per-window completion rates, 1/s
	windows  []float64 // the per-window completion rates, 1/s
	steal    []float64 // the per-window stolen CPU shares
}

// windowLen is the length of the windows the phases are cut into for the
// calm medians: long enough for 15 requests beyond a window's p99 at the
// benchmark's lowest rate, short enough that a burst of steal spoils few.
const windowLen = 250 * time.Millisecond

// closedLoop keeps window requests outstanding for dur, cycling through the
// request sequence, and reports completions per second. The first fifth of
// the phase warms up; the rest is cut into windows of about windowLen and
// the capacity is the calmMedian of their completion rates.
func closedLoop(st *stack, in *inputs, dur time.Duration) *closedResult {
	res := &closedResult{}
	warm := dur / 5
	capWindows := max(3, int((dur-warm)/windowLen))
	span := (dur - warm) / time.Duration(capWindows)
	out := make(chan completion, window)
	tokens := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		tokens <- struct{}{}
	}
	final := make(chan int, 1)
	var doneAt []time.Time
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		want := -1
		got := 0
		for want < 0 || got < want {
			select {
			case c := <-out:
				got++
				res.tally.add(in, c)
				doneAt = append(doneAt, c.done)
				tokens <- struct{}{}
			case want = <-final:
			}
		}
	}()
	// marks[k] is taken when the generator first sees the boundary
	// warm + k*span behind it.
	var marks []stealMeter
	start := time.Now()
	sent := 0
	for {
		<-tokens
		el := time.Since(start)
		for len(marks) <= capWindows && el >= warm+time.Duration(len(marks))*span {
			marks = append(marks, startSteal())
		}
		if el >= dur {
			break
		}
		st.submit(in, sent%in.requests, out)
		sent++
	}
	final <- sent
	<-collected
	res.sent = sent
	for w := 1; w < len(marks); w++ {
		res.steal = append(res.steal, marks[w-1].shareUntil(marks[w]))
	}

	counts := make([]float64, capWindows)
	for _, t := range doneAt {
		w := int((t.Sub(start) - warm) / span)
		if t.Sub(start) >= warm && w < capWindows {
			counts[w]++
		}
	}
	for w := range counts {
		counts[w] /= span.Seconds()
	}
	res.windows = counts
	res.capacity = calmMedian(counts, res.steal)
	return res
}

// calmMedian is the median of the values of the calm windows: those whose
// stolen CPU share (steal[w], same order) is no higher than that of the
// calmest third of the windows. Stolen time stalls the whole process, so a
// window the hypervisor stole from measures the host more than the
// program; the host's disturbances come in bursts, and the calm windows of
// a run are what repeats from run to run. In a run without steal every
// window is calm. Without readable steal it is the median of every window.
func calmMedian(values, steal []float64) float64 {
	if len(steal) < len(values) {
		return median(values)
	}
	sorted := append([]float64(nil), steal[:len(values)]...)
	sort.Float64s(sorted)
	if len(sorted) == 0 || sorted[0] < 0 {
		return median(values)
	}
	limit := sorted[(len(sorted)+2)/3-1]
	var calm []float64
	for w, v := range values {
		if steal[w] <= limit {
			calm = append(calm, v)
		}
	}
	return median(calm)
}

// median returns the middle value (mean of the two middle values for even
// lengths) without modifying xs.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, without modifying xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
