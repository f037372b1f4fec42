package main

import (
	"bytes"
	"fmt"
	"time"

	"ugache/internal/timeline"
)

// options are one run's settings.
type options struct {
	seed    uint64
	seconds float64
	traced  bool
	setups  int // set-ups per run; setup_s is their median
}

// Shares of the measured seconds: the closed-loop capacity phase, then the
// fixed-rate open-loop phase (two equal passes, untraced and traced, in a
// traced run).
const closedShare = 0.3

// stageSumTolerance bounds |sum of stage self times - batch span| over the
// mean batch span in the traced ledger.
const stageSumTolerance = 0.10

// run performs one run of workload s: inputs, repeated set-up, the model
// replay with its checks, the closed-loop and open-loop phases, and the
// row and counter checks.
func run(s *spec, o options) (*report, error) {
	rep := &report{Correct: true, Metrics: map[string]metric{}, extra: map[string]metric{}}
	hostFacts(rep)
	steal := startSteal()
	closedDur := time.Duration(closedShare * o.seconds * float64(time.Second))
	openSec := (1 - closedShare) * o.seconds
	if o.traced {
		openSec /= 2
	}
	in, err := s.makeInputs(o.seed, openSec)
	if err != nil {
		return nil, err
	}
	rep.fact("workload", "%s: %d nodes, %d requests of %d keys at %.0f/s, window %d, seed %d",
		s.name, s.nodes, in.requests, keysPerRequest, s.qps, window, o.seed)

	// Set-up: core.Build on every node, servers (and front) started, first
	// request accepted. Repeated; the last deployment is the one measured.
	var coreTL []*timeline.Recorder
	if o.traced {
		coreTL = newRecorders(s.nodes, 1)
	}
	heap0 := liveHeap()
	var setups []float64
	var st *stack
	var first tally
	for i := 0; i < o.setups; i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		st, err = s.build(in, coreTL)
		if err != nil {
			return nil, err
		}
		c := firstRequest(st, in)
		setups = append(setups, time.Since(t0).Seconds())
		if c.err != nil {
			st.close()
			return nil, fmt.Errorf("first request after set-up: %w", c.err)
		}
		first = tally{}
		first.add(in, c)
		first.sent = 1
	}
	defer st.close()
	rep.fact("setup.runs_s", "%.4f", setups)
	heap := (float64(liveHeap()) - float64(heap0)) / 1e6

	rp, err := replay(st, in)
	if err != nil {
		return nil, err
	}
	if rp.checkErr != nil {
		rep.fail("replay: %v", rp.checkErr)
	}
	pol, err := policyCheck(s, st, in, rp.ugacheSeg0)
	if err != nil {
		rep.fail("%v", err)
	}
	rep.fact("policy.model_ms", "ugache %.5g, replication %.5g, partition %.5g (segment 0, node 0)",
		pol["ugache"]*1e3, pol["replication"]*1e3, pol["partition"]*1e3)
	var lt *layerTimes
	if o.traced {
		if lt, err = timeLayers(s, st, in); err != nil {
			return nil, err
		}
	}

	r0 := snapRegistry(st.reg)
	cl := closedLoop(st, in, closedDur)
	r1 := snapRegistry(st.reg)
	ol := openPass(s, st, in)
	r2 := snapRegistry(st.reg)
	closedReg, openReg := deltaRegistry(r0, r1), deltaRegistry(r1, r2)
	rep.fact("closed.window_qps", "%.0f", cl.windows)
	rep.fact("closed.window_steal", "%.3f", cl.steal)
	rep.fact("open.remote_leg_share", "%.3f", ratio(float64(ol.lookupsWithRemote), float64(ol.served)))
	rep.fact("open.window_p99_ms", "%.3f (pooled p99 %.3f over %d requests)",
		windowQuantiles(ol, 0.99), quantile(ol.lat, 0.99), len(ol.lat))
	rep.fact("open.window_steal", "%.3f", ol.steal)
	st.close()
	tallies := []*tally{&first, &cl.tally, &ol.tally}
	checkCounters(rep, s, st, tallies)

	var traced *openResult
	var led *ledger
	var dropped int64
	if o.traced {
		// Second pass over the same requests with every recorder attached,
		// starting from the same placement.
		if s.segments > 1 {
			for _, r := range refreshAll(st, in.hot[0]) {
				if r.err != nil {
					return nil, r.err
				}
			}
		}
		tl := newRecorders(s.nodes, st.sys[0].P.N)
		if s.nodes > 1 {
			tl = append(tl, timeline.NewRecorder(s.nodes, 0))
		}
		if err := st.start(s, tl); err != nil {
			return nil, err
		}
		traced = openPass(s, st, in)
		st.close()
		checkCounters(rep, s, st, []*tally{&traced.tally})
		tallies = append(tallies, &traced.tally)
		for _, r := range append(tl, coreTL...) {
			dropped += r.Dropped()
		}
		if led, err = buildLedger(tl); err != nil {
			rep.fail("ledger: %v", err)
			led = &ledger{stageUs: map[string]float64{}}
		} else if gap := ledgerGap(led); gap > stageSumTolerance {
			rep.fail("ledger: stage self times sum to %.1f%% off the batch span (limit %.0f%%)",
				gap*100, stageSumTolerance*100)
		}
	}

	checkRows(rep, s, in, tallies)
	for _, t := range tallies {
		rep.Attempted += t.sent
		rep.Failed += t.failed
		if t.sent != t.served+t.failed {
			rep.fail("accounting: %d sent, %d served + %d failed", t.sent, t.served, t.failed)
		}
		if t.splitErr != nil {
			rep.fail("cluster split: %v", t.splitErr)
		}
	}
	if rep.Failed > 0 {
		rep.fact("failures", "%d failed (%d shed, %d partial); first: %v",
			rep.Failed, sumShed(tallies), sumPartial(tallies), firstErr(tallies))
	}
	if ol.served == 0 {
		return nil, fmt.Errorf("open-loop phase served nothing")
	}

	// End-to-end metrics.
	e2e := map[string]metric{
		"capacity_qps":   {cl.capacity, "1/s"},
		"cpu_us_per_req": {float64(ol.cpu.Nanoseconds()) / 1e3 / float64(ol.served), "us"},
		"p50_ms":         {calmMedian(windowQuantiles(ol, 0.5), ol.steal), "ms"},
		"p99_ms":         {calmMedian(windowQuantiles(ol, 0.99), ol.steal), "ms"},
		"model_ms":       {rp.modelMs, "ms"},
		"setup_s":        {median(setups), "s"},
		"heap_mb":        {heap, "MB"},
	}

	// Per-layer metrics.
	pl := map[string]metric{}
	put := func(name string, v float64, unit string) { pl[name] = metric{v, unit} }
	c := openReg.c
	put("serve.queue_wait_p50_ms", openReg.queueWaitMs, "ms")
	put("serve.deadline_flush_share", ratio(c["serve_batch_fill_timer_total"], c["serve_batches_total"]), "ratio")
	put("serve.requests_per_batch", ratio(c["serve_requests_total"], c["serve_batches_total"]), "count")
	put("serve.closed_requests_per_batch", ratio(closedReg.c["serve_requests_total"], closedReg.c["serve_batches_total"]), "count")
	put("serve.unique_key_ratio", ratio(c["serve_unique_keys_total"], c["serve_requested_keys_total"]), "ratio")
	put("serve.closed_unique_key_ratio", ratio(closedReg.c["serve_unique_keys_total"], closedReg.c["serve_requested_keys_total"]), "ratio")
	totalKeys := 0.0
	for _, k := range rp.tierKeys {
		totalKeys += k
	}
	for t, name := range tierNames {
		put("core."+name+"_key_share", ratio(rp.tierKeys[t], totalKeys), "ratio")
		put("core.model_"+name+"_ms", rp.tierMs[t], "ms")
	}
	var refreshWall []float64
	var moved float64
	for _, r := range ol.refresh {
		refreshWall = append(refreshWall, r.wall.Seconds())
		moved += float64(r.moved)
	}
	put("cache.refresh_s", median(refreshWall), "s")
	put("cache.refresh_moved_entries", ratio(moved, float64(len(ol.refresh))), "count")
	put("cluster.remote_key_share", ratio(c["cluster_remote_keys_total"], c["cluster_local_keys_total"]+c["cluster_remote_keys_total"]), "ratio")
	put("cluster.keys_per_dispatch", ratio(c["cluster_dispatch_keys_total"], c["cluster_dispatches_total"]), "count")
	put("runtime.allocs_per_req", ratio(float64(ol.mem.mallocs), float64(ol.served)), "count")
	put("runtime.alloc_bytes_per_req", ratio(float64(ol.mem.bytes), float64(ol.served)), "B")
	put("runtime.gc_cycles", float64(ol.mem.gcs), "count")
	put("loadgen.lag_p50_ms", quantile(ol.lag, 0.5), "ms")
	put("loadgen.lag_p99_ms", quantile(ol.lag, 0.99), "ms")
	if lt != nil {
		put("hashtable.dedup_ns_per_key", lt.dedupNsPerKey, "ns")
		put("extract.eval_us_per_batch", lt.extractUsBatch, "us")
		put("cache.gather_us_per_batch", lt.gatherUsBatch, "us")
		put("emb.read_ns_per_row", lt.readNsPerRow, "ns")
		put("cluster.split_ns_per_key", lt.splitNsPerKey, "ns")
		put("solver.solve_s", lt.solveS, "s")
	}
	if led != nil {
		put("serve.queue_us", led.stageUs["queue-wait"], "us")
		put("serve.coalesce_us", led.stageUs["coalesce"], "us")
		put("serve.extract_us", led.stageUs["extract"], "us")
		put("serve.gather_us", led.stageUs["gather"], "us")
		put("serve.reply_us", led.stageUs["reply"], "us")
		put("serve.batch_us", led.batchUs, "us")
		put("serve.handoff_share", ratio(led.stageUs["queue-wait"]+led.stageUs["reply"], led.batchUs), "ratio")
		put("cluster.dispatch_us", led.dispatchUs, "us")
		rep.fact("ledger", "%d batches; stage sum off the batch span by %.2f%%; worst batch %.2f%%",
			led.batches, ledgerGap(led)*100, led.worstGap*100)
	}
	if traced != nil {
		put("timeline.overhead_p50_ms", median(traced.lat)-median(ol.lat), "ms")
		put("timeline.dropped_events", float64(dropped), "count")
	}
	stolen := steal.share()
	put("host.cpu_steal_share", stolen, "ratio")
	rep.fact("host.cpu_steal", "%.4f of CPU time stolen during the run (-1: /proc/stat unreadable)", stolen)

	if o.traced {
		rep.Metrics, rep.extra = pl, e2e
	} else {
		rep.Metrics, rep.extra = e2e, pl
	}
	return rep, nil
}

// openPass runs the open-loop phase over the whole request sequence. On
// workloads with several segments a refresher goroutine installs segment
// k's placement when the generator sends segment k's first request, so the
// refreshes run beside the reads at fixed positions of the sequence.
func openPass(s *spec, st *stack, in *inputs) *openResult {
	if s.segments == 1 {
		return openLoop(st, in, int(s.qps*windowLen.Seconds()), nil)
	}
	trig := make(chan int, s.segments)
	done := make(chan []refreshStat, 1)
	go func() {
		var out []refreshStat
		for k := range trig {
			out = append(out, refreshAll(st, in.hot[k])...)
		}
		done <- out
	}()
	res := openLoop(st, in, int(s.qps*windowLen.Seconds()), func(i int) {
		if k := in.segmentOf(i); k > 0 && in.segStart[k] == i {
			trig <- k
		}
	})
	close(trig)
	res.refresh = <-done
	return res
}

// firstRequest sends request 0 and waits for it: the end of set-up.
func firstRequest(st *stack, in *inputs) completion {
	out := make(chan completion, 1)
	st.submit(in, 0, out)
	return <-out
}

// newRecorders returns n span recorders of shards writer shards each, at
// the recorder's default ring depth.
func newRecorders(n, shards int) []*timeline.Recorder {
	out := make([]*timeline.Recorder, n)
	for i := range out {
		out[i] = timeline.NewRecorder(shards, 0)
	}
	return out
}

// windowQuantiles returns each open-loop window's q-quantile latency.
func windowQuantiles(r *openResult, q float64) []float64 {
	out := make([]float64, len(r.windows))
	for w, lat := range r.windows {
		out[w] = quantile(lat, q)
	}
	return out
}

func ledgerGap(l *ledger) float64 {
	sum := 0.0
	for _, v := range l.stageUs {
		sum += v
	}
	return ratio(abs(sum-l.batchUs), l.batchUs)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// checkCounters compares the engine's own counters, read after the
// servers closed, with what the collector saw: on one node
// serve_requests_total equals the served requests; on a cluster
// cluster_lookups_total equals the lookups sent and serve_requests_total
// equals the local legs plus the cross-node dispatches.
func checkCounters(rep *report, s *spec, st *stack, ts []*tally) {
	var sent, served, withLocal int
	for _, t := range ts {
		sent += t.sent
		served += t.served
		withLocal += t.lookupsWithLocal
	}
	c := snapRegistry(st.reg).counters
	if s.nodes == 1 {
		if got := int(c["serve_requests_total"]); got != served {
			rep.fail("counters: serve_requests_total %d, collector saw %d served", got, served)
		}
		return
	}
	if got := int(c["cluster_lookups_total"]); got != sent {
		rep.fail("counters: cluster_lookups_total %d, collector sent %d", got, sent)
	}
	want := withLocal + int(c["cluster_dispatches_total"])
	if got := int(c["serve_requests_total"]); got != want {
		rep.fail("counters: serve_requests_total %d, want %d local legs + dispatches", got, want)
	}
}

// checkRows compares every sampled reply byte for byte with
// emb.MultiTable.ReadRow for the same keys, after the timed phases.
func checkRows(rep *report, s *spec, in *inputs, ts []*tally) {
	row := make([]byte, in.entryBytes)
	checked, remote := 0, 0
	for _, t := range ts {
		for idx, sm := range t.samples {
			rows := sm.rows
			if sm.remote {
				remote++
			}
			keys := in.req(idx)
			if len(rows) != len(keys)*in.entryBytes {
				rep.fail("rows: request %d returned %d bytes for %d keys", idx, len(rows), len(keys))
				return
			}
			for j, k := range keys {
				if err := in.src.ReadRow(k, row); err != nil {
					rep.fail("rows: %v", err)
					return
				}
				if !bytes.Equal(row, rows[j*in.entryBytes:(j+1)*in.entryBytes]) {
					rep.fail("rows: request %d key %d differs from the source table", idx, k)
					return
				}
			}
			checked++
		}
	}
	if checked == 0 {
		rep.fail("rows: no sampled reply to check")
	}
	if s.nodes > 1 && remote == 0 {
		rep.fail("rows: no sampled cluster reply had cross-node keys")
	}
	rep.fact("rows.checked", "%d sampled replies (%d with cross-node legs) equal emb.MultiTable.ReadRow", checked, remote)
}

func sumShed(ts []*tally) (n int) {
	for _, t := range ts {
		n += t.shed
	}
	return n
}

func sumPartial(ts []*tally) (n int) {
	for _, t := range ts {
		n += t.partial
	}
	return n
}

func firstErr(ts []*tally) error {
	for _, t := range ts {
		if t.firstErr != nil {
			return t.firstErr
		}
	}
	return nil
}
