package main

import (
	"fmt"
	"math"
	"time"

	"ugache/internal/cache"
	"ugache/internal/core"
	"ugache/internal/extract"
	"ugache/internal/hashtable"
	"ugache/internal/platform"
	"ugache/internal/solver"
	"ugache/internal/workload"
)

// Tiers of the extraction hierarchy, in report order.
var tierNames = [4]string{"local", "remote", "host", "network"}

// policyTolerance is how far the UGache placement's replayed makespan may
// exceed the better of the replication and partition placements on the
// same hotness and iterations before the run is marked incorrect.
const policyTolerance = 0.02

// simSlack is the fluid simulator's completion resolution: it retires a
// flow once its remaining bytes would take at most 1 ns at the flow's rate
// (internal/sim), so a makespan can read up to that much short of the
// bytes-over-bandwidth bound.
const simSlack = 1e-9

// replayResult is the deterministic model replay of one run.
type replayResult struct {
	iterations int     // (node, iteration) extractions replayed
	modelMs    float64 // mean makespan per iteration, ms
	tierKeys   [4]float64
	tierMs     [4]float64 // mean per-iteration slowest-GPU serial time per tier, ms
	ugacheSeg0 float64    // node 0's mean makespan over segment 0, seconds
	checkErr   error      // first conservation or makespan-bound violation
}

// refreshStat is one core.System.Refresh call.
type refreshStat struct {
	wall  time.Duration
	moved int64
	err   error
}

// unique deduplicates keys in first-seen order.
func unique(keys []int64, d *hashtable.Dedup) []int64 {
	d.Reset(len(keys))
	out := make([]int64, 0, len(keys))
	for _, k := range keys {
		if _, fresh := d.Add(k); fresh {
			out = append(out, k)
		}
	}
	return out
}

// expectedSource is where the extractor must fetch key for GPU g: the
// placement's source, except that a network-class key this node's host
// shard owns is read over the local host path.
func expectedSource(p *platform.Platform, pl *solver.Placement, owned func(int64) bool, g int, k int64) platform.SourceID {
	src := pl.SourceOf(g, k)
	if p.HasNetwork() && src == p.Network() && owned != nil && owned(k) {
		return p.Host()
	}
	return src
}

// checkExtraction verifies one replayed extraction: every GPU's SrcBytes
// row adds up to its unique keys times the entry size, split by source as
// the placement says, and the makespan is no shorter than the largest
// single source's bytes at that path's plateau bandwidth.
func checkExtraction(p *platform.Platform, pl *solver.Placement, owned func(int64) bool,
	b *extract.Batch, res *extract.Result, entryBytes int) error {
	ns := p.NumSources()
	want := make([]float64, ns)
	tpb := p.TimePerByteTable()
	floor, floorG, floorJ := 0.0, 0, 0
	for g, keys := range b.Keys {
		for j := range want {
			want[j] = 0
		}
		for _, k := range keys {
			want[expectedSource(p, pl, owned, g, k)] += float64(entryBytes)
		}
		sum := 0.0
		for j := 0; j < ns; j++ {
			got := res.SrcBytes[g][j]
			sum += got
			if math.Abs(got-want[j]) > 1e-9*math.Max(1, want[j]) {
				return fmt.Errorf("gpu %d source %d: %g bytes extracted, placement says %g", g, j, got, want[j])
			}
			if t := got * tpb[g][j]; t > floor {
				floor, floorG, floorJ = t, g, j
			}
		}
		if total := float64(len(keys) * entryBytes); math.Abs(sum-total) > 1e-9*math.Max(1, total) {
			return fmt.Errorf("gpu %d: %g bytes extracted for %d unique keys of %d B", g, sum, len(keys), entryBytes)
		}
	}
	if res.Time < floor-simSlack {
		return fmt.Errorf("makespan %g s below %g s, the time GPU %d needs for its %g bytes from source %d at plateau bandwidth",
			res.Time, floor, floorG, res.SrcBytes[floorG][floorJ], floorJ)
	}
	return nil
}

// replay cuts the whole request sequence into iterations, deduplicates
// each GPU's keys and runs them through core.System.ExtractBatchWith on the
// placement in force for that part of the sequence, re-solving with
// core.System.Refresh at every segment start. It leaves every engine on the
// segment-0 placement again. The result depends only on the inputs.
func replay(st *stack, in *inputs) (*replayResult, error) {
	res := &replayResult{}
	d := hashtable.NewDedup(iterReqs * keysPerRequest)
	sc := core.NewScratch()
	p := st.sys[0].P
	seg := 0
	var seg0Sum float64
	var seg0N int
	for _, it := range in.iterations(0, in.requests) {
		start := res.iterations / in.nodes * in.iterReqs
		if k := in.segmentOf(start); k != seg {
			seg = k
			for _, r := range refreshAll(st, in.hot[k]) {
				if r.err != nil {
					return nil, r.err
				}
			}
		}
		for n, perGPU := range it {
			sys := st.sys[n]
			b := extract.Batch{Keys: make([][]int64, p.N)}
			for g, raw := range perGPU {
				b.Keys[g] = unique(raw, d)
			}
			pl := sys.Placement()
			r, err := sys.ExtractBatchWith(&b, sc)
			if err != nil {
				return nil, err
			}
			if err := checkExtraction(p, pl, st.owned(n), &b, r, in.entryBytes); err != nil && res.checkErr == nil {
				res.checkErr = fmt.Errorf("iteration %d node %d: %w", res.iterations/in.nodes, n, err)
			}
			res.modelMs += r.Time * 1e3
			if seg == 0 && n == 0 {
				seg0Sum += r.Time
				seg0N++
			}
			tierSplit(p, r, in.entryBytes, &res.tierKeys, &res.tierMs)
			res.iterations++
		}
	}
	if res.iterations == 0 {
		return nil, fmt.Errorf("replay: sequence shorter than one iteration")
	}
	if seg != 0 {
		for _, r := range refreshAll(st, in.hot[0]) {
			if r.err != nil {
				return nil, r.err
			}
		}
	}
	res.modelMs /= float64(res.iterations)
	for t := range res.tierMs {
		res.tierMs[t] /= float64(res.iterations)
	}
	res.ugacheSeg0 = seg0Sum / float64(seg0N)
	return res, nil
}

// tierSplit adds one extraction's keys per tier and, per tier, the slowest
// GPU's serial time (bytes x time per byte) in ms.
func tierSplit(p *platform.Platform, r *extract.Result, entryBytes int, keys, ms *[4]float64) {
	tpb := p.TimePerByteTable()
	host := int(p.Host())
	network := -1
	if p.HasNetwork() {
		network = int(p.Network())
	}
	var worst [4]float64
	for g, row := range r.SrcBytes {
		var t [4]float64
		for j, bytes := range row {
			tier := 1
			switch j {
			case g:
				tier = 0
			case host:
				tier = 2
			case network:
				tier = 3
			}
			keys[tier] += bytes / float64(entryBytes)
			t[tier] += bytes * tpb[g][j] * 1e3
		}
		for i := range t {
			if t[i] > worst[i] {
				worst[i] = t[i]
			}
		}
	}
	for i := range worst {
		ms[i] += worst[i]
	}
}

// refreshBaseIter is the foreground iteration time handed to Refresh. It
// only scales the refresh report's modelled Fig. 17 timeline, which the
// benchmark does not read.
const refreshBaseIter = 1e-3

// refreshAll installs the placement solved for hot on every node.
func refreshAll(st *stack, hot workload.Hotness) []refreshStat {
	var out []refreshStat
	for _, sys := range st.sys {
		t0 := time.Now()
		rep, err := sys.Refresh(hot, refreshBaseIter, cache.DefaultRefreshConfig())
		rs := refreshStat{wall: time.Since(t0), err: err}
		if err == nil {
			rs.moved = rep.EvictedEntries + rep.InsertedEntries
		}
		out = append(out, rs)
	}
	return out
}

// solverInput is the problem core.Build solved at set-up: the segment-0
// hotness on the node platform, with core's rounding of the cache ratio.
func solverInput(s *spec, st *stack, in *inputs) solver.Input {
	p := st.sys[0].P
	capPer := int64(math.Ceil(s.cacheRatio * float64(in.src.NumEntries())))
	capacity := make([]int64, p.N)
	for g := range capacity {
		capacity[g] = capPer
	}
	return solver.Input{P: p, Hotness: in.hot[0], EntryBytes: in.entryBytes, Capacity: capacity}
}

// policyCheck replays node 0's segment-0 iterations on the replication
// and partition placements solved for the same hotness and capacity, and
// returns an error when UGache's mean makespan is worse than the better of
// the two by more than policyTolerance (paper Figs. 10-11).
func policyCheck(s *spec, st *stack, in *inputs, ugache float64) (map[string]float64, error) {
	p := st.sys[0].P
	inp := solverInput(s, st, in)
	d := hashtable.NewDedup(iterReqs * keysPerRequest)
	sc := extract.NewScratch()
	its := in.iterations(0, in.requests/s.segments)
	out := map[string]float64{"ugache": ugache}
	best := math.Inf(1)
	for _, pol := range []solver.Policy{solver.Replication{}, solver.Partition{}} {
		pl, err := solver.SolveWith(pol, &inp, solver.Options{})
		if err != nil {
			return nil, fmt.Errorf("policy %s: %w", pol.Name(), err)
		}
		ex, err := extract.New(p, pl)
		if err != nil {
			return nil, err
		}
		ex.Owned = st.owned(0)
		sum := 0.0
		for _, it := range its {
			b := extract.Batch{Keys: make([][]int64, p.N)}
			for g, raw := range it[0] {
				b.Keys[g] = unique(raw, d)
			}
			r, err := ex.RunWith(extract.Factored, &b, sc)
			if err != nil {
				return nil, err
			}
			sum += r.Time
		}
		mean := sum / float64(len(its))
		out[pol.Name()] = mean
		best = math.Min(best, mean)
	}
	if ugache > best*(1+policyTolerance) {
		return out, fmt.Errorf("policy ordering: UGache %.4g ms per iteration, best baseline %.4g ms (tolerance %g)",
			ugache*1e3, best*1e3, policyTolerance)
	}
	return out, nil
}
