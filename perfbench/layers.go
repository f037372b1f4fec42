package main

import (
	"time"

	"ugache/internal/core"
	"ugache/internal/extract"
	"ugache/internal/hashtable"
	"ugache/internal/solver"
)

// layerTimes are the direct-call timings of single layers on the replay
// batches: each public function is called on the same deduplicated
// per-GPU keys the serving path would hand it.
type layerTimes struct {
	dedupNsPerKey  float64
	extractUsBatch float64 // core.System.ExtractBatchWith, one GPU's batch
	gatherUsBatch  float64 // core.System.LookupWith, one GPU's batch
	readNsPerRow   float64 // emb.MultiTable.ReadRow
	splitNsPerKey  float64 // cluster.Ring.Split, cluster workloads only
	solveS         float64 // solver.SolveWith(UGache) on the segment-0 hotness
}

// maxLayerIters caps how many replay iterations the timings walk.
const maxLayerIters = 48

func timeLayers(s *spec, st *stack, in *inputs) (*layerTimes, error) {
	lt := &layerTimes{}
	its := in.iterations(0, in.requests)
	if len(its) > maxLayerIters {
		its = its[:maxLayerIters]
	}
	p := st.sys[0].P
	d := hashtable.NewDedup(iterReqs * keysPerRequest)
	sc := core.NewScratch()
	row := make([]byte, in.entryBytes)
	var rows []byte
	var subs [][]int64
	var keys, uniqs, batches, splitKeys float64
	var tDedup, tExtract, tGather, tRead, tSplit time.Duration
	for _, it := range its {
		for n, perGPU := range it {
			sys := st.sys[n]
			pl := sys.Placement()
			for g, raw := range perGPU {
				t0 := time.Now()
				d.Reset(len(raw))
				for _, k := range raw {
					d.Add(k)
				}
				tDedup += time.Since(t0)
				keys += float64(len(raw))

				u := unique(raw, d)
				b := extract.Batch{Keys: make([][]int64, p.N)}
				b.Keys[g] = u
				t0 = time.Now()
				if _, err := sys.ExtractBatchWith(&b, sc); err != nil {
					return nil, err
				}
				tExtract += time.Since(t0)

				if need := len(u) * in.entryBytes; cap(rows) < need {
					rows = make([]byte, need)
				}
				t0 = time.Now()
				if err := sys.LookupWith(g, u, rows[:len(u)*in.entryBytes], sc); err != nil {
					return nil, err
				}
				tGather += time.Since(t0)

				t0 = time.Now()
				for _, k := range u {
					if err := in.src.ReadRow(k, row); err != nil {
						return nil, err
					}
				}
				tRead += time.Since(t0)
				uniqs += float64(len(u))
				batches++

				if st.ring != nil {
					net := p.Network()
					local := func(k int64) bool { return pl.SourceOf(g, k) != net }
					t0 = time.Now()
					subs = st.ring.Split(n, raw, local, subs)
					tSplit += time.Since(t0)
					splitKeys += float64(len(raw))
				}
			}
		}
	}
	lt.dedupNsPerKey = ratio(float64(tDedup.Nanoseconds()), keys)
	lt.extractUsBatch = ratio(float64(tExtract.Nanoseconds())/1e3, batches)
	lt.gatherUsBatch = ratio(float64(tGather.Nanoseconds())/1e3, batches)
	lt.readNsPerRow = ratio(float64(tRead.Nanoseconds()), uniqs)
	lt.splitNsPerKey = ratio(float64(tSplit.Nanoseconds()), splitKeys)

	solveIn := solverInput(s, st, in)
	t0 := time.Now()
	if _, err := solver.SolveWith(solver.UGache{}, &solveIn, solver.Options{}); err != nil {
		return nil, err
	}
	lt.solveS = time.Since(t0).Seconds()
	return lt, nil
}
