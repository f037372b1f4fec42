package main

import (
	"fmt"
	"math"
	"time"

	"ugache/internal/cluster"
	"ugache/internal/core"
	"ugache/internal/emb"
	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/serve"
	"ugache/internal/telemetry"
	"ugache/internal/timeline"
	"ugache/internal/workload"
)

// keysPerRequest is one key per CR table: every request is one DLR
// inference sample (paper §8.1).
const keysPerRequest = 26

// Deployment and load constants shared by every workload.
const (
	// window is the closed-loop phase's outstanding-request count: enough
	// for one node's batches to fill by maxBatchKeys, not by the deadline.
	window = 2048
	// iterReqs is the replay's per-GPU iteration size in requests.
	iterReqs     = 64
	maxBatchKeys = 2048 // 79 requests
	maxWait      = 200 * time.Microsecond
)

// spec is one workload: its inputs, its deployment and its fixed load.
// Every number here is a constant of the benchmark; none is calibrated per
// run, so a faster commit is measured at the same offered load.
type spec struct {
	name  string
	nodes int // 1 = one serve.Server; 2 = two nodes behind cluster.Front
	// qps is the fixed offered rate of the open-loop phase (Poisson).
	qps float64
	// segments splits the request sequence into equal parts; the placement
	// is re-solved (core.System.Refresh) at the start of every part after
	// the first. 1 means no refresh.
	segments   int
	cacheRatio float64
	// gen builds the source tables and draws the request keys.
	gen func(seed uint64, requests int) (*emb.MultiTable, []int64, error)
}

// specs are the workloads; BENCHMARK.json and README.md say why each exists.
var specs = []*spec{
	{name: "serve-hot", nodes: 1, qps: 8000, segments: 1, cacheRatio: 0.02, gen: genCR(0.01)},
	{name: "serve-drift", nodes: 1, qps: 6000, segments: 2, cacheRatio: 0.01, gen: genFlashCrowd(400_000, 0.6, 64)},
	// A cache ratio this small leaves most keys on the host and network
	// tiers, so nearly every lookup has a cross-node leg.
	{name: "cluster-2node", nodes: 2, qps: 6000, segments: 1, cacheRatio: 0.001, gen: genCR(0.02)},
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// genCR draws CR-like requests: one key per table of the 26-table Criteo
// stand-in at the given scale, each table with its own Zipf(1.2) skew.
func genCR(scale float64) func(uint64, int) (*emb.MultiTable, []int64, error) {
	return func(seed uint64, requests int) (*emb.MultiTable, []int64, error) {
		ds, err := workload.CR.Build(scale, seed)
		if err != nil {
			return nil, nil, err
		}
		r := rng.New(seed).Split("requests")
		keys := make([]int64, 0, requests*keysPerRequest)
		for i := 0; i < requests; i++ {
			keys = append(keys, ds.GenBatchWith(r, 1)...)
		}
		return ds.MT, keys, nil
	}
}

// genFlashCrowd draws requests from one n-row table whose Zipf(alpha) head
// rotates to a cold region halfway through the sequence. Rows are dim
// float32s.
func genFlashCrowd(n int64, alpha float64, dim int) func(uint64, int) (*emb.MultiTable, []int64, error) {
	return func(seed uint64, requests int) (*emb.MultiTable, []int64, error) {
		t, err := emb.New("drift", n, dim, emb.Float32, seed)
		if err != nil {
			return nil, nil, err
		}
		mt, err := emb.NewMultiTable([]*emb.Table{t})
		if err != nil {
			return nil, nil, err
		}
		// One stream batch is 64 requests; the shift lands mid-sequence.
		const perBatch = 64
		batches := (requests + perBatch - 1) / perBatch
		sz, err := workload.NewFlashCrowd(n, alpha, batches/2, 0)
		if err != nil {
			return nil, nil, err
		}
		r := rng.New(seed).Split("requests")
		keys := make([]int64, 0, batches*perBatch*keysPerRequest)
		for b := 0; b < batches; b++ {
			keys = append(keys, sz.GenBatchAt(r, b, perBatch*keysPerRequest)...)
		}
		return mt, keys[:requests*keysPerRequest], nil
	}
}

// inputs is everything a run derives from its seed before set-up starts.
type inputs struct {
	src        *emb.MultiTable
	entryBytes int
	keys       []int64 // request i is keys[i*keysPerRequest:(i+1)*keysPerRequest]
	at         []time.Duration
	requests   int
	gpus       int // GPUs per node
	nodes      int
	iterReqs   int // requests per replay iteration across every GPU of every node
	segStart   []int
	hot        []workload.Hotness // per segment, profiled from the segment's iterations
}

func (in *inputs) req(i int) []int64 {
	return in.keys[i*keysPerRequest : (i+1)*keysPerRequest]
}

// route maps request i to its arrival node and GPU: round-robin over nodes,
// then over that node's GPUs.
func (in *inputs) route(i int) (node, gpu int) {
	return i % in.nodes, (i / in.nodes) % in.gpus
}

// platform returns the node platform: ServerC alone, or one machine of
// a ServerC cluster on the default network fabric.
func (s *spec) platform() (*platform.Platform, error) {
	if s.nodes == 1 {
		return platform.ServerC(), nil
	}
	return platform.ClusterOf(platform.ServerCConfig(), platform.DefaultNetwork(s.nodes))
}

// makeInputs draws the run's inputs from seed: openSeconds of requests at
// the fixed rate (rounded to whole replay iterations in every segment),
// their Poisson send times, and the per-segment hotness.
func (s *spec) makeInputs(seed uint64, openSeconds float64) (*inputs, error) {
	p, err := s.platform()
	if err != nil {
		return nil, err
	}
	in := &inputs{gpus: p.N, nodes: s.nodes, iterReqs: iterReqs * p.N * s.nodes}
	unit := in.iterReqs * s.segments
	in.requests = int(math.Ceil(s.qps*openSeconds/float64(unit))) * unit
	src, keys, err := s.gen(seed, in.requests)
	if err != nil {
		return nil, err
	}
	in.src, in.keys = src, keys
	in.entryBytes = src.MaxEntryBytes()

	r := rng.New(seed).Split("arrivals")
	in.at = make([]time.Duration, in.requests)
	t := 0.0
	for i := range in.at {
		t += r.Exp() / s.qps
		in.at[i] = time.Duration(t * float64(time.Second))
	}

	per := in.requests / s.segments
	for k := 0; k < s.segments; k++ {
		from := k * per
		in.segStart = append(in.segStart, from)
		var batches [][]int64
		for _, it := range in.iterations(from, from+per) {
			for _, b := range it {
				batches = append(batches, b...)
			}
		}
		h, err := workload.ProfileBatches(src.NumEntries(), batches)
		if err != nil {
			return nil, err
		}
		in.hot = append(in.hot, h)
	}
	return in, nil
}

// iterations cuts requests [from, to) into replay iterations: it[t][node][gpu]
// is the raw (not deduplicated) key list GPU gpu of node extracts in
// iteration t. Each iteration holds iterReqs consecutive requests, which
// routing spreads evenly over every GPU of every node.
func (in *inputs) iterations(from, to int) [][][][]int64 {
	var out [][][][]int64
	for start := from; start+in.iterReqs <= to; start += in.iterReqs {
		it := make([][][]int64, in.nodes)
		for n := range it {
			it[n] = make([][]int64, in.gpus)
		}
		for i := start; i < start+in.iterReqs; i++ {
			n, g := in.route(i)
			it[n][g] = append(it[n][g], in.req(i)...)
		}
		out = append(out, it)
	}
	return out
}

// segmentOf returns the segment request i falls in.
func (in *inputs) segmentOf(i int) int {
	k := 0
	for k+1 < len(in.segStart) && i >= in.segStart[k+1] {
		k++
	}
	return k
}

// stack is one built deployment: per-node engines and servers, the
// cluster front when there are several nodes, and the shared registry.
type stack struct {
	sys   []*core.System
	srv   []*serve.Server
	front *cluster.Front
	ring  *cluster.Ring
	reg   *telemetry.Registry
	// tl holds one recorder per node plus, last, the front's; nil untraced.
	tl []*timeline.Recorder
}

// owned is node n's shard predicate on a cluster, nil on one node.
func (st *stack) owned(n int) func(int64) bool {
	if st.ring == nil {
		return nil
	}
	return func(k int64) bool { return st.ring.Owner(k) == n }
}

// clusterSeed keys the consistent-hash ring; it is part of the deployment,
// not of the inputs, so every seed shards keys the same way.
const clusterSeed = 7

// legDeadline is the cluster front's per-node deadline. It is far above any
// leg's latency at the benchmark's loads, so a partial result means a fault,
// not a slow second on a shared host.
const legDeadline = 30 * time.Second

// queueDepth bounds each GPU's admission ring. It exceeds the closed-loop
// window, so no fixed load of the benchmark can shed.
const queueDepth = 4096

// build constructs the deployment on the segment-0 hotness: solve, cache
// fill and engine start on every node. coreTL, when non-nil, gives node n's
// engine the recorder coreTL[n] (refresh and solver spans).
func (s *spec) build(in *inputs, coreTL []*timeline.Recorder) (*stack, error) {
	p, err := s.platform()
	if err != nil {
		return nil, err
	}
	st := &stack{}
	if s.nodes > 1 {
		st.ring = cluster.MustRing(s.nodes, 0, clusterSeed)
	}
	for n := 0; n < s.nodes; n++ {
		cfg := core.Config{
			Platform:   p,
			Hotness:    in.hot[0],
			EntryBytes: in.entryBytes,
			CacheRatio: s.cacheRatio,
			Source:     in.src,
			Owned:      st.owned(n),
		}
		if coreTL != nil {
			cfg.Timeline = coreTL[n]
		}
		sys, err := core.Build(cfg)
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", n, err)
		}
		st.sys = append(st.sys, sys)
	}
	return st, st.start(s, nil)
}

// start puts fresh servers (and, on a cluster, a fresh front) with a fresh
// registry on the built engines. tl, when non-nil, holds the recorders to
// attach: tl[n] for node n's server, tl[len(tl)-1] for the front.
func (st *stack) start(s *spec, tl []*timeline.Recorder) error {
	p := st.sys[0].P
	st.reg = telemetry.NewRegistry(p.N * s.nodes)
	st.tl = tl
	st.srv = nil
	for n, sys := range st.sys {
		cfg := serve.Config{
			MaxBatchKeys: maxBatchKeys,
			MaxWait:      maxWait,
			QueueDepth:   queueDepth,
			Telemetry:    st.reg,
		}
		if tl != nil {
			cfg.Timeline = tl[n]
			// Batch span trees only: per-link fluid-sim spans for every batch
			// would overrun the rings and are not part of the ledger.
			cfg.TraceEvery = math.MaxInt32
		}
		srv, err := serve.New(sys, cfg)
		if err != nil {
			st.close()
			return fmt.Errorf("node %d: %w", n, err)
		}
		st.srv = append(st.srv, srv)
	}
	if st.ring == nil {
		return nil
	}
	nodes := make([]*cluster.Node, len(st.sys))
	for n := range nodes {
		nodes[n] = &cluster.Node{Sys: st.sys[n], Srv: st.srv[n]}
	}
	fc := cluster.FrontConfig{Seed: clusterSeed, Deadline: legDeadline, Telemetry: st.reg}
	if tl != nil {
		fc.Timeline = tl[len(tl)-1]
	}
	f, err := cluster.NewFront(nodes, fc)
	if err != nil {
		st.close()
		return err
	}
	st.front = f
	return nil
}

// close stops the front and the servers and waits for their goroutines;
// the engines stay built, so start can serve them again.
func (st *stack) close() {
	if st.front != nil {
		st.front.Close()
		st.front = nil
	}
	for _, srv := range st.srv {
		srv.Close()
	}
	st.srv = nil
}
