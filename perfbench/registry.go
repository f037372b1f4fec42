package main

import (
	"ugache/internal/telemetry"
)

// regSnap is the slice of the engine's own telemetry the per-layer
// metrics read, taken at a phase boundary so phases can be differenced.
type regSnap struct {
	counters  map[string]float64
	waitCount []uint64
	waitEdges []float64
}

var snapCounters = []string{
	"serve_requests_total", "serve_batches_total", "serve_requested_keys_total",
	"serve_unique_keys_total", "serve_batch_fill_timer_total",
	"cluster_lookups_total", "cluster_local_keys_total", "cluster_remote_keys_total",
	"cluster_dispatches_total", "cluster_dispatch_keys_total",
}

func snapRegistry(reg *telemetry.Registry) regSnap {
	s := regSnap{counters: map[string]float64{}}
	for _, name := range snapCounters {
		if c, ok := reg.Find(name).(*telemetry.Counter); ok {
			s.counters[name] = float64(c.Value())
		}
	}
	if h, ok := reg.Find("serve_queue_wait_seconds").(*telemetry.Histogram); ok {
		s.waitEdges, s.waitCount = h.Buckets()
	}
	return s
}

// regDelta is what the registry counted between two snapshots.
type regDelta struct {
	c           map[string]float64
	queueWaitMs float64 // p50 of the batches' queue wait in the interval
}

func deltaRegistry(a, b regSnap) regDelta {
	d := regDelta{c: map[string]float64{}}
	for name, v := range b.counters {
		d.c[name] = v - a.counters[name]
	}
	if len(b.waitCount) > 0 {
		diff := make([]uint64, len(b.waitCount))
		for i := range diff {
			diff[i] = b.waitCount[i]
			if i < len(a.waitCount) {
				diff[i] -= a.waitCount[i]
			}
		}
		d.queueWaitMs = telemetry.QuantileFromBuckets(b.waitEdges, diff, 0.5) * 1e3
	}
	return d
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
