package main

import (
	"fmt"
	"math"

	"ugache/internal/timeline"
)

// Stage names of a serving batch's span tree, in the order the worker runs
// them; each is a child of the "batch" root on the same serve track.
var stageNames = []string{"queue-wait", "coalesce", "extract", "gather", "reply"}

// ledger is the per-batch stage breakdown of a traced run, in µs per batch.
type ledger struct {
	batches  int
	stageUs  map[string]float64 // mean self time per stage
	batchUs  float64            // mean root span
	worstGap float64            // largest |stage sum - batch| / batch over batches
	// dispatch spans of the cluster front (µs each) and their count.
	dispatchUs float64
	dispatches int
}

// ns keys a span boundary on the recorder's clock. Every boundary the
// serving engine stamps is a whole number of nanoseconds since the epoch,
// so a child's start equals its predecessor's end exactly at this grain.
func ns(seconds float64) int64 { return int64(math.Round(seconds * 1e9)) }

type spanKey struct {
	tid   int32
	name  string
	start int64
}

// buildLedger groups every complete batch span tree in the recorders. A
// root is a "batch" span carrying its worker's seq; its queue-wait child
// starts where the root does, and each later stage starts where the one
// before it ended (gather is absent in timing-only mode). Trees whose root
// or children were overwritten in the bounded rings are skipped.
func buildLedger(recs []*timeline.Recorder) (*ledger, error) {
	l := &ledger{stageUs: map[string]float64{}}
	for _, rec := range recs {
		events := rec.Events()
		spans := map[spanKey]*timeline.Event{}
		var roots []*timeline.Event
		for i := range events {
			ev := &events[i]
			switch {
			case ev.PID == timeline.ProcRouter && ev.Name == "dispatch":
				l.dispatchUs += ev.Dur * 1e6
				l.dispatches++
			case ev.PID != timeline.ProcServe || ev.Ph != timeline.PhSpan:
			case ev.Name == "batch":
				roots = append(roots, ev)
			default:
				spans[spanKey{ev.TID, ev.Name, ns(ev.Start)}] = ev
			}
		}
		seen := map[[2]int64]bool{}
		for _, root := range roots {
			seq, ok := arg(root, "seq")
			if !ok {
				return nil, fmt.Errorf("batch span without seq")
			}
			id := [2]int64{int64(root.TID), int64(seq)}
			if seen[id] {
				return nil, fmt.Errorf("two batch spans with seq %g on track %d", seq, root.TID)
			}
			seen[id] = true
			at := ns(root.Start)
			var durs [5]float64
			complete := true
			for i, name := range stageNames {
				ev := spans[spanKey{root.TID, name, at}]
				if ev == nil {
					if name == "gather" {
						continue
					}
					complete = false
					break
				}
				durs[i] = ev.Dur
				at = ns(ev.Start + ev.Dur)
			}
			if !complete {
				continue
			}
			sum := 0.0
			for i, name := range stageNames {
				l.stageUs[name] += durs[i] * 1e6
				sum += durs[i]
			}
			l.batchUs += root.Dur * 1e6
			if root.Dur > 0 {
				l.worstGap = math.Max(l.worstGap, math.Abs(sum-root.Dur)/root.Dur)
			}
			l.batches++
		}
	}
	if l.batches == 0 {
		return nil, fmt.Errorf("traced run recorded no complete batch span tree")
	}
	for name := range l.stageUs {
		l.stageUs[name] /= float64(l.batches)
	}
	l.batchUs /= float64(l.batches)
	if l.dispatches > 0 {
		l.dispatchUs /= float64(l.dispatches)
	}
	return l, nil
}

func arg(ev *timeline.Event, key string) (float64, bool) {
	for i := 0; i < int(ev.NArgs); i++ {
		if ev.Args[i].Key == key {
			return ev.Args[i].Val, true
		}
	}
	return 0, false
}
