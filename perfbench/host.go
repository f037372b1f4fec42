package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns this process's user+system CPU time (getrusage on
// itself), so host CPU per request counts the server, the load generator
// and the collector alike.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks reads the aggregate "cpu" line of /proc/stat: total ticks and
// the steal ticks (time the hypervisor ran someone else while this guest
// wanted the CPU). ok is false where /proc/stat is unreadable.
func cpuTicks() (total, steal uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		for i, s := range fields[1:] {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return 0, 0, false
			}
			// guest and guest_nice (fields 9, 10) are already inside user.
			if i < 8 {
				total += v
			}
			if i == 7 {
				steal = v
			}
		}
		return total, steal, true
	}
	return 0, 0, false
}

// stealMeter measures the share of CPU time stolen by the host across an
// interval; a run with a large share was disturbed from outside.
type stealMeter struct {
	total, steal uint64
	ok           bool
}

func startSteal() stealMeter {
	t, s, ok := cpuTicks()
	return stealMeter{total: t, steal: s, ok: ok}
}

// share returns stolen ticks over all ticks since start, or -1 when
// /proc/stat could not be read.
func (m stealMeter) share() float64 {
	return m.shareUntil(startSteal())
}

// shareUntil is share over the interval from m to end.
func (m stealMeter) shareUntil(end stealMeter) float64 {
	if !m.ok || !end.ok || end.total <= m.total {
		return -1
	}
	return float64(end.steal-m.steal) / float64(end.total-m.total)
}

// memSnap is the slice of runtime.MemStats the per-request allocation
// metrics need.
type memSnap struct {
	mallocs, bytes uint64
	gcs            uint32
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC}
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
