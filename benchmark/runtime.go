package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// runtimeSample is the Go runtime's own account of the process so far.
type runtimeSample struct {
	gcCPU    float64 // seconds
	totalCPU float64 // seconds
	gcCycles uint64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return runtimeSample{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), gcCycles: s[2].Value.Uint64()}
}

// watchHeap samples the live heap until stop closes and returns its
// peak in bytes. runtime/metrics reads do not stop the world, so the
// sampler can run beside a timed phase.
func watchHeap(stop <-chan struct{}) uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	var peak uint64
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > peak {
			peak = v
		}
		select {
		case <-stop:
			return peak
		case <-tick.C:
		}
	}
}

// rssPeakMB is the process's peak resident set, from getrusage (KB on
// Linux); 0 where the call fails.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
