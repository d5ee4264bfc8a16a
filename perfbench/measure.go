package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is not modified). It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMB is the process's resident set size now, in MiB, or 0 when
// /proc/self/statm cannot be read.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// Go runtime counters behind the runtime.* layer metrics.
const (
	rtAllocBytes = "/gc/heap/allocs:bytes"
	rtGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rtTotalCPU   = "/cpu/classes/total:cpu-seconds"
	rtHeapBytes  = "/memory/classes/heap/objects:bytes"
)

// runtimeSnapshot reads the runtime counters the runtime.* metrics are
// deltas of.
type runtimeSnapshot struct {
	allocBytes      float64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeSnapshot {
	s := []metrics.Sample{{Name: rtAllocBytes}, {Name: rtGCCPU}, {Name: rtTotalCPU}}
	metrics.Read(s)
	return runtimeSnapshot{
		allocBytes: sampleValue(s[0]),
		gcCPU:      sampleValue(s[1]),
		totalCPU:   sampleValue(s[2]),
	}
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// heapMB is the live-object heap now, in MiB.
func heapMB() float64 {
	s := []metrics.Sample{{Name: rtHeapBytes}}
	metrics.Read(s)
	return sampleValue(s[0]) / (1 << 20)
}

// peakSampler tracks the peak of a gauge while it runs.
type peakSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak float64
}

func startPeakSampler(read func() float64, every time.Duration) *peakSampler {
	p := &peakSampler{stop: make(chan struct{})}
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			if v := read(); v > p.peak {
				p.peak = v
			}
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// finish stops the sampler and returns the peak.
func (p *peakSampler) finish() float64 {
	close(p.stop)
	p.done.Wait()
	return p.peak
}
