package main

import (
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"safeflow/pkg/safeflow"
)

// windowSegments is how many equal time slices a measured window is cut
// into. Each end-to-end statistic is computed per slice and the median
// over slices is reported, so a burst of load from elsewhere on a shared
// host moves at most one or two slices, not the result.
const windowSegments = 5

// opSample is one completed operation of a measured window.
type opSample struct {
	end time.Duration // completion time, from the start of the window
	lat float64       // ms
	cpu time.Duration // process CPU charged to the operation
}

// opLoop records a single-client closed loop. Time, CPU and runtime
// counters of an operation are taken around the operation only; the
// window's wall time also holds what the client does between operations.
type opLoop struct {
	start   time.Time
	samples []opSample
	rt      runtimeSnapshot // summed per-operation deltas
	mem     *memWatch
}

// opMark is the state at the start of one operation.
type opMark struct {
	t   time.Time
	cpu time.Duration
	rt  runtimeSnapshot
}

func (b *bench) startLoop() *opLoop {
	mem := b.watchMemory()
	return &opLoop{start: time.Now(), mem: mem}
}

func (l *opLoop) begin() opMark {
	return opMark{rt: readRuntime(), cpu: cpuTime(), t: time.Now()}
}

// end records a completed operation begun at m.
func (l *opLoop) end(m opMark) {
	now := time.Now()
	cpu := cpuTime() - m.cpu
	rt := readRuntime()
	l.samples = append(l.samples, opSample{end: now.Sub(l.start), lat: ms(now.Sub(m.t)), cpu: cpu})
	l.rt.allocBytes += rt.allocBytes - m.rt.allocBytes
	l.rt.gcCPU += rt.gcCPU - m.rt.gcCPU
	l.rt.totalCPU += rt.totalCPU - m.rt.totalCPU
}

// finishLoop ends the window of a single-client closed loop and sets its
// metrics and, in a traced run, its runtime layer metrics.
func (b *bench) finishLoop(l *opLoop) {
	window := time.Since(l.start)
	b.stopWatch(l.mem)
	b.setWindow(l.samples, window)
	b.setRuntime(runtimeSnapshot{}, l.rt, float64(len(l.samples)))
}

// memWatch samples the process's memory through a measured window: the
// resident set in an untraced run (peak_rss_mb), the live heap in a
// traced one (runtime.heap_peak_mb).
type memWatch struct {
	trace   bool
	startMB float64
	sampler *peakSampler
}

// watchMemory starts a memWatch. It first returns the set-up's garbage
// to the OS, so the peak resident set is the window's own. The resident
// set at that point, mostly the pre-generated inputs, is printed next to
// the peak.
func (b *bench) watchMemory() *memWatch {
	debug.FreeOSMemory()
	if b.cfg.trace {
		return &memWatch{trace: true, sampler: startPeakSampler(heapMB, 2*time.Millisecond)}
	}
	return &memWatch{startMB: rssMB(), sampler: startPeakSampler(rssMB, 5*time.Millisecond)}
}

func (b *bench) stopWatch(m *memWatch) {
	peak := m.sampler.finish()
	if m.trace {
		b.set("runtime.heap_peak_mb", peak)
		return
	}
	if peak > 0 {
		b.set("peak_rss_mb", peak)
	}
	b.linef("memory: resident %.1f MiB at window start (set-up's inputs), peak %.1f MiB in the window", m.startMB, peak)
}

// setWindow sets latency_p50_ms, latency_p90_ms, throughput_ops_s
// (completed operations per wall-clock second) and cpu_ms_per_op as
// medians over the window's segments.
func (b *bench) setWindow(samples []opSample, window time.Duration) {
	sort.Slice(samples, func(i, j int) bool { return samples[i].end < samples[j].end })
	segLen := window / windowSegments
	var p50, p90, tput, cpu []float64
	for k := 0; k < windowSegments; k++ {
		var seg []opSample
		for _, s := range samples {
			if int(s.end/segLen) == k || (k == windowSegments-1 && s.end >= window) {
				seg = append(seg, s)
			}
		}
		if len(seg) == 0 {
			continue
		}
		lat := make([]float64, len(seg))
		c := time.Duration(0)
		for i, s := range seg {
			lat[i] = s.lat
			c += s.cpu
		}
		p50 = append(p50, median(lat))
		p90 = append(p90, quantile(lat, 0.9))
		tput = append(tput, ratio(float64(len(seg)), segLen.Seconds()))
		cpu = append(cpu, ratio(ms(c), float64(len(seg))))
	}
	if len(p50) == 0 {
		b.linef("window: no operation completed")
		return
	}
	b.set("latency_p50_ms", median(p50))
	b.set("latency_p90_ms", median(p90))
	b.set("throughput_ops_s", median(tput))
	b.set("cpu_ms_per_op", median(cpu))
	b.linef("window: %d operations in %.2f s, %d segments", len(samples), window.Seconds(), len(p50))
	b.linef("  per-segment latency p50 %s ms", formatList(p50))
	b.linef("  per-segment latency p90 %s ms (%d samples beyond p90 per segment)", formatList(p90), len(samples)/len(p50)/10)
	b.linef("  per-segment throughput %s ops/s, cpu %s ms/op", formatList(tput), formatList(cpu))
}

// timeOpens opens (and closes) a session on each system with
// safeflow.Open and default options, and records open_p50_ms. Each open
// starts after a collection, so it pays for its own garbage, not for
// what the window or the previous open left behind.
func (b *bench) timeOpens(systems []system) {
	var lat []float64
	for _, sys := range systems {
		runtime.GC()
		t0 := time.Now()
		s, _, err := safeflow.Open(sys.name, sys.sources, sys.cFiles, safeflow.Options{})
		d := time.Since(t0)
		b.record(err)
		if err == nil {
			s.Close()
			lat = append(lat, ms(d))
		}
	}
	b.set("open_p50_ms", median(lat))
	b.linef("opens: %d sessions on fresh wide systems, p50 %.2f ms", len(lat), median(lat))
}
