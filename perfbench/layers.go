package main

import (
	"encoding/json"
	"reflect"
	"strings"
)

// counters flattens a value exported by the program (a run-metrics
// snapshot, a /metricsz payload, UpdateStats) into its JSON field names,
// so the benchmark names counters only as strings: a counter the program
// stops exporting turns into an absent metric, not a build failure.
// Fields tagged omitempty that are zero are still reported, as 0, as
// long as the type declares them.
type counters map[string]float64

func countersOf(v any) counters {
	out := counters{}
	if v == nil {
		return out
	}
	if rv := reflect.Indirect(reflect.ValueOf(v)); rv.Kind() == reflect.Struct {
		declareFields(rv.Type(), "", out)
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return out
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		return out
	}
	flatten("", m, out)
	return out
}

// declareFields records every numeric or boolean field of t as 0.
func declareFields(t reflect.Type, prefix string, out counters) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		name := f.Name
		if tag := f.Tag.Get("json"); tag != "" {
			if n := strings.Split(tag, ",")[0]; n == "-" {
				continue
			} else if n != "" {
				name = n
			}
		}
		ft := f.Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		switch ft.Kind() {
		case reflect.Struct:
			declareFields(ft, prefix+name+".", out)
		case reflect.Int, reflect.Int32, reflect.Int64, reflect.Uint, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Bool:
			out[prefix+name] = 0
		}
	}
}

func flatten(prefix string, m map[string]any, out counters) {
	for k, v := range m {
		switch x := v.(type) {
		case float64:
			out[prefix+k] = x
		case bool:
			if x {
				out[prefix+k] = 1
			} else {
				out[prefix+k] = 0
			}
		case map[string]any:
			flatten(prefix+k+".", x, out)
		}
	}
}

// add accumulates c into t.
func (t counters) add(c counters) {
	for k, v := range c {
		t[k] += v
	}
}

// delta is after-before over the counters both snapshots export.
func delta(before, after counters) counters {
	out := counters{}
	for k, v := range after {
		if b, ok := before[k]; ok {
			out[k] = v - b
		}
	}
	return out
}

// setRunCaches sets the in-memory cache hit ratios from summed run
// metrics snapshots (Options.Stats).
func (b *bench) setRunCaches(c counters) {
	b.setFrom("frontend.parse_cache_hit_ratio", c, hitRatio, "frontend_cache_hits", "frontend_cache_misses")
	b.setFrom("vfg.summary_cache_hit_ratio", c, hitRatio, "cache_hits", "cache_misses")
}

// notExercised lists the metrics of each layer a workload may not run;
// such a workload reports them as 0.
var notExercised = map[string][]string{
	"diskcache": {"diskcache.hit_ratio", "diskcache.puts_per_op"},
	"session": {"session.incremental_ratio", "session.funcs_invalidated_per_update",
		"session.funcs_reused_ratio", "session.units_replayed_ratio", "session.restarts_per_update"},
}

func (b *bench) zeroLayers(layers ...string) {
	for _, l := range layers {
		for _, name := range notExercised[l] {
			b.set(name, 0)
		}
	}
}

// setCacheLayers sets the cache layer metrics from the window's
// /metricsz delta; ops is the number of completed requests.
func (b *bench) setCacheLayers(dm counters, ops float64) {
	b.setFrom("frontend.parse_cache_hit_ratio", dm, hitRatio, "frontend_cache_hits", "frontend_cache_misses")
	b.setFrom("vfg.summary_cache_hit_ratio", dm, hitRatio, "cache_hits", "cache_misses")
	b.setFrom("diskcache.hit_ratio", dm, hitRatio, "disk_store.hits", "disk_store.misses")
	b.setFrom("diskcache.puts_per_op", dm, func(v ...float64) float64 { return ratio(v[0], ops) }, "disk_store.puts")
}

// setDaemonLayers sets the daemon layer metrics from a /metricsz delta;
// latSum and ops are the clients' view of the same requests.
func (b *bench) setDaemonLayers(dm counters, latSum, ops float64) {
	analysis := func(v ...float64) float64 { return ratio(v[0]/1e6, v[1]) }
	b.setFrom("daemon.analysis_ms_per_request", dm, analysis, "analysis_wall_ns", "requests_total")
	b.setFrom("daemon.overhead_ms", dm, func(v ...float64) float64 {
		return ratio(latSum, ops) - analysis(v...)
	}, "analysis_wall_ns", "requests_total")
	share := func(v ...float64) float64 { return ratio(v[0], v[1]) }
	b.setFrom("daemon.dedup_ratio", dm, share, "dedup_hits", "requests_total")
	b.setFrom("daemon.rejected_ratio", dm, share, "requests_rejected", "requests_total")
}

// setSessionLayers sets the session metrics from summed UpdateStats.
func (b *bench) setSessionLayers(st counters, n float64) {
	perUpdate := func(v ...float64) float64 { return ratio(v[0], n) }
	b.setFrom("session.incremental_ratio", st, perUpdate, "Incremental")
	b.setFrom("session.funcs_invalidated_per_update", st, perUpdate, "FuncsInvalidated")
	b.setFrom("session.funcs_reused_ratio", st, hitRatio, "FuncsReused", "FuncsInvalidated")
	b.setFrom("session.units_replayed_ratio", st, hitRatio, "UnitsReplayed", "UnitsSolved")
	b.setFrom("session.restarts_per_update", st, perUpdate, "Restarts")
}

func (b *bench) setRuntime(before, after runtimeSnapshot, ops float64) {
	b.set("runtime.alloc_mb_per_op", ratio((after.allocBytes-before.allocBytes)/(1<<20), ops))
	b.set("runtime.gc_cpu_frac", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU))
}
