// Package metrics instruments SafeFlow analysis runs: per-phase wall
// times, pipeline shape counters (translation units, SCCs, fixpoint
// rounds, summaries solved), cache hit rates, and peak goroutine
// counts. A Collector is threaded through one run; its Finish snapshot is
// embedded in reports under the versioned "metrics" JSON key.
//
// All Collector methods are safe on a nil receiver, so instrumentation
// call sites need no guards when stats collection is off.
package metrics

import (
	"runtime"
	"sync"
	"time"
)

// SchemaVersion is the version of the RunMetrics JSON shape. It is
// embedded in every snapshot; consumers must check it before relying on
// the field set. Bump it whenever a field is removed or changes meaning
// (additions are backward compatible and do not bump it).
//
// v2 deleted the phase-3 summary cache: cache_hits and cache_misses
// now count phase-3 units served from the report cache, and the report
// cache counters were added.
const SchemaVersion = 2

// PhaseMetrics is the timing of one pipeline phase.
type PhaseMetrics struct {
	Name   string `json:"name"`
	WallNS int64  `json:"wall_ns"`
}

// RunMetrics is one analysis run's instrumentation snapshot. The
// structural fields (schema version, phase names, translation units,
// SCCs) are deterministic for a given input; everything else depends on
// scheduling, cache temperature, and the host — Canonicalize zeroes
// those for byte-stable comparisons.
type RunMetrics struct {
	SchemaVersion    int            `json:"schema_version"`
	WallNS           int64          `json:"wall_ns"`
	Phases           []PhaseMetrics `json:"phases"`
	TranslationUnits int            `json:"translation_units"`
	SCCs             int            `json:"sccs"`
	FixpointRounds   int            `json:"fixpoint_rounds"`
	UnitsSolved      int            `json:"units_solved"`
	// CacheHits counts the phase-3 units a report-cache hit serves (all
	// those of the run that stored the report); CacheMisses counts the
	// units phase 3 analyzed itself, equal to UnitsSolved. A run fills
	// one of the two.
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// Report-cache counters (omitted from JSON when zero): a run with a
	// disk cache looks its fingerprint up once, so one of the two is 1.
	// On a hit no pipeline phase runs: the phases are listed with zero
	// wall time, and the translation-unit and SCC counts are those of
	// the run that stored the report.
	ReportCacheHits   int `json:"report_cache_hits,omitempty"`
	ReportCacheMisses int `json:"report_cache_misses,omitempty"`
	// FrontendCacheHits and FrontendCacheMisses are always 0: the
	// frontend keeps no cache. They stay declared for readers that
	// select counters by JSON name (omitted from JSON when zero).
	FrontendCacheHits   int `json:"frontend_cache_hits,omitempty"`
	FrontendCacheMisses int `json:"frontend_cache_misses,omitempty"`
	// Disk-cache tier counters (omitted from JSON when zero): hits and
	// misses observed against the persistent content-addressed store that
	// backs the report cache across process restarts.
	DiskCacheHits   int `json:"disk_cache_hits,omitempty"`
	DiskCacheMisses int `json:"disk_cache_misses,omitempty"`
	// CacheCorruptEvictions counts report-cache entries whose
	// integrity check failed on load: each was evicted and recomputed
	// instead of poisoning the run. Omitted from JSON when zero.
	CacheCorruptEvictions int `json:"cache_corrupt_evictions,omitempty"`
	// Incremental re-analysis counters (set only on session updates;
	// omitted from JSON when zero): how many functions the dependency
	// graph invalidated versus reused, how many solved units were
	// replayed from the previous run's records, and how many verify
	// restarts the run needed.
	IncrFuncsInvalidated int `json:"incr_funcs_invalidated,omitempty"`
	IncrFuncsReused      int `json:"incr_funcs_reused,omitempty"`
	IncrUnitsReplayed    int `json:"incr_units_replayed,omitempty"`
	IncrRestarts         int `json:"incr_restarts,omitempty"`
	PeakGoroutines       int `json:"peak_goroutines"`
}

// Canonicalize zeroes every execution-dependent field — wall times, the
// scheduling-sensitive solve counters, cache temperature, and goroutine
// peaks — leaving only the fields that are deterministic functions of
// the analyzed input (schema version, phase list, translation units,
// SCC count). Two runs of the same input at any worker count and cache
// state canonicalize to identical values; determinism and golden tests
// rely on this.
func (m *RunMetrics) Canonicalize() {
	if m == nil {
		return
	}
	m.WallNS = 0
	for i := range m.Phases {
		m.Phases[i].WallNS = 0
	}
	m.FixpointRounds = 0
	m.UnitsSolved = 0
	m.CacheHits = 0
	m.CacheMisses = 0
	m.ReportCacheHits = 0
	m.ReportCacheMisses = 0
	m.FrontendCacheHits = 0
	m.FrontendCacheMisses = 0
	m.DiskCacheHits = 0
	m.DiskCacheMisses = 0
	m.CacheCorruptEvictions = 0
	m.IncrFuncsInvalidated = 0
	m.IncrFuncsReused = 0
	m.IncrUnitsReplayed = 0
	m.IncrRestarts = 0
	m.PeakGoroutines = 0
}

// Collector accumulates one run's metrics. Phase timings are recorded
// sequentially by the pipeline driver; the counters and goroutine
// observations may arrive concurrently from worker goroutines.
type Collector struct {
	mu    sync.Mutex
	m     RunMetrics
	start time.Time
}

// NewCollector starts a collector for one run.
func NewCollector() *Collector {
	c := &Collector{start: time.Now()}
	c.m.SchemaVersion = SchemaVersion
	c.ObserveGoroutines()
	return c
}

// Phase records the start of a named phase and returns the function that
// records its end; phases appear in the snapshot in call order.
func (c *Collector) Phase(name string) (done func()) {
	if c == nil {
		return func() {}
	}
	c.ObserveGoroutines()
	start := time.Now()
	return func() {
		elapsed := time.Since(start).Nanoseconds()
		c.mu.Lock()
		c.m.Phases = append(c.m.Phases, PhaseMetrics{Name: name, WallNS: elapsed})
		c.mu.Unlock()
		c.ObserveGoroutines()
	}
}

// SkipPhase records a phase that did not run, with zero wall time: a
// report-cache hit lists the phases of the run that stored the report.
func (c *Collector) SkipPhase(name string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.m.Phases = append(c.m.Phases, PhaseMetrics{Name: name})
	c.mu.Unlock()
}

// SetTranslationUnits records the number of translation units compiled.
func (c *Collector) SetTranslationUnits(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.m.TranslationUnits = n
	c.mu.Unlock()
}

// SetPhase3 records the value-flow phase's shape counters.
func (c *Collector) SetPhase3(sccs, rounds, unitsSolved, cacheHits, cacheMisses int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.m.SCCs = sccs
	c.m.FixpointRounds = rounds
	c.m.UnitsSolved = unitsSolved
	c.m.CacheHits = cacheHits
	c.m.CacheMisses = cacheMisses
	c.mu.Unlock()
}

// AddReportCache records the outcome of a report-cache lookup.
func (c *Collector) AddReportCache(hits, misses int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.m.ReportCacheHits += hits
	c.m.ReportCacheMisses += misses
	c.mu.Unlock()
}

// SetIncremental records the incremental re-analysis shape counters of
// a session update.
func (c *Collector) SetIncremental(funcsInvalidated, funcsReused, unitsReplayed, restarts int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.m.IncrFuncsInvalidated = funcsInvalidated
	c.m.IncrFuncsReused = funcsReused
	c.m.IncrUnitsReplayed = unitsReplayed
	c.m.IncrRestarts = restarts
	c.mu.Unlock()
}

// AddDiskCache accumulates persistent-cache hit/miss counts; the report
// cache reports them when a disk tier is attached.
func (c *Collector) AddDiskCache(hits, misses int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.m.DiskCacheHits += hits
	c.m.DiskCacheMisses += misses
	c.mu.Unlock()
}

// AddCacheCorruptEvictions counts cache entries evicted because their
// integrity check failed on load; the caches report concurrently.
func (c *Collector) AddCacheCorruptEvictions(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.m.CacheCorruptEvictions += n
	c.mu.Unlock()
}

// ObserveGoroutines samples the process goroutine count into the peak.
// Workers call it as they start so the peak reflects real concurrency.
func (c *Collector) ObserveGoroutines() {
	if c == nil {
		return
	}
	n := runtime.NumGoroutine()
	c.mu.Lock()
	if n > c.m.PeakGoroutines {
		c.m.PeakGoroutines = n
	}
	c.mu.Unlock()
}

// Finish closes the run and returns the snapshot. Nil-safe: a nil
// collector yields a nil snapshot (stats collection was off).
func (c *Collector) Finish() *RunMetrics {
	if c == nil {
		return nil
	}
	c.ObserveGoroutines()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m.WallNS = time.Since(c.start).Nanoseconds()
	snap := c.m
	snap.Phases = append([]PhaseMetrics(nil), c.m.Phases...)
	return &snap
}
