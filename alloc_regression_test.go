// Allocation-regression pins for the phase 1-3 hot path, the
// report-cache hit path and session open. The phase 1-3 constants are the seed tree's
// -benchmem numbers for BenchmarkParallel_Phases13 (recorded in
// EXPERIMENTS.md, "PR 3 — allocation profile"); the interned bitset
// taint lattice and slice-indexed solver must stay at least 40% below
// them. Allocation counts are scheduling-independent on this
// workload (unlike wall time), so the pin is stable in CI.
package safeflow_test

import (
	"testing"

	"safeflow/internal/core"
	"safeflow/internal/corpus"
	"safeflow/internal/cpp"
	"safeflow/internal/diskcache"
	"safeflow/internal/frontend"
	"safeflow/pkg/safeflow"
)

// Seed baselines: allocs/op and B/op of phases 1-3 per corpus system
// before the bitset lattice rewrite (map-backed Taint, map-indexed
// solver), measured with -benchtime 20x on the reference host.
var seedAllocBaseline = map[string]struct {
	allocs int64
	bytes  int64
}{
	"IP":              {allocs: 11005, bytes: 998832},
	"Generic Simplex": {allocs: 14061, bytes: 1283799},
	"Double IP":       {allocs: 19393, bytes: 1851842},
}

func TestAllocRegression_Phases13(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin skipped in -short mode")
	}
	const maxRatio = 0.6 // ISSUE 3 acceptance: ≥40% fewer allocations than seed
	for _, sys := range corpus.All() {
		sys := sys
		base, ok := seedAllocBaseline[sys.Name]
		if !ok {
			t.Errorf("no seed baseline recorded for corpus system %q", sys.Name)
			continue
		}
		t.Run(sys.Name, func(t *testing.T) {
			src, err := sys.Sources()
			if err != nil {
				t.Fatal(err)
			}
			res, err := frontend.Compile(sys.Name, src, sys.CFiles, frontend.Options{})
			if err != nil {
				t.Fatal(err)
			}
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rep := core.AnalyzeModule(sys.Name, res, core.Options{})
					if len(rep.ErrorsData) != sys.Expected.Errors {
						b.Fatalf("counts diverged")
					}
				}
			})
			allocs, bytes := r.AllocsPerOp(), r.AllocedBytesPerOp()
			if lim := int64(float64(base.allocs) * maxRatio); allocs > lim {
				t.Errorf("%s: %d allocs/op, want ≤ %d (0.6× seed %d)", sys.Name, allocs, lim, base.allocs)
			}
			if lim := int64(float64(base.bytes) * maxRatio); bytes > lim {
				t.Errorf("%s: %d B/op, want ≤ %d (0.6× seed %d)", sys.Name, bytes, lim, base.bytes)
			}
			t.Logf("%s: %d allocs/op, %d B/op (seed %d allocs, %d B)",
				sys.Name, allocs, bytes, base.allocs, base.bytes)
		})
	}
}

// Report-cache hit path: a repeat analysis served from a disk store
// (fingerprint, store read, decode) must stay a small fraction of a
// cold run. Measured at 772 / 832 / 800 allocs/op and 53-60 KiB/op for
// IP / Generic Simplex / Double IP; the pins leave about 25% headroom.
const (
	maxHitAllocs = 1000
	maxHitBytes  = 80 << 10
)

func TestAllocRegression_ReportCacheHit(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin skipped in -short mode")
	}
	for _, sys := range corpus.All() {
		t.Run(sys.Name, func(t *testing.T) {
			src, err := sys.SourceMap()
			if err != nil {
				t.Fatal(err)
			}
			dc, err := diskcache.Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			opts := core.Options{DiskCache: dc}
			if _, err := core.AnalyzeSources(sys.Name, cpp.MapSource(src), sys.CFiles, opts); err != nil {
				t.Fatal(err)
			}
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rep, err := core.AnalyzeSources(sys.Name, cpp.MapSource(src), sys.CFiles, opts)
					if err != nil || rep.Module != nil || len(rep.ErrorsData) != sys.Expected.Errors {
						b.Fatalf("repeat was not the stored report (err %v)", err)
					}
				}
			})
			allocs, bytes := r.AllocsPerOp(), r.AllocedBytesPerOp()
			if allocs > maxHitAllocs {
				t.Errorf("%s: %d allocs/op on a report-cache hit, want ≤ %d", sys.Name, allocs, maxHitAllocs)
			}
			if bytes > maxHitBytes {
				t.Errorf("%s: %d B/op on a report-cache hit, want ≤ %d", sys.Name, bytes, maxHitBytes)
			}
			t.Logf("%s: %d allocs/op, %d B/op on a report-cache hit", sys.Name, allocs, bytes)
		})
	}
}

// Session open compiles each translation unit once, through the
// fragment compiler, and analyzes the linked module; the fragment
// state it keeps for later updates costs a bounded share on top of a
// from-scratch analysis. Opening through a fragment compile plus a
// second, whole-module compile measured 1.89× Analyze's allocs/op; one
// frontend pass measures 1.48× on the default generated shape (1.58×
// under -race). The pin sits between the two, so a second frontend pass
// fails it.
const maxOpenAllocRatio = 1.70

func TestAllocRegression_SessionOpen(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin skipped in -short mode")
	}
	const runs = 4
	// Every call sees a system no earlier call analyzed (AllocsPerRun
	// makes runs+1 calls), so no cache can hide a frontend pass.
	systems := make([]corpus.Generated, 2*(runs+1))
	for i := range systems {
		systems[i] = corpus.Generate(int64(700+i), corpus.GenConfig{})
	}
	next := 0
	measure := func(run func(g corpus.Generated) error) float64 {
		return testing.AllocsPerRun(runs, func() {
			g := systems[next]
			next++
			if err := run(g); err != nil {
				t.Fatalf("%s: %v", g.Name, err)
			}
		})
	}
	analyze := measure(func(g corpus.Generated) error {
		_, err := safeflow.Analyze(g.Name, g.Sources, g.CFiles, safeflow.Options{})
		return err
	})
	open := measure(func(g corpus.Generated) error {
		s, _, err := safeflow.Open(g.Name, g.Sources, g.CFiles, safeflow.Options{})
		if err == nil {
			s.Close()
		}
		return err
	})
	ratio := open / analyze
	if ratio > maxOpenAllocRatio {
		t.Errorf("safeflow.Open: %.0f allocs/op = %.2f× Analyze's %.0f, want ≤ %.2f×",
			open, ratio, analyze, maxOpenAllocRatio)
	}
	t.Logf("safeflow.Open %.0f allocs/op, Analyze %.0f allocs/op: %.2f×", open, analyze, ratio)
}
