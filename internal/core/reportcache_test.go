package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"safeflow/internal/cpp"
	"safeflow/internal/pointsto"
	"safeflow/internal/vfg"
)

// memCache is an in-memory CacheBackend for tests: a map per namespace,
// plus a count of Gets and Puts per namespace.
type memCache struct {
	mu      sync.Mutex
	entries map[string]map[[sha256.Size]byte][]byte
	gets    map[string]int
	puts    map[string]int
}

func newMemCache() *memCache {
	return &memCache{entries: map[string]map[[sha256.Size]byte][]byte{}, gets: map[string]int{}, puts: map[string]int{}}
}

func (m *memCache) Get(ns string, version uint32, key [sha256.Size]byte) ([]byte, bool, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gets[ns]++
	data, ok := m.entries[ns][key]
	return data, ok, false
}

func (m *memCache) Put(ns string, version uint32, key [sha256.Size]byte, data []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries[ns] == nil {
		m.entries[ns] = map[[sha256.Size]byte][]byte{}
	}
	m.entries[ns][key] = append([]byte(nil), data...)
	m.puts[ns]++
}

func (m *memCache) len(ns string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries[ns])
}

func (m *memCache) putCount(ns string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.puts[ns]
}

func (m *memCache) getCount(ns string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gets[ns]
}

func figure2Source(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile("../../testdata/figure2.c")
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// TestFingerprintFollowsPreprocessorIncludes pins that the report-cache
// key covers every file the preprocessor reads, however the include
// directive is spelled: two trees differing only in a header reached
// through "# include" or a backslash-continued directive must get
// different keys, and a disk cache must never serve one tree's report
// for the other.
func TestFingerprintFollowsPreprocessorIncludes(t *testing.T) {
	body := figure2Source(t)
	for name, directive := range map[string]string{
		"spaced":    "# include \"body.h\"\n",
		"continued": "#include \\\n\"body.h\"\n",
		"tabbed":    "#\tinclude\t\"body.h\"\n",
	} {
		t.Run(name, func(t *testing.T) {
			files := []string{"main.c"}
			withBody := cpp.MapSource{"main.c": directive, "body.h": body}
			empty := cpp.MapSource{"main.c": directive, "body.h": "void idle(void) {}\n"}
			if fingerprintSources("s", withBody, files, Options{}) == fingerprintSources("s", empty, files, Options{}) {
				t.Fatal("trees differing only in an included header share a fingerprint")
			}

			mc := newMemCache()
			render := func(src cpp.MapSource) []byte {
				t.Helper()
				rep, err := AnalyzeSources("s", src, files, Options{DiskCache: mc})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				for _, w := range rep.Warnings {
					buf.WriteString(w.String() + "\n")
				}
				for _, e := range rep.ErrorsData {
					buf.WriteString(e.String() + "\n")
				}
				return buf.Bytes()
			}
			full := render(withBody)
			if len(full) == 0 {
				t.Fatal("the included figure 2 program produced no findings")
			}
			if got := render(empty); bytes.Equal(got, full) {
				t.Fatal("the disk cache served the other tree's report")
			}
			if mc.len(reportNS) != 2 {
				t.Fatalf("report namespace holds %d entries, want 2", mc.len(reportNS))
			}
		})
	}
}

// TestFingerprintCoversReportOptions pins that every input that changes
// a report changes the key.
func TestFingerprintCoversReportOptions(t *testing.T) {
	src := cpp.MapSource{"main.c": credSrc, "other.c": "void other(void) {}\n"}
	files := []string{"main.c"}
	base := fingerprintSources("s", src, files, Options{})
	variants := map[string][sha256.Size]byte{
		"alias":       fingerprintSources("s", src, files, Options{PointsTo: pointsto.ModeUnify}),
		"exponential": fingerprintSources("s", src, files, Options{Exponential: true}),
		"roots":       fingerprintSources("s", src, files, Options{Roots: []string{"serve"}}),
		"defines":     fingerprintSources("s", src, files, Options{Defines: map[string]string{"N": "1"}}),
		"policy":      fingerprintSources("s", src, files, Options{Policy: mustBuiltin(t, "credential-leak")}),
		"name":        fingerprintSources("t", src, files, Options{}),
		"units":       fingerprintSources("s", src, []string{"main.c", "other.c"}, Options{}),
		"source":      fingerprintSources("s", cpp.MapSource{"main.c": credSrc + "\n"}, files, Options{}),
		// A root and a define spelling the same string must not collide.
		"root-vs-define": fingerprintSources("s", src, files, Options{Roots: []string{"N=1"}}),
	}
	seen := map[[sha256.Size]byte]string{base: "base"}
	for what, fp := range variants {
		if prev, ok := seen[fp]; ok {
			t.Errorf("%s shares a key with %s", what, prev)
		}
		seen[fp] = what
	}
	// Options that never change a report must not split the cache.
	for what, opts := range map[string]Options{
		"workers":       {Workers: 3},
		"stats":         {Stats: true},
		"recover":       {Recover: true},
		"disk-attached": {DiskCache: newMemCache()},
	} {
		if fingerprintSources("s", src, files, opts) != base {
			t.Errorf("%s changes the key", what)
		}
	}
}

// TestReportCacheHitMatchesFreshRun pins that a hit rebuilds the report
// exactly: every exported field a renderer or caller reads, except the
// Module (nil on a hit) and the metrics that record the hit.
func TestReportCacheHitMatchesFreshRun(t *testing.T) {
	for _, pol := range []string{"", "credential-leak"} {
		opts := Options{Stats: true, DiskCache: newMemCache()}
		if pol != "" {
			opts.Policy = mustBuiltin(t, pol)
		}
		src := cpp.MapSource{"main.c": figure2Source(t) + credSrc + "\n// safeflow:ignore nosuchrule because\n"}
		fresh, err := AnalyzeSources("fig", src, []string{"main.c"}, opts)
		if err != nil {
			t.Fatal(err)
		}
		hit, err := AnalyzeSources("fig", src, []string{"main.c"}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if fresh.Metrics.ReportCacheMisses != 1 || hit.Metrics.ReportCacheHits != 1 {
			t.Fatalf("policy %q: misses=%d on the first run, hits=%d on the repeat",
				pol, fresh.Metrics.ReportCacheMisses, hit.Metrics.ReportCacheHits)
		}
		if fresh.Metrics.CacheMisses != fresh.UnitsAnalyzed || hit.Metrics.CacheHits != fresh.UnitsAnalyzed ||
			fresh.Metrics.CacheHits != 0 || hit.Metrics.CacheMisses != 0 {
			t.Fatalf("policy %q: unit counters fresh %d/%d, hit %d/%d, want 0/%d and %[6]d/0", pol,
				fresh.Metrics.CacheHits, fresh.Metrics.CacheMisses, hit.Metrics.CacheHits, hit.Metrics.CacheMisses, fresh.UnitsAnalyzed)
		}
		if hit.Module != nil || fresh.Module == nil {
			t.Fatalf("policy %q: Module on a hit = %v, on a miss = %v", pol, hit.Module, fresh.Module)
		}
		if got, want := describeReport(hit), describeReport(fresh); got != want {
			t.Errorf("policy %q: hit report differs from the fresh one:\n--- fresh\n%s\n--- hit\n%s", pol, want, got)
		}
	}
}

// TestReportCacheKeyedByBuild pins that a report stored by one analyzer
// build is never served to another: the store is shared across
// upgrades, restored CI caches and fleet deploys, and a stored report is
// the verdict itself.
func TestReportCacheKeyedByBuild(t *testing.T) {
	if buildIdentity() == "" || buildIdentity() != buildIdentity() {
		t.Fatalf("build identity %q is empty or unstable", buildIdentity())
	}
	mc := newMemCache()
	src := cpp.MapSource{"main.c": figure2Source(t)}
	files := []string{"main.c"}
	opts := Options{Stats: true, DiskCache: mc}
	if _, err := AnalyzeSources("s", src, files, opts); err != nil {
		t.Fatal(err)
	}
	thisBuild := buildIdentity
	defer func() { buildIdentity = thisBuild }()
	buildIdentity = func() string { return "another build" }
	rep, err := AnalyzeSources("s", src, files, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.ReportCacheHits != 0 || rep.Module == nil {
		t.Fatal("another build was served this build's stored report")
	}
	if n := mc.len(reportNS); n != 2 {
		t.Fatalf("report namespace holds %d entries, want one per build", n)
	}
	buildIdentity = thisBuild
	if rep, err := AnalyzeSources("s", src, files, opts); err != nil || rep.Metrics.ReportCacheHits != 1 {
		t.Fatalf("this build's own report was not served back (err %v)", err)
	}
}

// TestDisableCacheBypassesReportCache pins that DisableCache with a disk
// cache attached neither reads nor writes the report namespace, even
// when it holds the run's report.
func TestDisableCacheBypassesReportCache(t *testing.T) {
	mc := newMemCache()
	src := cpp.MapSource{"main.c": figure2Source(t)}
	files := []string{"main.c"}
	if _, err := AnalyzeSources("s", src, files, Options{DiskCache: mc}); err != nil {
		t.Fatal(err)
	}
	gets, puts := mc.getCount(reportNS), mc.putCount(reportNS)
	rep, err := AnalyzeSources("s", src, files, Options{Stats: true, DiskCache: mc, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Module == nil || rep.Metrics.ReportCacheHits != 0 || rep.Metrics.ReportCacheMisses != 0 {
		t.Fatal("DisableCache run consulted the report cache")
	}
	if mc.getCount(reportNS) != gets || mc.putCount(reportNS) != puts {
		t.Fatalf("DisableCache run touched the report namespace: gets %d→%d, puts %d→%d",
			gets, mc.getCount(reportNS), puts, mc.putCount(reportNS))
	}
}

// describeReport dumps every report field a renderer or caller reads.
func describeReport(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s loc=%d annot=%d units=%d sccs=%d degraded=%v internal=%v diags=%v\n",
		r.Name, r.LinesOfCode, r.AnnotationLines, r.UnitsAnalyzed, r.sccs, r.Degraded, r.Internal, r.Diagnostics)
	fmt.Fprintf(&b, "policy %s %s %v %v\n", r.PolicyName, r.PolicyFingerprint, r.PolicyExplicit, r.PolicyRules)
	for _, x := range r.Regions {
		fmt.Fprintf(&b, "region %s\n", x)
	}
	for _, e := range r.AnnotationErrors {
		fmt.Fprintf(&b, "annot %v\n", e)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "violation %s\n", v)
	}
	source := func(s *vfg.Source) string {
		ctxs := make([]string, 0, len(s.Contexts))
		for c := range s.Contexts {
			ctxs = append(ctxs, c)
		}
		sort.Strings(ctxs)
		return fmt.Sprintf("%s [%s] %v", s, s.Rule, ctxs)
	}
	for _, w := range r.Warnings {
		fmt.Fprintf(&b, "warning %s\n", source(w))
	}
	for _, errs := range [][]*vfg.ErrorDep{r.ErrorsData, r.ErrorsControlOnly} {
		for _, e := range errs {
			fmt.Fprintf(&b, "error %s [%s]\n", e, e.Rule)
			for _, s := range e.SortedSources() {
				fmt.Fprintf(&b, "  via %s %s\n", e.Sources[s], source(s))
			}
		}
	}
	fmt.Fprintf(&b, "suppressed %+v\nissues %+v\n", r.Suppressed, r.SuppressionIssues)
	return b.String()
}

// TestReportCacheStoresOnlyCompleteVerdicts pins what never reaches the
// store: degraded, crashed, cancelled and session runs.
func TestReportCacheStoresOnlyCompleteVerdicts(t *testing.T) {
	good := figure2Source(t)
	files := []string{"main.c"}

	t.Run("degraded", func(t *testing.T) {
		mc := newMemCache()
		src := cpp.MapSource{"main.c": good, "bad.c": "int broken( {\n"}
		rep, err := AnalyzeSources("s", src, []string{"main.c", "bad.c"}, Options{Recover: true, DiskCache: mc})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Degraded {
			t.Fatal("run not degraded")
		}
		if n := mc.putCount(reportNS); n != 0 {
			t.Fatalf("degraded run stored %d reports", n)
		}
	})
	t.Run("internal", func(t *testing.T) {
		mc := newMemCache()
		SetPhaseHook(func(phase, _ string) {
			if phase == "restrict" {
				panic("injected")
			}
		})
		rep, err := AnalyzeSources("s", cpp.MapSource{"main.c": good}, files, Options{DiskCache: mc})
		SetPhaseHook(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Internal) == 0 {
			t.Fatal("injected panic not recorded")
		}
		if n := mc.putCount(reportNS); n != 0 {
			t.Fatalf("crashed run stored %d reports", n)
		}
	})
	t.Run("cancelled", func(t *testing.T) {
		for _, phase := range pipelinePhases {
			mc := newMemCache()
			ctx, cancel := context.WithCancel(context.Background())
			SetPhaseHook(func(p, _ string) {
				if p == phase {
					cancel()
				}
			})
			_, err := AnalyzeSourcesContext(ctx, "s", cpp.MapSource{"main.c": good}, files, Options{DiskCache: mc})
			SetPhaseHook(nil)
			cancel()
			if err != context.Canceled {
				t.Fatalf("cancel@%s: err = %v, want context.Canceled", phase, err)
			}
			if n := mc.putCount(reportNS); n != 0 {
				t.Fatalf("cancel@%s: cancelled run stored %d reports", phase, n)
			}
		}
	})
	t.Run("session", func(t *testing.T) {
		mc := newMemCache()
		opts := Options{DiskCache: mc}
		// A stored report for the same input must not be served to a
		// session either: it needs the run's captured state.
		if _, err := AnalyzeSources("s", cpp.MapSource{"main.c": good}, files, opts); err != nil {
			t.Fatal(err)
		}
		sess, rep, err := OpenSession(context.Background(), "s", map[string]string{"main.c": good}, files, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		if rep.Module == nil {
			t.Fatal("session open was served from the report cache")
		}
		if _, _, err := sess.Update(context.Background(), map[string]string{"main.c": good + "\nvoid extra(void) {}\n"}); err != nil {
			t.Fatal(err)
		}
		if n := mc.putCount(reportNS); n != 1 {
			t.Fatalf("report namespace saw %d puts, want only the plain run's 1", n)
		}
	})
}

// TestReportCacheUndecodableEntryRecomputed pins the heal path for an
// entry that passes the store's checksum but does not decode: it counts
// as a corrupt eviction, the run recomputes the same report, and the
// recomputed report overwrites the entry.
func TestReportCacheUndecodableEntryRecomputed(t *testing.T) {
	mc := newMemCache()
	src := cpp.MapSource{"main.c": figure2Source(t)}
	opts := Options{DiskCache: mc, Stats: true}
	want, err := AnalyzeSources("s", src, []string{"main.c"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	key := fingerprintSources("s", src, []string{"main.c"}, opts)
	for _, garbage := range [][]byte{[]byte("not gob"), nil} {
		mc.Put(reportNS, reportVersion, key, garbage)
		got, err := AnalyzeSources("s", src, []string{"main.c"}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Metrics.CacheCorruptEvictions != 1 || got.Metrics.ReportCacheMisses != 1 {
			t.Fatalf("undecodable entry: corrupt evictions %d, misses %d, want 1 and 1",
				got.Metrics.CacheCorruptEvictions, got.Metrics.ReportCacheMisses)
		}
		if len(got.Warnings) != len(want.Warnings) || len(got.ErrorsData) != len(want.ErrorsData) {
			t.Fatal("recomputed report differs")
		}
		healed, err := AnalyzeSources("s", src, []string{"main.c"}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if healed.Metrics.ReportCacheHits != 1 {
			t.Fatal("recomputed report did not overwrite the undecodable entry")
		}
	}
}
