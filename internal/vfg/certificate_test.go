package vfg_test

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"safeflow/internal/callgraph"
	"safeflow/internal/corpus"
	"safeflow/internal/cpp"
	"safeflow/internal/frontend"
	"safeflow/internal/fuzzcamp"
	"safeflow/internal/irgen"
	"safeflow/internal/pointsto"
	"safeflow/internal/policy"
	"safeflow/internal/shmflow"
	"safeflow/internal/vfg"
)

// The fixpoint certificate (vfg.Certify) re-solves every unit after the
// driver stops and requires nothing to move. These tests run it over
// every kind of input the analyzer serves, at several worker counts, so
// the driver's rule for which units to skip is checked by something
// other than the rule itself.

// certWorkers are the worker counts every certificate runs at.
func certWorkers() []int {
	ws := []int{1, 2}
	if n := runtime.GOMAXPROCS(0); n > 2 {
		ws = append(ws, n)
	}
	return ws
}

// configFor builds a phase-3 configuration from a compiled module.
func configFor(t *testing.T, res *irgen.Result) vfg.Config {
	t.Helper()
	cg := callgraph.New(res.Module)
	sf := shmflow.Analyze(res.Module, cg)
	return vfg.Config{
		Module:     res.Module,
		CG:         cg,
		SF:         sf,
		PTS:        pointsto.Analyze(res.Module, pointsto.ModeSubset),
		AssertVars: res.AssertVars,
	}
}

func compileConfig(t *testing.T, name string, sources map[string]string, cFiles []string) vfg.Config {
	t.Helper()
	res, err := frontend.Compile(name, cpp.MapSource(sources), cFiles, frontend.Options{})
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	return configFor(t, res)
}

// certify runs the certificate at every worker count and returns the
// sequential run's result.
func certify(t *testing.T, name string, cfg vfg.Config) *vfg.Result {
	t.Helper()
	var first *vfg.Result
	for _, w := range certWorkers() {
		cfg.Workers = w
		res, err := vfg.Certify(cfg)
		if err != nil {
			t.Errorf("%s (workers=%d): %v", name, w, err)
			continue
		}
		if first == nil {
			first = res
		}
	}
	return first
}

func corpusSources(t *testing.T, sys corpus.System) map[string]string {
	t.Helper()
	src, err := sys.SourceMap()
	if err != nil {
		t.Fatalf("%s: %v", sys.Name, err)
	}
	return src
}

func TestCertifyTable1(t *testing.T) {
	for _, sys := range corpus.All() {
		certify(t, sys.Name, compileConfig(t, sys.Name, corpusSources(t, sys), sys.CFiles))
	}
}

// The two shapes the benchmark uses: wide (many stages, one per unit when
// split) and deep (a long, deeply nested stage chain).
var (
	wideShape = corpus.GenConfig{Regions: 4, Monitors: 6, Stages: 47}
	deepShape = corpus.GenConfig{Regions: 4, Monitors: 8, Stages: 64, Depth: 5}
)

func TestCertifyGenerated(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, shape := range []corpus.GenConfig{wideShape, deepShape} {
			g := corpus.Generate(seed, shape)
			certify(t, g.Name, compileConfig(t, g.Name, g.Sources, g.CFiles))
		}
	}
}

func TestCertifyFuzzSeeds(t *testing.T) {
	for _, in := range fuzzcamp.SeedInputs(1, 8) {
		certify(t, in.Name, compileConfig(t, in.Name, in.Sources, in.CFiles))
	}
}

func TestCertifyPolicies(t *testing.T) {
	cases := []struct {
		policy string
		file   string
	}{
		{"simplex-shm", ""},
		{"pii-to-log", "pii_to_log/pii.c"},
		{"credential-leak", "credential_leak/credleak.c"},
	}
	if got := strings.Join(policy.BuiltinNames(), ","); got != "credential-leak,pii-to-log,simplex-shm" {
		t.Fatalf("built-in policies = %s; cover every one here", got)
	}
	for _, c := range cases {
		pol, ok := policy.Builtin(c.policy)
		if !ok {
			t.Fatalf("no built-in policy %q", c.policy)
		}
		var cfg vfg.Config
		if c.file == "" {
			sys := corpus.GenericSimplex()
			cfg = compileConfig(t, sys.Name, corpusSources(t, sys), sys.CFiles)
		} else {
			data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "policies", c.file))
			if err != nil {
				t.Fatal(err)
			}
			name := filepath.Base(c.file)
			cfg = compileConfig(t, name, map[string]string{name: string(data)}, []string{name})
		}
		cfg.Policy = pol
		res := certify(t, c.policy, cfg)
		if res != nil && len(res.Errors) == 0 {
			t.Errorf("%s: no errors; the input no longer exercises the policy", c.policy)
		}
	}
}

// A degraded run: one translation unit fails to parse, so calls into its
// functions carry unknown taint (Config.MissingDefs).
func TestCertifyDegraded(t *testing.T) {
	sys := corpus.IP()
	src := corpusSources(t, sys)
	src["estimator.c"] += "\nint broken( {\n"
	rr, err := frontend.CompileRecover(sys.Name, cpp.MapSource(src), sys.CFiles, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Degraded() || len(rr.MissingDefs) == 0 {
		t.Fatalf("compile not degraded: diags %v, missing %v", rr.Diags, rr.MissingDefs)
	}
	cfg := configFor(t, rr.Res)
	cfg.MissingDefs = rr.MissingDefs
	certify(t, "degraded IP", cfg)
}

// An incremental session: the first run solves and captures state; the
// update replays the units outside the edit's caller cone.
func TestCertifyIncremental(t *testing.T) {
	g := corpus.Generate(7, corpus.GenConfig{Regions: 3, Monitors: 4, Stages: 6, Depth: 3})
	edited, ok := corpus.GenerateEdits(g, 7, 3).ApplyAll(g.Sources)
	if !ok {
		t.Fatal("edit script does not apply")
	}
	replayed := 0
	for _, w := range certWorkers() {
		first := compileConfig(t, g.Name, g.Sources, g.CFiles)
		first.Workers = w
		first.Incr = &vfg.IncrOptions{}
		res, err := vfg.Certify(first)
		if err != nil {
			t.Fatalf("first run (workers=%d): %v", w, err)
		}
		if res.NextIncr == nil {
			t.Fatalf("first run (workers=%d) captured no state", w)
		}
		update := compileConfig(t, g.Name, edited, g.CFiles)
		update.Workers = w
		update.Incr = &vfg.IncrOptions{Prev: res.NextIncr}
		res, err = vfg.Certify(update)
		if err != nil {
			t.Errorf("update (workers=%d): %v", w, err)
			continue
		}
		replayed += res.Incr.UnitsReplayed
	}
	if replayed == 0 {
		t.Error("no update replayed a unit; the test no longer exercises replay")
	}
}
