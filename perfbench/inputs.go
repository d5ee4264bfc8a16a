package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"safeflow/internal/corpus"
	"safeflow/pkg/safeflow"
)

// Input shapes. wide is the 50-translation-unit split system of
// cmd/sfbench/incr.go (frontend-heavy); deep is a 4-unit system whose
// long, deeply nested stage chain makes phase 3 dominate.
var (
	wideConfig = corpus.GenConfig{Regions: 4, Monitors: 6, Stages: 47}
	deepConfig = corpus.GenConfig{Regions: 4, Monitors: 8, Stages: 64, Depth: 5}
)

// alternate returns the shape of the i-th input of a wide/deep mix.
func alternate(i int) string {
	if i%2 == 0 {
		return "wide"
	}
	return "deep"
}

// system is one analysis input: a named source tree, its translation
// units, and the known answer the checks hold its verdicts to.
type system struct {
	name    string
	shape   string // "wide", "deep", or "table1"
	sources map[string]string
	cFiles  []string
	// kill is the generator's known answer: main() carries the planted
	// kill() defect, so the report must hold a kill-pid data error.
	kill bool
	// expect is the Table 1 row (Table 1 systems only).
	expect *corpus.Expectation
}

// generated builds the seeded system of one shape. Every translation
// unit is renamed with the seed, so no two inputs share a parse-cache
// key even where their contents coincide (init.c depends only on the
// region count): each input is one the process has never seen.
func generated(shape string, seed int64) system {
	var g corpus.Generated
	var sources map[string]string
	var cFiles []string
	switch shape {
	case "wide":
		g = corpus.Generate(seed, wideConfig)
		sources, cFiles = splitStages(g)
	case "deep":
		g = corpus.Generate(seed, deepConfig)
		sources, cFiles = g.Sources, g.CFiles
	default:
		panic("unknown shape " + shape)
	}
	sources, cFiles = renameUnits(sources, cFiles, seed)
	return system{
		name:    fmt.Sprintf("%s-%d", shape, seed),
		shape:   shape,
		sources: sources,
		cFiles:  cFiles,
		kill:    strings.Contains(g.Sources["main.c"], "kill("),
	}
}

// splitStages moves each stage function of a generated system into its
// own translation unit (stageNN.c), next to init.c, monitors.c and
// main.c. Top-level closers sit in column zero, so "\n}\n" splits
// exactly at function boundaries.
func splitStages(g corpus.Generated) (map[string]string, []string) {
	sources := map[string]string{}
	for k, v := range g.Sources {
		if k != "stages.c" {
			sources[k] = v
		}
	}
	cFiles := []string{"init.c", "monitors.c"}
	body := strings.TrimPrefix(g.Sources["stages.c"], "#include \"gen.h\"\n")
	for i, chunk := range strings.SplitAfter(body, "\n}\n") {
		if strings.TrimSpace(chunk) == "" {
			continue
		}
		name := fmt.Sprintf("stage%02d.c", i)
		sources[name] = "#include \"gen.h\"\n" + chunk
		cFiles = append(cFiles, name)
	}
	return sources, append(cFiles, "main.c")
}

// renameUnits prefixes every .c file name with the seed; headers keep
// their names so #include lines still resolve.
func renameUnits(sources map[string]string, cFiles []string, seed int64) (map[string]string, []string) {
	out := make(map[string]string, len(sources))
	for k, v := range sources {
		out[unitName(k, seed)] = v
	}
	renamed := make([]string, len(cFiles))
	for i, cf := range cFiles {
		renamed[i] = unitName(cf, seed)
	}
	return out, renamed
}

func unitName(file string, seed int64) string {
	if !strings.HasSuffix(file, ".c") {
		return file
	}
	return fmt.Sprintf("s%d_%s", seed, file)
}

// table1 returns the three Table 1 systems as the CLI's -corpus flag
// analyzes them (original names, so the IP SARIF render matches the
// golden file).
func table1() ([]system, error) {
	var out []system
	for _, sys := range corpus.All() {
		src, err := sys.SourceMap()
		if err != nil {
			return nil, err
		}
		exp := sys.Expected
		out = append(out, system{
			name: sys.Name, shape: "table1", sources: src,
			cFiles: append([]string(nil), sys.CFiles...), expect: &exp,
		})
	}
	return out, nil
}

// renamedTable1 is a Table 1 system under never-seen unit names, for the
// traced pass (its reference analysis must not hit the parse cache).
func renamedTable1(sys system, seed int64) system {
	sys.sources, sys.cFiles = renameUnits(sys.sources, sys.cFiles, seed)
	sys.name = fmt.Sprintf("%s-%d", sys.name, seed)
	return sys
}

// editSession is one edit-workload session: the split system to open
// and, per scripted edit, only the files that edit changed.
type editSession struct {
	open  system
	steps []map[string]string
	kinds []corpus.EditKind
}

// newEditSession generates a wide system and a seeded edit script over
// its unsplit sources. Each edit is applied to the unsplit tree, which
// is re-split; the step carries the split files whose contents changed.
func newEditSession(seed int64, edits int) editSession {
	g := corpus.Generate(seed, wideConfig)
	script := corpus.GenerateEdits(g, seed^0x5eed, edits)
	split, cFiles := splitStages(g)
	cur := g.Sources
	prev := split
	es := editSession{open: system{
		name: fmt.Sprintf("edit-%d", seed), shape: "wide",
		kill: strings.Contains(g.Sources["main.c"], "kill("),
	}}
	es.open.sources, es.open.cFiles = renameUnits(split, cFiles, seed)
	for _, e := range script {
		text, ok := e.Apply(cur)
		if !ok {
			continue
		}
		next := make(map[string]string, len(cur))
		for k, v := range cur {
			next[k] = v
		}
		next[e.File] = text
		cur = next
		nextSplit, _ := splitStages(corpus.Generated{Sources: cur})
		changed := map[string]string{}
		for k, v := range nextSplit {
			if prev[k] != v {
				changed[unitName(k, seed)] = v
			}
		}
		prev = nextSplit
		es.steps = append(es.steps, changed)
		es.kinds = append(es.kinds, e.Kind)
	}
	return es
}

// treeAt returns the session's full source tree after steps [0, n).
func (es editSession) treeAt(n int) map[string]string {
	tree := make(map[string]string, len(es.open.sources))
	for k, v := range es.open.sources {
		tree[k] = v
	}
	for _, ch := range es.steps[:n] {
		for k, v := range ch {
			tree[k] = v
		}
	}
	return tree
}

// seeds draws n generator seeds from r. Seeds are kept non-negative and
// distinct so every input of a run is unique.
func seeds(r *rand.Rand, n int, used map[int64]bool) []int64 {
	out := make([]int64, 0, n)
	for len(out) < n {
		s := r.Int63n(1 << 40)
		if used[s] {
			continue
		}
		used[s] = true
		out = append(out, s)
	}
	return out
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// describeShapes prints the workload's input shapes next to its
// metrics: translation units, non-blank lines and defined functions of
// one instance each. It runs last, after everything measured.
func (b *bench) describeShapes(systems ...system) {
	for _, sys := range systems {
		rep, err := safeflow.Analyze(sys.name, sys.sources, sys.cFiles, safeflow.Options{})
		if err != nil {
			b.linef("shape %s (%s): %v", sys.shape, sys.name, err)
			continue
		}
		funcs := 0
		for _, f := range rep.Module.Funcs {
			if !f.IsDecl {
				funcs++
			}
		}
		b.linef("shape %s (%s): %d TUs, %d LOC, %d defined functions",
			sys.shape, sys.name, len(sys.cFiles), rep.LinesOfCode, funcs)
	}
}
