package vfg

import (
	"fmt"
	"sort"
	"strings"

	"safeflow/internal/pointsto"
)

// Certify runs the analysis as Run does and then checks, independently of
// the driver's own convergence rule, that the state it stopped in is a
// fixpoint: every unit (replayed ones included) is solved once more,
// sequentially, and no unit summary, global memory cell, warning or error
// dependency may change. A driver that skipped a unit whose inputs had
// changed leaves a state that fails this check.
func Certify(cfg Config) (*Result, error) {
	a, res := analyze(cfg)
	if len(a.internal) > 0 {
		return res, fmt.Errorf("run recorded internal errors: %v", a.internal)
	}
	units := len(a.unitList)
	sums := make([]summary, units)
	for i, u := range a.unitList {
		sums[i] = u.sum
	}
	cells := make(map[pointsto.Ref]Taint, len(a.mem.cells))
	for ref, t := range a.mem.cells {
		cells[ref] = t
	}
	sources := len(a.sources)
	errs := a.errorSnapshot()

	for i := 0; i < units; i++ {
		a.solveUnit(a.unitList[i])
	}

	var bad []string
	if len(a.unitList) != units {
		bad = append(bad, fmt.Sprintf("re-solve created %d new unit(s)", len(a.unitList)-units))
	}
	for i := 0; i < units; i++ {
		if u := a.unitList[i]; !summaryEqual(sums[i], u.sum) {
			bad = append(bad, fmt.Sprintf("summary of unit %q changed", u.key))
		}
	}
	for ref, t := range a.mem.cells {
		if old, ok := cells[ref]; !ok || !equalTaint(old, t) {
			bad = append(bad, fmt.Sprintf("memory cell %v changed", ref))
		}
	}
	if len(a.sources) != sources {
		bad = append(bad, fmt.Sprintf("re-solve interned %d new source(s)", len(a.sources)-sources))
	}
	for k, v := range a.errorSnapshot() {
		if errs[k] != v {
			bad = append(bad, fmt.Sprintf("error dependency %q changed", k))
		}
	}
	if len(a.internal) > 0 {
		bad = append(bad, fmt.Sprintf("re-solve recorded internal errors: %v", a.internal))
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return res, fmt.Errorf("not a fixpoint after %d round(s): %s", res.Rounds, strings.Join(bad, "; "))
	}
	return res, nil
}

// errorSnapshot renders every error dependency's graded source set.
func (a *analysis) errorSnapshot() map[string]string {
	out := make(map[string]string, len(a.errors))
	for k, e := range a.errors {
		srcs := make([]string, 0, len(e.Sources))
		for s, kd := range e.Sources {
			srcs = append(srcs, fmt.Sprintf("%s=%d", s, kd))
		}
		sort.Strings(srcs)
		out[k] = strings.Join(srcs, ",")
	}
	return out
}
