package vfg_test

import (
	"testing"

	"safeflow/internal/corpus"
	"safeflow/internal/vfg"
)

// TestTable1SolveCounts pins the sequential driver's work on Table 1: the
// rounds run and the unit solves (the ablation's summary-mode figure). A
// round re-solves only units whose inputs changed, so a change here means
// the driver's skip rule changed. At more than one worker the solves of
// a recursive component can depend on the schedule, so only Workers=1 is
// pinned.
func TestTable1SolveCounts(t *testing.T) {
	want := map[string]struct{ rounds, solves int }{
		"IP":              {2, 20},
		"Generic Simplex": {2, 23},
		"Double IP":       {2, 27},
	}
	for _, sys := range corpus.All() {
		cfg := compileConfig(t, sys.Name, corpusSources(t, sys), sys.CFiles)
		cfg.Workers = 1
		r := vfg.Run(cfg)
		if w := want[sys.Name]; r.Rounds != w.rounds || r.UnitsAnalyzed != w.solves {
			t.Errorf("%s: rounds = %d, solves = %d; want %d, %d", sys.Name, r.Rounds, r.UnitsAnalyzed, w.rounds, w.solves)
		}
	}
}
