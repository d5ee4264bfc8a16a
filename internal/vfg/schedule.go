// Parallel driver for the summary-based analysis: units are grouped by
// callgraph SCC and solved bottom-up over the SCC DAG, so components with
// no dependency between them run concurrently. The converged result is the
// unique least fixpoint of the monotone transfer functions, so it is
// independent of the schedule; combined with the total sort orders in
// finish(), reports are byte-identical at every worker count.

package vfg

import (
	"runtime"
	"sync"

	"safeflow/internal/callgraph"
	"safeflow/internal/guard"
)

// workerCount resolves the effective worker-pool size.
func workerCount(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// runScheduled is the driver for the summary-sharing (non-exponential)
// mode: precompute the (function, context) unit closure, then run rounds
// of bottom-up SCC waves while some unit is dirty. A round re-solves only
// the units whose inputs changed since their last solve (see needsSolve),
// so a run whose taint flows only bottom-up finishes in one round. More
// rounds are needed only because taint also flows top-down through the
// global memory store (a caller's store feeding a callee's load).
func (a *analysis) runScheduled(workers int) {
	a.seedRoots()
	a.expandUnits(0)
	for a.anyDirty() {
		if a.ctxDone() {
			return
		}
		if a.rounds == maxRounds {
			a.internalf("", "driver did not converge in %d rounds", maxRounds)
			return
		}
		a.rounds++
		n := len(a.unitList)
		a.solveWaves(workers)
		if len(a.unitList) > n {
			// New units can only appear here through the summary-key
			// fallback paths; re-close over them to be safe.
			a.expandUnits(n)
		}
	}
}

// anyDirty reports whether some unit needs a solve. Runs between waves.
func (a *analysis) anyDirty() bool {
	for _, u := range a.unitList {
		if !u.replayed && a.needsSolve(u) {
			return true
		}
	}
	return false
}

// needsSolve reports whether solving u again could change anything: u was
// never solved, a callee unit's summary changed after u's last solve
// began, or another writer changed a global memory object u loads after
// that. A solve depends on nothing else, so a unit that passes all three
// would reproduce its last solve exactly. u's own writes are not a reason:
// its load/store loop ran until its local overlay, which holds everything
// it wrote, stopped changing.
//
// Called when u's SCC task runs, after every callee SCC has finished in
// the wave, and between waves.
func (a *analysis) needsSolve(u *unit) bool {
	if u.solvedAt == 0 {
		return true
	}
	for _, cu := range u.calleeUnits {
		if cu.sumAt > u.solvedAt {
			return true
		}
	}
	return a.mem.changedSince(u.loads, u, u.solvedAt)
}

// solveSCCSafe isolates one SCC solve: a panic inside the component's
// transfer functions is recorded as an internal error for the report
// while every other component still completes.
func (a *analysis) solveSCCSafe(t *sccUnits) {
	unitName := ""
	if len(t.scc.Funcs) > 0 {
		unitName = t.scc.Funcs[0].Name
	}
	if err := guard.Run("vfg", unitName, func() error {
		a.solveSCC(t)
		return nil
	}); err != nil {
		a.addInternal(err)
	}
}

// expandUnits computes the unit closure starting at unitList[from]: a unit
// (fn, ctx) induces a unit (callee, active) for every defined, non-init
// callee of fn, because contexts depend only on the call structure and the
// assume(core(...)) facts — not on taint values. The list grows while we
// iterate, so this is a breadth-first closure. Single-threaded (runs
// between waves); the per-unit work is trivial next to solving.
func (a *analysis) expandUnits(from int) {
	for i := from; i < len(a.unitList); i++ {
		u := a.unitList[i]
		for _, callee := range a.cfg.CG.Callees[u.fn] {
			if callee.IsDecl || a.cfg.SF.InitFuncs[callee] {
				continue
			}
			a.getUnit(callee, u.active, "")
		}
	}
}

// sccUnits is one schedulable task: the units of one callgraph SCC.
type sccUnits struct {
	scc       *callgraph.SCC
	units     []*unit
	recursive bool
}

// solveWaves runs one wave: every SCC with units solves its dirty units
// (each to its local fixpoint), bottom-up. An SCC starts only after all
// SCCs it calls into have finished this wave, and independent SCCs run
// concurrently on a pool of `workers` goroutines.
func (a *analysis) solveWaves(workers int) {
	// Group units by SCC, preserving creation order within each group.
	bySCC := make(map[*callgraph.SCC]*sccUnits)
	var tasks []*sccUnits
	for _, u := range a.unitList {
		if u.replayed {
			// Installed from a previous run's record (incremental mode):
			// the summary is final, nothing to solve.
			continue
		}
		s := a.cfg.CG.SCCOf(u.fn)
		t := bySCC[s]
		if t == nil {
			t = &sccUnits{scc: s, recursive: s.Recursive(a.cfg.CG)}
			bySCC[s] = t
			tasks = append(tasks, t)
		}
		t.units = append(t.units, u)
	}
	// Bottom-up order: callee SCCs have smaller topological indices.
	sortTasks(tasks)

	if workers <= 1 || len(tasks) <= 1 {
		for _, t := range tasks {
			if a.ctxDone() {
				return
			}
			a.solveSCCSafe(t)
		}
		return
	}

	// DAG edges between SCCs that actually have units this wave.
	indeg := make(map[*sccUnits]int, len(tasks))
	dependents := make(map[*sccUnits][]*sccUnits)
	for _, t := range tasks {
		for _, f := range t.scc.Funcs {
			for _, c := range a.cfg.CG.Callees[f] {
				ct := bySCC[a.cfg.CG.SCCOf(c)]
				if ct == nil || ct == t {
					continue
				}
				dup := false
				for _, d := range dependents[ct] {
					if d == t {
						dup = true
						break
					}
				}
				if !dup {
					dependents[ct] = append(dependents[ct], t)
					indeg[t]++
				}
			}
		}
	}

	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		sem = make(chan struct{}, workers)
	)
	var launch func(t *sccUnits)
	launch = func(t *sccUnits) {
		defer wg.Done()
		sem <- struct{}{}
		// On cancellation the task is skipped, but its dependents are
		// still released below so the wave drains instead of deadlocking.
		if !a.ctxDone() {
			a.cfg.Metrics.ObserveGoroutines()
			a.solveSCCSafe(t)
		}
		<-sem
		mu.Lock()
		for _, d := range dependents[t] {
			indeg[d]--
			if indeg[d] == 0 {
				wg.Add(1)
				go launch(d)
			}
		}
		mu.Unlock()
	}
	mu.Lock()
	for _, t := range tasks {
		if indeg[t] == 0 {
			wg.Add(1)
			go launch(t)
		}
	}
	mu.Unlock()
	wg.Wait()
}

// solveSCC solves the dirty units of one SCC. Non-recursive components
// need a single pass (the function cannot call itself, so its context
// units are mutually independent); recursive components iterate until no
// unit is dirty, a local fixpoint over their mutually-dependent summaries.
func (a *analysis) solveSCC(t *sccUnits) {
	if !t.recursive {
		for _, u := range t.units {
			if a.needsSolve(u) {
				a.solveUnit(u)
			}
		}
		return
	}
	for iter := 1; ; iter++ {
		solved := false
		for _, u := range t.units {
			if a.needsSolve(u) {
				a.solveUnit(u)
				solved = true
			}
		}
		if !solved {
			return
		}
		if iter == maxRounds {
			a.internalf(t.units[0].fn.Name, "recursive component did not converge in %d passes", maxRounds)
			return
		}
	}
}

func sortTasks(tasks []*sccUnits) {
	// Insertion sort on topological index: task counts are small (one per
	// SCC with live units) and the input is nearly sorted already.
	for i := 1; i < len(tasks); i++ {
		for j := i; j > 0 && tasks[j-1].scc.Index > tasks[j].scc.Index; j-- {
			tasks[j-1], tasks[j] = tasks[j], tasks[j-1]
		}
	}
}
