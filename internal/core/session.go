package core

import (
	"context"
	"errors"
	"sort"
	"strings"
	"sync"

	"safeflow/internal/cpp"
	"safeflow/internal/frontend"
	"safeflow/internal/irgen"
	"safeflow/internal/metrics"
	"safeflow/internal/vfg"
)

// Session holds a system open for incremental re-analysis. OpenSession
// compiles every translation unit once into the fragment compiler,
// analyzes the linked module and captures per-function state; Update
// recompiles only the translation units whose preprocessed contents
// changed and re-solves only the invalidated functions plus their
// transitive caller cone (incremental vfg). The patched report is
// byte-identical to a from-scratch analysis of the edited sources at
// every worker count; any input the fast path cannot represent exactly
// falls back to a from-scratch run transparently.
//
// A Session is safe for concurrent use; updates are serialized (the
// fragment cache and captured state are single-writer).
type Session struct {
	mu      sync.Mutex
	closed  bool
	name    string
	opts    Options
	sources map[string]string
	cFiles  []string
	fc      *frontend.FragmentCompiler
	// fragOK is false once the fragment path has failed and the session
	// fell back to from-scratch runs (true at open: try fragments first).
	fragOK bool
	incr   *vfg.IncrState
	last   *Report
	// lastRes is the linked module the last good report was computed
	// for. When an update's compile returns the same result object —
	// every fragment reused or adopted — the previous report is still
	// exact and the downstream phases are skipped.
	lastRes *irgen.Result
	stats   UpdateStats
}

// UpdateStats describes how one Update was executed.
type UpdateStats struct {
	// Incremental is true when the update took the fast path (fragment
	// recompilation + incremental phase 3); false means a transparent
	// from-scratch fallback.
	Incremental bool
	// FuncsInvalidated / FuncsReused partition the defined functions:
	// the invalidation cone versus the summaries reused in place.
	FuncsInvalidated int
	FuncsReused      int
	// UnitsReplayed / UnitsSolved partition the (function, context)
	// closure of the incremental solve.
	UnitsReplayed int
	UnitsSolved   int
	// Restarts counts verification-triggered cone expansions.
	Restarts int
}

// OpenSession analyzes the system and opens it for incremental
// updates. The open report is computed from the fragment-linked module
// later updates patch, so each translation unit passes through the
// frontend once; an input the fragment path cannot represent falls back
// to a from-scratch analysis, exactly as in Update. The sources map is
// copied; cFiles order is preserved (it determines report identity).
func OpenSession(ctx context.Context, name string, sources map[string]string, cFiles []string, opts Options) (*Session, *Report, error) {
	s := &Session{
		name:    name,
		opts:    opts,
		sources: make(map[string]string, len(sources)),
		cFiles:  append([]string(nil), cFiles...),
		fragOK:  true,
	}
	for k, v := range sources {
		s.sources[k] = v
	}
	s.fc = frontend.NewFragmentCompiler(name, frontend.Options{Defines: opts.Defines}, vfg.HashFunctionBody)
	rep, _, err := s.update(ctx)
	if err != nil {
		return nil, nil, err
	}
	s.last = rep
	return s, rep, nil
}

// Update applies source edits and re-analyzes. changed maps file names
// to new contents (new .c files are appended to the unit list in sorted
// order); removed names files to delete. It returns the patched report —
// byte-identical to a from-scratch analysis of the edited sources — and
// the execution stats.
func (s *Session) Update(ctx context.Context, changed map[string]string, removed ...string) (*Report, UpdateStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, UpdateStats{}, ErrSessionClosed
	}

	var added []string
	for f, text := range changed {
		if _, existed := s.sources[f]; !existed && strings.HasSuffix(f, ".c") {
			added = append(added, f)
		}
		s.sources[f] = text
	}
	sort.Strings(added)
	s.cFiles = append(s.cFiles, added...)
	for _, f := range removed {
		delete(s.sources, f)
		for i, cf := range s.cFiles {
			if cf == f {
				s.cFiles = append(s.cFiles[:i], s.cFiles[i+1:]...)
				break
			}
		}
	}

	rep, stats, err := s.update(ctx)
	if err != nil {
		return nil, UpdateStats{}, err
	}
	s.last = rep
	s.stats = stats
	return rep, stats, nil
}

// update analyzes the session's current sources for OpenSession and
// Update: through the fragment compiler and incremental phase 3 when the
// fragments can represent the input, else from scratch.
func (s *Session) update(ctx context.Context) (*Report, UpdateStats, error) {
	src := cpp.MapSource(s.sources)
	if s.fragOK || s.incr != nil {
		var col *metrics.Collector
		if s.opts.Stats {
			col = metrics.NewCollector()
			col.SetTranslationUnits(len(s.cFiles))
		}
		done := col.Phase("frontend")
		res, hashes, ok := s.fc.Compile(ctx, src, s.cFiles)
		done()
		if ok && res == s.lastRes && s.last != nil {
			// Every fragment was reused or adopted: the module is the one
			// the last report was computed for, so that report is still
			// exact. Re-count the source stats (comments move them) and
			// mirror a full run's metric shape — phase list and SCC count
			// survive canonicalization and must match a fresh analysis.
			s.fragOK = true
			for _, ph := range pipelinePhases[1:] {
				col.SkipPhase(ph)
			}
			col.SetPhase3(s.last.sccs, 0, 0, 0, 0)
			col.SetIncremental(0, len(hashes), 0, 0)
			rep := *s.last
			rep.LinesOfCode, rep.AnnotationLines = countSourceStats(src, s.cFiles)
			// Comment-only edits can move safeflow:ignore directives
			// without changing the module: re-apply suppression from the
			// raw findings so the patched report stays byte-identical to a
			// from-scratch run.
			rep.finishReport(activePolicy(s.opts), scanSourceSuppressions(src, s.cFiles))
			rep.Metrics = col.Finish()
			return &rep, UpdateStats{Incremental: true, FuncsReused: len(hashes)}, nil
		}
		if ok {
			s.fragOK = true
			opts := s.opts
			opts.incrOpts = &vfg.IncrOptions{Prev: s.incr, BodyHashes: hashes}
			rep, err := analyzeModuleWith(ctx, s.name, res, opts, col, nil)
			if err != nil {
				return nil, UpdateStats{}, err
			}
			rep.LinesOfCode, rep.AnnotationLines = countSourceStats(src, s.cFiles)
			rep.finishReport(activePolicy(s.opts), scanSourceSuppressions(src, s.cFiles))
			rep.Metrics = col.Finish()
			if rep.incrState != nil {
				// A run that crashed or was cancelled captures no state;
				// keep the last good checkpoint (the next update's
				// fingerprint diff is taken against it, which is sound —
				// anything changed since then is invalidated).
				s.incr = rep.incrState
			}
			s.lastRes = nil
			if !rep.Degraded && len(rep.Internal) == 0 {
				s.lastRes = res
			}
			st := UpdateStats{Incremental: true}
			if rep.incrStats != nil {
				st.FuncsInvalidated = rep.incrStats.FuncsInvalidated
				st.FuncsReused = rep.incrStats.FuncsReused
				st.UnitsReplayed = rep.incrStats.UnitsReplayed
				st.UnitsSolved = rep.incrStats.UnitsSolved
				st.Restarts = rep.incrStats.Restarts
			}
			return rep, st, nil
		}
		if ctx.Err() != nil {
			return nil, UpdateStats{}, ctx.Err()
		}
	}

	// Fallback: from-scratch analysis. Capture fresh state when the run
	// allows it (non-degraded); a degraded run keeps the old checkpoint.
	s.fragOK = false
	s.lastRes = nil
	fullOpts := s.opts
	fullOpts.incrOpts = &vfg.IncrOptions{}
	rep, err := AnalyzeSourcesContext(ctx, s.name, src, s.cFiles, fullOpts)
	if err != nil {
		return nil, UpdateStats{}, err
	}
	if rep.incrState != nil {
		s.incr = rep.incrState
	}
	return rep, UpdateStats{}, nil
}

// ErrSessionClosed is returned by Update on a session Close has torn
// down.
var ErrSessionClosed = errors.New("safeflow: session is closed")

// Close tears the session down: it waits for any in-flight Update to
// finish — a session is never interrupted mid-update — then marks the
// session closed and releases the captured per-function state. Further
// Updates fail with ErrSessionClosed; Last and CFiles keep answering
// from the final state. Closing twice is a no-op.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.fc = nil
	s.incr = nil
	s.lastRes = nil
}

// Last returns the most recent report (the open report until the first
// update), and the stats of the most recent update.
func (s *Session) Last() (*Report, UpdateStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last, s.stats
}

// CFiles returns a copy of the current translation-unit list.
func (s *Session) CFiles() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.cFiles...)
}
