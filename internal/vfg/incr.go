// Incremental re-analysis: the phase-3 scheduler's persistent dependency
// graph and fine-grained invalidation (ISSUE 8's tentpole).
//
// A tracked run records, per (function, context) unit, everything the unit
// contributed to the analysis beyond its summary: the global memory cells
// it wrote, the cells it read, the sources it interned and the errors it
// recorded — all in the portable (pointer-free) forms of portable.go. The captured IncrState also fingerprints every defined
// function: a body hash (name, positions, printed IR, assert annotations,
// function facts) plus an environment hash (the shm facts, points-to
// footprints and callee identities its transfer functions consult).
//
// On the next run, functions whose fingerprint changed are dirty; the
// dirty set plus its transitive caller cone in the (new) call graph is
// invalidated and re-solved, while every unit outside the cone is
// *replayed*: its recorded summary, writes, sources and errors are
// installed verbatim instead of re-solving. Replay is sound because
//   - a replayed unit's fingerprints are unchanged, so its local transfer
//     behavior is identical;
//   - its callees are outside the cone too (the cone is caller-closed),
//     so the callee summaries it depended on are also unchanged;
//   - taints only grow under join, so the union of recorded writes over
//     all of a unit's solves equals its final-round writes.
// The one input replay cannot see locally is the global memory store
// (a re-solved unit may now write different taints into cells a replayed
// unit read). A post-convergence verification diffs the previous run's
// portable cells against the new ones; any replayed unit that read a
// changed cell is added to the dirty set and the analysis restarts with
// the larger cone. Restarts are capped; the cap falls back to a full
// (tracked) solve, which is always correct.
//
// Degraded runs never participate: Config.Incr is ignored when
// MissingDefs is non-empty, and the callers (core.Session) never capture
// state from a degraded run, so skipped-def summaries are never reused
// across updates.

package vfg

import (
	"sort"
	"strconv"
	"strings"

	"safeflow/internal/annot"
	"safeflow/internal/callgraph"
	"safeflow/internal/ctoken"
	"safeflow/internal/ir"
	"safeflow/internal/pointsto"
	"safeflow/internal/shmflow"
)

// IncrOptions switches Run to incremental mode.
type IncrOptions struct {
	// Prev is the state captured by the previous run; nil means "first
	// run": solve everything, but track and capture state for next time.
	Prev *IncrState
	// BodyHashes, when non-nil, supplies precomputed per-function body
	// hashes (from the incremental frontend's fragment cache) keyed by
	// function name; functions not in the map are hashed here.
	BodyHashes map[string]uint64
}

// IncrState is the persistent dependency-graph snapshot of one converged
// run: per-function fingerprints plus per-unit replay records. Opaque to
// callers; produced by Result.NextIncr and passed back via IncrOptions.
type IncrState struct {
	fnFP     map[string]fnFingerprint
	regionFP uint64
	units    map[string]*unitRecord
	cells    map[pRef]pTaint
}

// fnFingerprint identifies one function's analysis-relevant content.
type fnFingerprint struct {
	body uint64 // name, positions, printed IR, asserts, facts
	env  uint64 // shm facts, points-to footprints, callee identities
}

// unitRecord is everything one converged unit contributed to the run.
type unitRecord struct {
	fn      string
	sum     pSummary
	writes  []pCell   // global memory cells written (joined over solves)
	reads   []pRef    // global memory cells read
	sources []pCtxSrc // sources interned via sourceFor, with context keys
	errors  []pError  // error dependencies recorded
}

type pCtxSrc struct {
	src pSrc
	ctx string
}

type pError struct {
	pos     ctoken.Pos
	fn, vbl string
	rule    string
	srcs    []pSrcTaint
}

// IncrStats reports what an incremental run invalidated and reused.
type IncrStats struct {
	// FuncsInvalidated is the size of the invalidation cone (dirty
	// functions plus transitive callers); FuncsReused is the remainder.
	FuncsInvalidated int
	FuncsReused      int
	// UnitsReplayed/UnitsSolved partition the final unit closure.
	UnitsReplayed int
	UnitsSolved   int
	// Restarts counts verification-triggered cone expansions.
	Restarts int
}

// ---------------------------------------------------------------------------
// Fingerprints

// fnvHash is the incremental 64-bit FNV-1a mixer.
type fnvHash struct{ h uint64 }

func newFNV() *fnvHash { return &fnvHash{h: 14695981039346656037} }

func (f *fnvHash) byte(b byte) { f.h = (f.h ^ uint64(b)) * 1099511628211 }

func (f *fnvHash) int(n int64) {
	for i := 0; i < 8; i++ {
		f.byte(byte(uint64(n) >> (8 * i)))
	}
}

func (f *fnvHash) str(s string) {
	f.int(int64(len(s)))
	for i := 0; i < len(s); i++ {
		f.byte(s[i])
	}
}

func (f *fnvHash) bool(b bool) {
	if b {
		f.byte(1)
	} else {
		f.byte(0)
	}
}

// HashFunctionBody fingerprints one function's own content: its name and
// position, the printed IR (operands appear as stable @name/%tN idents),
// every instruction's source position, the assert-intrinsic variable
// annotations, and the function's annotation facts. Two functions with
// equal hashes have identical local transfer behavior under identical
// environments. Exported for the incremental frontend, which hashes
// fragment functions at compile time so unchanged fragments can reuse
// their hashes without reprinting.
func HashFunctionBody(fn *ir.Function, assertVars map[*ir.Call]string) uint64 {
	h := newFNV()
	h.str(fn.Name)
	h.str(fn.Pos.String())
	h.bool(fn.IsDecl)
	h.str(fn.String())
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			h.str(in.Pos().String())
			if c, ok := in.(*ir.Call); ok {
				h.str(assertVars[c])
			}
		}
	}
	if ff, ok := fn.Facts.(*annot.FuncFacts); ok && ff != nil {
		h.bool(ff.IsShmInit)
		h.int(int64(len(ff.Core)))
		for _, cf := range ff.Core {
			h.str(cf.Ptr)
			h.int(cf.Offset)
			h.int(cf.Size)
		}
		h.int(int64(len(ff.ShmVars)))
		for _, sv := range ff.ShmVars {
			h.str(sv.Ptr)
			h.int(sv.Size)
		}
		h.int(int64(len(ff.NonCore)))
		for _, nc := range ff.NonCore {
			h.str(nc.Name)
		}
	}
	return h.h
}

func mixFact(h *fnvHash, f shmflow.Fact) {
	names := make([]string, 0, len(f))
	ivs := make(map[string]string, len(f))
	for reg, iv := range f {
		names = append(names, reg.Name)
		ivs[reg.Name] = iv.String()
	}
	sort.Strings(names)
	h.int(int64(len(names)))
	for _, n := range names {
		h.str(n)
		h.str(ivs[n])
	}
}

func mixRef(h *fnvHash, r pointsto.Ref) {
	d := descOf(r.Obj)
	h.int(int64(d.kind))
	h.str(d.name)
	h.str(d.fn)
	h.str(d.pos.String())
	h.int(r.Off)
}

// envHashOf fingerprints everything outside the function body that its
// transfer functions consult: init-function status, parameter shm facts,
// per-load/store shm facts and points-to footprints, and per-call callee
// identity (name, decl/init status, skipped-def status) plus argument
// points-to footprints. The shared-memory region shapes are covered
// separately by regionFingerprint (a region change invalidates all).
func envHashOf(cfg *Config, fn *ir.Function) uint64 {
	h := newFNV()
	h.bool(cfg.SF.InitFuncs[fn])
	mixRefs := func(v ir.Value) {
		refs := cfg.PTS.PointsTo(v)
		h.int(int64(len(refs)))
		for _, r := range refs {
			mixRef(h, r)
		}
	}
	for _, p := range fn.Params {
		mixFact(h, cfg.SF.FactOf(fn, p))
	}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			switch x := in.(type) {
			case *ir.Load:
				mixFact(h, cfg.SF.FactOf(fn, x.Addr))
				mixRefs(x.Addr)
			case *ir.Store:
				mixFact(h, cfg.SF.FactOf(fn, x.Addr))
				mixRefs(x.Addr)
			case *ir.Call:
				h.str(x.Callee.Name)
				h.bool(x.Callee.IsDecl)
				h.bool(cfg.SF.InitFuncs[x.Callee])
				h.bool(cfg.MissingDefs[x.Callee.Name])
				for _, arg := range x.Args {
					mixRefs(arg)
				}
			}
		}
	}
	return h.h
}

// regionFingerprint hashes the shared-memory region shapes. A change here
// can alter covers() results in every unit, so it invalidates everything.
func regionFingerprint(sf *shmflow.Result) uint64 {
	h := newFNV()
	names := make([]string, 0, len(sf.Regions))
	byName := make(map[string]*shmflow.Region, len(sf.Regions))
	for _, r := range sf.Regions {
		names = append(names, r.Name)
		byName[r.Name] = r
	}
	sort.Strings(names)
	h.int(int64(len(names)))
	for _, n := range names {
		r := byName[n]
		h.str(r.Name)
		h.int(r.Size)
		h.bool(r.NonCore)
		if r.Init != nil {
			h.str(r.Init.Name)
		}
		if r.Global != nil {
			h.str(r.Global.Name)
		}
	}
	return h.h
}

// computeFingerprints fingerprints every defined function, preferring the
// frontend's precomputed body hashes when supplied.
func computeFingerprints(cfg *Config) map[string]fnFingerprint {
	var hints map[string]uint64
	if cfg.Incr != nil {
		hints = cfg.Incr.BodyHashes
	}
	fps := make(map[string]fnFingerprint)
	for _, fn := range cfg.Module.Funcs {
		if fn.IsDecl {
			continue
		}
		body, ok := hints[fn.Name]
		if !ok {
			body = HashFunctionBody(fn, cfg.AssertVars)
		}
		fps[fn.Name] = fnFingerprint{body: body, env: envHashOf(cfg, fn)}
	}
	return fps
}

// callerClosure expands the dirty set to its transitive caller cone in
// the new call graph. SCCs are uniformly in or out: any member of a cycle
// is a (transitive) caller of every other member.
func callerClosure(cg *callgraph.Graph, m *ir.Module, dirty map[string]bool) map[string]bool {
	cone := make(map[string]bool, len(dirty))
	var queue []*ir.Function
	for _, fn := range m.Funcs {
		if dirty[fn.Name] {
			cone[fn.Name] = true
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, c := range cg.Callers[fn] {
			if !cone[c.Name] {
				cone[c.Name] = true
				queue = append(queue, c)
			}
		}
	}
	return cone
}

// ---------------------------------------------------------------------------
// Replay plan

// dryRegion reports whether a portable region name resolves in this run.
func (a *analysis) dryRegion(name string) bool {
	if name == "" {
		return true
	}
	_, ok := a.cfg.SF.RegionByName[name]
	return ok
}

func (a *analysis) drySrcs(srcs []pSrcTaint) bool {
	for _, st := range srcs {
		if !a.dryRegion(st.src.key.region) {
			return false
		}
	}
	return true
}

func (b *binder) dryRef(r pRef) bool {
	o, ok := b.objs[r.obj]
	return ok && o != nil
}

// dryCheckRecord verifies every descriptor in the record rebinds
// unambiguously in this run — without interning anything, so excluded
// records leave no trace (an interned source for a unit that never
// materializes would over-report warnings).
func (a *analysis) dryCheckRecord(b *binder, rec *unitRecord) bool {
	if !a.drySrcs(rec.sum.ret.srcs) {
		return false
	}
	for _, e := range rec.sum.effects {
		if !b.dryRef(e.ref) {
			return false
		}
	}
	for _, c := range rec.writes {
		if !b.dryRef(c.ref) || !a.drySrcs(c.taint.srcs) {
			return false
		}
	}
	for _, s := range rec.sources {
		if !a.dryRegion(s.src.key.region) {
			return false
		}
	}
	for _, e := range rec.errors {
		if !a.drySrcs(e.srcs) {
			return false
		}
	}
	return true
}

// buildReplayPlan selects the previous run's records that may be replayed:
// units of functions outside the invalidation cone whose descriptors all
// rebind. A record that fails the dry check is simply dropped — its unit
// re-solves normally, which by fingerprint induction produces the same
// summary, so callers' replays stay valid.
func (a *analysis) buildReplayPlan(prev *IncrState, cone map[string]bool) map[string]*unitRecord {
	plan := make(map[string]*unitRecord, len(prev.units))
	for key, rec := range prev.units {
		if rec == nil || cone[rec.fn] {
			continue
		}
		if !a.dryCheckRecord(a.replayBinder, rec) {
			continue
		}
		plan[key] = rec
	}
	return plan
}

// ---------------------------------------------------------------------------
// Replay install (called from getUnit under a.mu)

func (a *analysis) sourceFromKeyCtx(p pSrc, ctx string) (*Source, bool) {
	s, ok := a.sourceFromKey(p)
	if !ok {
		return nil, false
	}
	a.srcMu.Lock()
	s.Contexts[ctx] = true
	a.srcMu.Unlock()
	return s, true
}

// installReplay installs a record into a freshly created unit: summary,
// global-memory writes, interned sources (with their context keys) and
// error dependencies. Bind-first, then commit; after the plan's dry check
// a bind failure cannot occur, but a failed install still leaves the unit
// solvable (partial writes are join-only and a subset of what the solve
// will write).
func (a *analysis) installReplay(u *unit, rec *unitRecord) bool {
	b := a.replayBinder
	sum, ok := b.bindSummary(rec.sum)
	if !ok {
		return false
	}
	type memWr struct {
		ref pointsto.Ref
		t   Taint
	}
	writes := make([]memWr, 0, len(rec.writes))
	for _, c := range rec.writes {
		ref, ok := b.bindRef(c.ref)
		if !ok {
			return false
		}
		t, ok := b.bindTaint(c.taint)
		if !ok {
			return false
		}
		writes = append(writes, memWr{ref, t})
	}
	u.sum = sum
	u.replayed = true
	for _, w := range writes {
		a.mem.write(w.ref, w.t)
	}
	for _, cs := range rec.sources {
		if _, ok := a.sourceFromKeyCtx(cs.src, cs.ctx); !ok {
			return false
		}
	}
	for _, pe := range rec.errors {
		a.replayError(pe)
	}
	return true
}

// replayError re-records one portable error dependency, following the
// run's lock order (sources resolve under srcMu, then errMu).
func (a *analysis) replayError(pe pError) {
	type srcKind struct {
		s *Source
		k Kind
	}
	resolved := make([]srcKind, 0, len(pe.srcs))
	for _, st := range pe.srcs {
		s, ok := a.sourceFromKey(st.src)
		if !ok {
			continue
		}
		resolved = append(resolved, srcKind{s, st.k})
	}
	key := pe.pos.String() + "|" + pe.vbl + "|" + pe.rule
	a.errMu.Lock()
	defer a.errMu.Unlock()
	e, ok := a.errors[key]
	if !ok {
		e = &ErrorDep{Pos: pe.pos, FnName: pe.fn, Var: pe.vbl, Rule: pe.rule, Sources: make(map[*Source]Kind)}
		a.errors[key] = e
	}
	for _, r := range resolved {
		if e.Sources[r.s] < r.k {
			e.Sources[r.s] = r.k
		}
	}
}

// ---------------------------------------------------------------------------
// Tracking (per-unit; units solve on one goroutine at a time)

type recSrcKey struct {
	key     srcKey
	fn, ctx string
}

type recErrVal struct {
	pos     ctoken.Pos
	fn, vbl string
	rule    string
	t       Taint
}

func (u *unit) recWrite(ref pointsto.Ref, t Taint) {
	if t.Empty() || ref.Obj.Kind == pointsto.ObjShm {
		return
	}
	if u.recWrites == nil {
		u.recWrites = make(map[pointsto.Ref]Taint)
	}
	u.recWrites[ref] = joinTaint(u.recWrites[ref], t)
}

func (u *unit) recRead(ref pointsto.Ref) {
	if ref.Obj.Kind == pointsto.ObjShm {
		return
	}
	if u.recReads == nil {
		u.recReads = make(map[pointsto.Ref]bool)
	}
	u.recReads[ref] = true
}

func (u *unit) recSrc(k srcKey, fn, ctx string) {
	if u.recSrcs == nil {
		u.recSrcs = make(map[recSrcKey]bool)
	}
	u.recSrcs[recSrcKey{key: k, fn: fn, ctx: ctx}] = true
}

func (u *unit) recError(pos ctoken.Pos, fn, vbl, rule string, t Taint) {
	if u.recErrs == nil {
		u.recErrs = make(map[string]*recErrVal)
	}
	key := pos.String() + "|" + vbl + "|" + rule
	if e, ok := u.recErrs[key]; ok {
		e.t = joinTaint(e.t, t)
		return
	}
	u.recErrs[key] = &recErrVal{pos: pos, fn: fn, vbl: vbl, rule: rule, t: t}
}

// ---------------------------------------------------------------------------
// Capture

func pRefOf(ref pointsto.Ref) pRef {
	return pRef{obj: descOf(ref.Obj), off: ref.Off}
}

func pRefLess(x, y pRef) bool {
	if x.obj.kind != y.obj.kind {
		return x.obj.kind < y.obj.kind
	}
	if x.obj.name != y.obj.name {
		return x.obj.name < y.obj.name
	}
	if x.obj.fn != y.obj.fn {
		return x.obj.fn < y.obj.fn
	}
	if x.obj.pos != y.obj.pos {
		return posLess(x.obj.pos, y.obj.pos)
	}
	return x.off < y.off
}

// mergePTaint unions two portable taints: (source, kind) entries as a
// set, parameter kinds by max — exactly joinTaint's effect in portable
// form. Used when distinct run objects collapse to one descriptor.
func mergePTaint(x, y pTaint) pTaint {
	out := pTaint{}
	seen := make(map[pSrcTaint]bool, len(x.srcs)+len(y.srcs))
	for _, st := range x.srcs {
		if !seen[st] {
			seen[st] = true
			out.srcs = append(out.srcs, st)
		}
	}
	for _, st := range y.srcs {
		if !seen[st] {
			seen[st] = true
			out.srcs = append(out.srcs, st)
		}
	}
	if len(x.params)+len(y.params) > 0 {
		out.params = make(map[int]Kind, len(x.params)+len(y.params))
		for i, k := range x.params {
			if out.params[i] < k {
				out.params[i] = k
			}
		}
		for i, k := range y.params {
			if out.params[i] < k {
				out.params[i] = k
			}
		}
	}
	return out
}

// captureState snapshots the converged run. Replayed units keep their
// previous records verbatim; solved units export their tracked state.
func (a *analysis) captureState(fps map[string]fnFingerprint, regionFP uint64) *IncrState {
	st := &IncrState{
		fnFP:     fps,
		regionFP: regionFP,
		units:    make(map[string]*unitRecord, len(a.unitList)),
		cells:    make(map[pRef]pTaint),
	}
	for _, u := range a.unitList {
		if u.replayed {
			st.units[u.key] = a.replay[u.key]
			continue
		}
		rec := &unitRecord{fn: u.fn.Name, sum: a.exportSummary(u.sum)}
		if len(u.recWrites) > 0 {
			rec.writes = make([]pCell, 0, len(u.recWrites))
			for ref, t := range u.recWrites {
				rec.writes = append(rec.writes, pCell{ref: pRefOf(ref), taint: a.exportTaint(t)})
			}
			sort.Slice(rec.writes, func(i, j int) bool { return pRefLess(rec.writes[i].ref, rec.writes[j].ref) })
		}
		if len(u.recReads) > 0 {
			rec.reads = make([]pRef, 0, len(u.recReads))
			for ref := range u.recReads {
				rec.reads = append(rec.reads, pRefOf(ref))
			}
			sort.Slice(rec.reads, func(i, j int) bool { return pRefLess(rec.reads[i], rec.reads[j]) })
		}
		if len(u.recSrcs) > 0 {
			keys := make([]recSrcKey, 0, len(u.recSrcs))
			for k := range u.recSrcs {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool {
				ki, kj := keys[i], keys[j]
				if ki.key != kj.key {
					if ki.key.pos != kj.key.pos {
						return posLess(ki.key.pos, kj.key.pos)
					}
					if ki.key.kind != kj.key.kind {
						return ki.key.kind < kj.key.kind
					}
					if ki.key.region != kj.key.region {
						return ki.key.region < kj.key.region
					}
					if ki.key.detail != kj.key.detail {
						return ki.key.detail < kj.key.detail
					}
					return ki.key.rule < kj.key.rule
				}
				if ki.fn != kj.fn {
					return ki.fn < kj.fn
				}
				return ki.ctx < kj.ctx
			})
			for _, k := range keys {
				rec.sources = append(rec.sources, pCtxSrc{src: pSrc{key: k.key, fn: k.fn}, ctx: k.ctx})
			}
		}
		if len(u.recErrs) > 0 {
			keys := make([]string, 0, len(u.recErrs))
			for k := range u.recErrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				e := u.recErrs[k]
				rec.errors = append(rec.errors, pError{
					pos: e.pos, fn: e.fn, vbl: e.vbl, rule: e.rule, srcs: a.exportTaint(e.t).srcs,
				})
			}
		}
		st.units[u.key] = rec
	}
	a.mem.mu.RLock()
	for ref, t := range a.mem.cells {
		pr := pRefOf(ref)
		pt := a.exportTaint(t)
		if old, ok := st.cells[pr]; ok {
			pt = mergePTaint(old, pt)
		}
		st.cells[pr] = pt
	}
	a.mem.mu.RUnlock()
	return st
}

// ---------------------------------------------------------------------------
// Verification

// canonPTaint renders a portable taint to a canonical string: interned
// source ids differ run to run, so entries sort by content.
func canonPTaint(p pTaint) string {
	entries := make([]string, 0, len(p.srcs))
	for _, st := range p.srcs {
		entries = append(entries, st.src.key.pos.String()+"\x01"+
			strconv.Itoa(int(st.src.key.kind))+"\x01"+st.src.key.region+"\x01"+
			st.src.key.detail+"\x01"+st.src.key.rule+"\x01"+st.src.fn+"\x01"+strconv.Itoa(int(st.k)))
	}
	sort.Strings(entries)
	var b strings.Builder
	prev := ""
	for i, e := range entries {
		if i > 0 && e == prev {
			continue
		}
		prev = e
		b.WriteString(e)
		b.WriteByte('\x02')
	}
	idxs := make([]int, 0, len(p.params))
	for i := range p.params {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		b.WriteString(strconv.Itoa(i))
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(int(p.params[i])))
		b.WriteByte('\x03')
	}
	return b.String()
}

// verifyIncremental diffs the previous run's portable memory cells
// against this run's and returns the replayed functions whose recorded
// reads observe a changed cell (respecting the unknown-offset read
// semantics of memStore.read). An empty result proves every replayed
// unit saw the same global memory it recorded, closing the one soundness
// gap replay has; a non-empty result triggers a cone-expansion restart.
func (a *analysis) verifyIncremental(prev *IncrState) map[string]bool {
	cur := make(map[pRef]pTaint, len(prev.cells))
	a.mem.mu.RLock()
	for ref, t := range a.mem.cells {
		pr := pRefOf(ref)
		pt := a.exportTaint(t)
		if old, ok := cur[pr]; ok {
			pt = mergePTaint(old, pt)
		}
		cur[pr] = pt
	}
	a.mem.mu.RUnlock()

	changedRefs := make(map[pRef]bool)
	changedObjs := make(map[objDesc]bool)
	mark := func(pr pRef) {
		changedRefs[pr] = true
		changedObjs[pr.obj] = true
	}
	for pr, pv := range prev.cells {
		cv, ok := cur[pr]
		if !ok || canonPTaint(pv) != canonPTaint(cv) {
			mark(pr)
		}
	}
	for pr := range cur {
		if _, ok := prev.cells[pr]; !ok {
			mark(pr)
		}
	}
	if len(changedRefs) == 0 {
		return nil
	}

	affected := make(map[string]bool)
	for _, u := range a.unitList {
		if !u.replayed {
			continue
		}
		rec := a.replay[u.key]
		if rec == nil {
			continue
		}
		for _, r := range rec.reads {
			if r.off == pointsto.UnknownOffset {
				if changedObjs[r.obj] {
					affected[u.fn.Name] = true
					break
				}
			} else if changedRefs[r] || changedRefs[pRef{obj: r.obj, off: pointsto.UnknownOffset}] {
				affected[u.fn.Name] = true
				break
			}
		}
	}
	return affected
}

// ---------------------------------------------------------------------------
// Driver

// maxIncrRestarts caps verification restarts before falling back to a
// full (still tracked) solve.
const maxIncrRestarts = 3

// runIncremental is the incremental driver: fingerprint, invalidate the
// dirty cone, replay everything else, verify, restart on drift.
func runIncremental(cfg Config) *Result {
	fps := computeFingerprints(&cfg)
	regionFP := regionFingerprint(cfg.SF)
	prev := cfg.Incr.Prev

	definedCount := 0
	for _, fn := range cfg.Module.Funcs {
		if !fn.IsDecl {
			definedCount++
		}
	}

	stats := &IncrStats{}
	full := prev == nil || prev.regionFP != regionFP
	var dirty map[string]bool
	if !full {
		dirty = make(map[string]bool)
		for name, fp := range fps {
			if pfp, ok := prev.fnFP[name]; !ok || pfp != fp {
				dirty[name] = true
			}
		}
	}

	for {
		a := newAnalysis(cfg)
		a.track = true
		var cone map[string]bool
		if !full {
			cone = callerClosure(cfg.CG, cfg.Module, dirty)
			a.replayBinder = a.newBinder()
			a.replay = a.buildReplayPlan(prev, cone)
		}
		a.runScheduled(workerCount(cfg.Workers))
		res := a.finish()
		if a.ctxDone() || len(a.internal) > 0 {
			// A cancelled or faulted run never captures state: a partial
			// snapshot would poison every later update. The caller keeps
			// its last good state instead.
			return res
		}
		if !full {
			if affected := a.verifyIncremental(prev); len(affected) > 0 {
				stats.Restarts++
				for f := range affected {
					dirty[f] = true
				}
				if stats.Restarts >= maxIncrRestarts {
					full = true
				}
				continue
			}
		}
		if full {
			stats.FuncsInvalidated = definedCount
		} else {
			stats.FuncsInvalidated = len(cone)
			if reused := definedCount - len(cone); reused > 0 {
				stats.FuncsReused = reused
			}
		}
		for _, u := range a.unitList {
			if u.replayed {
				stats.UnitsReplayed++
			} else {
				stats.UnitsSolved++
			}
		}
		res.Incr = stats
		res.NextIncr = a.captureState(fps, regionFP)
		return res
	}
}
