// Incremental frontend: per-translation-unit fragment compilation with a
// content-keyed fragment cache and a module linker.
//
// A session's FragmentCompiler keeps, per .c file, the fully lowered and
// promoted single-TU module ("fragment") keyed by the TU's preprocessed
// text. On an update only the TUs whose expansion changed are recompiled;
// unchanged fragments are reused as-is — including their per-function
// body hashes, which feed the value-flow scheduler's dependency graph.
// The fragments are then linked: one canonical function and global is
// chosen per name (first appearance wins the module slot, a definition
// replaces a declaration in place) and every operand is rewired onto the
// canonical objects, reproducing the whole-module compile's declaration
// order so downstream reports stay byte-identical.
//
// The linker is deliberately conservative: any situation the whole-module
// pipeline would handle differently from naive per-TU merging — duplicate
// definitions, signature or global-type mismatches, conflicting struct
// layouts, conflicting initializers, or any compile diagnostic at all —
// fails the fragment path, and the caller falls back to the full
// pipeline (which reproduces the proper error or degraded report).
package frontend

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"

	"safeflow/internal/cast"
	"safeflow/internal/clex"
	"safeflow/internal/cparse"
	"safeflow/internal/cpp"
	"safeflow/internal/csema"
	"safeflow/internal/ctypes"
	"safeflow/internal/guard"
	"safeflow/internal/ir"
	"safeflow/internal/irgen"
)

// HashFunc fingerprints one lowered function body (supplied by the
// caller to avoid a frontend→vfg dependency).
type HashFunc func(fn *ir.Function, assertVars map[*ir.Call]string) uint64

// fragment is one translation unit's lowered, promoted module plus the
// content hashes of the functions it defines. Body hashes are stored
// with the fragment (not per session-update) so a reused fragment's
// hints are intrinsically consistent with its IR.
type fragment struct {
	key        [sha256.Size]byte
	res        *irgen.Result
	bodyHashes map[string]uint64
	structs    map[string]*ctypes.Struct
}

// FragmentCompiler compiles translation units independently and links
// them into one module, recompiling only the units whose preprocessed
// content changed. One compiler serves one session: fragments are
// mutated during linking (operand rewiring) and must not be shared.
type FragmentCompiler struct {
	name       string
	opts       Options
	hashFn     HashFunc
	frags      map[string]*fragment
	expansions map[string]*expansion
	// fpMemo caches structural type fingerprints per type object. Types
	// are immutable once built and reused fragments carry the same type
	// pointers into every link, so the memo turns the per-link symbol
	// gates into map lookups.
	fpMemo map[ctypes.Type]string
	// The previous link, returned verbatim when the fragment list is
	// unchanged (pointer-for-pointer, in order) — the comment-only-edit
	// case, where rebuilt fragments were adopted back into their
	// semantically identical predecessors.
	lastFrags  []*fragment
	lastRes    *irgen.Result
	lastHashes map[string]uint64
}

// NewFragmentCompiler returns a compiler for one session. hashFn may be
// nil, in which case no body hashes are produced.
func NewFragmentCompiler(name string, opts Options, hashFn HashFunc) *FragmentCompiler {
	return &FragmentCompiler{
		name: name, opts: opts, hashFn: hashFn,
		frags:      make(map[string]*fragment),
		expansions: make(map[string]*expansion),
		fpMemo:     make(map[ctypes.Type]string),
	}
}

// expansion caches one unit's preprocessed text together with the exact
// files the preprocessor read to produce it. The cache is fresh while
// every dependency's current content is unchanged — unchanged files in
// a session keep their identical string values, so the comparison hits
// the pointer-equality fast path.
type expansion struct {
	text string
	deps map[string]string
}

func (e *expansion) fresh(sources cpp.Source) bool {
	for name, prev := range e.deps {
		cur, err := sources.ReadFile(name)
		if err != nil || cur != prev {
			return false
		}
	}
	return true
}

// recordingSource logs every file the preprocessor reads.
type recordingSource struct {
	src  cpp.Source
	deps map[string]string
}

func (r *recordingSource) ReadFile(name string) (string, error) {
	text, err := r.src.ReadFile(name)
	if err == nil {
		r.deps[name] = text
	}
	return text, err
}

// Compile builds (or reuses) one fragment per cFile and links them.
// ok=false means the fragment path cannot represent this input (compile
// diagnostics, link conflicts, cancellation) and the caller must fall
// back to the full pipeline.
func (fc *FragmentCompiler) Compile(ctx context.Context, sources cpp.Source, cFiles []string) (res *irgen.Result, bodyHashes map[string]uint64, ok bool) {
	// Panic-isolate the whole fragment path: a crash anywhere inside it
	// degrades to the full pipeline instead of taking the session down.
	err := guard.Run("frontend", "fragments", func() error {
		res, bodyHashes, ok = fc.compile(ctx, sources, cFiles)
		return nil
	})
	if err != nil {
		return nil, nil, false
	}
	return res, bodyHashes, ok
}

func (fc *FragmentCompiler) compile(ctx context.Context, sources cpp.Source, cFiles []string) (*irgen.Result, map[string]uint64, bool) {
	live := make(map[string]bool, len(cFiles))
	frags := make([]*fragment, 0, len(cFiles))
	for _, cf := range cFiles {
		if ctx.Err() != nil {
			return nil, nil, false
		}
		live[cf] = true
		text, ok := fc.expand(sources, cf)
		if !ok {
			return nil, nil, false
		}
		key := fragmentKey(cf, text)
		if f := fc.frags[cf]; f != nil && f.key == key {
			frags = append(frags, f)
			continue
		}
		f, ok := fc.build(cf, text, key)
		if !ok {
			delete(fc.frags, cf) // a stale fragment must not outlive its source
			return nil, nil, false
		}
		// A rebuild that is semantically identical to the old fragment —
		// same symbols, layouts, body hashes (which cover positions and
		// annotation facts) — adopts the old fragment's IR under the new
		// content key, keeping its identity stable for link reuse.
		if old := fc.frags[cf]; old != nil && fc.sameFragment(old, f) {
			old.key = f.key
			frags = append(frags, old)
			continue
		}
		fc.frags[cf] = f
		frags = append(frags, f)
	}
	// Drop fragments and cached expansions of removed files.
	for cf := range fc.frags {
		if !live[cf] {
			delete(fc.frags, cf)
		}
	}
	for cf := range fc.expansions {
		if !live[cf] {
			delete(fc.expansions, cf)
		}
	}
	if fc.sameLink(frags) {
		return fc.lastRes, fc.lastHashes, true
	}
	res, hashes, ok := fc.link(frags)
	if ok {
		fc.lastFrags = append(fc.lastFrags[:0], frags...)
		fc.lastRes, fc.lastHashes = res, hashes
	} else {
		fc.lastFrags, fc.lastRes, fc.lastHashes = nil, nil, nil
	}
	return res, hashes, ok
}

// sameLink reports whether frags is exactly the previous link's input —
// same fragment objects in the same order — so its output is reusable.
func (fc *FragmentCompiler) sameLink(frags []*fragment) bool {
	if fc.lastRes == nil || len(frags) != len(fc.lastFrags) {
		return false
	}
	for i, f := range frags {
		if fc.lastFrags[i] != f {
			return false
		}
	}
	return true
}

// sameFragment reports whether two compiles of one unit are semantically
// interchangeable: identical symbol lists (names, order, kind), identical
// signature and layout fingerprints, and identical body hashes — which
// cover instruction positions, assert variables, and annotation facts,
// so adopted IR renders byte-identical reports.
func (fc *FragmentCompiler) sameFragment(a, b *fragment) bool {
	if fc.hashFn == nil {
		return false // without body hashes there is no semantic signal
	}
	am, bm := a.res.Module, b.res.Module
	if len(am.Funcs) != len(bm.Funcs) || len(am.Globals) != len(bm.Globals) ||
		len(a.structs) != len(b.structs) || len(a.bodyHashes) != len(b.bodyHashes) {
		return false
	}
	// Definitions must match pairwise in order; declarations are compared
	// as a set — csema emits builtin declarations in nondeterministic
	// order, and declaration order is already proven not to affect report
	// bytes (the whole-module pipeline has the same nondeterminism and
	// passes byte-determinism).
	decls := make(map[string]*ir.Function)
	var aDefs []*ir.Function
	for _, fn := range am.Funcs {
		if fn.IsDecl {
			decls[fn.Name] = fn
		} else {
			aDefs = append(aDefs, fn)
		}
	}
	var bDefs []*ir.Function
	for _, fn := range bm.Funcs {
		if fn.IsDecl {
			o, ok := decls[fn.Name]
			if !ok || o.Pos != fn.Pos || fc.fp(o.Sig) != fc.fp(fn.Sig) {
				return false
			}
			delete(decls, fn.Name)
		} else {
			bDefs = append(bDefs, fn)
		}
	}
	if len(decls) != 0 || len(aDefs) != len(bDefs) {
		return false
	}
	for i, fn := range aDefs {
		o := bDefs[i]
		if fn.Name != o.Name || fn.Pos != o.Pos || fc.fp(fn.Sig) != fc.fp(o.Sig) {
			return false
		}
	}
	for i, g := range am.Globals {
		o := bm.Globals[i]
		if g.Name != o.Name || g.HasInit != o.HasInit || g.Pos != o.Pos ||
			len(g.InitInts) != len(o.InitInts) || fc.fp(g.Elem) != fc.fp(o.Elem) {
			return false
		}
		for j, v := range g.InitInts {
			if o.InitInts[j] != v {
				return false
			}
		}
	}
	for tag, st := range a.structs {
		ost, ok := b.structs[tag]
		if !ok || fc.fp(st) != fc.fp(ost) {
			return false
		}
	}
	for name, h := range a.bodyHashes {
		oh, ok := b.bodyHashes[name]
		if !ok || h != oh {
			return false
		}
	}
	return true
}

// fragmentKey is a fragment's content key: the SHA-256 of the unit's
// file name and fully preprocessed text, so an edit to the unit or to
// any header it includes changes the key.
func fragmentKey(filename, expanded string) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(filename))
	h.Write([]byte{0})
	h.Write([]byte(expanded))
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}

// expand preprocesses one unit exactly as compileUnitDiags does,
// skipping the preprocessor entirely while the unit's recorded include
// closure is unchanged.
func (fc *FragmentCompiler) expand(sources cpp.Source, cf string) (string, bool) {
	if e := fc.expansions[cf]; e != nil && e.fresh(sources) {
		return e.text, true
	}
	rec := &recordingSource{src: sources, deps: make(map[string]string)}
	pp := cpp.New(rec)
	keys := make([]string, 0, len(fc.opts.Defines))
	for k := range fc.opts.Defines {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		pp.Define(k, fc.opts.Defines[k])
	}
	text, err := pp.Expand(cf)
	if err != nil {
		delete(fc.expansions, cf)
		return "", false
	}
	fc.expansions[cf] = &expansion{text: text, deps: rec.deps}
	return text, true
}

// build compiles one fragment: lex, parse, single-file type-check,
// lower, promote, hash. Any diagnostic fails the
// fragment path.
func (fc *FragmentCompiler) build(cf, text string, key [sha256.Size]byte) (*fragment, bool) {
	lx := clex.New(cf, text)
	toks := lx.All()
	if len(lx.Errors()) > 0 {
		return nil, false
	}
	file, err := cparse.New(cf, toks).ParseFile()
	if err != nil {
		return nil, false
	}
	prog, err := csema.Analyze([]*cast.File{file})
	if err != nil {
		return nil, false
	}
	res := irgen.Build(fc.name, prog)
	if len(res.Errors) > 0 {
		return nil, false
	}
	if !fc.opts.SkipPromote {
		irgen.Promote(res.Module)
	}
	frag := &fragment{key: key, res: res, structs: prog.Structs}
	if fc.hashFn != nil {
		frag.bodyHashes = make(map[string]uint64)
		for _, fn := range res.Module.Funcs {
			if !fn.IsDecl {
				frag.bodyHashes[fn.Name] = fc.hashFn(fn, res.AssertVars)
			}
		}
	}
	return frag, true
}

// link merges the fragments into one module in first-appearance order,
// mirroring the whole-module type checker's declaration-order semantics.
func (fc *FragmentCompiler) link(frags []*fragment) (*irgen.Result, map[string]uint64, bool) {
	// Struct layouts must agree across fragments: the whole-module check
	// would have merged (or rejected) them, and the analysis depends on
	// field offsets and sizes baked in during per-fragment lowering.
	structFPs := make(map[string]string)
	for _, f := range frags {
		for tag, st := range f.structs {
			fp := fc.fp(st)
			if prev, ok := structFPs[tag]; ok && prev != fp {
				return nil, nil, false
			}
			structFPs[tag] = fp
		}
	}

	nFuncs, nGlobals, nAsserts := 0, 0, 0
	for _, f := range frags {
		nFuncs += len(f.res.Module.Funcs)
		nGlobals += len(f.res.Module.Globals)
		nAsserts += len(f.res.AssertVars)
	}
	var (
		fnSlot  = make(map[string]int, nFuncs)
		fnOrder = make([]*ir.Function, 0, nFuncs)
		gSlot   = make(map[string]int, nGlobals)
		gOrder  = make([]*ir.Global, 0, nGlobals)
	)
	for _, f := range frags {
		for _, g := range f.res.Module.Globals {
			i, seen := gSlot[g.Name]
			if !seen {
				gSlot[g.Name] = len(gOrder)
				gOrder = append(gOrder, g)
				continue
			}
			prev := gOrder[i]
			if fc.fp(prev.Elem) != fc.fp(g.Elem) {
				return nil, nil, false
			}
			if g.HasInit {
				if prev.HasInit {
					return nil, nil, false // conflicting initializers
				}
				gOrder[i] = g // the initializing declaration wins the slot
			}
		}
		for _, fn := range f.res.Module.Funcs {
			i, seen := fnSlot[fn.Name]
			if !seen {
				fnSlot[fn.Name] = len(fnOrder)
				fnOrder = append(fnOrder, fn)
				continue
			}
			prev := fnOrder[i]
			if fc.fp(prev.Sig) != fc.fp(fn.Sig) {
				return nil, nil, false
			}
			if !fn.IsDecl {
				if !prev.IsDecl {
					return nil, nil, false // duplicate definition
				}
				fnOrder[i] = fn // the definition wins the slot
			}
		}
	}

	m := ir.NewModule(fc.name)
	for _, g := range gOrder {
		m.AddGlobal(g)
	}
	for _, fn := range fnOrder {
		m.AddFunc(fn)
	}
	repl := func(v ir.Value) ir.Value {
		switch x := v.(type) {
		case *ir.Function:
			if c := m.FuncByName(x.Name); c != nil && c != x {
				return c
			}
		case *ir.Global:
			if c := m.GlobalByName(x.Name); c != nil && c != x {
				return c
			}
		}
		return nil
	}
	// Rewire every function on every link: a reused fragment's operands
	// still point at the previous link's canonical objects.
	for _, fn := range fnOrder {
		if !fn.IsDecl {
			ir.RewriteOperands(fn, repl)
		}
	}

	merged := &irgen.Result{Module: m, AssertVars: make(map[*ir.Call]string, nAsserts)}
	bodyHashes := make(map[string]uint64, len(fnOrder))
	for _, f := range frags {
		for c, v := range f.res.AssertVars {
			merged.AssertVars[c] = v
		}
		for name, h := range f.bodyHashes {
			bodyHashes[name] = h
		}
	}
	return merged, bodyHashes, true
}

// fp is the memoizing entry point for typeFP. Recompiled fragments
// allocate fresh type objects, so the memo is rebuilt if it ever grows
// pathological.
func (fc *FragmentCompiler) fp(t ctypes.Type) string {
	if s, ok := fc.fpMemo[t]; ok {
		return s
	}
	if len(fc.fpMemo) > 1<<16 {
		fc.fpMemo = make(map[ctypes.Type]string)
	}
	s := typeFP(t, nil)
	fc.fpMemo[t] = s
	return s
}

// typeFP renders a type to a structural fingerprint. ctypes structs are
// nominal (pointer equality), but fragments re-create identical struct
// types per TU, so cross-fragment comparisons must be structural. A
// struct already being expanded renders as its tag (cycle cut).
func typeFP(t ctypes.Type, expanding map[*ctypes.Struct]bool) string {
	switch x := t.(type) {
	case nil:
		return "<nil>"
	case *ctypes.Basic:
		return x.String()
	case *ctypes.Pointer:
		return "*" + typeFP(x.Elem, expanding)
	case *ctypes.Array:
		return fmt.Sprintf("[%d]%s", x.Len, typeFP(x.Elem, expanding))
	case *ctypes.Struct:
		kw := "struct"
		if x.IsUnion {
			kw = "union"
		}
		if expanding[x] {
			return kw + " " + x.Tag
		}
		if expanding == nil {
			expanding = make(map[*ctypes.Struct]bool)
		}
		expanding[x] = true
		var b strings.Builder
		b.WriteString(kw)
		b.WriteByte(' ')
		b.WriteString(x.Tag)
		b.WriteByte('{')
		for _, fld := range x.Fields {
			fmt.Fprintf(&b, "%s@%d:%s;", fld.Name, fld.Offset, typeFP(fld.Type, expanding))
		}
		b.WriteByte('}')
		delete(expanding, x)
		return b.String()
	case *ctypes.Func:
		var b strings.Builder
		b.WriteString("func(")
		for _, p := range x.Params {
			b.WriteString(typeFP(p, expanding))
			b.WriteByte(',')
		}
		if x.Variadic {
			b.WriteString("...")
		}
		b.WriteByte(')')
		b.WriteString(typeFP(x.Result, expanding))
		return b.String()
	default:
		return fmt.Sprintf("%T", t)
	}
}
