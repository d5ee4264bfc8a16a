// Content-addressed report cache. A finished Report is a deterministic
// function of the analyzer build, the sources the preprocessor reads and
// the options that change the analysis, and fingerprintSources hashes
// exactly those. So a run whose fingerprint matches a stored entry can
// skip the whole pipeline and rebuild the stored report instead.
//
// The cache lives in the "report" namespace of Options.DiskCache (the
// disk store, or the remote-tiered cache in front of it); there is no
// in-memory tier. Entries are a pointer-free wire form of the report,
// gob-encoded and versioned. Only complete verdicts are stored: never a
// degraded, crashed, cancelled or session run. A damaged entry — one the
// store's checksum rejects, or one that fails to decode — is counted as
// a corrupt eviction and recomputed, and the recomputed report
// overwrites it.

package core

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sort"
	"sync"

	"safeflow/internal/ctoken"
	"safeflow/internal/diskcache"
	"safeflow/internal/ir"
	"safeflow/internal/metrics"
	"safeflow/internal/policy"
	"safeflow/internal/restrict"
	"safeflow/internal/shmflow"
	"safeflow/internal/vfg"
)

// reportNS is the store namespace for finished reports.
const reportNS = "report"

// reportVersion versions the wire encoding below. Bump it whenever a
// wire struct gains, loses or re-types a field, or a rendered report
// would change for the same wire value: the store invalidates entries
// written under any other version instead of decoding them.
const reportVersion = 1

// buildIdentity names the analyzer build, and is part of every report
// key: a stored report is a verdict, so one written by another build
// (an older release sharing a per-user cache, a restored CI cache, a
// fleet mid-deploy behind one remote tier) must never be served, or a
// fix in any analysis phase would not reach that cache's users. It is
// computed once per process, on the first report-cache lookup; tests
// replace it to simulate another build.
var buildIdentity = sync.OnceValue(readBuildIdentity)

// readBuildIdentity hashes the build info (main module version and
// sum, VCS revision, toolchain, build settings, dependency sums) of a
// binary whose source it pins: one built from a clean VCS checkout or
// from a checksummed module version. Otherwise it hashes the
// executable's contents. If neither is available, a per-process nonce
// keeps reports from being served across processes at all.
func readBuildIdentity() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if (rev != "" && modified == "false") || bi.Main.Sum != "" {
			sum := sha256.Sum256([]byte(bi.String()))
			return "buildinfo:" + hex.EncodeToString(sum[:])
		}
	}
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			defer f.Close()
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				return "exe:" + hex.EncodeToString(h.Sum(nil))
			}
		}
	}
	var nonce [16]byte
	rand.Read(nonce[:])
	return "process:" + hex.EncodeToString(nonce[:])
}

// pipelinePhases are the metrics phases of every stored run: a report
// is stored only when no phase crashed, so all of them ran, in order.
var pipelinePhases = []string{"frontend", "shmflow", "restrict", "pointsto", "vfg"}

// Wire form of a Report (exported fields for gob). Sources are held in
// one table and referenced by index, so warnings and error witnesses
// that share a *vfg.Source share it again after decoding.

type wireReport struct {
	Name              string
	Regions           []wireRegion
	AnnotationErrors  []string
	Violations        []wireViolation
	Sources           []wireSource
	Warnings          []int
	ErrorsData        []wireError
	ErrorsControlOnly []wireError
	PolicyName        string
	PolicyFingerprint string
	PolicyExplicit    bool
	PolicyRules       []policy.RuleMeta
	Suppressed        []SuppressedFinding
	SuppressionIssues []SuppressionIssue
	LinesOfCode       int
	AnnotationLines   int
	UnitsAnalyzed     int
	SCCs              int
}

type wireRegion struct {
	Name    string
	Size    int64
	NonCore bool
}

type wireViolation struct {
	Rule restrict.Rule
	Fn   string
	Pos  ctoken.Pos
	Msg  string
}

type wireSource struct {
	Kind     vfg.SourceKind
	Pos      ctoken.Pos
	FnName   string
	Region   int // index into Regions, -1 for none
	Detail   string
	Rule     string
	Contexts []string
}

type wireError struct {
	Pos         ctoken.Pos
	FnName      string
	Var         string
	Rule        string
	ControlOnly bool
	Sources     []wireEdge
}

type wireEdge struct {
	Src  int // index into Sources
	Kind vfg.Kind
}

// lookupReport returns the stored report for fingerprint, or nil on a
// miss. Hits, misses and corrupt entries are counted in col.
func lookupReport(dc diskcache.CacheBackend, fingerprint [sha256.Size]byte, col *metrics.Collector) *Report {
	data, ok, corrupt := dc.Get(reportNS, reportVersion, fingerprint)
	if corrupt {
		col.AddCacheCorruptEvictions(1)
	}
	if ok {
		rep, err := decodeReport(data)
		if err == nil {
			col.AddDiskCache(1, 0)
			col.AddReportCache(1, 0)
			return rep
		}
		// Passed the store's checksum but is not a valid report (an
		// unbumped version or a codec bug): recompute, and let the store
		// overwrite it.
		col.AddCacheCorruptEvictions(1)
	}
	col.AddDiskCache(0, 1)
	col.AddReportCache(0, 1)
	return nil
}

// storeReport publishes a finished report. A report the wire form
// cannot represent exactly is simply not stored.
func storeReport(dc diskcache.CacheBackend, fingerprint [sha256.Size]byte, rep *Report) {
	if data, err := encodeReport(rep); err == nil {
		dc.Put(reportNS, reportVersion, fingerprint, data)
	}
}

// hitMetrics shapes a hit's metrics like those of the run that stored
// the report, so the two canonicalize identically: the same phases
// (with zero wall time, since none ran), translation units and SCCs.
func hitMetrics(col *metrics.Collector, rep *Report) {
	for _, p := range pipelinePhases {
		col.SkipPhase(p)
	}
	col.SetPhase3(rep.sccs, 0, 0, rep.UnitsAnalyzed, 0)
}

func encodeReport(rep *Report) ([]byte, error) {
	w := wireReport{
		Name:              rep.Name,
		PolicyName:        rep.PolicyName,
		PolicyFingerprint: rep.PolicyFingerprint,
		PolicyExplicit:    rep.PolicyExplicit,
		PolicyRules:       rep.PolicyRules,
		Suppressed:        rep.Suppressed,
		SuppressionIssues: rep.SuppressionIssues,
		LinesOfCode:       rep.LinesOfCode,
		AnnotationLines:   rep.AnnotationLines,
		UnitsAnalyzed:     rep.UnitsAnalyzed,
		SCCs:              rep.sccs,
	}
	regionIdx := make(map[*shmflow.Region]int, len(rep.Regions))
	for i, r := range rep.Regions {
		regionIdx[r] = i
		w.Regions = append(w.Regions, wireRegion{Name: r.Name, Size: r.Size, NonCore: r.NonCore})
	}
	for _, e := range rep.AnnotationErrors {
		w.AnnotationErrors = append(w.AnnotationErrors, e.Error())
	}
	for _, v := range rep.Violations {
		if v.Fn == nil {
			return nil, errors.New("violation without a function")
		}
		w.Violations = append(w.Violations, wireViolation{Rule: v.Rule, Fn: v.Fn.Name, Pos: v.Pos, Msg: v.Msg})
	}
	srcIdx := make(map[*vfg.Source]int)
	source := func(s *vfg.Source) (int, error) {
		if i, ok := srcIdx[s]; ok {
			return i, nil
		}
		ws := wireSource{Kind: s.Kind, Pos: s.Pos, FnName: s.FnName, Region: -1, Detail: s.Detail, Rule: s.Rule}
		if s.Region != nil {
			i, ok := regionIdx[s.Region]
			if !ok {
				return 0, fmt.Errorf("source %s names a region outside the report", s)
			}
			ws.Region = i
		}
		for c := range s.Contexts {
			ws.Contexts = append(ws.Contexts, c)
		}
		sort.Strings(ws.Contexts)
		srcIdx[s] = len(w.Sources)
		w.Sources = append(w.Sources, ws)
		return srcIdx[s], nil
	}
	for _, s := range rep.Warnings {
		i, err := source(s)
		if err != nil {
			return nil, err
		}
		w.Warnings = append(w.Warnings, i)
	}
	wireErrors := func(errs []*vfg.ErrorDep) ([]wireError, error) {
		var out []wireError
		for _, e := range errs {
			we := wireError{Pos: e.Pos, FnName: e.FnName, Var: e.Var, Rule: e.Rule, ControlOnly: e.ControlOnly}
			for _, s := range e.SortedSources() {
				i, err := source(s)
				if err != nil {
					return nil, err
				}
				we.Sources = append(we.Sources, wireEdge{Src: i, Kind: e.Sources[s]})
			}
			out = append(out, we)
		}
		return out, nil
	}
	var err error
	if w.ErrorsData, err = wireErrors(rep.ErrorsData); err != nil {
		return nil, err
	}
	if w.ErrorsControlOnly, err = wireErrors(rep.ErrorsControlOnly); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// errInvalidEntry marks a decoded entry whose indices do not resolve.
var errInvalidEntry = errors.New("report cache entry does not resolve")

// decodeReport rebuilds a Report from its wire form. Module is nil: a
// hit never compiles the sources.
func decodeReport(data []byte) (*Report, error) {
	var w wireReport
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, err
	}
	rep := &Report{
		Name:              w.Name,
		PolicyName:        w.PolicyName,
		PolicyFingerprint: w.PolicyFingerprint,
		PolicyExplicit:    w.PolicyExplicit,
		PolicyRules:       w.PolicyRules,
		Suppressed:        w.Suppressed,
		SuppressionIssues: w.SuppressionIssues,
		LinesOfCode:       w.LinesOfCode,
		AnnotationLines:   w.AnnotationLines,
		UnitsAnalyzed:     w.UnitsAnalyzed,
		sccs:              w.SCCs,
	}
	for _, r := range w.Regions {
		rep.Regions = append(rep.Regions, &shmflow.Region{Name: r.Name, Size: r.Size, NonCore: r.NonCore})
	}
	for _, msg := range w.AnnotationErrors {
		rep.AnnotationErrors = append(rep.AnnotationErrors, errors.New(msg))
	}
	for _, v := range w.Violations {
		rep.Violations = append(rep.Violations, restrict.Violation{Rule: v.Rule, Fn: &ir.Function{Name: v.Fn}, Pos: v.Pos, Msg: v.Msg})
	}
	sources := make([]*vfg.Source, len(w.Sources))
	for i, ws := range w.Sources {
		s := &vfg.Source{Kind: ws.Kind, Pos: ws.Pos, FnName: ws.FnName, Detail: ws.Detail, Rule: ws.Rule,
			Contexts: make(map[string]bool, len(ws.Contexts))}
		if ws.Region >= 0 {
			if ws.Region >= len(rep.Regions) {
				return nil, errInvalidEntry
			}
			s.Region = rep.Regions[ws.Region]
		}
		for _, c := range ws.Contexts {
			s.Contexts[c] = true
		}
		sources[i] = s
	}
	for _, i := range w.Warnings {
		if i < 0 || i >= len(sources) {
			return nil, errInvalidEntry
		}
		rep.Warnings = append(rep.Warnings, sources[i])
	}
	errorDeps := func(wes []wireError) ([]*vfg.ErrorDep, error) {
		var out []*vfg.ErrorDep
		for _, we := range wes {
			e := &vfg.ErrorDep{Pos: we.Pos, FnName: we.FnName, Var: we.Var, Rule: we.Rule, ControlOnly: we.ControlOnly,
				Sources: make(map[*vfg.Source]vfg.Kind, len(we.Sources))}
			for _, edge := range we.Sources {
				if edge.Src < 0 || edge.Src >= len(sources) {
					return nil, errInvalidEntry
				}
				e.Sources[sources[edge.Src]] = edge.Kind
			}
			out = append(out, e)
		}
		return out, nil
	}
	var err error
	if rep.ErrorsData, err = errorDeps(w.ErrorsData); err != nil {
		return nil, err
	}
	if rep.ErrorsControlOnly, err = errorDeps(w.ErrorsControlOnly); err != nil {
		return nil, err
	}
	return rep, nil
}
