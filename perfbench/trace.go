package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"time"

	"safeflow/internal/callgraph"
	"safeflow/internal/cast"
	"safeflow/internal/clex"
	"safeflow/internal/cparse"
	"safeflow/internal/cpp"
	"safeflow/internal/csema"
	"safeflow/internal/ctoken"
	"safeflow/internal/irgen"
	"safeflow/internal/pointsto"
	"safeflow/internal/restrict"
	"safeflow/internal/shmflow"
	"safeflow/internal/vfg"
	"safeflow/pkg/safeflow"
)

// Layer spans of the traced pipeline, in pipeline order. The spans do
// not nest, so each span's duration is its layer's self time.
var pipelineLayers = []string{
	"cpp.expand_ms", "clex.lex_ms", "cparse.parse_ms",
	"csema.check_ms", "irgen.build_ms", "irgen.promote_ms",
	"callgraph.build_ms", "shmflow.analyze_ms", "restrict.check_ms",
	"pointsto.analyze_ms", "vfg.run_ms",
}

// tracer accumulates the traced pass over a set of inputs. A tracer
// with a nil layerMS runs the same composition without spans.
type tracer struct {
	layerMS                   map[string]float64
	ops                       int
	refMS                     float64 // safeflow.Analyze
	tracedMS                  float64 // the composition with spans
	bareMS                    float64 // the same composition without spans
	unitsSolved, sccs, rounds float64
	textMS, jsonMS, sarifMS   float64
	sarifBytes                float64
}

// span runs f and charges its wall time to layer.
func (t *tracer) span(layer string, f func()) {
	if t.layerMS == nil {
		f()
		return
	}
	t0 := time.Now()
	f()
	t.layerMS[layer] += ms(time.Since(t0))
}

// pipeline composes the analysis from the layer entry points, as
// core.AnalyzeSources does with default options and every cache off
// (vfg.Run gets only the module and the phase 1-2 results).
func (t *tracer) pipeline(sys system) (*vfg.Result, error) {
	src := cpp.MapSource(sys.sources)
	files := make([]*cast.File, 0, len(sys.cFiles))
	for _, cf := range sys.cFiles {
		var text string
		var err error
		t.span("cpp.expand_ms", func() { text, err = cpp.New(src).Expand(cf) })
		if err != nil {
			return nil, fmt.Errorf("preprocess %s: %w", cf, err)
		}
		lx := clex.New(cf, text)
		var toks []ctoken.Token
		t.span("clex.lex_ms", func() { toks = lx.All() })
		if errs := lx.Errors(); len(errs) > 0 {
			return nil, fmt.Errorf("lex %s: %v", cf, errs[0])
		}
		var f *cast.File
		t.span("cparse.parse_ms", func() { f, err = cparse.New(cf, toks).ParseFile() })
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", cf, err)
		}
		files = append(files, f)
	}
	var prog *csema.Program
	var err error
	t.span("csema.check_ms", func() { prog, err = csema.Analyze(files) })
	if err != nil {
		return nil, fmt.Errorf("typecheck: %w", err)
	}
	var res *irgen.Result
	t.span("irgen.build_ms", func() { res = irgen.Build(sys.name, prog) })
	if len(res.Errors) > 0 {
		return nil, fmt.Errorf("lower: %w", res.Errors[0])
	}
	m := res.Module
	t.span("irgen.promote_ms", func() { irgen.Promote(m) })
	var cg *callgraph.Graph
	t.span("callgraph.build_ms", func() { cg = callgraph.New(m) })
	var sf *shmflow.Result
	t.span("shmflow.analyze_ms", func() { sf = shmflow.Analyze(m, cg) })
	t.span("restrict.check_ms", func() { restrict.Check(m, sf) })
	var pts *pointsto.Result
	t.span("pointsto.analyze_ms", func() { pts = pointsto.Analyze(m, pointsto.ModeSubset) })
	var v *vfg.Result
	t.span("vfg.run_ms", func() {
		v = vfg.Run(vfg.Config{Module: m, CG: cg, SF: sf, PTS: pts, AssertVars: res.AssertVars})
	})
	return v, nil
}

// sameVerdicts compares the traced pipeline's findings with the report
// safeflow.Analyze produced for the same input.
func sameVerdicts(rep *safeflow.Report, v *vfg.Result) error {
	var data, ctrl []*vfg.ErrorDep
	for _, e := range v.Errors {
		if e.ControlOnly {
			ctrl = append(ctrl, e)
		} else {
			data = append(data, e)
		}
	}
	if err := sameStrings("warning", rep.Warnings, v.Warnings); err != nil {
		return err
	}
	if err := sameStrings("data error", rep.ErrorsData, data); err != nil {
		return err
	}
	return sameStrings("control-only error", rep.ErrorsControlOnly, ctrl)
}

func sameStrings[T fmt.Stringer](kind string, want, got []T) error {
	if len(want) != len(got) {
		return fmt.Errorf("traced pipeline: %d %ss, safeflow.Analyze %d", len(got), kind, len(want))
	}
	for i := range want {
		if want[i].String() != got[i].String() {
			return fmt.Errorf("traced pipeline: %s %d is %q, safeflow.Analyze has %q", kind, i, got[i], want[i])
		}
	}
	return nil
}

// tracePass runs every input three ways: safeflow.Analyze with default
// options, the composition with a span around each layer, and the same
// composition without spans. It checks that the traced verdicts agree
// with safeflow.Analyze and times the three renderings of the report.
// It runs at GOMAXPROCS=1, so every side is sequential and the layer
// self times add up to the end-to-end time they are compared against; a
// GC before each side keeps one side's garbage off another's clock, and
// the sides rotate which goes first.
func (b *bench) tracePass(inputs []system) {
	t := &tracer{layerMS: map[string]float64{}}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var buf bytes.Buffer
	for i, sys := range inputs {
		var rep *safeflow.Report
		var v *vfg.Result
		var refErr, trErr, bareErr error
		var refD, trD, bareD time.Duration
		timed := func(d *time.Duration, f func()) func() {
			return func() {
				runtime.GC()
				t0 := time.Now()
				f()
				*d = time.Since(t0)
			}
		}
		sides := []func(){
			timed(&refD, func() {
				rep, refErr = safeflow.Analyze(sys.name, sys.sources, sys.cFiles, safeflow.Options{})
			}),
			timed(&trD, func() { v, trErr = t.pipeline(sys) }),
			timed(&bareD, func() { _, bareErr = (&tracer{}).pipeline(sys) }),
		}
		for k := range sides {
			sides[(i+k)%len(sides)]()
		}
		err := errors.Join(refErr, trErr, bareErr)
		if err == nil {
			err = sameVerdicts(rep, v)
		}
		if err == nil {
			err = b.judge(sys, verdictOfReport(rep))
		}
		var textMS, jsonMS, sarifMS float64
		if err == nil {
			textMS, err = timeRender(&buf, func() error { safeflow.WriteReport(&buf, rep); return nil })
		}
		if err == nil {
			jsonMS, err = timeRender(&buf, func() error { return safeflow.WriteReportJSON(&buf, rep) })
		}
		if err == nil {
			sarifMS, err = timeRender(&buf, func() error { return safeflow.WriteReportSARIF(&buf, rep) })
		}
		b.record(err)
		if err != nil {
			continue
		}
		t.ops++
		t.refMS += ms(refD)
		t.tracedMS += ms(trD)
		t.bareMS += ms(bareD)
		t.unitsSolved += float64(v.UnitsAnalyzed)
		t.sccs += float64(v.SCCs)
		t.rounds += float64(v.Rounds)
		t.textMS += textMS
		t.jsonMS += jsonMS
		t.sarifMS += sarifMS
		t.sarifBytes += float64(buf.Len())
	}
	n := float64(t.ops)
	layers := 0.0
	for _, l := range pipelineLayers {
		b.set(l, ratio(t.layerMS[l], n))
		layers += t.layerMS[l]
	}
	b.set("vfg.units_solved", ratio(t.unitsSolved, n))
	b.set("vfg.sccs", ratio(t.sccs, n))
	b.set("vfg.rounds", ratio(t.rounds, n))
	b.set("core.residual_ms", ratio(t.refMS-layers, n))
	b.set("report.text_ms", ratio(t.textMS, n))
	b.set("report.json_ms", ratio(t.jsonMS, n))
	b.set("report.sarif_ms", ratio(t.sarifMS, n))
	b.set("report.sarif_kb", ratio(t.sarifBytes/1024, n))
	b.set("trace.overhead_frac", ratio(t.tracedMS, t.bareMS)-1)
	b.linef("traced pass: %d inputs at GOMAXPROCS=1, safeflow.Analyze %.2f ms/op, composition traced %.2f / untraced %.2f ms/op, layer sum %.2f ms/op",
		t.ops, ratio(t.refMS, n), ratio(t.tracedMS, n), ratio(t.bareMS, n), ratio(layers, n))
}

// timeRender renders once into buf (reset first) and returns the time.
func timeRender(buf *bytes.Buffer, render func() error) (float64, error) {
	buf.Reset()
	t0 := time.Now()
	if err := render(); err != nil {
		return 0, fmt.Errorf("render: %w", err)
	}
	return ms(time.Since(t0)), nil
}
