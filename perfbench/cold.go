package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"safeflow/pkg/safeflow"
)

// coldInputsPerSecond sizes the pre-generated inputs well above today's
// rate (about 30 ops/s on a 2-CPU host), so a faster analyzer still
// finds fresh inputs; a run that exhausts them ends its window early and
// says so.
const coldInputsPerSecond = 50

// runCold: a CI verdict on a tree the process has never seen. One
// closed-loop client analyzes a distinct generated system per operation
// (default options) and renders it as SARIF; inputs alternate between
// the wide and deep shapes.
func runCold(b *bench) error {
	var inputs, opens, dynamic, traced []system
	var probe daemonProbe
	err := b.setup(func(r *rand.Rand, _ bool) (func(), error) {
		used := map[int64]bool{}
		n := int(b.cfg.seconds*coldInputsPerSecond) + 2
		inputs = make([]system, n)
		for i, s := range seeds(r, n, used) {
			inputs[i] = generated(alternate(i), s)
		}
		opens = nil
		for _, s := range seeds(r, opensPerRun, used) {
			opens = append(opens, generated("wide", s))
		}
		traced = nil
		for i, s := range seeds(r, traceInputs, used) {
			traced = append(traced, generated(alternate(i), s))
		}
		dynamic = nil
		for i, s := range seeds(r, dynamicSamples, used) {
			dynamic = append(dynamic, generated(alternate(i), s))
		}
		var err error
		if probe, err = newDaemonProbe(r, used); err != nil {
			return nil, err
		}
		// Warm the process (code paths, heap size) on two inputs of its
		// own; the measured inputs stay unseen.
		for i, s := range seeds(r, 2, used) {
			sys := generated(alternate(i), s)
			rep, err := safeflow.Analyze(sys.name, sys.sources, sys.cFiles, safeflow.Options{})
			if err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", sys.name, err)
			}
			if err := safeflow.WriteReportSARIF(&bytes.Buffer{}, rep); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", sys.name, err)
			}
		}
		return nil, nil
	})
	if err != nil {
		return err
	}

	opts := safeflow.Options{Stats: b.cfg.trace}
	caches := counters{}
	loop := b.startLoop()
	var buf bytes.Buffer
	deadline := b.deadline()
	for i := 0; time.Now().Before(deadline); i++ {
		if i == len(inputs) {
			b.linef("note: all %d pre-generated inputs used before the window ended", i)
			break
		}
		sys := inputs[i]
		mark := loop.begin()
		rep, err := safeflow.Analyze(sys.name, sys.sources, sys.cFiles, opts)
		if err == nil {
			buf.Reset()
			err = safeflow.WriteReportSARIF(&buf, rep)
		}
		if err == nil {
			loop.end(mark)
			err = b.judge(sys, verdictOfReport(rep))
			caches.add(countersOf(rep.Metrics))
		}
		b.record(err)
	}
	b.finishLoop(loop)

	if b.cfg.trace {
		b.setRunCaches(caches)
		b.zeroLayers("diskcache", "session")
		b.tracePass(traced)
		if err := probe.run(b); err != nil {
			return err
		}
	} else {
		b.timeOpens(opens)
	}
	b.dynamicChecks(dynamic)
	b.describeShapes(inputs[0], inputs[1])
	return nil
}
