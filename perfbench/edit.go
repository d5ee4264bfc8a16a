package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"safeflow/pkg/safeflow"
)

const (
	// editsPerSession scripted edits stream through each session before
	// the workload reopens on a new system, so opens collect samples.
	editsPerSession = 20
	// editUpdatesPerSecond sizes the pre-generated sessions, well above
	// today's rate (an update is about 7 ms on a 2-CPU host).
	editUpdatesPerSecond = 300
)

// editRecord is one timed update, checked after the window.
type editRecord struct {
	step int
	sum  [sha256.Size]byte // JSON rendering of the update's report
	err  error
}

// runEdit: an editor or -watch user. Open a session on a wide system,
// stream a seeded edit script (noop, body-tweak, annotation-flip,
// rewrite) through Update, sending only the files each edit changed,
// and reopen on a new system every editsPerSession edits. Each update's
// report must be byte-identical to safeflow.Analyze on the edited tree;
// that check runs after the window.
func runEdit(b *bench) error {
	var sessions []editSession
	var traced []system
	var probe daemonProbe
	err := b.setup(func(r *rand.Rand, _ bool) (func(), error) {
		used := map[int64]bool{}
		n := int(b.cfg.seconds*editUpdatesPerSecond)/editsPerSession + 2
		sessions = nil
		for _, s := range seeds(r, n, used) {
			sessions = append(sessions, newEditSession(s, editsPerSession))
		}
		traced = nil
		for _, s := range seeds(r, traceInputs, used) {
			traced = append(traced, generated("wide", s))
		}
		var err error
		if probe, err = newDaemonProbe(r, used); err != nil {
			return nil, err
		}
		// Warm the process on one session of its own.
		warm := newEditSession(seeds(r, 1, used)[0], 4)
		s, _, err := safeflow.Open(warm.open.name, warm.open.sources, warm.open.cFiles, safeflow.Options{})
		if err != nil {
			return nil, fmt.Errorf("warm-up open: %w", err)
		}
		defer s.Close()
		for _, ch := range warm.steps {
			if _, _, err := s.Update(ch); err != nil {
				return nil, fmt.Errorf("warm-up update: %w", err)
			}
		}
		return nil, nil
	})
	if err != nil {
		return err
	}

	opts := safeflow.Options{Stats: b.cfg.trace}
	loop := b.startLoop()
	var opens []float64
	var done []sessionRun
	stats := counters{}
	caches := counters{}
	updates, kinds := 0, map[string]int{}
	deadline := b.deadline()
	for k := 0; k < len(sessions) && time.Now().Before(deadline); k++ {
		es := sessions[k]
		// Collect the previous session's garbage first, as the watch loop
		// does while idle.
		runtime.GC()
		t0 := time.Now()
		sess, _, err := safeflow.Open(es.open.name, es.open.sources, es.open.cFiles, opts)
		d := time.Since(t0)
		b.record(err)
		if err != nil {
			continue
		}
		opens = append(opens, ms(d))
		run := sessionRun{es: es}
		var buf bytes.Buffer
		for i, ch := range es.steps {
			if !time.Now().Before(deadline) {
				break
			}
			mark := loop.begin()
			rep, st, err := sess.Update(ch)
			rec := editRecord{step: i + 1, err: err}
			if err == nil {
				loop.end(mark)
				updates++
				kinds[es.kinds[i].String()]++
				stats.add(countersOf(st))
				caches.add(countersOf(rep.Metrics))
				rec.err = b.judge(es.open, verdictOfReport(rep))
				rep.Metrics = nil
				buf.Reset()
				if err := safeflow.WriteReportJSON(&buf, rep); err != nil && rec.err == nil {
					rec.err = err
				}
				rec.sum = sha256.Sum256(buf.Bytes())
			}
			run.recs = append(run.recs, rec)
		}
		sess.Close()
		done = append(done, run)
	}
	b.finishLoop(loop)
	b.linef("edits: %d updates over %d sessions (%s)", updates, len(opens), formatKinds(kinds))
	checkStart := time.Now()
	for _, run := range done {
		b.checkSession(run)
	}
	b.linef("edit checks: %d updates compared with safeflow.Analyze in %.1f s, after the window", updates, time.Since(checkStart).Seconds())
	if b.cfg.trace {
		b.setRunCaches(caches)
		b.zeroLayers("diskcache")
		b.setSessionLayers(stats, float64(updates))
		b.tracePass(traced)
		if err := probe.run(b); err != nil {
			return err
		}
	} else {
		b.set("open_p50_ms", median(opens))
		b.linef("opens: %d sessions, p50 %.2f ms", len(opens), median(opens))
	}
	b.describeShapes(sessions[0].open)
	return nil
}

// sessionRun is one session of the window and its timed updates.
type sessionRun struct {
	es   editSession
	recs []editRecord
}

// checkSession compares every update of a session with a from-scratch
// analysis of the same edited tree, byte for byte.
func (b *bench) checkSession(run sessionRun) {
	es := run.es
	var buf bytes.Buffer
	for _, rec := range run.recs {
		err := rec.err
		if err == nil {
			var rep *safeflow.Report
			rep, err = safeflow.Analyze(es.open.name, es.treeAt(rec.step), es.open.cFiles, safeflow.Options{})
			if err == nil {
				buf.Reset()
				err = safeflow.WriteReportJSON(&buf, rep)
			}
			if err == nil && sha256.Sum256(buf.Bytes()) != rec.sum {
				err = fmt.Errorf("%s: update %d (%s) differs from safeflow.Analyze of the edited tree",
					es.open.name, rec.step, es.kinds[rec.step-1])
			}
		}
		b.record(err)
	}
}

func formatKinds(kinds map[string]int) string {
	var buf bytes.Buffer
	for i, k := range sortedKeys(kinds) {
		if i > 0 {
			buf.WriteString(", ")
		}
		fmt.Fprintf(&buf, "%s %d", k, kinds[k])
	}
	return buf.String()
}
