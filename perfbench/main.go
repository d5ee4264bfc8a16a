// Command perfbench is SafeFlow's same-host benchmark. Each run measures
// one seeded workload in-process through the public entry points the
// CLI and the daemon use, checks every output against known answers, and
// prints its metrics by name with their units; the last stdout line is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// same workload runs again for its layer counters and a traced pass
// times every pipeline layer from outside, around its public function.
// See README.md for the workloads and the metric map.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload cold --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the analyzer sees; every workload reports
// all of them (trace 0).
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"throughput_ops_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MiB"},
	{"open_p50_ms", "ms"},
	{"setup_s", "s"},
}

// perLayer is reported by the traced run (trace 1). A layer a workload
// does not exercise reads 0; a counter the program no longer exports is
// left out of the result and listed as absent.
var perLayer = []metricDef{
	{"cpp.expand_ms", "ms"},
	{"clex.lex_ms", "ms"},
	{"cparse.parse_ms", "ms"},
	{"csema.check_ms", "ms"},
	{"irgen.build_ms", "ms"},
	{"irgen.promote_ms", "ms"},
	{"callgraph.build_ms", "ms"},
	{"shmflow.analyze_ms", "ms"},
	{"restrict.check_ms", "ms"},
	{"pointsto.analyze_ms", "ms"},
	{"vfg.run_ms", "ms"},
	{"vfg.units_solved", "count"},
	{"vfg.sccs", "count"},
	{"vfg.rounds", "count"},
	{"core.residual_ms", "ms"},
	{"report.text_ms", "ms"},
	{"report.json_ms", "ms"},
	{"report.sarif_ms", "ms"},
	{"report.sarif_kb", "KiB"},
	{"frontend.parse_cache_hit_ratio", "ratio"},
	{"vfg.summary_cache_hit_ratio", "ratio"},
	{"diskcache.hit_ratio", "ratio"},
	{"diskcache.puts_per_op", "count"},
	{"session.incremental_ratio", "ratio"},
	{"session.funcs_invalidated_per_update", "count"},
	{"session.funcs_reused_ratio", "ratio"},
	{"session.units_replayed_ratio", "ratio"},
	{"session.restarts_per_update", "count"},
	{"daemon.analysis_ms_per_request", "ms"},
	{"daemon.overhead_ms", "ms"},
	{"daemon.dedup_ratio", "ratio"},
	{"daemon.rejected_ratio", "ratio"},
	{"runtime.alloc_mb_per_op", "MiB"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.heap_peak_mb", "MiB"},
	{"trace.overhead_frac", "frac"},
	{"failed_frac", "frac"},
}

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// root is the repository root, where testdata goldens live.
	root string
	// plantWrongExpectation inverts the generator's known kill() answer:
	// the self-test that proves the correctness checks can fail.
	plantWrongExpectation bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's state: the outcome counters, the metrics so far,
// and the human-readable lines printed before the result.
type bench struct {
	cfg       config
	attempted int
	failed    int
	failures  []string
	values    map[string]float64
	absent    map[string]bool
	lines     []string
}

func newBench(cfg config) *bench {
	return &bench{cfg: cfg, values: map[string]float64{}, absent: map[string]bool{}}
}

// record counts one attempted operation; a non-nil err marks it failed
// (an error, a refusal, or a failed correctness check).
func (b *bench) record(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.failures) < 10 {
			b.failures = append(b.failures, err.Error())
		}
	}
}

func (b *bench) set(name string, v float64) { b.values[name] = v }

// setFrom sets name to f of the named exported counters; the metric is
// absent when the program does not export one of them.
func (b *bench) setFrom(name string, c counters, f func(v ...float64) float64, keys ...string) {
	vals := make([]float64, len(keys))
	for i, k := range keys {
		v, ok := c[k]
		if !ok {
			b.absent[name] = true
			return
		}
		vals[i] = v
	}
	b.values[name] = f(vals...)
}

// hitRatio is hits/(hits+misses): the share of the first count in the
// total of both.
func hitRatio(v ...float64) float64 { return ratio(v[0], v[0]+v[1]) }

func (b *bench) linef(format string, args ...any) {
	b.lines = append(b.lines, fmt.Sprintf(format, args...))
}

// Per-run sample sizes shared by the workloads.
const (
	// setupReps is how often an untraced run repeats its set-up; setup_s
	// is the median, so one slow repetition does not move it.
	setupReps = 3
	// opensPerRun session opens on fresh wide systems are timed after
	// the window (open_p50_ms on the cold and serve workloads).
	opensPerRun = 30
	// dynamicSamples inputs per run are re-checked by the fuzzing
	// executor's dynamic-taint oracle after the window.
	dynamicSamples = 2
	// traceInputs is the size of the traced pass.
	traceInputs = 16
)

// setup runs build setupReps times (once in a traced run) and records
// the median time as setup_s. Each repetition draws its inputs from a
// seed of its own, so every repetition generates and warms inputs the
// process has never seen, against caches that hold none of them. The
// last repetition draws from the run's seed; its state is the one the
// run measures. An earlier repetition is torn down and collected off the
// clock before the next one starts.
func (b *bench) setup(build func(r *rand.Rand, final bool) (teardown func(), err error)) error {
	reps := setupReps
	if b.cfg.trace {
		reps = 1
	}
	var times []float64
	for i := 0; i < reps; i++ {
		final := i == reps-1
		seed := b.cfg.seed
		if !final {
			seed ^= int64(i+1) << 48
		}
		t0 := time.Now()
		teardown, err := build(rand.New(rand.NewSource(seed)), final)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if !final {
			if teardown != nil {
				teardown()
			}
			runtime.GC()
		}
	}
	b.set("setup_s", median(times))
	b.linef("setup: %d repetition(s) on distinct seeds, %s s each", reps, formatList(times))
	return nil
}

func formatList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

// deadline is the end of the measured window.
func (b *bench) deadline() time.Time {
	return time.Now().Add(time.Duration(b.cfg.seconds * float64(time.Second)))
}

var workloads = map[string]func(*bench) error{
	"cold":  runCold,
	"serve": runServe,
	"edit":  runEdit,
}

// run executes one workload and assembles its result.
func run(cfg config) (*bench, *result, error) {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (have cold, serve, edit)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, nil, errors.New("--seconds must be positive")
	}
	b := newBench(cfg)
	if err := wl(b); err != nil {
		return nil, nil, err
	}
	if cfg.trace {
		b.set("failed_frac", ratio(float64(b.failed), float64(b.attempted)))
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := b.values[d.name]
		if !ok {
			b.absent[d.name] = true
			continue
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if res.Attempted == 0 {
		return nil, nil, errors.New("no operation completed in the window")
	}
	return b, res, nil
}

// hostFingerprint identifies the machine a result was measured on.
func hostFingerprint() map[string]any {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
}

// report prints the human-readable block and, last, the result line.
func report(w io.Writer, b *bench, res *result) error {
	host, _ := json.Marshal(hostFingerprint())
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%v\n",
		b.cfg.workload, b.cfg.seed, b.cfg.seconds, b.cfg.trace)
	fmt.Fprintf(w, "host %s\n", host)
	for _, l := range b.lines {
		fmt.Fprintln(w, l)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-38s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	var absent []string
	for n := range b.absent {
		absent = append(absent, n)
	}
	sort.Strings(absent)
	for _, n := range absent {
		fmt.Fprintf(w, "metric %-38s absent (counter not exported)\n", n)
	}
	fmt.Fprintf(w, "failed_frac %.4f (%d of %d attempted)\n",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	for _, f := range b.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// realMain returns 0 on a correct run, 1 when a correctness check failed
// (the result is still printed), and 2 when the run could not be made
// (no result is printed).
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: cold, serve or edit")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input of the run is generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&cfg.root, "root", ".", "repository root (for testdata goldens)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace != 0
	b, res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if err := report(stdout, b, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if !res.Correct {
		return 1
	}
	return 0
}
