// Scenario runner: generate a system, plant seeded faults, run the full
// recovering pipeline, and capture the degraded report in both rendered
// forms for determinism comparison.

package faultinject

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"safeflow/internal/core"
	"safeflow/internal/corpus"
	"safeflow/internal/cpp"
	"safeflow/internal/diskcache"
	"safeflow/internal/report"
)

// EligibleUnits are the generated translation units the injector may
// fault. init.c carries the region and noncore annotations — dropping it
// legitimately changes what the analysis can see — and main.c carries
// the critical sinks the differential invariant checks, so faults target
// the middle of the system: the monitors and the stage chain.
var EligibleUnits = []string{"monitors.c", "stages.c"}

// Scenario is one seeded fault-injection run over a generated system.
type Scenario struct {
	Seed    int64            // drives both the generator and the injector
	Gen     corpus.GenConfig // generated-system shape (zero = defaults)
	Faults  int              // faulted units (clamped to len(EligibleUnits))
	Workers int              // pipeline worker count (0 = GOMAXPROCS)
	Stats   bool             // collect run metrics into Report.Metrics
}

// String renders the scenario in its canonical replayable form:
// "seed=S,gen=R/M/St/D,faults=F,workers=W,stats=B". ParseScenario is
// its exact inverse, so a failing run's printed scenario pastes
// directly into a replay command.
func (sc Scenario) String() string {
	return fmt.Sprintf("seed=%d,gen=%d/%d/%d/%d,faults=%d,workers=%d,stats=%v",
		sc.Seed, sc.Gen.Regions, sc.Gen.Monitors, sc.Gen.Stages, sc.Gen.Depth,
		sc.Faults, sc.Workers, sc.Stats)
}

// Repro returns the one-command replay line for the scenario; every
// harness failure message carries it so a campaign or CI finding is
// reproducible without reading the test source.
func (sc Scenario) Repro() string {
	return fmt.Sprintf("replay: go test ./internal/faultinject -run 'TestReplayScenario' -scenario '%s'", sc)
}

// ParseScenario parses the String form back into a Scenario.
func ParseScenario(s string) (Scenario, error) {
	var sc Scenario
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return sc, fmt.Errorf("faultinject: scenario field %q is not key=value", part)
		}
		var err error
		switch key {
		case "seed":
			sc.Seed, err = strconv.ParseInt(val, 10, 64)
		case "gen":
			var shape [4]int
			fields := strings.Split(val, "/")
			if len(fields) != len(shape) {
				return sc, fmt.Errorf("faultinject: gen %q: want R/M/St/D", val)
			}
			for i, f := range fields {
				if shape[i], err = strconv.Atoi(f); err != nil {
					break
				}
			}
			sc.Gen = corpus.GenConfig{Regions: shape[0], Monitors: shape[1], Stages: shape[2], Depth: shape[3]}
		case "faults":
			sc.Faults, err = strconv.Atoi(val)
		case "workers":
			sc.Workers, err = strconv.Atoi(val)
		case "stats":
			sc.Stats, err = strconv.ParseBool(val)
		default:
			return sc, fmt.Errorf("faultinject: unknown scenario field %q", key)
		}
		if err != nil {
			return sc, fmt.Errorf("faultinject: scenario field %q: %w", part, err)
		}
	}
	return sc, nil
}

// Result is one scenario's outcome.
type Result struct {
	System *corpus.Generated // the original, unfaulted system
	Faults []Fault           // what was planted where
	Report *core.Report
	Text   string // rendered text report
	JSON   string // rendered JSON report
}

// Run generates the scenario's system, plants its faults, and analyzes
// the mutated sources in recovering mode. The analysis itself failing
// (not just degrading) is returned as an error.
func Run(ctx context.Context, sc Scenario) (*Result, error) {
	return runCached(ctx, sc, nil)
}

// runCached is Run with dc (may be nil) as the analysis's DiskCache, so
// the invariant tests can watch what a scenario stores or is served.
func runCached(ctx context.Context, sc Scenario, dc diskcache.CacheBackend) (*Result, error) {
	gen := corpus.Generate(sc.Seed, sc.Gen)
	mutated, faults := Mutate(sc.Seed, gen.Sources, EligibleUnits, sc.Faults)
	rep, err := core.AnalyzeSourcesContext(ctx, gen.Name, cpp.MapSource(mutated), gen.CFiles, core.Options{
		Recover:   true,
		Workers:   sc.Workers,
		Stats:     sc.Stats,
		DiskCache: dc,
	})
	if err != nil {
		return nil, err
	}
	var text, js strings.Builder
	report.Write(&text, rep)
	if err := report.WriteJSON(&js, rep); err != nil {
		return nil, err
	}
	return &Result{System: &gen, Faults: faults, Report: rep, Text: text.String(), JSON: js.String()}, nil
}
