package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// spec is the part of BENCHMARK.json the self-tests hold the program to.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

// TestSmokeEveryMetric runs every workload briefly, untraced and traced,
// and requires each metric BENCHMARK.json names to be printed with its
// unit, and every check to pass.
func TestSmokeEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := loadSpec(t)
	for _, wl := range s.Workloads {
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			b, res, err := run(config{workload: wl.Name, seed: 7, seconds: 0.5, trace: trace, root: ".."})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", wl.Name, trace, res.Failed, res.Attempted, b.failures)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not printed", wl.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestPlantedWrongExpectationFails proves the checks can fail: with the
// generator's known kill() answer inverted, every generated verdict is
// judged wrong and the run reports it.
func TestPlantedWrongExpectationFails(t *testing.T) {
	b, res, err := run(config{workload: "cold", seed: 7, seconds: 0.3, trace: true, root: "..", plantWrongExpectation: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("planted wrong expectation went unnoticed: %d of %d failed", res.Failed, res.Attempted)
	}
	if frac := res.Metrics["failed_frac"].Value; frac <= 0 {
		t.Fatalf("failed_frac = %v with a planted wrong expectation, want > 0", frac)
	}
	if len(b.failures) == 0 {
		t.Fatal("no failure message recorded")
	}
}

// TestUnknownWorkloadMakesNoResult: a run that cannot be made prints no
// result and exits 2.
func TestUnknownWorkloadMakesNoResult(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := realMain([]string{"--workload", "nope", "--seconds", "1"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Fatalf("printed %q, want nothing on stdout", out.String())
	}
}
