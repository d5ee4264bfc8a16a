package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestSfbenchTable1(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-table1"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out.String())
	}
	text := out.String()
	for _, want := range []string{"IP", "Generic Simplex", "Double IP"} {
		if !strings.Contains(text, want) {
			t.Errorf("table missing %q", want)
		}
	}
	if strings.Contains(text, "MISMATCH") {
		t.Errorf("Table 1 mismatch:\n%s", text)
	}
	if strings.Count(text, "OK") != 3 {
		t.Errorf("want 3 OK rows:\n%s", text)
	}
}

func TestSfbenchFigure1(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-figure1"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "UNMONITORED") || !strings.Contains(text, "FELL") {
		t.Errorf("figure 1 summary incomplete:\n%s", text)
	}
	if strings.Count(text, "balanced") != 4 {
		t.Errorf("want 4 balanced monitored scenarios:\n%s", text)
	}
}

func TestSfbenchAblation(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-ablation"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "per-call-path units") {
		t.Errorf("ablation output:\n%s", out.String())
	}
}

func TestSfbenchProfilePathErrors(t *testing.T) {
	badPath := t.TempDir() + "/no-such-dir/out.pprof"
	for _, flagName := range []string{"-cpuprofile", "-trace"} {
		var out, errOut strings.Builder
		code := run([]string{flagName, badPath, "-table1"}, &out, &errOut)
		if code != 2 {
			t.Errorf("%s unwritable: exit = %d, want 2", flagName, code)
		}
		if !strings.Contains(errOut.String(), flagName) {
			t.Errorf("%s unwritable: stderr %q does not name the flag", flagName, errOut.String())
		}
		if out.Len() != 0 {
			t.Errorf("%s unwritable: benchmark ran anyway:\n%s", flagName, out.String())
		}
	}
}

func TestSfbenchJSONIncludesDaemonSection(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark run")
	}
	var out, errOut strings.Builder
	code := run([]string{"-json", "-cachedir", t.TempDir()}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d (stderr: %s)", code, errOut.String())
	}
	var rec benchRecord
	if err := json.Unmarshal([]byte(out.String()), &rec); err != nil {
		t.Fatalf("output is not a benchRecord: %v", err)
	}
	if rec.SchemaVersion != 6 {
		t.Errorf("schema_version = %d, want 6", rec.SchemaVersion)
	}
	for _, sys := range rec.Systems {
		if sys.ReportCacheHitRate != 1 {
			t.Errorf("%s: warm run report-cache hit rate %v, want 1", sys.Name, sys.ReportCacheHitRate)
		}
	}
	if len(rec.Systems) != 3 || len(rec.Daemon) != 3 {
		t.Fatalf("systems = %d, daemon rows = %d, want 3 each", len(rec.Systems), len(rec.Daemon))
	}
	for _, d := range rec.Daemon {
		if d.ColdRequestNS <= 0 || d.DiskWarmRequestNS <= 0 {
			t.Errorf("%s: non-positive latency row %+v", d.Name, d)
		}
	}
	if len(rec.Incremental) != 4 {
		t.Fatalf("incremental rows = %d, want 4 (Table 1 corpus + 50-TU system)", len(rec.Incremental))
	}
	for _, r := range rec.Incremental {
		if r.OpenNS <= 0 || r.ColdNS <= 0 || r.UpdateP50NS <= 0 || r.UpdateP95NS <= 0 {
			t.Errorf("%s: non-positive latency row %+v", r.Name, r)
		}
		if r.Fallbacks > 0 {
			t.Errorf("%s: %d updates fell back to from-scratch analysis", r.Name, r.Fallbacks)
		}
	}
	last := rec.Incremental[len(rec.Incremental)-1]
	if last.TranslationUnits != 50 {
		t.Errorf("last incremental row has %d translation units, want the 50-TU system", last.TranslationUnits)
	}
}

func TestSfbenchDefaultRunsAll(t *testing.T) {
	var out, errOut strings.Builder
	code := run(nil, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	text := out.String()
	for _, want := range []string{"Table 1", "Figure 1", "Ablation A-2"} {
		if !strings.Contains(text, want) {
			t.Errorf("default run missing %q", want)
		}
	}
}
