package frontend

import (
	"strings"
	"testing"

	"safeflow/internal/cpp"
	"safeflow/internal/diag"
)

// All lexical errors must be surfaced — historically only errs[0]
// reached the caller. The fail-stop error carries every message.
func TestLexReportsAllErrors(t *testing.T) {
	src := "int a = @;\nchar *s = \"unterminated;\n"
	_, err := CompileString("lexerrs", src, Options{})
	if err == nil {
		t.Fatal("expected lex errors")
	}
	for _, want := range []string{"illegal character", "unterminated string literal"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func recoverCompile(t *testing.T, sources map[string]string, cFiles []string) *RecoverResult {
	t.Helper()
	rr, err := CompileRecover("recover", cpp.MapSource(sources), cFiles,
		Options{})
	if err != nil {
		t.Fatalf("CompileRecover: %v", err)
	}
	return rr
}

// A unit that fails to parse is skipped: its diagnostics are recorded,
// the surviving units build normally, and the functions its partial AST
// defines are reported missing.
func TestRecoverSkipsBrokenUnit(t *testing.T) {
	rr := recoverCompile(t, map[string]string{
		"good.c":   "int used() { return 1; }\nint main() { return used() + helper(); }\n",
		"broken.c": "double helper() { return 0.5; }\nint oops( {\n",
	}, []string{"broken.c", "good.c"})

	if !rr.Degraded() {
		t.Fatal("broken unit did not degrade the compile")
	}
	units := diag.Units(rr.Diags)
	if len(units) != 1 || units[0] != "broken.c" {
		t.Fatalf("diagnostic units = %v, want [broken.c]", units)
	}
	for _, d := range rr.Diags {
		if d.Phase != diag.PhaseParse {
			t.Errorf("diag phase = %s, want parse (%s)", d.Phase, d)
		}
	}
	if rr.Res.Module.FuncByName("main") == nil || rr.Res.Module.FuncByName("used") == nil {
		t.Error("surviving unit's functions missing from the module")
	}
	if !rr.MissingDefs["helper"] {
		t.Errorf("helper (defined in skipped unit) not in MissingDefs: %v", rr.MissingDefs)
	}
	if rr.MissingDefs["used"] || rr.MissingDefs["main"] {
		t.Errorf("surviving definitions wrongly reported missing: %v", rr.MissingDefs)
	}
}

// A unit that parses but fails the type checker is dropped by the
// drop-and-retry loop, and the remaining units are re-checked clean.
func TestRecoverTypecheckDropAndRetry(t *testing.T) {
	rr := recoverCompile(t, map[string]string{
		"bad.c":  "double helper() { return missing_symbol; }\n",
		"main.c": "int main() { return 0; }\n",
	}, []string{"bad.c", "main.c"})

	if !rr.Degraded() {
		t.Fatal("type error did not degrade the compile")
	}
	var sawTypecheck bool
	for _, d := range rr.Diags {
		if d.Unit == "bad.c" && d.Phase == diag.PhaseTypecheck &&
			strings.Contains(d.Msg, "missing_symbol") {
			sawTypecheck = true
		}
	}
	if !sawTypecheck {
		t.Errorf("no typecheck diagnostic for bad.c: %v", rr.Diags)
	}
	if rr.Res.Module.FuncByName("main") == nil {
		t.Error("main lost while dropping bad.c")
	}
	if !rr.MissingDefs["helper"] {
		t.Errorf("helper not in MissingDefs: %v", rr.MissingDefs)
	}
}

// The resynchronizing parser accumulates several diagnostics for one
// unit — recovery reports them all, in a deterministic order.
func TestRecoverMultipleDiagnosticsPerUnit(t *testing.T) {
	src := "int f() { return 1 + ; }\nint g() { return ( ; }\nint main() { return 0; }\n"
	rr := recoverCompile(t, map[string]string{
		"multi.c": src,
		"ok.c":    "int other() { return 2; }\n",
	}, []string{"multi.c", "ok.c"})

	if !rr.Degraded() {
		t.Fatal("expected degradation")
	}
	n := 0
	for _, d := range rr.Diags {
		if d.Unit == "multi.c" && d.Phase == diag.PhaseParse {
			n++
		}
	}
	if n < 2 {
		t.Errorf("parse diagnostics for multi.c = %d, want >= 2:\n%v", n, rr.Diags)
	}
	if rr.Res.Module.FuncByName("other") == nil {
		t.Error("surviving unit lost")
	}
	for i := 1; i < len(rr.Diags); i++ {
		if diag.Less(rr.Diags[i], rr.Diags[i-1]) {
			t.Errorf("diagnostics not sorted: %v before %v", rr.Diags[i-1], rr.Diags[i])
		}
	}
}

// A fully healthy compile through the recovering path is not degraded
// and reports no missing definitions.
func TestRecoverCleanRun(t *testing.T) {
	rr := recoverCompile(t, map[string]string{
		"a.c": "int helper() { return 1; }\n",
		"b.c": "int main() { return helper(); }\n",
	}, []string{"a.c", "b.c"})
	if rr.Degraded() || len(rr.Diags) != 0 || rr.MissingDefs != nil {
		t.Errorf("clean run degraded: diags=%v missing=%v", rr.Diags, rr.MissingDefs)
	}
}
