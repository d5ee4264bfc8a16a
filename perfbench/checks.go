package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"safeflow/internal/fuzzcamp"
	"safeflow/pkg/safeflow"
)

// verdict is the part of a report the known answers speak about, read
// from a report value or from a rendered JSON or SARIF body.
type verdict struct {
	warnings, dataErrors, controlOnly int
	// killError: a data error on the kill() pid argument was reported.
	killError bool
	degraded  bool
}

func verdictOfReport(rep *safeflow.Report) verdict {
	v := verdict{
		warnings:    len(rep.Warnings),
		dataErrors:  len(rep.ErrorsData),
		controlOnly: len(rep.ErrorsControlOnly),
		degraded:    rep.Degraded || len(rep.Internal) > 0,
	}
	for _, e := range rep.ErrorsData {
		if e.Rule == "kill-pid" {
			v.killError = true
		}
	}
	return v
}

// verdictOfBody parses a daemon response body (the CLI's JSON or SARIF
// rendering).
func verdictOfBody(body []byte, sarif bool) (verdict, error) {
	var v verdict
	if sarif {
		var doc struct {
			Runs []struct {
				Results []struct {
					RuleID string `json:"ruleId"`
					Level  string `json:"level"`
				} `json:"results"`
				Invocations []struct {
					Notifications []json.RawMessage `json:"toolExecutionNotifications"`
				} `json:"invocations"`
			} `json:"runs"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return v, fmt.Errorf("SARIF body: %w", err)
		}
		if len(doc.Runs) != 1 {
			return v, fmt.Errorf("SARIF body: %d runs, want 1", len(doc.Runs))
		}
		for _, r := range doc.Runs[0].Results {
			switch {
			case r.RuleID == "annotation-error" || strings.HasPrefix(r.RuleID, "restrict-"):
			case r.Level == "error":
				v.dataErrors++
				v.killError = v.killError || r.RuleID == "kill-pid"
			case r.Level == "warning":
				v.controlOnly++
			case r.Level == "note":
				v.warnings++
			}
		}
		for _, inv := range doc.Runs[0].Invocations {
			v.degraded = v.degraded || len(inv.Notifications) > 0
		}
		return v, nil
	}
	var doc struct {
		Degraded       bool              `json:"degraded"`
		InternalErrors []string          `json:"internal_errors"`
		Warnings       []json.RawMessage `json:"warnings"`
		Errors         []struct {
			Var string `json:"var"`
		} `json:"errors"`
		ControlReports []json.RawMessage `json:"control_reports"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return v, fmt.Errorf("JSON body: %w", err)
	}
	v.warnings, v.dataErrors, v.controlOnly = len(doc.Warnings), len(doc.Errors), len(doc.ControlReports)
	v.degraded = doc.Degraded || len(doc.InternalErrors) > 0
	for _, e := range doc.Errors {
		v.killError = v.killError || e.Var == "kill.pid"
	}
	return v, nil
}

// judge holds a verdict to the system's known answer: the Table 1 row
// for the paper's systems, the generator's planted kill() defect for
// generated ones. Neither answer comes from the analyzer.
func (b *bench) judge(sys system, v verdict) error {
	if v.degraded {
		return fmt.Errorf("%s: report is degraded or recorded internal errors", sys.name)
	}
	if e := sys.expect; e != nil {
		if v.dataErrors != e.Errors || v.warnings != e.Warnings || v.controlOnly != e.FalsePositives {
			return fmt.Errorf("%s: Table 1 counts errors/warnings/false-positives %d/%d/%d, want %d/%d/%d",
				sys.name, v.dataErrors, v.warnings, v.controlOnly, e.Errors, e.Warnings, e.FalsePositives)
		}
		return nil
	}
	want := sys.kill != b.cfg.plantWrongExpectation
	if v.killError != want {
		return fmt.Errorf("%s: kill() defect planted in main: %v, kill-pid data error reported: %v",
			sys.name, want, v.killError)
	}
	return nil
}

// checkDynamic runs the fuzzing campaign's executor on one input: its
// taint-tracking interpreter must find no tainted sink the static
// verdicts miss (dynamic taint ⊆ static), alongside the executor's
// determinism, incremental-equivalence and degraded-soundness oracles.
func checkDynamic(sys system) error {
	res, err := (&fuzzcamp.Executor{}).Execute(context.Background(), fuzzcamp.Input{
		Name: sys.name, Sources: sys.sources, CFiles: sys.cFiles,
	})
	if err != nil {
		return fmt.Errorf("%s: dynamic check: %w", sys.name, err)
	}
	if res.Violation != nil {
		return fmt.Errorf("%s: dynamic check: %v", sys.name, res.Violation)
	}
	return nil
}

// checkGolden compares the daemon's SARIF render of the IP system with
// the repository's golden file (the CLI's `-corpus IP -format sarif`).
func checkGolden(root string, body []byte) error {
	want, err := os.ReadFile(filepath.Join(root, "testdata", "golden", "sarif", "ip.sarif"))
	if err != nil {
		return fmt.Errorf("IP SARIF golden: %w", err)
	}
	if !bytes.Equal(body, want) {
		return fmt.Errorf("IP SARIF response differs from testdata/golden/sarif/ip.sarif (%d vs %d bytes)", len(body), len(want))
	}
	return nil
}

func (b *bench) dynamicChecks(sample []system) {
	for _, sys := range sample {
		b.record(checkDynamic(sys))
	}
}
