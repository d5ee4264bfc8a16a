package safeflow_test

// Cross-run parse-cache reuse through the public pipeline: a second
// analysis of an unchanged corpus must report frontend cache hits in its
// metrics snapshot, and the warm report must stay byte-identical to the
// cold one (the cached AST is shared, never re-derived differently).

import (
	"bytes"
	"os"
	"testing"

	"safeflow/internal/frontend"
	"safeflow/pkg/safeflow"
)

func TestParseCacheCrossRun(t *testing.T) {
	frontend.ResetParseCache()
	src, err := os.ReadFile("../../testdata/figure2.c")
	if err != nil {
		t.Fatal(err)
	}
	opts := safeflow.Options{Stats: true}

	cold, err := safeflow.AnalyzeString("figure2", string(src), opts)
	if err != nil {
		t.Fatalf("cold analyze: %v", err)
	}
	if cold.Metrics == nil {
		t.Fatal("no metrics snapshot")
	}
	if cold.Metrics.FrontendCacheHits != 0 || cold.Metrics.FrontendCacheMisses == 0 {
		t.Fatalf("cold run: frontend hits=%d misses=%d, want 0 hits and >0 misses",
			cold.Metrics.FrontendCacheHits, cold.Metrics.FrontendCacheMisses)
	}

	warm, err := safeflow.AnalyzeString("figure2", string(src), opts)
	if err != nil {
		t.Fatalf("warm analyze: %v", err)
	}
	if warm.Metrics.FrontendCacheHits == 0 || warm.Metrics.FrontendCacheMisses != 0 {
		t.Fatalf("warm run: frontend hits=%d misses=%d, want >0 hits and 0 misses",
			warm.Metrics.FrontendCacheHits, warm.Metrics.FrontendCacheMisses)
	}

	var coldBuf, warmBuf bytes.Buffer
	safeflow.WriteReport(&coldBuf, cold)
	safeflow.WriteReport(&warmBuf, warm)
	if !bytes.Equal(coldBuf.Bytes(), warmBuf.Bytes()) {
		t.Errorf("warm report diverged from cold report:\ncold:\n%s\nwarm:\n%s",
			coldBuf.String(), warmBuf.String())
	}

	// The knob turns reuse off without changing results.
	offOpts := opts
	offOpts.DisableParseCache = true
	off, err := safeflow.AnalyzeString("figure2", string(src), offOpts)
	if err != nil {
		t.Fatalf("disabled analyze: %v", err)
	}
	if off.Metrics.FrontendCacheHits != 0 || off.Metrics.FrontendCacheMisses != 0 {
		t.Fatalf("disabled run counted frontend cache traffic: hits=%d misses=%d",
			off.Metrics.FrontendCacheHits, off.Metrics.FrontendCacheMisses)
	}
	var offBuf bytes.Buffer
	safeflow.WriteReport(&offBuf, off)
	if !bytes.Equal(coldBuf.Bytes(), offBuf.Bytes()) {
		t.Error("DisableParseCache changed the report")
	}
}
