package daemon

// Session endpoint tests: a /v1/update response must be byte-identical
// to a /v1/analyze of the full edited system, the session store must
// stay within its eviction bound, and the incremental counters must
// surface in /metricsz.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"

	"safeflow/internal/corpus"
)

func postUpdate(t *testing.T, url string, req UpdateRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestUpdateMatchesAnalyze(t *testing.T) {
	g := corpus.Generate(21, corpus.GenConfig{Regions: 2, Monitors: 3, Stages: 4})
	script := corpus.GenerateEdits(g, 4, 5)
	if len(script) == 0 {
		t.Fatal("empty edit script")
	}
	_, ts := newTestServer(t, Config{})

	resp, got := postUpdate(t, ts.URL, UpdateRequest{
		Session: "s1", Name: g.Name, Sources: g.Sources, CFiles: g.CFiles,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open: status %d: %s", resp.StatusCode, got)
	}
	if h := resp.Header.Get("X-Safeflow-Session"); h != "opened" {
		t.Fatalf("open: X-Safeflow-Session = %q, want opened", h)
	}
	cur := map[string]string{}
	for k, v := range g.Sources {
		cur[k] = v
	}
	if want, _ := postAnalyzeBody(t, ts.URL, g.Name, cur, g.CFiles); !bytes.Equal(got, want) {
		t.Fatalf("open body diverged from /v1/analyze\n got: %s\nwant: %s", got, want)
	}

	for i, e := range script {
		text, ok := e.Apply(cur)
		if !ok {
			t.Fatalf("edit %d (%s) does not anchor", i, e.Desc)
		}
		cur[e.File] = text
		resp, got := postUpdate(t, ts.URL, UpdateRequest{
			Session: "s1", Sources: map[string]string{e.File: text},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("update %d (%s): status %d: %s", i, e.Desc, resp.StatusCode, got)
		}
		if h := resp.Header.Get("X-Safeflow-Session"); h != "updated" {
			t.Fatalf("update %d: X-Safeflow-Session = %q, want updated", i, h)
		}
		want, wantExit := postAnalyzeBody(t, ts.URL, g.Name, cur, g.CFiles)
		if !bytes.Equal(got, want) {
			t.Errorf("update %d (%s): body diverged from /v1/analyze of the edited system\n got: %s\nwant: %s",
				i, e.Desc, got, want)
		}
		if exit := resp.Header.Get("X-Safeflow-Exit"); exit != wantExit {
			t.Errorf("update %d: X-Safeflow-Exit = %q, want %q", i, exit, wantExit)
		}
		if h := resp.Header.Get("X-Safeflow-Incremental"); h != "true" {
			t.Errorf("update %d (%s): X-Safeflow-Incremental = %q, want true", i, e.Desc, h)
		}
	}
}

// postAnalyzeBody fetches the /v1/analyze body for the full system — the
// reference every /v1/update response must match byte for byte.
func postAnalyzeBody(t *testing.T, url, name string, sources map[string]string, cFiles []string) ([]byte, string) {
	t.Helper()
	snap := map[string]string{}
	for k, v := range sources {
		snap[k] = v
	}
	resp, body := postAnalyze(t, url, AnalyzeRequest{Name: name, Sources: snap, CFiles: cFiles})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/analyze reference: status %d: %s", resp.StatusCode, body)
	}
	return body, resp.Header.Get("X-Safeflow-Exit")
}

func TestSessionEvictionBound(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxSessions: 2})
	for i := 0; i < 5; i++ {
		g := corpus.Generate(int64(100+i), corpus.GenConfig{Regions: 1, Monitors: 1, Stages: 1})
		resp, body := postUpdate(t, ts.URL, UpdateRequest{
			Session: fmt.Sprintf("sess-%d", i), Name: g.Name, Sources: g.Sources, CFiles: g.CFiles,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("open %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	s.sessMu.Lock()
	n := len(s.sessions)
	s.sessMu.Unlock()
	if n > 2 {
		t.Fatalf("session store holds %d entries, bound is 2", n)
	}

	// An evicted session re-opens when the full tree is resent…
	g := corpus.Generate(100, corpus.GenConfig{Regions: 1, Monitors: 1, Stages: 1})
	resp, _ := postUpdate(t, ts.URL, UpdateRequest{
		Session: "sess-0", Name: g.Name, Sources: g.Sources, CFiles: g.CFiles,
	})
	if h := resp.Header.Get("X-Safeflow-Session"); h != "opened" {
		t.Fatalf("evicted session did not re-open: X-Safeflow-Session = %q", h)
	}
	// …but a delta-only request for an unknown id is rejected, not
	// silently analyzed as a one-file system.
	resp, body := postUpdate(t, ts.URL, UpdateRequest{
		Session: "sess-1", Sources: map[string]string{"main.c": "int main() { return 0; }\n"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("delta to evicted session: status %d (want 400): %s", resp.StatusCode, body)
	}
}

func TestMetricszIncrementalCounters(t *testing.T) {
	g := corpus.Generate(33, corpus.GenConfig{})
	_, ts := newTestServer(t, Config{})
	resp, body := postUpdate(t, ts.URL, UpdateRequest{
		Session: "m", Name: g.Name, Sources: g.Sources, CFiles: g.CFiles,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open: status %d: %s", resp.StatusCode, body)
	}
	edited := g.Sources["monitors.c"] + "\n/* touch */\n"
	resp, body = postUpdate(t, ts.URL, UpdateRequest{
		Session: "m", Sources: map[string]string{"monitors.c": edited},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: status %d: %s", resp.StatusCode, body)
	}

	mresp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.IncrSessions != 1 {
		t.Errorf("incr_sessions = %d, want 1", m.IncrSessions)
	}
	if m.IncrUpdateNS <= 0 {
		t.Errorf("incr_update_ns = %d, want > 0", m.IncrUpdateNS)
	}
	if m.IncrFuncsReused <= 0 {
		t.Errorf("incr_funcs_reused = %d, want > 0 (no-op edit)", m.IncrFuncsReused)
	}
	if m.IncrFuncsInvalidated != 0 {
		t.Errorf("incr_funcs_invalidated = %d, want 0 (no-op edit)", m.IncrFuncsInvalidated)
	}
	if m.IncrFallbacks != 0 {
		t.Errorf("incr_fallbacks = %d, want 0", m.IncrFallbacks)
	}
}
