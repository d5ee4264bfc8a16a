package daemon

// Drain-time session teardown: CloseSessions must close every open
// incremental session (waiting out in-flight updates), and an update
// racing a close must get a clean 503 telling the client to reopen —
// never a torn session or a partial report.

import (
	"context"
	"net/http"
	"strings"
	"testing"

	"safeflow/internal/corpus"
)

func TestCloseSessionsDrainsAllSessions(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for i, seed := range []int64{31, 32} {
		g := corpus.Generate(seed, corpus.GenConfig{Regions: 1, Monitors: 1, Stages: 2})
		resp, body := postUpdate(t, ts.URL, UpdateRequest{
			Session: "drain-" + string(rune('a'+i)), Name: g.Name,
			Sources: g.Sources, CFiles: g.CFiles,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("open %d: status %d: %s", i, resp.StatusCode, body)
		}
	}

	n, err := s.CloseSessions(context.Background())
	if err != nil || n != 2 {
		t.Fatalf("CloseSessions = %d, %v; want 2, nil", n, err)
	}
	s.sessMu.Lock()
	left := len(s.sessions)
	s.sessMu.Unlock()
	if left != 0 {
		t.Fatalf("%d sessions left open after CloseSessions", left)
	}

	// A delta against a closed (hence unknown) session id reads as an
	// eviction: the client must resend the full tree.
	resp, body := postUpdate(t, ts.URL, UpdateRequest{
		Session: "drain-a", Sources: map[string]string{"x.c": "int x;\n"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("delta after close: status %d, want 400: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "open a session") {
		t.Errorf("delta after close: body %q does not tell the client to reopen", body)
	}

	// Idempotent: nothing left to close.
	if n, err := s.CloseSessions(context.Background()); err != nil || n != 0 {
		t.Fatalf("second CloseSessions = %d, %v; want 0, nil", n, err)
	}
}

// An update that loses the race with drain — entry looked up before the
// session was closed — must fail with 503 and a reopen hint, not tear
// state or hang.
func TestUpdateOnClosedSessionRejectsCleanly(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	g := corpus.Generate(33, corpus.GenConfig{Regions: 1, Monitors: 1, Stages: 2})
	resp, body := postUpdate(t, ts.URL, UpdateRequest{
		Session: "racy", Name: g.Name, Sources: g.Sources, CFiles: g.CFiles,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open: status %d: %s", resp.StatusCode, body)
	}

	// Close the session out from under the store, as a drain racing an
	// in-flight handler would.
	s.sessMu.Lock()
	e := s.sessions["racy"]
	s.sessMu.Unlock()
	if e == nil {
		t.Fatal("session not stored")
	}
	e.sess.Close()

	file := g.CFiles[0]
	resp, body = postUpdate(t, ts.URL, UpdateRequest{
		Session: "racy", Sources: map[string]string{file: g.Sources[file] + "\n"},
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("update on closed session: status %d, want 503: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "session closed") {
		t.Errorf("update on closed session: body %q does not say the session closed", body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 for closed session missing Retry-After")
	}
}
