package daemon

// Single-flight and load-shedding tests: a stampede of identical
// in-flight requests must collapse to one pipeline execution with every
// client receiving byte-identical bytes, the Retry-After hint must
// track the daemon's observed load rather than a constant, and the
// predictive shedder must refuse requests whose queue wait already
// exceeds their own deadline.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"
)

func readAllBody(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

func TestAnalyzeKeyDistinguishesRequests(t *testing.T) {
	base := AnalyzeRequest{Name: "x", Sources: map[string]string{"x.c": "int x;"}}
	same := AnalyzeRequest{Name: "x", Sources: map[string]string{"x.c": "int x;"}}
	if analyzeKey(&base) != analyzeKey(&same) {
		t.Error("identical requests produced different keys")
	}
	cases := map[string]AnalyzeRequest{
		"name":    {Name: "y", Sources: map[string]string{"x.c": "int x;"}},
		"source":  {Name: "x", Sources: map[string]string{"x.c": "int y;"}},
		"file":    {Name: "x", Sources: map[string]string{"y.c": "int x;"}},
		"options": {Name: "x", Sources: map[string]string{"x.c": "int x;"}, Options: AnalyzeOptions{Alias: "unify"}},
		"stats":   {Name: "x", Sources: map[string]string{"x.c": "int x;"}, Options: AnalyzeOptions{Stats: true}},
	}
	for what, req := range cases {
		if analyzeKey(&base) == analyzeKey(&req) {
			t.Errorf("requests differing in %s share a key", what)
		}
	}
}

// The stampede shape: N identical requests concurrently in flight run
// the pipeline once. Every response is 200 with the same bytes,
// dedup_hits records N−1, and the aggregated run metrics show exactly
// one analysis (figure2 is a single translation unit).
func TestStampedeCollapsesToOneAnalysis(t *testing.T) {
	s, ts := newTestServer(t, Config{Concurrency: 1, QueueDepth: 4})
	req := AnalyzeRequest{Name: "figure2", Sources: map[string]string{"figure2.c": figure2(t)}}

	// Hold the only worker slot so the leader blocks in the admission
	// queue while the rest of the stampede arrives and joins its flight.
	s.sem <- struct{}{}

	const n = 8
	type reply struct {
		status int
		body   []byte
	}
	replies := make(chan reply, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			data, _ := readAllBody(resp)
			replies <- reply{resp.StatusCode, data}
		}()
	}

	// Wait until all n requests share the one flight (the leader is a
	// waiter too), then release the worker slot.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.flightMu.Lock()
		var waiters int64
		flights := len(s.flights)
		for _, f := range s.flights {
			waiters = f.waiters.Load()
		}
		s.flightMu.Unlock()
		if flights == 1 && waiters == n {
			break
		}
		if flights > 1 {
			t.Fatalf("identical requests split into %d flights", flights)
		}
		if time.Now().After(deadline) {
			t.Fatalf("stampede never converged: %d flights, %d waiters", flights, waiters)
		}
		time.Sleep(2 * time.Millisecond)
	}
	<-s.sem

	wg.Wait()
	close(replies)
	var first []byte
	for r := range replies {
		if r.status != http.StatusOK {
			t.Fatalf("stampede request: status %d: %s", r.status, r.body)
		}
		if first == nil {
			first = r.body
		} else if !bytes.Equal(first, r.body) {
			t.Error("stampede responses diverged")
		}
	}

	var m Metrics
	s.mu.Lock()
	m = s.agg
	s.mu.Unlock()
	if m.DedupHits != n-1 {
		t.Errorf("dedup_hits = %d, want %d", m.DedupHits, n-1)
	}
	if m.RequestsOK != n {
		t.Errorf("requests_ok = %d, want %d (followers count like leaders)", m.RequestsOK, n)
	}
	if m.TranslationUnits != 1 {
		t.Errorf("translation_units = %d, want 1 (exactly one pipeline execution)", m.TranslationUnits)
	}
	if m.RequestsRejected != 0 || m.ShedQueueFull != 0 {
		t.Errorf("stampede shed load: rejected=%d queue_full=%d", m.RequestsRejected, m.ShedQueueFull)
	}
}

// Requests that are not identical must not share a flight.
func TestDistinctRequestsDoNotDedup(t *testing.T) {
	s, ts := newTestServer(t, Config{Concurrency: 2, QueueDepth: 8})
	src := figure2(t)
	var wg sync.WaitGroup
	for _, name := range []string{"alpha", "beta"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(AnalyzeRequest{Name: name, Sources: map[string]string{"figure2.c": src}})
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			data, _ := readAllBody(resp)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d: %s", name, resp.StatusCode, data)
			}
		}()
	}
	wg.Wait()
	s.mu.Lock()
	dedup := s.agg.DedupHits
	s.mu.Unlock()
	if dedup != 0 {
		t.Errorf("dedup_hits = %d for distinct requests, want 0", dedup)
	}
}

// The Retry-After hint must be derived from observed load: queued
// scheduling waves times the mean analysis time, not a constant 1.
func TestRetryAfterTracksLoad(t *testing.T) {
	s := New(Config{Concurrency: 4})

	if got := s.retryAfterSecs(); got != 1 {
		t.Errorf("cold hint = %d, want 1 (no completed analyses yet)", got)
	}

	// Mean analysis time 2s (2 completed requests, 4s total wall).
	s.count(func(m *Metrics) {
		m.RequestsOK = 2
		m.AnalysisWallNS = (4 * time.Second).Nanoseconds()
	})
	if got := s.retryAfterSecs(); got != 2 {
		t.Errorf("idle hint = %d, want 2 (one wave at mean 2s)", got)
	}

	// 8 queued over concurrency 4 → 2 waves ahead + the running wave.
	s.queued.Store(8)
	if got := s.retryAfterSecs(); got != 6 {
		t.Errorf("loaded hint = %d, want 6 (3 waves × 2s)", got)
	}

	// Pathological mean clamps to 60 so the hint stays a backoff.
	s.count(func(m *Metrics) { m.AnalysisWallNS = (400 * time.Second).Nanoseconds() })
	if got := s.retryAfterSecs(); got != 60 {
		t.Errorf("pathological hint = %d, want clamp to 60", got)
	}
}

// End to end: a 429 carries the load-derived hint, not "1".
func TestRejectionCarriesLoadDerivedRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{Concurrency: 1, QueueDepth: 1})
	s.count(func(m *Metrics) {
		m.RequestsOK = 1
		m.AnalysisWallNS = (2 * time.Second).Nanoseconds()
	})
	s.sem <- struct{}{}
	s.queued.Store(1)
	defer func() { <-s.sem; s.queued.Store(0) }()

	resp, body := postAnalyze(t, ts.URL, AnalyzeRequest{
		Name:    "x",
		Sources: map[string]string{"x.c": "int main(void) { return 0; }\n"},
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	// 1 queued / 1 worker + the running wave = 2 waves × mean 2s.
	if ra := resp.Header.Get("Retry-After"); ra != "4" {
		t.Errorf("Retry-After = %q, want 4 (2 waves at mean 2s)", ra)
	}
}

// A request whose estimated queue wait exceeds its own timeout is shed
// immediately instead of timing out in line.
func TestPredictiveShed(t *testing.T) {
	s, ts := newTestServer(t, Config{Concurrency: 1, QueueDepth: 100})
	s.count(func(m *Metrics) {
		m.RequestsOK = 1
		m.AnalysisWallNS = (10 * time.Second).Nanoseconds()
	})
	s.sem <- struct{}{}
	s.queued.Store(50)
	defer func() { <-s.sem; s.queued.Store(0) }()

	resp, body := postAnalyze(t, ts.URL, AnalyzeRequest{
		Name:    "x",
		Sources: map[string]string{"x.c": "int main(void) { return 0; }\n"},
		Options: AnalyzeOptions{TimeoutMS: 1000},
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	s.mu.Lock()
	shed := s.agg.ShedPredicted
	s.mu.Unlock()
	if shed != 1 {
		t.Errorf("shed_predicted = %d, want 1", shed)
	}
}
