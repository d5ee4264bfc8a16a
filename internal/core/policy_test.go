package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"safeflow/internal/cpp"
	"safeflow/internal/diskcache"
	"safeflow/internal/policy"
	"safeflow/internal/remotecache"
)

// credSrc carries a credential from getpass straight into the log — one
// error under the credential-leak policy, clean under pii-to-log.
const credSrc = `
void serve()
{
    int pwd;
    pwd = getpass();
    log_msg(pwd);
}
`

func mustBuiltin(t *testing.T, name string) *policy.Compiled {
	t.Helper()
	pol, ok := policy.Builtin(name)
	if !ok {
		t.Fatalf("builtin policy %q missing", name)
	}
	return pol
}

func analyzeCred(t *testing.T, src string, opts Options) *Report {
	t.Helper()
	rep, err := AnalyzeSources("credsys", cpp.MapSource{"main.c": src}, []string{"main.c"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestPolicyFingerprintDistinct pins that differing policies produce
// differing source fingerprints (and therefore cache keys), while the
// nil policy and the explicit default share one — they analyze
// identically, so sharing a stored report is sound and wanted.
func TestPolicyFingerprintDistinct(t *testing.T) {
	src := cpp.MapSource{"main.c": credSrc}
	files := []string{"main.c"}
	base := fingerprintSources("s", src, files, Options{})
	def := fingerprintSources("s", src, files, Options{Policy: policy.Default()})
	cred := fingerprintSources("s", src, files, Options{Policy: mustBuiltin(t, "credential-leak")})
	pii := fingerprintSources("s", src, files, Options{Policy: mustBuiltin(t, "pii-to-log")})
	if base != def {
		t.Errorf("nil policy and explicit default must share a cache key: %x vs %x", base, def)
	}
	if base == cred || base == pii || cred == pii {
		t.Errorf("distinct policies share a cache key: default=%x cred=%x pii=%x", base, cred, pii)
	}
}

// TestPolicyCacheIsolationMemory runs the same system under two
// policies over one in-memory cache backend and asserts it holds two
// separate report entries — neither run was served the other's report —
// and that each policy's repeat is a hit on its own entry.
func TestPolicyCacheIsolationMemory(t *testing.T) {
	mc := newMemCache()
	run := func(pol string, wantErrs int, wantHit bool) {
		t.Helper()
		rep := analyzeCred(t, credSrc, Options{Policy: mustBuiltin(t, pol), DiskCache: mc, Stats: true})
		if len(rep.ErrorsData) != wantErrs {
			t.Fatalf("%s: got %d errors, want %d", pol, len(rep.ErrorsData), wantErrs)
		}
		if hit := rep.Metrics.ReportCacheHits == 1; hit != wantHit {
			t.Fatalf("%s: report-cache hit = %v, want %v", pol, hit, wantHit)
		}
	}
	run("credential-leak", 1, false)
	run("pii-to-log", 0, false)
	if n := mc.len(reportNS); n != 2 {
		t.Fatalf("report namespace holds %d entries, want 2 (one per policy)", n)
	}
	run("credential-leak", 1, true)
	run("pii-to-log", 0, true)
}

// recordingCache is a CacheBackend that remembers every key written.
type recordingCache struct {
	mu   sync.Mutex
	puts map[string][][sha256.Size]byte
}

func (r *recordingCache) Get(ns string, version uint32, key [sha256.Size]byte) ([]byte, bool, bool) {
	return nil, false, false
}

func (r *recordingCache) Put(ns string, version uint32, key [sha256.Size]byte, data []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.puts == nil {
		r.puts = make(map[string][][sha256.Size]byte)
	}
	r.puts[ns] = append(r.puts[ns], key)
}

func (r *recordingCache) reportKeys() map[[sha256.Size]byte]bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[[sha256.Size]byte]bool)
	for _, k := range r.puts[reportNS] {
		out[k] = true
	}
	return out
}

// TestPolicyCacheIsolationDisk asserts the disk tier writes disjoint
// report keys for runs differing only in policy.
func TestPolicyCacheIsolationDisk(t *testing.T) {
	var _ diskcache.CacheBackend = (*recordingCache)(nil)

	run := func(pol *policy.Compiled) map[[sha256.Size]byte]bool {
		rc := &recordingCache{}
		analyzeCred(t, credSrc, Options{Policy: pol, DiskCache: rc})
		keys := rc.reportKeys()
		if len(keys) == 0 {
			t.Fatal("no report keys written to the disk tier")
		}
		return keys
	}
	credKeys := run(mustBuiltin(t, "credential-leak"))
	piiKeys := run(mustBuiltin(t, "pii-to-log"))
	for k := range credKeys {
		if piiKeys[k] {
			t.Fatalf("disk tier key %x shared between policies", k)
		}
	}
}

// TestPolicyCacheIsolationRemote drives the remote tier against a
// recording HTTP server and asserts the two policies touch disjoint
// entry URLs.
func TestPolicyCacheIsolationRemote(t *testing.T) {
	var mu sync.Mutex
	paths := make(map[string]map[string]bool) // run label -> URL path set
	var label string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if paths[label] == nil {
			paths[label] = make(map[string]bool)
		}
		paths[label][r.URL.Path] = true
		mu.Unlock()
		if r.Method == http.MethodGet {
			http.NotFound(w, r)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()

	client, err := remotecache.New(remotecache.Config{BaseURL: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	run := func(l string, pol *policy.Compiled) {
		mu.Lock()
		label = l
		mu.Unlock()
		analyzeCred(t, credSrc, Options{Policy: pol, DiskCache: client})
	}
	run("cred", mustBuiltin(t, "credential-leak"))
	run("pii", mustBuiltin(t, "pii-to-log"))

	mu.Lock()
	defer mu.Unlock()
	if len(paths["cred"]) == 0 || len(paths["pii"]) == 0 {
		t.Fatalf("remote tier saw no traffic: cred=%d pii=%d", len(paths["cred"]), len(paths["pii"]))
	}
	for p := range paths["cred"] {
		if !strings.Contains(p, "/v1/e/") {
			t.Fatalf("unexpected remote path %q", p)
		}
		if paths["pii"][p] {
			t.Fatalf("remote tier path %q shared between policies", p)
		}
	}
}

// TestSuppressionAuditTrail pins the audit-trail semantics end to end:
// a matching directive moves the finding out of the error list and into
// Suppressed with its justification; a trailing-comment directive and a
// directive-only line both bind to the right finding line.
func TestSuppressionAuditTrail(t *testing.T) {
	src := `
void serve()
{
    int pwd;
    int tok;
    pwd = getpass();
    tok = read_secret();
    log_msg(pwd); // safeflow:ignore cred-leak-log reviewed in SEC-9
    // safeflow:ignore cred-leak-log second one reviewed too
    log_msg(tok);
}
`
	rep := analyzeCred(t, src, Options{Policy: mustBuiltin(t, "credential-leak")})
	if len(rep.ErrorsData) != 0 {
		t.Fatalf("errors not suppressed: %v", rep.ErrorsData)
	}
	if len(rep.Suppressed) != 2 {
		t.Fatalf("got %d suppressed findings, want 2: %+v", len(rep.Suppressed), rep.Suppressed)
	}
	first := rep.Suppressed[0]
	if first.Rule != "cred-leak-log" || first.Reason != "reviewed in SEC-9" || first.Line != 8 || first.Kind != "error" {
		t.Errorf("audit entry wrong: %+v", first)
	}
	if rep.Suppressed[1].Reason != "second one reviewed too" || rep.Suppressed[1].Line != 10 {
		t.Errorf("directive-only-line entry wrong: %+v", rep.Suppressed[1])
	}
	if len(rep.SuppressionIssues) != 0 {
		t.Errorf("unexpected suppression issues: %+v", rep.SuppressionIssues)
	}
}

// TestSuppressionUnknownRule pins the structured diagnostic for
// directives the analysis cannot honor: the finding stays, the report
// is not clean, and the issue names the bad rule id and the policy.
func TestSuppressionUnknownRule(t *testing.T) {
	src := `
void serve()
{
    int pwd;
    pwd = getpass();
    log_msg(pwd); // safeflow:ignore not-a-rule never checked
}
`
	rep := analyzeCred(t, src, Options{Policy: mustBuiltin(t, "credential-leak")})
	if len(rep.ErrorsData) != 1 {
		t.Fatalf("finding must survive an unknown-rule directive: %d errors", len(rep.ErrorsData))
	}
	if len(rep.SuppressionIssues) != 1 {
		t.Fatalf("got %d suppression issues, want 1", len(rep.SuppressionIssues))
	}
	is := rep.SuppressionIssues[0]
	if is.Rule != "not-a-rule" || is.File != "main.c" || is.Line != 6 {
		t.Errorf("issue fields wrong: %+v", is)
	}
	if !strings.Contains(is.Msg, `"not-a-rule"`) || !strings.Contains(is.Msg, "credential-leak") {
		t.Errorf("issue message must name the rule and the policy: %q", is.Msg)
	}
	if rep.Clean() {
		t.Error("a report with suppression issues must not be clean")
	}

	// A directive with no rule id at all is also diagnosed.
	rep = analyzeCred(t, strings.Replace(src, "// safeflow:ignore not-a-rule never checked", "// safeflow:ignore", 1),
		Options{Policy: mustBuiltin(t, "credential-leak")})
	if len(rep.SuppressionIssues) != 1 || !strings.Contains(rep.SuppressionIssues[0].Msg, "missing a rule id") {
		t.Errorf("missing-rule-id directive not diagnosed: %+v", rep.SuppressionIssues)
	}
}

// TestSessionSuppressionByteIdentity pins the incremental fast paths:
// a comment-only edit that adds or moves a safeflow:ignore directive
// leaves the module unchanged (the session shortcut path), yet the
// patched report must match a from-scratch analysis of the edited
// sources exactly — including the suppression audit trail.
func TestSessionSuppressionByteIdentity(t *testing.T) {
	base := map[string]string{"main.c": credSrc}
	opts := Options{Policy: mustBuiltin(t, "credential-leak")}
	s, rep, err := OpenSession(context.Background(), "credsys", base, []string{"main.c"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(rep.ErrorsData) != 1 || len(rep.Suppressed) != 0 {
		t.Fatalf("open report wrong: %d errors, %d suppressed", len(rep.ErrorsData), len(rep.Suppressed))
	}

	edited := strings.Replace(credSrc, "log_msg(pwd);", "log_msg(pwd); // safeflow:ignore cred-leak-log reviewed", 1)
	got, stats, err := s.Update(context.Background(), map[string]string{"main.c": edited})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Incremental {
		t.Fatal("comment-only edit did not take the incremental path")
	}
	want, err := AnalyzeSources("credsys", cpp.MapSource{"main.c": edited}, []string{"main.c"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Suppressed) != 1 || got.Suppressed[0].Reason != "reviewed" {
		t.Fatalf("session update missed the new directive: %+v", got.Suppressed)
	}
	compareReports(t, got, want)

	// Removing the directive restores the finding.
	got, _, err = s.Update(context.Background(), map[string]string{"main.c": credSrc})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.ErrorsData) != 1 || len(got.Suppressed) != 0 {
		t.Fatalf("directive removal not applied: %d errors, %d suppressed", len(got.ErrorsData), len(got.Suppressed))
	}
}

// compareReports asserts the finding-bearing surfaces of two reports
// are equal (the session invariant the text/JSON/SARIF formats render).
func compareReports(t *testing.T, got, want *Report) {
	t.Helper()
	check := func(field string, g, w any) {
		if !reflect.DeepEqual(fmt.Sprint(g), fmt.Sprint(w)) {
			t.Errorf("%s diverged:\n got: %v\nwant: %v", field, g, w)
		}
	}
	check("Warnings", got.Warnings, want.Warnings)
	check("ErrorsData", got.ErrorsData, want.ErrorsData)
	check("ErrorsControlOnly", got.ErrorsControlOnly, want.ErrorsControlOnly)
	check("Suppressed", got.Suppressed, want.Suppressed)
	check("SuppressionIssues", got.SuppressionIssues, want.SuppressionIssues)
	check("PolicyName", got.PolicyName, want.PolicyName)
	check("PolicyFingerprint", got.PolicyFingerprint, want.PolicyFingerprint)
}
