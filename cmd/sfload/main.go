// Command sfload drives load against a running safeflowd and reports
// latency, throughput, and dedup behavior as JSON. It exists to answer
// the fleet questions a unit test cannot: what does the daemon do under
// a cache stampede (many clients demanding the same cold analysis at
// once), and what does steady mixed traffic cost end to end?
//
// Usage:
//
//	sfload [flags]
//
// Flags:
//
//	-addr u          base URL of the daemon (default http://127.0.0.1:8787)
//	-mode m          "stampede" (default) or "mixed"
//	-concurrency n   concurrent clients (default 16)
//	-duration d      how long to generate load (default 10s)
//	-systems n       distinct generated systems in the request mix (default 4)
//	-seed n          corpus generator seed base (default 1)
//	-out f           write (or merge into) a JSON report file; stdout
//	                 always gets the report
//
// Stampede mode runs waves: each wave generates a never-seen system
// (cold for every cache tier), then -concurrency clients POST the
// byte-identical request simultaneously. A correct daemon collapses the
// wave to one pipeline execution — every response 200 with identical
// bytes, dedup_hits advancing by concurrency−1 — and the report records
// how close each wave came. Mixed mode runs -concurrency independent
// clients drawing from -systems distinct requests for -duration.
//
// Exit status: 0 on success; 1 when the daemon violated a load
// invariant (a response that is neither 2xx nor 429/503 backpressure,
// or divergent bodies within a stampede wave); 2 on usage errors or an
// unreachable daemon.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"safeflow/internal/corpus"
	"safeflow/internal/daemon"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Report is one sfload run, the unit -out files accumulate.
type Report struct {
	SchemaVersion int     `json:"schema_version"`
	GoVersion     string  `json:"go_version"`
	Mode          string  `json:"mode"`
	Addr          string  `json:"addr"`
	Concurrency   int     `json:"concurrency"`
	DurationSecs  float64 `json:"duration_seconds"`
	Systems       int     `json:"systems"`
	Seed          int64   `json:"seed"`

	RequestsTotal    int64 `json:"requests_total"`
	RequestsOK       int64 `json:"requests_ok"`
	RequestsRejected int64 `json:"requests_rejected"` // 429/503 backpressure
	RequestsFailed   int64 `json:"requests_failed"`   // anything else

	ThroughputRPS float64   `json:"throughput_rps"`
	LatencyMS     LatencyMS `json:"latency_ms"`

	Stampede *StampedeReport `json:"stampede,omitempty"`
}

// LatencyMS summarizes the latency distribution in milliseconds.
type LatencyMS struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// StampedeReport is the dedup accounting for stampede mode.
type StampedeReport struct {
	Waves             int     `json:"waves"`
	WaveConcurrency   int     `json:"wave_concurrency"`
	DedupHits         int64   `json:"dedup_hits"`          // /metricsz delta over the run
	ExpectedDedupHits int64   `json:"expected_dedup_hits"` // waves × (concurrency−1)
	CollapseRate      float64 `json:"collapse_rate"`
	FullCollapseWaves int     `json:"full_collapse_waves"`
	BodyMismatches    int64   `json:"body_mismatches"`
}

// mergeFile is the shape of an -out file: one run appended per
// invocation, so a bench file can hold the stampede and mixed runs of
// one campaign side by side.
type mergeFile struct {
	SchemaVersion int      `json:"schema_version"`
	Runs          []Report `json:"runs"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sfload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "http://127.0.0.1:8787", "base URL of the daemon")
		mode        = fs.String("mode", "stampede", `load shape: "stampede" or "mixed"`)
		concurrency = fs.Int("concurrency", 16, "concurrent clients")
		duration    = fs.Duration("duration", 10*time.Second, "how long to generate load")
		systems     = fs.Int("systems", 4, "distinct generated systems in the mix")
		seed        = fs.Int64("seed", 1, "corpus generator seed base")
		out         = fs.String("out", "", "JSON report file to write or merge into")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "sfload: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *mode != "stampede" && *mode != "mixed" {
		fmt.Fprintf(stderr, "sfload: -mode must be stampede or mixed, got %q\n", *mode)
		return 2
	}
	if *concurrency < 1 || *systems < 1 || *duration <= 0 {
		fmt.Fprintln(stderr, "sfload: -concurrency and -systems must be >= 1, -duration > 0")
		return 2
	}
	base := strings.TrimRight(*addr, "/")

	// The daemon must be up before we charge it.
	if _, err := fetchMetrics(base); err != nil {
		fmt.Fprintf(stderr, "sfload: daemon not reachable: %v\n", err)
		return 2
	}

	rep := Report{
		SchemaVersion: 1,
		GoVersion:     runtime.Version(),
		Mode:          *mode,
		Addr:          base,
		Concurrency:   *concurrency,
		Systems:       *systems,
		Seed:          *seed,
	}
	var err error
	switch *mode {
	case "stampede":
		err = runStampede(base, *concurrency, *duration, *systems, *seed, &rep)
	case "mixed":
		err = runMixed(base, *concurrency, *duration, *systems, *seed, &rep)
	}
	if err != nil {
		fmt.Fprintf(stderr, "sfload: %v\n", err)
		return 2
	}

	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	enc.Encode(&rep)
	if *out != "" {
		if err := mergeOut(*out, rep); err != nil {
			fmt.Fprintf(stderr, "sfload: writing -out: %v\n", err)
			return 2
		}
	}

	if rep.RequestsFailed > 0 {
		fmt.Fprintf(stderr, "sfload: %d responses were neither success nor backpressure\n", rep.RequestsFailed)
		return 1
	}
	if rep.Stampede != nil && rep.Stampede.BodyMismatches > 0 {
		fmt.Fprintf(stderr, "sfload: %d divergent bodies within stampede waves\n", rep.Stampede.BodyMismatches)
		return 1
	}
	return 0
}

// System shapes for the two load modes. Mixed traffic uses small
// systems so a short run still sees many requests; stampede uses a
// heavier system so the cold analysis window — the thing the wave must
// land inside for dedup to engage — is tens of milliseconds, as a real
// fleet-shared analysis would be, rather than sub-millisecond.
var (
	mixedShape    = corpus.GenConfig{Regions: 2, Monitors: 2, Stages: 3}
	stampedeShape = corpus.GenConfig{Regions: 8, Monitors: 16, Stages: 48, Depth: 5}
)

// genRequest builds the analyze body for one system of the mix.
func genRequest(seed int64, idx int, shape corpus.GenConfig) daemon.AnalyzeRequest {
	g := corpus.Generate(seed+int64(idx), shape)
	return daemon.AnalyzeRequest{Name: g.Name, Sources: g.Sources, CFiles: g.CFiles}
}

// coldRequest derives a never-before-seen variant of a generated
// system: a nonce comment in one source changes every cache key while
// leaving the analysis result shape untouched.
func coldRequest(seed int64, idx int, nonce int64) daemon.AnalyzeRequest {
	req := genRequest(seed, idx, stampedeShape)
	src := make(map[string]string, len(req.Sources))
	for k, v := range req.Sources {
		// The nonce lands in every file so the whole system is cold for
		// every cache tier each wave.
		src[k] = v + fmt.Sprintf("/* sfload nonce %d */\n", nonce)
	}
	req.Sources = src
	return req
}

// shot is one measured request.
type shot struct {
	status  int
	body    []byte
	latency time.Duration
	err     error
}

func post(client *http.Client, base string, body []byte) shot {
	start := time.Now()
	resp, err := client.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return shot{err: err, latency: time.Since(start)}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return shot{err: err, latency: time.Since(start)}
	}
	return shot{status: resp.StatusCode, body: data, latency: time.Since(start)}
}

// classify folds one shot into the report counters and returns whether
// it violated the load invariant.
func classify(rep *Report, s shot) {
	rep.RequestsTotal++
	switch {
	case s.err != nil:
		rep.RequestsFailed++
	case s.status >= 200 && s.status < 300:
		rep.RequestsOK++
	case s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable:
		rep.RequestsRejected++
	default:
		rep.RequestsFailed++
	}
}

func fetchMetrics(base string) (*daemon.Metrics, error) {
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metricsz status %d", resp.StatusCode)
	}
	var m daemon.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("/metricsz decode: %w", err)
	}
	return &m, nil
}

// runStampede fires waves of byte-identical cold requests and accounts
// for how completely each wave collapsed to one pipeline execution.
func runStampede(base string, concurrency int, duration time.Duration, systems int, seed int64, rep *Report) error {
	// One warmed keep-alive connection per client: the wave must race
	// the daemon's flight window, not the TCP dialer. The default
	// transport keeps only 2 idle conns per host, which would stagger
	// wave members behind fresh dials.
	clients := make([]*http.Client, concurrency)
	for i := range clients {
		clients[i] = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        concurrency,
			MaxIdleConnsPerHost: concurrency,
		}}
		resp, err := clients[i].Get(base + "/healthz")
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	var latencies []time.Duration
	st := &StampedeReport{WaveConcurrency: concurrency}
	// The nonce base makes every wave cold even against a daemon that
	// has already served a previous sfload run with the same seed.
	nonceBase := time.Now().UnixNano()

	// Two uncounted warm-up waves: the first requests through a cold
	// process pay one-time costs (lazy initialization on both sides)
	// that stagger the wave members far more than steady state ever
	// does, which would misstate both latency and collapse behavior.
	for w := 0; w < 2; w++ {
		body, err := json.Marshal(coldRequest(seed, 0, nonceBase-int64(w)-1))
		if err != nil {
			return err
		}
		var wg sync.WaitGroup
		for i := 0; i < concurrency; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				post(clients[i], base, body)
			}(i)
		}
		wg.Wait()
	}

	// Baseline counters after warm-up, so the dedup delta covers only
	// the measured waves.
	before, err := fetchMetrics(base)
	if err != nil {
		return err
	}

	start := time.Now()
	for wave := 0; time.Since(start) < duration; wave++ {
		req := coldRequest(seed, wave%systems, nonceBase+int64(wave))
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		preDedup := int64(0)
		if m, err := fetchMetrics(base); err == nil {
			preDedup = m.DedupHits
		}

		shots := make([]shot, concurrency)
		release := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < concurrency; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-release // fire the whole wave at once
				shots[i] = post(clients[i], base, body)
			}(i)
		}
		close(release)
		wg.Wait()

		var first []byte
		for _, s := range shots {
			classify(rep, s)
			latencies = append(latencies, s.latency)
			if s.status >= 200 && s.status < 300 {
				if first == nil {
					first = s.body
				} else if !bytes.Equal(first, s.body) {
					st.BodyMismatches++
				}
			}
		}
		st.Waves++
		if m, err := fetchMetrics(base); err == nil {
			if d := m.DedupHits - preDedup; d == int64(concurrency-1) {
				st.FullCollapseWaves++
			}
		}
	}
	rep.DurationSecs = time.Since(start).Seconds()
	after, err := fetchMetrics(base)
	if err != nil {
		return err
	}
	st.DedupHits = after.DedupHits - before.DedupHits
	st.ExpectedDedupHits = int64(st.Waves) * int64(concurrency-1)
	if st.ExpectedDedupHits > 0 {
		st.CollapseRate = float64(st.DedupHits) / float64(st.ExpectedDedupHits)
	}
	rep.Stampede = st
	finishLatency(rep, latencies)
	return nil
}

// runMixed runs independent clients drawing uniformly from the system
// mix until the deadline.
func runMixed(base string, concurrency int, duration time.Duration, systems int, seed int64, rep *Report) error {
	bodies := make([][]byte, systems)
	for i := range bodies {
		b, err := json.Marshal(genRequest(seed, i, mixedShape))
		if err != nil {
			return err
		}
		bodies[i] = b
	}
	client := &http.Client{}
	deadline := time.Now().Add(duration)
	results := make(chan shot, 1024)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)*7919))
			for time.Now().Before(deadline) {
				results <- post(client, base, bodies[rng.Intn(systems)])
			}
		}(w)
	}
	done := make(chan struct{})
	var latencies []time.Duration
	go func() {
		defer close(done)
		for s := range results {
			classify(rep, s)
			latencies = append(latencies, s.latency)
		}
	}()
	wg.Wait()
	close(results)
	<-done
	rep.DurationSecs = time.Since(start).Seconds()
	finishLatency(rep, latencies)
	return nil
}

// finishLatency folds the collected latencies into the report.
func finishLatency(rep *Report, latencies []time.Duration) {
	if rep.DurationSecs > 0 {
		rep.ThroughputRPS = float64(rep.RequestsTotal) / rep.DurationSecs
	}
	if len(latencies) == 0 {
		return
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) float64 {
		idx := int(p * float64(len(latencies)-1))
		return float64(latencies[idx]) / float64(time.Millisecond)
	}
	rep.LatencyMS = LatencyMS{
		P50: pct(0.50),
		P95: pct(0.95),
		P99: pct(0.99),
		Max: float64(latencies[len(latencies)-1]) / float64(time.Millisecond),
	}
}

// mergeOut appends the run to path, creating the file on first use, so
// one bench file accumulates a campaign's runs.
func mergeOut(path string, rep Report) error {
	var mf mergeFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &mf); err != nil {
			return fmt.Errorf("existing %s is not an sfload report file: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	mf.SchemaVersion = 1
	mf.Runs = append(mf.Runs, rep)
	data, err := json.MarshalIndent(&mf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
