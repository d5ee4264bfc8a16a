package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"safeflow/internal/daemon"
	"safeflow/pkg/safeflow"
)

const (
	// serveClients closed-loop clients share the daemon (nproc = 2).
	serveClients = 2
	// serveRequestsPerSecond sizes the pre-generated request schedule,
	// about twice today's rate (≈48 req/s on a 2-CPU host).
	serveRequestsPerSecond = 100
	// serveGenerated wide and as many deep systems join the three Table 1
	// systems in the working set.
	serveGenerated = 4
	// serveNovelPerBlock novel systems join every block of a client's
	// schedule, which also re-sends each working-set system once per
	// format: 6 of 28 requests, about 20%, are novel.
	serveNovelPerBlock = 6
)

// serveRequest is one scheduled POST /v1/analyze.
type serveRequest struct {
	sys   *system
	ws    int // working-set index, or -1 for a novel system
	sarif bool
	body  []byte
}

func (r serveRequest) path() string {
	if r.sarif {
		return "/v1/analyze?format=sarif"
	}
	return "/v1/analyze"
}

// serveOutcome is one response as a client saw it.
type serveOutcome struct {
	req    serveRequest
	status int
	lat    float64       // ms, request start to last body byte
	end    time.Duration // completion, from the start of the window
	cpu    time.Duration // process CPU since the previous completion
	sum    [sha256.Size]byte
	body   []byte // kept for novel systems, checked after the window
	err    error
}

// daemonUnderTest is safeflowd in-process: daemon.New with a disk cache
// in a fresh temporary directory, served over loopback.
type daemonUnderTest struct {
	dir    string
	srv    *http.Server
	done   chan struct{}
	base   string
	client *http.Client
}

func startDaemon() (*daemonUnderTest, error) {
	dir, err := os.MkdirTemp("", "perfbench-serve-")
	if err != nil {
		return nil, err
	}
	store, err := safeflow.OpenDiskCache(dir, 0)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemonUnderTest{
		dir:  dir,
		srv:  &http.Server{Handler: daemon.New(daemon.Config{Cache: store}).Handler()},
		done: make(chan struct{}),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: serveClients,
			DisableCompression:  true,
		}},
	}
	go func() {
		defer close(d.done)
		d.srv.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return d, nil
}

// stop shuts the server down, waits for it, and removes the cache dir.
func (d *daemonUnderTest) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx)
	<-d.done
	d.client.CloseIdleConnections()
	os.RemoveAll(d.dir)
}

// post sends one request and reads the whole response.
func (d *daemonUnderTest) post(path string, body []byte) (int, http.Header, []byte, error) {
	resp, err := d.client.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

// counters reads /metricsz.
func (d *daemonUnderTest) counters() (counters, error) {
	resp, err := d.client.Get(d.base + "/metricsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("/metricsz: %w", err)
	}
	out := counters{}
	flatten("", m, out)
	return out, nil
}

func analyzeBody(sys *system) ([]byte, error) {
	return json.Marshal(daemon.AnalyzeRequest{Name: sys.name, Sources: sys.sources, CFiles: sys.cFiles})
}

// runServe: safeflowd as deployed, with two closed-loop clients (CI jobs
// waiting for their verdict). About 80% of requests re-send a fixed
// working set (the three Table 1 systems plus four wide and four deep
// systems), about 20% carry a novel system, and half ask for SARIF.
// Each client follows its own schedule of the same mix, so two clients
// send the same body at once only as often as that mix makes them.
func runServe(b *bench) error {
	var (
		d        *daemonUnderTest
		ws       []system
		novel    []system
		sched    [serveClients][]serveRequest
		want     map[[2]int][sha256.Size]byte // (ws index, sarif) -> warm-up body hash
		warmErrs []error
		opens    []system
		traced   []system
	)
	err := b.setup(func(r *rand.Rand, final bool) (func(), error) {
		used := map[int64]bool{}
		t1, err := table1()
		if err != nil {
			return nil, err
		}
		ws = nil
		for i, s := range seeds(r, len(t1), used) {
			// An earlier set-up repetition warms the Table 1 systems under
			// unit names of its own, so the measured one warms them cold.
			if final {
				ws = append(ws, t1[i])
			} else {
				ws = append(ws, renamedTable1(t1[i], s))
			}
		}
		for i, s := range seeds(r, 2*serveGenerated, used) {
			ws = append(ws, generated(alternate(i), s))
		}
		wsBodies := make([][]byte, len(ws))
		for i := range ws {
			if wsBodies[i], err = analyzeBody(&ws[i]); err != nil {
				return nil, err
			}
		}
		// A client's schedule is a run of shuffled blocks with a fixed
		// mix, so every stretch of the window sees the same share of
		// each kind of request.
		blockLen := 2*len(ws) + serveNovelPerBlock
		blocks := (int(b.cfg.seconds*serveRequestsPerSecond)/serveClients+blockLen-1)/blockLen + 1
		novel = make([]system, 0, serveClients*blocks*serveNovelPerBlock)
		for _, s := range seeds(r, serveClients*blocks*serveNovelPerBlock, used) {
			novel = append(novel, generated(alternate(len(novel)), s))
		}
		next := 0
		for c := range sched {
			sched[c] = nil
			for blk := 0; blk < blocks; blk++ {
				var block []serveRequest
				for k := range ws {
					for _, sarif := range []bool{false, true} {
						block = append(block, serveRequest{sys: &ws[k], ws: k, sarif: sarif, body: wsBodies[k]})
					}
				}
				for i := 0; i < serveNovelPerBlock; i++ {
					req := serveRequest{sys: &novel[next], ws: -1, sarif: i%2 == 0}
					next++
					if req.body, err = analyzeBody(req.sys); err != nil {
						return nil, err
					}
					block = append(block, req)
				}
				r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
				sched[c] = append(sched[c], block...)
			}
		}
		opens = nil
		for _, s := range seeds(r, opensPerRun, used) {
			opens = append(opens, generated("wide", s))
		}
		traced = nil
		for i, s := range seeds(r, len(t1), used) {
			traced = append(traced, renamedTable1(t1[i], s))
		}
		for i, s := range seeds(r, traceInputs-len(t1), used) {
			traced = append(traced, generated(alternate(i), s))
		}

		if d, err = startDaemon(); err != nil {
			return nil, err
		}
		// Warm the working set in both formats; the responses are the
		// reference bytes every later response must repeat.
		want = map[[2]int][sha256.Size]byte{}
		warmErrs = nil
		for k := range ws {
			for _, sarif := range []bool{false, true} {
				req := serveRequest{sys: &ws[k], ws: k, sarif: sarif, body: wsBodies[k]}
				status, _, body, err := d.post(req.path(), req.body)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("%s: warm-up status %d", ws[k].name, status)
				}
				if err == nil {
					err = b.checkBody(req, body)
				}
				warmErrs = append(warmErrs, err)
				want[[2]int{k, boolIndex(sarif)}] = sha256.Sum256(body)
			}
		}
		return d.stop, nil
	})
	if err != nil {
		return err
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	for _, err := range warmErrs {
		b.record(err)
	}

	before, err := d.counters()
	if err != nil {
		return err
	}
	w := b.serveWindow(d, sched)
	after, err := d.counters()
	if err != nil {
		return err
	}

	var samples []opSample
	latSum := 0.0
	for _, o := range w.outcomes {
		err := o.err
		req := o.req
		switch {
		case err != nil:
		case o.status != http.StatusOK:
			err = fmt.Errorf("%s: status %d", req.sys.name, o.status)
		case req.ws >= 0:
			if o.sum != want[[2]int{req.ws, boolIndex(req.sarif)}] {
				err = fmt.Errorf("%s (sarif=%v): response bytes differ from the warm-up response", req.sys.name, req.sarif)
			}
		default:
			err = b.checkBody(req, o.body)
		}
		if err == nil {
			samples = append(samples, opSample{end: o.end, lat: o.lat, cpu: o.cpu})
			latSum += o.lat
		}
		b.record(err)
	}
	n := float64(len(samples))
	b.setWindow(samples, w.wall)

	if b.cfg.trace {
		b.setRuntime(w.rt0, w.rt1, n)
		b.setCacheLayers(delta(before, after), n)
		b.setDaemonLayers(delta(before, after), latSum, n)
		b.zeroLayers("session")
	}
	d.stop()
	d = nil
	if b.cfg.trace {
		b.tracePass(traced)
	} else {
		b.timeOpens(opens)
	}
	var sample []system
	for _, shape := range []string{"wide", "deep"} {
		for _, sys := range novel {
			if sys.shape == shape {
				sample = append(sample, sys)
				break
			}
		}
	}
	b.dynamicChecks(sample[:min(len(sample), dynamicSamples)])
	b.describeShapes(ws...)
	return nil
}

// probeInputs never-seen systems make the daemon probe.
const probeInputs = 4

// daemonProbe is the daemon layer of a workload that does not itself go
// through the daemon: a few never-seen systems, sent one at a time to an
// in-process daemon after the window of a traced run.
type daemonProbe []serveRequest

func newDaemonProbe(r *rand.Rand, used map[int64]bool) (daemonProbe, error) {
	var p daemonProbe
	for i, s := range seeds(r, probeInputs, used) {
		sys := generated(alternate(i), s)
		body, err := analyzeBody(&sys)
		if err != nil {
			return nil, err
		}
		p = append(p, serveRequest{sys: &sys, ws: -1, sarif: i%2 == 0, body: body})
	}
	return p, nil
}

// run sends the probe's requests, checks each response, and sets the
// daemon layer metrics.
func (p daemonProbe) run(b *bench) error {
	d, err := startDaemon()
	if err != nil {
		return err
	}
	defer d.stop()
	before, err := d.counters()
	if err != nil {
		return err
	}
	latSum, n := 0.0, 0.0
	for _, req := range p {
		t0 := time.Now()
		status, _, body, err := d.post(req.path(), req.body)
		lat := ms(time.Since(t0))
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("%s: status %d", req.sys.name, status)
		}
		if err == nil {
			err = b.checkBody(req, body)
		}
		b.record(err)
		if err == nil {
			latSum += lat
			n++
		}
	}
	after, err := d.counters()
	if err != nil {
		return err
	}
	b.setDaemonLayers(delta(before, after), latSum, n)
	return nil
}

func boolIndex(v bool) int {
	if v {
		return 1
	}
	return 0
}

// checkBody holds one response body to its system's known answer; the
// IP SARIF render must also equal the repository's golden file.
func (b *bench) checkBody(req serveRequest, body []byte) error {
	v, err := verdictOfBody(body, req.sarif)
	if err != nil {
		return fmt.Errorf("%s: %w", req.sys.name, err)
	}
	if err := b.judge(*req.sys, v); err != nil {
		return err
	}
	if req.sarif && req.sys.shape == "table1" && req.sys.name == "IP" {
		return checkGolden(b.cfg.root, body)
	}
	return nil
}

// serveRun is one measured serve window.
type serveRun struct {
	outcomes []serveOutcome // in completion order
	wall     time.Duration
	rt0, rt1 runtimeSnapshot
}

// serveWindow runs one closed-loop client per schedule until the window
// ends. Process CPU is read at every completion and charged to the
// requests in completion order.
func (b *bench) serveWindow(d *daemonUnderTest, sched [serveClients][]serveRequest) serveRun {
	mem := b.watchMemory()
	run := serveRun{rt0: readRuntime()}
	c0 := cpuTime()
	t0 := time.Now()
	deadline := b.deadline()
	per := make([][]serveOutcome, serveClients)
	var wg sync.WaitGroup
	for c := range sched {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, req := range sched[c] {
				if !time.Now().Before(deadline) {
					return
				}
				start := time.Now()
				status, _, body, err := d.post(req.path(), req.body)
				now := time.Now()
				o := serveOutcome{req: req, status: status, lat: ms(now.Sub(start)), end: now.Sub(t0), cpu: cpuTime(), err: err}
				o.sum = sha256.Sum256(body)
				if req.ws < 0 {
					o.body = body
				}
				per[c] = append(per[c], o)
			}
		}(c)
	}
	wg.Wait()
	run.wall = time.Since(t0)
	run.rt1 = readRuntime()
	b.stopWatch(mem)
	for c, p := range per {
		if len(p) == len(sched[c]) {
			b.linef("note: client %d sent all %d scheduled requests before the window ended", c, len(p))
		}
		run.outcomes = append(run.outcomes, p...)
	}
	sort.Slice(run.outcomes, func(i, j int) bool { return run.outcomes[i].end < run.outcomes[j].end })
	prev := c0
	for i := range run.outcomes {
		cum := run.outcomes[i].cpu
		run.outcomes[i].cpu = max(cum-prev, 0)
		prev = max(cum, prev)
	}
	return run
}
