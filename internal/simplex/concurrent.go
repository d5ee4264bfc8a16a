// Truly concurrent execution of the Simplex architecture: the core and
// non-core controllers run as separate goroutines sharing one emulated
// shared-memory segment under its advisory lock, exactly the process
// structure of the paper's lab systems. Unlike Run (which steps both
// components synchronously for deterministic traces), RunConcurrent
// exhibits the real phenomena the paper's conservative non-core model
// exists for: stale proposals, missed periods, and interleavings the core
// cannot assume away — which is why the monitor checks every proposal and
// a sequence number detects staleness.

package simplex

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"safeflow/internal/plant"
	"safeflow/internal/shm"
)

// ConcurrentTrace summarizes a concurrent closed-loop run.
type ConcurrentTrace struct {
	Steps        int
	NonCoreUsed  int // periods driven by an admitted non-core proposal
	StaleSkipped int // proposals ignored for stale sequence numbers
	Rejected     int // proposals the monitor refused
	MaxAbsState  []float64
	Diverged     bool
	NonCoreIters int64 // non-core controller loop iterations completed
}

// RunConcurrent executes cfg with the non-core controller in its own
// goroutine. The trace is not step-for-step deterministic (that is the
// point); its safety properties are: under a monitored run the plant
// never leaves the recoverable envelope regardless of interleaving.
func RunConcurrent(cfg Config) (*ConcurrentTrace, error) {
	if cfg.Plant == nil {
		cfg.Plant = plant.DefaultPendulum()
	}
	if cfg.DT == 0 {
		cfg.DT = 0.01
	}
	if cfg.Steps == 0 {
		cfg.Steps = 2000
	}
	if cfg.UMax == 0 {
		cfg.UMax = 20
	}
	if cfg.AngleWeight == 0 {
		cfg.AngleWeight = 10
	}
	if cfg.EnvelopeMargin == 0 {
		cfg.EnvelopeMargin = 4
	}
	if cfg.Fault == 0 {
		cfg.Fault = FaultNone
	}
	if cfg.FaultStep == 0 {
		cfg.FaultStep = cfg.Steps / 2
	}
	n := cfg.Plant.Dim()
	if cfg.InitState == nil {
		cfg.InitState = make([]float64, n)
		if n >= 3 {
			cfg.InitState[2] = 0.1
		}
	}
	if len(cfg.InitState) != n {
		return nil, fmt.Errorf("simplex: init state has %d values, plant has %d", len(cfg.InitState), n)
	}

	A, B := cfg.Plant.Linearize()
	ad, bd := plant.Discretize(A, B, cfg.DT)
	qSafe := plant.Eye(n)
	for i := 2; i < n; i += 2 {
		qSafe.Set(i, i, cfg.AngleWeight)
	}
	kSafe, err := plant.DLQR(ad, bd, qSafe, 1.0)
	if err != nil {
		return nil, fmt.Errorf("simplex: safety synthesis: %w", err)
	}
	qPerf := plant.Eye(n)
	for i := 2; i < n; i += 2 {
		qPerf.Set(i, i, cfg.AngleWeight*5)
	}
	kPerf, err := plant.DLQR(ad, bd, qPerf, 0.05)
	if err != nil {
		return nil, fmt.Errorf("simplex: complex synthesis: %w", err)
	}
	kMat := plant.NewMat(1, n)
	for j, k := range kSafe {
		kMat.Set(0, j, k)
	}
	p, err := plant.DLyap(ad.Sub(bd.Mul(kMat)), plant.Eye(n))
	if err != nil {
		return nil, fmt.Errorf("simplex: envelope: %w", err)
	}
	monitor := &DecisionModule{
		Ad: ad, Bd: bd, P: p,
		C:    p.Quad(cfg.InitState) * cfg.EnvelopeMargin,
		UMax: cfg.UMax,
	}

	key := cfg.ShmKey
	if key == 0 {
		key = 0x5afec
	}
	shm.Remove(key)
	shared, err := NewSharedState(key, n)
	if err != nil {
		return nil, err
	}

	safety := &LQRController{Label: "safety", K: kSafe}
	complexCtl := &ComplexController{
		Inner:     &LQRController{Label: "lqr-perf", K: kPerf},
		Fault:     cfg.Fault,
		FaultStep: cfg.FaultStep,
		UMax:      cfg.UMax,
	}

	var stop atomic.Bool
	var ncIters atomic.Int64
	var wg sync.WaitGroup
	// firstIter closes after the non-core loop's first iteration; step 0
	// waits for it, so the non-core component takes part in every run
	// however the scheduler orders the two goroutines.
	firstIter := make(chan struct{})
	var firstOnce sync.Once

	// Non-core component: reacts to each newly published feedback (its own
	// period is driven by the core's publications, like the lab systems
	// where both are released at the same rate).
	wg.Add(1)
	go func() {
		defer wg.Done()
		lastSeq := int32(-1)
		for !stop.Load() {
			shared.Seg.Lock()
			x, seq, err := shared.ReadState()
			fresh := err == nil && seq != lastSeq
			if fresh {
				lastSeq = seq
				u := complexCtl.Output(x)
				_ = shared.Command.SetFloat64At(offControl, u)
				_ = shared.Command.SetInt32At(offReady, 1)
				_ = shared.Command.SetInt32At(12, seq) // proposal's base seq
			}
			shared.Seg.Unlock()
			if fresh {
				ncIters.Add(1)
			} else {
				runtime.Gosched()
			}
			firstOnce.Do(func() { close(firstIter) })
		}
	}()

	trace := &ConcurrentTrace{Steps: cfg.Steps, MaxAbsState: make([]float64, n)}
	x := append([]float64(nil), cfg.InitState...)
	for step := 0; step < cfg.Steps; step++ {
		shared.Seg.Lock()
		if err := shared.PublishState(x, int32(step)); err != nil {
			shared.Seg.Unlock()
			stop.Store(true)
			wg.Wait()
			return nil, err
		}
		shared.Seg.Unlock()

		// The real core sleeps out its period here (Figure 2's wait call);
		// yielding models that and gives the non-core loop its slot.
		runtime.Gosched()
		if step == 0 {
			<-firstIter
		}

		// The core's period: whatever proposal is present right now.
		shared.Seg.Lock()
		proposal, ready, _ := shared.ReadProposal()
		baseSeq, _ := shared.Command.Int32At(12)
		shared.Seg.Unlock()

		safeU := clamp(safety.Output(x), cfg.UMax)
		u := safeU
		switch {
		case !ready:
			// no proposal yet; fall back
		case baseSeq+int32(2) < int32(step):
			trace.StaleSkipped++
		case monitor.Recoverable(x, proposal):
			u = proposal
			trace.NonCoreUsed++
		default:
			trace.Rejected++
		}

		x = plant.RK4(cfg.Plant, x, u, cfg.DT)
		for i, v := range x {
			if a := math.Abs(v); a > trace.MaxAbsState[i] {
				trace.MaxAbsState[i] = a
			}
		}
		if stateDiverged(x) {
			trace.Diverged = true
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	trace.NonCoreIters = ncIters.Load()
	return trace, nil
}
