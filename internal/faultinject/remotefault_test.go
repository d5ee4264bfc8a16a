package faultinject

// Remote-cache isolation invariant, under -race in CI: for every fault
// mix — outage, latency, in-transit corruption, total blackout — the
// report bytes through a faulty tiered backend are identical to a run
// with no cache at all, the analysis never errors, and the client's
// breaker/retry counters surface the degradation.

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"safeflow/internal/diskcache"
	"safeflow/internal/metrics"
	"safeflow/internal/remotecache"
)

// newFaultyTiered stands up a real sfcached handler over a disk store,
// a fault-injected client against it, and a local disk tier under the
// client — the full fleet topology in-process.
func newFaultyTiered(t *testing.T, ft *FaultTransport) *remotecache.Tiered {
	t.Helper()
	serverStore, err := diskcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(remotecache.NewServer(serverStore).Handler())
	t.Cleanup(ts.Close)

	client, err := remotecache.New(remotecache.Config{
		BaseURL:          ts.URL,
		Transport:        ft,
		OpTimeout:        500 * time.Millisecond,
		RetryBase:        time.Millisecond,
		RetryMax:         5 * time.Millisecond,
		FailureThreshold: 3,
		Cooldown:         50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	local, err := diskcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return remotecache.NewTiered(client, local)
}

// remoteSystems is the length of each scenario's system stream: enough
// report lookups and stores for a total outage to exhaust the breaker's
// failure threshold (3) and then be short-circuited.
const remoteSystems = 6

func TestRemoteFaultsNeverChangeReport(t *testing.T) {
	cases := []struct {
		name    string
		setRate func(*FaultTransport)
	}{
		{"healthy", func(ft *FaultTransport) {}},
		{"flaky-outage", func(ft *FaultTransport) { ft.OutageRate = 0.4 }},
		{"slow", func(ft *FaultTransport) { ft.LatencyRate = 0.5; ft.Latency = 5 * time.Millisecond }},
		{"corrupting", func(ft *FaultTransport) { ft.CorruptRate = 0.5 }},
		{"everything", func(ft *FaultTransport) {
			ft.OutageRate = 0.25
			ft.LatencyRate = 0.25
			ft.Latency = 2 * time.Millisecond
			ft.CorruptRate = 0.25
		}},
		{"blackout", func(ft *FaultTransport) { ft.OutageRate = 1 }},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ft := NewFaultTransport(int64(1000+i), nil)
			tc.setRate(ft)
			tiered := newFaultyTiered(t, ft)

			runs, err := RunRemote(context.Background(), RemoteScenario{Seed: int64(50 + i), Systems: remoteSystems}, tiered)
			if err != nil {
				t.Fatalf("analysis failed under %s faults: %v", tc.name, err)
			}
			for _, r := range runs {
				if r.ColdJSON != r.BaselineJSON {
					t.Errorf("%s: cold report diverged from no-cache baseline under %s faults", r.System.Name, tc.name)
				}
				if r.WarmJSON != r.BaselineJSON {
					t.Errorf("%s: warm report diverged from no-cache baseline under %s faults", r.System.Name, tc.name)
				}
			}

			stats := tiered.Snapshot()
			switch tc.name {
			case "healthy":
				if stats.Failures != 0 || stats.BreakerState != metrics.BreakerClosed {
					t.Errorf("healthy run recorded failures=%d state=%s", stats.Failures, stats.BreakerState)
				}
			case "blackout":
				if stats.BreakerOpens == 0 {
					t.Error("total outage never opened the breaker")
				}
				if stats.ShortCircuits == 0 {
					t.Error("open breaker never short-circuited an op")
				}
				if stats.RemoteHits != 0 {
					t.Errorf("blackout yielded %d remote hits", stats.RemoteHits)
				}
			case "flaky-outage", "everything":
				if stats.Failures == 0 && stats.Retries == 0 {
					outs, _, _ := ft.Injected()
					t.Errorf("injected %d outages but client recorded no failures/retries", outs)
				}
			case "corrupting":
				if _, _, corr := ft.Injected(); corr > 0 && stats.Retries == 0 && stats.RemoteCorrupt == 0 {
					t.Errorf("injected %d corruptions but client noticed none", corr)
				}
			}
		})
	}
}

// The warm path must still profit from the caches when faults are
// absent: a healthy tiered backend serves the warm run from cache.
func TestRemoteTierStillCachesWhenHealthy(t *testing.T) {
	ft := NewFaultTransport(1, nil)
	tiered := newFaultyTiered(t, ft)
	runs, err := RunRemote(context.Background(), RemoteScenario{Seed: 60, Systems: remoteSystems}, tiered)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if r.WarmJSON != r.BaselineJSON {
			t.Errorf("%s: warm report diverged", r.System.Name)
		}
		if r.Warm.Metrics == nil || r.Warm.Metrics.DiskCacheHits == 0 || r.Warm.Metrics.ReportCacheHits != 1 {
			t.Errorf("%s: healthy warm run was not a report-cache hit through the tiered backend", r.System.Name)
		}
	}
	stats := tiered.Snapshot()
	if stats.RemotePuts == 0 {
		t.Error("cold run pushed nothing to the remote tier")
	}
}
