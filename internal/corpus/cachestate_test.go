package corpus

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"safeflow/internal/remotecache"
	"safeflow/internal/report"
	"safeflow/pkg/safeflow"
)

// TestGoldenReportsEveryCacheState is the report cache's oracle: every
// corpus system's text report matches its golden file, and its JSON and
// SARIF renders match the uncached ones byte for byte, in each cache
// state — no cache, a cold disk cache, a warm disk cache and a warm
// remote tier (a replica with an empty local tier) — at workers 1, 2
// and GOMAXPROCS. The IP system's SARIF also matches its golden file.
func TestGoldenReportsEveryCacheState(t *testing.T) {
	remoteStore, err := safeflow.OpenDiskCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(remotecache.NewServer(remoteStore).Handler())
	defer ts.Close()
	client, err := remotecache.New(remotecache.Config{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	openStore := func() *safeflow.DiskCache {
		dc, err := safeflow.OpenDiskCache(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return dc
	}

	for _, sys := range All() {
		t.Run(sys.Name, func(t *testing.T) {
			src, err := sys.SourceMap()
			if err != nil {
				t.Fatal(err)
			}
			name := strings.ToLower(strings.ReplaceAll(sys.Name, " ", "_"))
			golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", name+".report.txt"))
			if err != nil {
				t.Fatal(err)
			}
			render := func(opts safeflow.Options) (string, []byte, []byte, *safeflow.Report) {
				t.Helper()
				rep, err := safeflow.Analyze(sys.Name, src, sys.CFiles, opts)
				if err != nil {
					t.Fatal(err)
				}
				var text strings.Builder
				var js, sarif bytes.Buffer
				report.Write(&text, rep)
				if err := report.WriteJSON(&js, rep); err != nil {
					t.Fatal(err)
				}
				if err := report.WriteSARIF(&sarif, rep); err != nil {
					t.Fatal(err)
				}
				return text.String(), js.Bytes(), sarif.Bytes(), rep
			}
			_, wantJSON, wantSARIF, _ := render(safeflow.Options{Workers: 1})
			if sys.Name == "IP" {
				ipSARIF, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "sarif", "ip.sarif"))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(wantSARIF, ipSARIF) {
					t.Fatal("uncached SARIF differs from testdata/golden/sarif/ip.sarif")
				}
			}

			warmDisk := openStore()
			if _, _, _, rep := render(safeflow.Options{DiskCache: warmDisk}); rep.Module == nil {
				t.Fatal("the run that fills the disk cache was a hit")
			}
			if _, _, _, rep := render(safeflow.Options{DiskCache: remotecache.NewTiered(client, openStore())}); rep.Module == nil {
				t.Fatal("the run that fills the remote tier was a hit")
			}

			for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
				states := []struct {
					name    string
					opts    safeflow.Options
					wantHit bool
				}{
					{"no cache", safeflow.Options{}, false},
					{"cold disk", safeflow.Options{DiskCache: openStore()}, false},
					{"warm disk", safeflow.Options{DiskCache: warmDisk}, true},
					{"warm remote", safeflow.Options{DiskCache: remotecache.NewTiered(client, openStore())}, true},
				}
				for _, st := range states {
					st.opts.Workers = workers
					text, js, sarif, rep := render(st.opts)
					if hit := rep.Module == nil; hit != st.wantHit {
						t.Errorf("workers=%d %s: report-cache hit = %v, want %v", workers, st.name, hit, st.wantHit)
					}
					if text != string(golden) {
						t.Errorf("workers=%d %s: text report differs from the golden file", workers, st.name)
					}
					if !bytes.Equal(js, wantJSON) {
						t.Errorf("workers=%d %s: JSON report differs from the uncached one", workers, st.name)
					}
					if !bytes.Equal(sarif, wantSARIF) {
						t.Errorf("workers=%d %s: SARIF differs from the uncached one", workers, st.name)
					}
				}
			}
		})
	}
}
