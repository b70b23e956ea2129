package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cutfit/internal/algorithms"
)

// TestRunOnEdgelessInput: `cutfit run` on a file with no edges — empty, or
// comments only — ends in a result or an error for every algorithm of the
// served-algorithm table, under a fixed strategy and under auto-selection,
// never in a panic. sssp has no landmark to start from and must say so.
func TestRunOnEdgelessInput(t *testing.T) {
	for name, text := range map[string]string{"empty": "", "comments": "# a graph\n# with no edges\n"} {
		in := filepath.Join(t.TempDir(), name+".txt")
		if err := os.WriteFile(in, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, strategy := range []string{"2D", "auto"} {
			for _, e := range algorithms.Served() {
				alg := e.Name
				err := cmdRun([]string{"-in", in, "-alg", alg, "-strategy", strategy, "-parts", "4"})
				if alg != "sssp" {
					if err != nil {
						t.Errorf("%s input, -alg %s -strategy %s: %v", name, alg, strategy, err)
					}
					continue
				}
				if err == nil || !strings.Contains(err.Error(), "sssp needs a non-empty graph") {
					t.Errorf("%s input, -alg sssp -strategy %s: error %v, want \"sssp needs a non-empty graph\"", name, strategy, err)
				}
			}
		}
	}
}

// TestRunPrintsTheServedSummary: `cutfit run` prints the headline the server
// would report, from the same summarizer — every algorithm `cutfit advise`
// and /v1/run accept, dynamicpr included — and a ring, on which every rank
// ties, lists its top ranks by vertex ID as the server orders them.
func TestRunPrintsTheServedSummary(t *testing.T) {
	const n = 30
	var text strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&text, "%d %d\n", i, (i+1)%n)
	}
	in := filepath.Join(t.TempDir(), "ring.txt")
	if err := os.WriteFile(in, []byte(text.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"pagerank":  "top ranks: 0=1.000 1=1.000 2=1.000 3=1.000 4=1.000\n",
		"dynamicpr": "top ranks: 0=",
		"cc":        "components: 1 (converged=true)\n",
		"triangles": "triangles: 0\n",
		"sssp":      "sssp: landmark 0 reached from 30/30 vertices\n",
	}
	for _, e := range algorithms.Served() {
		stdout := os.Stdout
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = w
		runErr := cmdRun([]string{"-in", in, "-alg", e.Name, "-strategy", "2D", "-parts", "4", "-iters", "40"})
		os.Stdout = stdout
		w.Close()
		out, _ := io.ReadAll(r)
		r.Close()
		if runErr != nil {
			t.Errorf("-alg %s: %v", e.Name, runErr)
			continue
		}
		if w, ok := want[e.Name]; !ok || !strings.Contains(string(out), w) {
			t.Errorf("-alg %s printed\n%s\nwant a line with %q", e.Name, out, w)
		}
	}
}
