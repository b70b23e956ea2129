package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunOnEdgelessInput: `cutfit run` on a file with no edges — empty, or
// comments only — ends in a result or an error for every algorithm, under a
// fixed strategy and under auto-selection, never in a panic. sssp has no
// landmark to start from and must say so.
func TestRunOnEdgelessInput(t *testing.T) {
	for name, text := range map[string]string{"empty": "", "comments": "# a graph\n# with no edges\n"} {
		in := filepath.Join(t.TempDir(), name+".txt")
		if err := os.WriteFile(in, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, strategy := range []string{"2D", "auto"} {
			for _, alg := range []string{"pagerank", "cc", "triangles", "sssp"} {
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
