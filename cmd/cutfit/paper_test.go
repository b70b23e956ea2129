package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// paperGrid restricts every artifact to one small analog and three
// strategies; the goldens under testdata/paper were printed, on this grid, by
// the commands `cutfit paper` replaced (characterize, partmetrics, runexp).
var paperGrid = []string{"-dataset", "youtube", "-strategies", "2D,DC,Hybrid:50", "-parts", "64", "-winners", "-plot"}

func paperOutput(t *testing.T, args ...string) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := cmdPaper(&out, args); err != nil {
		t.Fatalf("paper %s: %v", strings.Join(args, " "), err)
	}
	return out.Bytes()
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "paper", name))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestPaperGoldens: every artifact prints its golden byte for byte, and
// `paper all` prints the six in artifact order.
func TestPaperGoldens(t *testing.T) {
	var all []byte
	for _, a := range paperArtifacts {
		want := readGolden(t, a.name+".golden")
		if got := paperOutput(t, append([]string{a.name}, paperGrid...)...); !bytes.Equal(got, want) {
			t.Errorf("paper %s printed\n%s\nwant\n%s", a.name, got, want)
		}
		all = append(all, want...)
	}
	if got := paperOutput(t, append([]string{"all"}, paperGrid...)...); !bytes.Equal(got, all) {
		t.Errorf("paper all printed\n%s\nwant the six goldens in order", got)
	}
}

// TestPaperFigureCSV: -csv writes one file per configuration panel, with
// -metric overriding the algorithm's predictive metric.
func TestPaperFigureCSV(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "triangles")
	paperOutput(t, "figure", "-alg", "triangles", "-metric", "CommCost", "-dataset", "youtube", "-strategies", "2D,DC,Hybrid:50", "-csv", prefix)
	for _, cfg := range []string{"config-i", "config-ii"} {
		got, err := os.ReadFile(prefix + "." + cfg + ".csv")
		if err != nil {
			t.Fatal(err)
		}
		if want := readGolden(t, "triangles."+cfg+".csv"); !bytes.Equal(got, want) {
			t.Errorf("%s.csv is\n%s\nwant\n%s", cfg, got, want)
		}
	}
}

// TestPaperRejectsUnknownNames: a name nothing resolves is an error that says
// which, returned before anything runs or prints.
func TestPaperRejectsUnknownNames(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"table9"}, `unknown artifact "table9" (want table1, fig1, fig2, tables, figure, infra or all)`},
		{nil, `unknown artifact ""`},
		{[]string{"figure", "-alg", "sorting"}, `unknown algorithm "sorting"`},
		{[]string{"figure", "-alg", "dynamicpr"}, "the paper has no figure for dynamicpr"},
		{[]string{"figure", "-metric", "Speed"}, `unknown metric "Speed"`},
		{[]string{"all", "-dataset", "nowhere"}, `unknown dataset "nowhere"`},
		{[]string{"tables", "-strategies", "2D,4D"}, `unknown strategy "4D"`},
		{[]string{"figure", "-csv", "out"}, "-csv needs -alg"},
		{[]string{"table1", "extra"}, `unexpected argument "extra"`},
	} {
		var out bytes.Buffer
		err := cmdPaper(&out, c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("paper %q: error %v, want one containing %q", c.args, err, c.want)
		}
		if out.Len() > 0 {
			t.Errorf("paper %q printed %q before failing", c.args, out.String())
		}
	}
}
