package algorithms

import (
	"strings"
	"testing"
)

// TestServedTableIsWellFormed: every entry can be found by its name and
// carries every column a layer may ask for; the cluster column is a subset;
// an unknown name is an error that lists the known ones.
func TestServedTableIsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Served() {
		if e.Name == "" || seen[e.Name] {
			t.Errorf("entry name %q empty or repeated", e.Name)
		}
		seen[e.Name] = true
		if got, err := Lookup(e.Name); err != nil || got != e {
			t.Errorf("Lookup(%q) = %v, %v", e.Name, got, err)
		}
		if e.Check == nil || e.Run == nil || e.Summarize == nil || e.Seq == nil {
			t.Errorf("%s: a column is missing: %+v", e.Name, e)
		}
		if e.Profile.Metric == "" {
			t.Errorf("%s has no advisor profile", e.Name)
		}
	}
	for _, e := range ClusterServed() {
		if !seen[e.Name] || e.Vertex == nil {
			t.Errorf("cluster entry %s is not a served entry with a Vertex", e.Name)
		}
	}
	_, err := Lookup("quicksort")
	if err == nil {
		t.Fatal("unknown algorithm resolved")
	}
	for name := range seen {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %s", err, name)
		}
	}
	if got, want := NameList(Served()[:3], "and"), "pagerank, dynamicpr and cc"; got != want {
		t.Errorf("NameList = %q, want %q", got, want)
	}
}
