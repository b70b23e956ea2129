package main

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"cutfit"
	"cutfit/internal/algorithms"
)

// TestAPIDocCoversRoutes keeps docs/API.md in sync with the daemon's
// routing table: every route the mux registers must appear in the doc
// as "METHOD /path". Adding an endpoint without documenting it fails
// here.
func TestAPIDocCoversRoutes(t *testing.T) {
	raw, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatalf("reading docs/API.md: %v", err)
	}
	doc := string(raw)
	for _, rt := range apiRoutes {
		if want := rt.method + " " + rt.path; !strings.Contains(doc, want) {
			t.Errorf("docs/API.md does not document the route %q", want)
		}
	}
}

// TestOperationsDocCoversMetrics keeps the docs/OPERATIONS.md metrics
// catalog in sync with the live registry, in both directions: every
// registered series must appear backticked in the doc, and every
// backticked cutfit_… series the doc names must exist in the registry.
// The test binary links the whole stack (store, engine, block tier, the
// daemon's HTTP series), so cutfit.MetricNames() here is the full set a
// running daemon exports.
func TestOperationsDocCoversMetrics(t *testing.T) {
	raw, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatalf("reading docs/OPERATIONS.md: %v", err)
	}
	doc := string(raw)

	registered := make(map[string]bool)
	for _, name := range cutfit.MetricNames() {
		registered[name] = true
		if !strings.Contains(doc, "`"+name+"`") && !strings.Contains(doc, "`"+name+"{") {
			t.Errorf("docs/OPERATIONS.md catalog is missing the registered series %q", name)
		}
	}
	if len(registered) < 15 {
		t.Fatalf("registry exports %d families, want ≥ 15 — did a layer's series not register?", len(registered))
	}

	// Backward direction: any `cutfit_…` token the doc claims (with or
	// without a {label} suffix inside the backticks) must be real.
	re := regexp.MustCompile("`(cutfit_[a-z0-9_]+)")
	for _, m := range re.FindAllStringSubmatch(doc, -1) {
		if !registered[m[1]] {
			t.Errorf("docs/OPERATIONS.md names %q, which is not in the registry", m[1])
		}
	}
}

// TestDocsNameServedAlgorithms keeps the documents that list algorithm names
// in step with the served-algorithm table: each carries the table's names —
// all of them, or the ones the cluster runs — as one backticked list in table
// order, so adding, removing or reordering an entry fails here until the
// sentence is rewritten.
func TestDocsNameServedAlgorithms(t *testing.T) {
	list := func(entries []*algorithms.Entry, conj string) string {
		var b strings.Builder
		for i, e := range entries {
			switch {
			case i > 0 && i == len(entries)-1:
				b.WriteString(" " + conj + " ")
			case i > 0:
				b.WriteString(", ")
			}
			b.WriteString("`" + e.Name + "`")
		}
		return b.String()
	}
	served, cluster := algorithms.Served(), algorithms.ClusterServed()
	for _, tc := range []struct {
		file, phrase string
		times        int
	}{
		{"docs/API.md", "`alg` is one of " + list(served, "or"), 2}, // /v1/advise and /v1/run
		{"docs/DISTRIBUTED.md", "`algorithm` is one of " + list(cluster, "or"), 1},
		{"docs/OPERATIONS.md", "dispatches " + list(cluster, "and") + " runs", 1},
		{"internal/README.md", "for " + list(served, "and"), 1},
	} {
		raw, err := os.ReadFile("../../" + tc.file)
		if err != nil {
			t.Fatal(err)
		}
		// The lists wrap with the prose around them.
		doc := strings.Join(strings.Fields(string(raw)), " ")
		if got := strings.Count(doc, tc.phrase); got < tc.times {
			t.Errorf("%s says %q %d times, want %d", tc.file, tc.phrase, got, tc.times)
		}
	}
}
