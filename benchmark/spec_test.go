package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json is benchmarkJSON() written to a file; regenerate it with
// `bash benchmark/run.sh -spec > BENCHMARK.json` after changing spec.go.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want) {
		t.Error("BENCHMARK.json differs from the spec in spec.go; regenerate it with run.sh -spec")
	}
}

// The limits the regression driver places on names, units and counts.
func TestSpecStaysWithinTheContract(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.\-]{1,16}$`)
	seen := make(map[string]bool)
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is not a valid name", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloadDefs {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
		if _, ok := workloadSetups[w.Name]; !ok {
			t.Errorf("workload %s has no set-up function", w.Name)
		}
	}
	if n := len(endToEndDefs); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	hasSetup := false
	for _, m := range endToEndDefs {
		name("end-to-end", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == lower
			for _, o := range endToEndDefs {
				if o.Bound > m.Bound {
					t.Errorf("setup_s should carry the largest bound, %s has %g", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("end-to-end metrics lack setup_s in seconds, lower is better")
	}
	if n := len(perLayerDefs); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range perLayerDefs {
		name("per-layer", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, c := range exactCounts() {
		if !seen[c] {
			t.Errorf("exact count %s is not a per-layer metric", c)
		}
	}
}
