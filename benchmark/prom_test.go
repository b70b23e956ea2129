package main

import (
	"strings"
	"testing"
)

const scrapeBefore = `# HELP cutfit_dist_runs_total Runs dispatched to the cluster, by outcome mode (distributed|fallback).
# TYPE cutfit_dist_runs_total counter
cutfit_dist_runs_total{mode="distributed"} 3
# TYPE cutfit_dist_barrier_seconds histogram
cutfit_dist_barrier_seconds_bucket{le="0.005"} 10
cutfit_dist_barrier_seconds_bucket{le="+Inf"} 47
cutfit_dist_barrier_seconds_sum 0.5
cutfit_dist_barrier_seconds_count 47
cutfit_pregel_scratch_reused_total 8
`

const scrapeAfter = `cutfit_dist_runs_total{mode="distributed"} 9
cutfit_dist_runs_total{mode="fallback"} 1
cutfit_dist_bytes_total{direction="broadcast"} 1000
cutfit_dist_bytes_total{direction="reduce"} 250
cutfit_dist_barrier_seconds_sum 1.25
cutfit_dist_barrier_seconds_count 94
cutfit_pregel_scratch_reused_total 20
cutfit_http_requests_total{endpoint="POST /v1/run",code="200"} 12
`

func TestParsePromAndDelta(t *testing.T) {
	before, err := parseProm(strings.NewReader(scrapeBefore))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := before[`cutfit_dist_barrier_seconds_bucket{le="0.005"}`]; ok {
		t.Error("bucket series should be dropped")
	}
	if got := before[`cutfit_dist_runs_total{mode="distributed"}`]; got != 3 {
		t.Errorf("labelled counter = %g, want 3", got)
	}
	after, err := parseProm(strings.NewReader(scrapeAfter))
	if err != nil {
		t.Fatal(err)
	}
	d := after.delta(before)
	checks := []struct {
		name   string
		labels []string
		want   float64
	}{
		{"cutfit_dist_runs_total", []string{`mode="distributed"`}, 6},
		// A series that first appears in the second scrape counts from zero.
		{"cutfit_dist_runs_total", []string{`mode="fallback"`}, 1},
		{"cutfit_dist_runs_total", nil, 7},
		{"cutfit_dist_bytes_total", nil, 1250},
		{"cutfit_dist_barrier_seconds_count", nil, 47},
		{"cutfit_dist_barrier_seconds_sum", nil, 0.75},
		{"cutfit_pregel_scratch_reused_total", nil, 12},
		// A label value containing a space must not split the line.
		{"cutfit_http_requests_total", []string{`code="200"`}, 12},
		// A family name that is a prefix of another must not match it.
		{"cutfit_dist_barrier_seconds", nil, 0},
		{"cutfit_absent_total", nil, 0},
	}
	for _, c := range checks {
		if got := d.family(c.name, c.labels...); got != c.want {
			t.Errorf("delta family %s%v = %g, want %g", c.name, c.labels, got, c.want)
		}
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"novalue\n", "cutfit_x notanumber\n"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) succeeded", bad)
		}
	}
}
