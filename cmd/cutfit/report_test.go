package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestScatterBasic(t *testing.T) {
	points := []plotPoint{
		{X: 1, Y: 1, Series: "a"},
		{X: 2, Y: 4, Series: "a"},
		{X: 3, Y: 9, Series: "b"},
	}
	var buf bytes.Buffer
	err := writeScatter(&buf, points, scatterConfig{
		Width: 30, Height: 10, Title: "squares", XLabel: "x", YLabel: "y",
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "squares") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Fatalf("missing series glyphs:\n%s", out)
	}
	if !strings.Contains(out, "legend:") {
		t.Fatal("missing legend")
	}
	// Axis ticks for min and max y.
	if !strings.Contains(out, "9.00") || !strings.Contains(out, "1.00") {
		t.Fatalf("missing y ticks:\n%s", out)
	}
}

func TestScatterLogAxes(t *testing.T) {
	points := []plotPoint{
		{X: 10, Y: 100, Series: "s"},
		{X: 1000, Y: 1e6, Series: "s"},
		{X: -5, Y: 3, Series: "s"}, // dropped under LogX
	}
	var buf bytes.Buffer
	err := writeScatter(&buf, points, scatterConfig{LogX: true, LogY: true, XLabel: "m", YLabel: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "log10(m)") || !strings.Contains(buf.String(), "log10(t)") {
		t.Fatal("missing log axis labels")
	}
}

func TestScatterNoPoints(t *testing.T) {
	var buf bytes.Buffer
	if err := writeScatter(&buf, nil, scatterConfig{}); err == nil {
		t.Fatal("empty input should error")
	}
	// All points dropped by log transform.
	if err := writeScatter(&buf, []plotPoint{{X: -1, Y: 1}}, scatterConfig{LogX: true}); err == nil {
		t.Fatal("all-dropped input should error")
	}
}

func TestScatterDegenerateRange(t *testing.T) {
	// Identical points must not divide by zero.
	points := []plotPoint{{X: 5, Y: 5}, {X: 5, Y: 5}}
	var buf bytes.Buffer
	if err := writeScatter(&buf, points, scatterConfig{Width: 10, Height: 4}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteCSV(t *testing.T) {
	points := []plotPoint{
		{X: 1.5, Y: 2.5, Series: "alpha"},
		{X: 3, Y: 4, Series: "beta,comma"},
	}
	var buf bytes.Buffer
	if err := writeCSV(&buf, points, "metric", "secs"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != "series,metric,secs" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[2], `"beta,comma"`) {
		t.Fatalf("comma in series not quoted: %q", lines[2])
	}
}

func TestHistogram(t *testing.T) {
	var buf bytes.Buffer
	err := writeHistogram(&buf, []string{"[0..0]", "[1..1]", "[2..3]"}, []int64{10, 5, 0}, 20)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, strings.Repeat("#", 20)) {
		t.Fatalf("max bar not full width:\n%s", out)
	}
	if strings.Count(out, "\n") != 3 {
		t.Fatalf("rows = %d", strings.Count(out, "\n"))
	}
}

func TestHistogramErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := writeHistogram(&buf, []string{"a"}, []int64{1, 2}, 10); err == nil {
		t.Fatal("length mismatch should error")
	}
}

func TestHistogramAllZero(t *testing.T) {
	var buf bytes.Buffer
	if err := writeHistogram(&buf, []string{"a"}, []int64{0}, 10); err != nil {
		t.Fatal(err)
	}
}
