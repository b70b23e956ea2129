package main

// What `cutfit paper` draws for humans and downstream tools: ASCII scatter
// plots of the paper's correlation figures (readable in a terminal, like the
// paper's Figures 3–6), degree histograms (Figure 1), and CSV export for
// external plotting.

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// plotPoint is one (x, y) sample with an optional series label.
type plotPoint struct {
	X, Y   float64
	Series string
}

// scatterConfig controls ASCII scatter rendering.
type scatterConfig struct {
	Width, Height int // plot area in characters; defaults 64×20
	Title         string
	XLabel        string
	YLabel        string
	// LogX / LogY plot the decimal logarithm of the axis (values must be
	// positive; non-positive values are dropped).
	LogX, LogY bool
}

// seriesGlyphs assigns stable glyphs to series in first-appearance order.
var seriesGlyphs = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&', '~', '^'}

// writeScatter renders an ASCII scatter plot of the points to w.
func writeScatter(w io.Writer, points []plotPoint, cfg scatterConfig) error {
	width, height := cfg.Width, cfg.Height
	if width <= 0 {
		width = 64
	}
	if height <= 0 {
		height = 20
	}
	tx := func(v float64) (float64, bool) { return v, true }
	if cfg.LogX {
		tx = logTransform
	}
	ty := func(v float64) (float64, bool) { return v, true }
	if cfg.LogY {
		ty = logTransform
	}

	type xyg struct {
		x, y float64
		g    byte
	}
	glyphOf := map[string]byte{}
	var data []xyg
	for _, p := range points {
		x, okx := tx(p.X)
		y, oky := ty(p.Y)
		if !okx || !oky {
			continue
		}
		gl, ok := glyphOf[p.Series]
		if !ok {
			gl = seriesGlyphs[len(glyphOf)%len(seriesGlyphs)]
			glyphOf[p.Series] = gl
		}
		data = append(data, xyg{x, y, gl})
	}
	if len(data) == 0 {
		return fmt.Errorf("no plottable points")
	}
	minX, maxX := data[0].x, data[0].x
	minY, maxY := data[0].y, data[0].y
	for _, d := range data[1:] {
		minX = math.Min(minX, d.x)
		maxX = math.Max(maxX, d.x)
		minY = math.Min(minY, d.y)
		maxY = math.Max(maxY, d.y)
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for _, d := range data {
		col := int((d.x - minX) / (maxX - minX) * float64(width-1))
		row := int((d.y - minY) / (maxY - minY) * float64(height-1))
		r := height - 1 - row // y grows upward
		if grid[r][col] != ' ' && grid[r][col] != d.g {
			grid[r][col] = '?' // collision of different series
		} else {
			grid[r][col] = d.g
		}
	}

	if cfg.Title != "" {
		if _, err := fmt.Fprintln(w, cfg.Title); err != nil {
			return err
		}
	}
	yl := cfg.YLabel
	if cfg.LogY {
		yl = "log10(" + yl + ")"
	}
	if yl != "" {
		if _, err := fmt.Fprintf(w, "%s\n", yl); err != nil {
			return err
		}
	}
	for r, line := range grid {
		var label string
		switch r {
		case 0:
			label = formatTick(maxY)
		case height - 1:
			label = formatTick(minY)
		}
		if _, err := fmt.Fprintf(w, "%10s |%s\n", label, line); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%10s +%s\n", "", strings.Repeat("-", width)); err != nil {
		return err
	}
	xl := cfg.XLabel
	if cfg.LogX {
		xl = "log10(" + xl + ")"
	}
	if _, err := fmt.Fprintf(w, "%10s  %-*s%s\n", formatTick(minX), width-len(formatTick(maxX)), xl, formatTick(maxX)); err != nil {
		return err
	}
	// Legend in first-appearance order.
	if len(glyphOf) > 1 || (len(glyphOf) == 1 && firstKey(glyphOf) != "") {
		var legend []string
		seen := map[string]bool{}
		for _, p := range points {
			if seen[p.Series] {
				continue
			}
			seen[p.Series] = true
			legend = append(legend, fmt.Sprintf("%c=%s", glyphOf[p.Series], p.Series))
		}
		if _, err := fmt.Fprintln(w, "legend:", strings.Join(legend, "  ")); err != nil {
			return err
		}
	}
	return nil
}

func logTransform(v float64) (float64, bool) {
	if v <= 0 {
		return 0, false
	}
	return math.Log10(v), true
}

func formatTick(v float64) string {
	av := math.Abs(v)
	switch {
	case av != 0 && (av < 0.01 || av >= 1e6):
		return strconv.FormatFloat(v, 'e', 1, 64)
	case av >= 100:
		return strconv.FormatFloat(v, 'f', 0, 64)
	default:
		return strconv.FormatFloat(v, 'f', 2, 64)
	}
}

func firstKey(m map[string]byte) string {
	for k := range m {
		return k
	}
	return ""
}

// writeCSV writes points as "series,x,y" rows with a header.
func writeCSV(w io.Writer, points []plotPoint, xName, yName string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"series", xName, yName}); err != nil {
		return err
	}
	for _, p := range points {
		rec := []string{
			p.Series,
			strconv.FormatFloat(p.X, 'g', -1, 64),
			strconv.FormatFloat(p.Y, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeHistogram renders a horizontal ASCII bar chart of (label, count) pairs,
// scaled to barWidth characters.
func writeHistogram(w io.Writer, labels []string, counts []int64, barWidth int) error {
	if len(labels) != len(counts) {
		return fmt.Errorf("%d labels for %d counts", len(labels), len(counts))
	}
	if barWidth <= 0 {
		barWidth = 50
	}
	var max int64
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		max = 1
	}
	labelWidth := 0
	for _, l := range labels {
		if len(l) > labelWidth {
			labelWidth = len(l)
		}
	}
	for i, l := range labels {
		n := int(float64(counts[i]) / float64(max) * float64(barWidth))
		if counts[i] > 0 && n == 0 {
			n = 1
		}
		if _, err := fmt.Fprintf(w, "%-*s |%s %d\n", labelWidth, l, strings.Repeat("#", n), counts[i]); err != nil {
			return err
		}
	}
	return nil
}
