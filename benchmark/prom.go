package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promSample is one scrape of a Prometheus text exposition: full series
// name (family plus its {label="value"} set, verbatim) to value.
type promSample map[string]float64

// parseProm reads the text exposition format 0.0.4 as cutfitd and
// cutfit-worker write it: comment lines are skipped, every other line is
// `series value`. Histogram bucket series are dropped — the benchmark only
// reads _sum and _count.
func parseProm(r io.Reader) (promSample, error) {
	out := make(promSample)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value is the last space-separated field; label values may
		// themselves contain spaces.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("prom: malformed line %q", line)
		}
		series := strings.TrimSpace(line[:i])
		if strings.Contains(series, "_bucket{") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: value of %q: %w", series, err)
		}
		out[series] = v
	}
	return out, sc.Err()
}

// delta returns after − before per series; a series absent before counts
// from zero (labelled counters appear on first use).
func (after promSample) delta(before promSample) promSample {
	out := make(promSample, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// family sums every series of one family whose label set contains all of
// the given `label="value"` fragments.
func (p promSample) family(name string, labels ...string) float64 {
	var t float64
	for series, v := range p {
		fam, rest, _ := strings.Cut(series, "{")
		if fam != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				ok = false
				break
			}
		}
		if ok {
			t += v
		}
	}
	return t
}
