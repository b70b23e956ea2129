package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
)

// agreeRuns is how many untraced runs of each workload one set of -agree
// holds. The sets are compared by their medians, the way the regression
// driver compares a change with its parent (it takes ten), and their runs
// alternate, so that a slow spell of the host falls on both sets alike: one
// run against one run, or one set after the other, mostly measures the host
// (README.md, "Calibration").
const agreeRuns = 3

// setResults is one set: per workload, the result line of each untraced run
// and of the traced pass.
type setResults struct {
	untraced map[string][]*resultLine
	traced   map[string]*resultLine
}

// runSuite runs both passes of every selected workload, each pass in its
// own child process (clean heap, own VmHWM). With agree it collects two sets
// on the same build, agreeRuns untraced runs per workload in each, and
// compares them.
func runSuite(self string, e *env, agree bool) error {
	var names []string
	for _, w := range workloadDefs {
		if e.workload == "" || e.workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("unknown workload %q", e.workload)
	}
	sets, runs := make([]*setResults, 1), 1
	if agree {
		sets, runs = make([]*setResults, 2), agreeRuns
	}
	for i := range sets {
		sets[i] = &setResults{untraced: make(map[string][]*resultLine), traced: make(map[string]*resultLine)}
	}
	for _, name := range names {
		for i := 0; i < runs; i++ {
			for k := range sets {
				s := sets[(i+k)%len(sets)] // alternate which set goes first
				res, err := runChild(self, e, name, false)
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				s.untraced[name] = append(s.untraced[name], res)
			}
		}
		for _, s := range sets {
			res, err := runChild(self, e, name, true)
			if err != nil {
				return fmt.Errorf("%s (traced): %w", name, err)
			}
			s.traced[name] = res
		}
	}
	if !agree {
		return nil
	}
	return compareSets(os.Stdout, names, sets[0], sets[1])
}

// runChild runs one pass in a child process, streaming its report through,
// and returns its result line.
func runChild(self string, e *env, name string, trace bool) (*resultLine, error) {
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(e.seed, 10),
		"-seconds", strconv.FormatFloat(e.seconds, 'g', -1, 64), "-trace", t)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
	cmd.Stderr = os.Stderr
	// A pass kills its own daemons on SIGTERM.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%d of %d results failed their check", res.Failed, res.Attempted)
	}
	return &res, runErr
}

func medianOf(runs []*resultLine, metric string) float64 {
	vals := make([]float64, len(runs))
	for i, r := range runs {
		vals[i] = r.Metrics[metric].Value
	}
	return median(vals)
}

// compareSets prints, for every end-to-end cell, both sets' medians, their
// relative difference and the bound, and checks that the exact counts are
// identical. It returns an error if any cell disagrees.
func compareSets(w io.Writer, names []string, a, b *setResults) error {
	bad := 0
	fmt.Fprintf(w, "\n== agreement of two sets on the same build (medians of %d alternating runs) ==\n", agreeRuns)
	fmt.Fprintf(w, "%-14s %-20s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "rel.diff", "bound")
	for _, name := range names {
		for _, d := range endToEndDefs {
			va, vb := medianOf(a.untraced[name], d.Name), medianOf(b.untraced[name], d.Name)
			// The two sets are the same code, so whichever reads worse, the
			// difference is the benchmark's own noise: it must fit the bound
			// in either direction.
			diff := math.Abs(vb-va) / math.Min(math.Abs(va), math.Abs(vb))
			mark := ""
			if diff > d.Bound {
				mark = "  DISAGREE"
				bad++
			}
			fmt.Fprintf(w, "%-14s %-20s %14.6g %14.6g %8.1f%% %6.0f%%%s\n", name, d.Name, va, vb, diff*100, d.Bound*100, mark)
		}
		ta, tb := a.traced[name], b.traced[name]
		for _, c := range exactCounts() {
			if va, vb := ta.Metrics[c].Value, tb.Metrics[c].Value; va != vb {
				fmt.Fprintf(w, "%-14s %-32s %14.6g %14.6g  exact count differs  DISAGREE\n", name, c, va, vb)
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d cells disagree between two sets of the same build", bad)
	}
	fmt.Fprintln(w, "all end-to-end cells within their bounds; exact counts identical")
	return nil
}
