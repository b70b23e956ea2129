// Command benchmark is the cutfit benchmark defined by BENCHMARK.json: five
// workloads, four end-to-end metrics every workload reports, and a traced
// pass that measures every layer from outside. See README.md.
//
// It is started through run.sh, which builds it next to cutfitd and
// cutfit-worker in .bench_build/bin and runs it from this directory.
//
//	run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0   one pass (the driver's form)
//	run.sh [-seed n] [-workload name]                             both passes of every workload
//	run.sh -agree                                                 two sets on one build, compared
//	run.sh -spec                                                  print BENCHMARK.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	workload := flag.String("workload", "", "run one workload (with -trace: one pass of it); empty runs every workload")
	seed := flag.Uint64("seed", defaultSeed, "seed of every generated input")
	seconds := flag.Float64("seconds", runSeconds, "length of the timed window")
	trace := flag.String("trace", "", "0: the untraced end-to-end pass, 1: the traced per-layer pass; empty runs both")
	agree := flag.Bool("agree", false, "run two sets on the same build and fail if their medians disagree beyond the bounds")
	spec := flag.Bool("spec", false, "print BENCHMARK.json and exit")
	flag.Parse()

	if *spec {
		doc, err := benchmarkJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(doc)
		return
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	// run.sh builds the daemons beside this binary and starts it in the
	// benchmark's directory; traces and logs go to ./out.
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	binDir := filepath.Dir(self)
	if _, err := os.Stat(filepath.Join(binDir, "cutfitd")); err != nil {
		fatal(fmt.Errorf("no cutfitd beside %s: start the benchmark through benchmark/run.sh, which builds it", self))
	}
	outDir, err := filepath.Abs("out")
	if err != nil {
		fatal(err)
	}

	// Daemons must not outlive an interrupted benchmark.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		killAllProcs()
		os.Exit(130)
	}()

	e := &env{workload: *workload, seed: *seed, seconds: *seconds, binDir: binDir, outDir: outDir}
	if *workload != "" && *trace != "" && !*agree {
		// One pass in this process: the form the regression driver uses.
		switch *trace {
		case "0":
		case "1":
			e.trace = true
		default:
			fatal(fmt.Errorf("-trace must be 0 or 1"))
		}
		res, err := runPass(context.Background(), e, os.Stdout)
		killAllProcs()
		if err != nil {
			fatal(err)
		}
		if !res.Correct {
			os.Exit(1)
		}
		return
	}
	if err := runSuite(self, e, *agree); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	killAllProcs()
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
