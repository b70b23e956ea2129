// Command cutfit is the umbrella CLI for the Cut-to-Fit library. It works
// on edge-list files (SNAP text format) or on the built-in dataset analogs.
//
// Subcommands:
//
//	cutfit generate -dataset orkut -out orkut.txt
//	    Write an analog dataset as a text edge list.
//
//	cutfit metrics -in graph.txt -strategy 2D -parts 128 [-json]
//	    Partition a graph (one assignment pass) and print the §3.1
//	    metrics. Strategies include the extension partitioners Range and
//	    Hybrid[:<threshold>]. -json emits the exact MetricsReport encoding
//	    the cutfitd server responds with, so CLI output and server
//	    responses are interchangeable (the advise subcommand's -json does
//	    the same with AdviseReport).
//
//	cutfit run -in graph.txt -alg pagerank -strategy 2D -parts 128
//	    Execute an algorithm on the partitioned graph and print the
//	    simulated cluster time breakdown. -strategy auto empirically
//	    selects the best strategy for -alg and runs the winner from its
//	    already-computed assignment.
//
//	cutfit advise -in graph.txt -alg pagerank -parts 128 [-measure]
//	    Recommend a partitioning strategy for the computation; with
//	    -measure, empirically rank all strategies by the predictive metric.
//
//	cutfit snapshot -in graph.txt -strategies 2D,SC -parts 128 -out warm.snap
//	    Partition the graph under each strategy (assignment, metrics and
//	    engine topology) and persist the warmed artifact cache as one
//	    versioned, CRC-checked snapshot — the same format cutfitd's
//	    -data-dir warm start consumes.
//
//	cutfit restore -in warm.snap
//	    Decode and fully validate a snapshot, then report its graphs and
//	    restored cache contents. A non-zero exit means the snapshot is
//	    corrupt or from an incompatible format version.
//
//	cutfit paper <table1|fig1|fig2|tables|figure|infra|all> [flags]
//	    Regenerate the paper's evidence from the dataset analogs: Table 1,
//	    Figures 1 and 2, Tables 2 and 3 (-parts 128 or 256), Figures 3–6
//	    and the §4 infrastructure experiment, or all six in that order. The
//	    defaults are the paper's grid; -dataset and -strategies restrict it.
//	    Every number is simulated from deterministic counts.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"cutfit"
	"cutfit/internal/algorithms"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "metrics":
		err = cmdMetrics(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "advise":
		err = cmdAdvise(os.Args[2:])
	case "snapshot":
		err = cmdSnapshot(os.Args[2:])
	case "restore":
		err = cmdRestore(os.Args[2:])
	case "paper":
		err = cmdPaper(os.Stdout, os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "cutfit: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cutfit:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: cutfit <generate|metrics|run|advise|snapshot|restore|paper> [flags]
  generate -dataset <name> -out <file>
  metrics  -in <file>|-dataset <name> -strategy <name> -parts <n> [-json]
  run      -in <file>|-dataset <name> -alg <name> -strategy <name> -parts <n>
  advise   -in <file>|-dataset <name> -alg <name> -parts <n> [-measure] [-json]
  snapshot -in <file>|-dataset <name> -strategies <csv> -parts <n> -out <file.snap> [-name <label>]
  restore  -in <file.snap>
  paper    <table1|fig1|fig2|tables|figure|infra|all> [-dataset <name>] [-strategies <csv>] [-parts <n>]
           [-alg <name>] [-metric <name>] [-winners] [-plot] [-csv <prefix>]`)
}

// loadGraph reads a graph from -in or builds a named analog dataset.
func loadGraph(in, dataset string) (*cutfit.Graph, error) {
	switch {
	case in != "" && dataset != "":
		return nil, fmt.Errorf("use either -in or -dataset, not both")
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return cutfit.LoadEdgeList(f)
	case dataset != "":
		spec, err := cutfit.DatasetByName(dataset)
		if err != nil {
			return nil, err
		}
		return spec.BuildCached()
	default:
		return nil, fmt.Errorf("one of -in or -dataset is required")
	}
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	dataset := fs.String("dataset", "", "analog dataset name")
	out := fs.String("out", "", "output edge-list file")
	fs.Parse(args)
	if *dataset == "" || *out == "" {
		return fmt.Errorf("generate requires -dataset and -out")
	}
	spec, err := cutfit.DatasetByName(*dataset)
	if err != nil {
		return err
	}
	g, err := spec.BuildCached()
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := g.WriteEdgeList(f); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d vertices, %d edges\n", *out, g.NumVertices(), g.NumEdges())
	return nil
}

// strategyFlagHelp documents every name StrategyByName resolves, shared by
// the -strategy flags of the metrics and run subcommands.
const strategyFlagHelp = "partitioning strategy: RVC, 1D, 2D, CRVC, SC, DC, Greedy, HDRF, Range, Hybrid or Hybrid:<in-degree threshold>"

// algFlagHelp lists the served-algorithm table's names, shared by the -alg
// flags of the run and advise subcommands.
var algFlagHelp = "algorithm: " + algorithms.NameList(algorithms.Served(), "or")

// graphLabel names the graph in JSON reports: the dataset name or the
// input path.
func graphLabel(in, dataset string) string {
	if dataset != "" {
		return dataset
	}
	return in
}

// writeJSON emits a report in the exact encoding cutfitd serves, so CLI
// output and server responses are interchangeable for downstream tooling.
func writeJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func cmdMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	in := fs.String("in", "", "input edge-list file")
	dataset := fs.String("dataset", "", "analog dataset name")
	strategy := fs.String("strategy", "2D", strategyFlagHelp)
	parts := fs.Int("parts", 128, "number of partitions")
	asJSON := fs.Bool("json", false, "emit the cutfitd MetricsReport JSON encoding instead of text")
	fs.Parse(args)
	g, err := loadGraph(*in, *dataset)
	if err != nil {
		return err
	}
	s, err := cutfit.StrategyByName(*strategy)
	if err != nil {
		return err
	}
	m, err := cutfit.Measure(g, s, *parts)
	if err != nil {
		return err
	}
	if *asJSON {
		rep := cutfit.NewMetricsReport(s.Name(), *parts, m)
		rep.Graph = graphLabel(*in, *dataset)
		return writeJSON(rep)
	}
	fmt.Printf("strategy=%s parts=%d\n", s.Name(), *parts)
	fmt.Printf("  Balance    %.4f\n", m.Balance)
	fmt.Printf("  NonCut     %d\n", m.NonCut)
	fmt.Printf("  Cut        %d\n", m.Cut)
	fmt.Printf("  CommCost   %d\n", m.CommCost)
	fmt.Printf("  PartStDev  %.2f\n", m.PartStDev)
	fmt.Printf("  Replication factor %.3f\n", m.ReplicationFactor)
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	in := fs.String("in", "", "input edge-list file")
	dataset := fs.String("dataset", "", "analog dataset name")
	alg := fs.String("alg", "pagerank", algFlagHelp)
	strategy := fs.String("strategy", "2D", strategyFlagHelp+", or \"auto\" to select empirically for -alg")
	parts := fs.Int("parts", 128, "number of partitions")
	iters := fs.Int("iters", 10, "iteration cap for the iterative algorithms (0 = to convergence where the algorithm allows)")
	fs.Parse(args)
	g, err := loadGraph(*in, *dataset)
	if err != nil {
		return err
	}
	// The server's run path, through a caching session: with "auto" every
	// candidate is assigned once and ranked by the algorithm's predictive
	// metric, and the winner is built from its cached assignment — no
	// re-partitioning either way.
	se := cutfit.NewSession(cutfit.SessionOptions{})
	var s cutfit.Strategy
	if *strategy == "auto" {
		profile, err := cutfit.ProfileFor(*alg)
		if err != nil {
			return err
		}
		sel, err := se.Select(g, cutfit.Strategies(), *parts, profile)
		if err != nil {
			return err
		}
		fmt.Printf("auto-selected strategy %s (minimizes %s)\n", sel.Strategy.Name(), profile.Metric)
		s = sel.Strategy
	} else if s, err = cutfit.StrategyByName(*strategy); err != nil {
		return err
	}
	rep, err := se.Run(context.Background(), g, s, *parts, *alg, *iters)
	if err != nil {
		return err
	}
	fmt.Println(rep.Text)
	fmt.Printf("supersteps=%d broadcastMsgs=%d reduceMsgs=%d\n", rep.Supersteps, rep.BroadcastMsgs, rep.ReduceMsgs)
	fmt.Println("simulated cluster time:", rep.Sim)
	return nil
}

// cmdSnapshot warms a session — one assignment pass, one metric set and
// one built topology per strategy — and persists the whole cache.
func cmdSnapshot(args []string) error {
	fs := flag.NewFlagSet("snapshot", flag.ExitOnError)
	in := fs.String("in", "", "input edge-list file")
	dataset := fs.String("dataset", "", "analog dataset name")
	strategies := fs.String("strategies", "2D", "comma-separated strategies to warm (any names StrategyByName accepts)")
	parts := fs.Int("parts", 128, "number of partitions")
	out := fs.String("out", "", "output snapshot file")
	name := fs.String("name", "", "graph label recorded in the snapshot (default: dataset name or input path)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("snapshot requires -out")
	}
	g, err := loadGraph(*in, *dataset)
	if err != nil {
		return err
	}
	strats, err := cutfit.StrategiesByNames(*strategies)
	if err != nil {
		return err
	}
	se := cutfit.NewSession(cutfit.SessionOptions{})
	for _, s := range strats {
		if _, err := se.Measure(g, s, *parts); err != nil {
			return err
		}
		if _, err := se.Partition(g, s, *parts); err != nil {
			return err
		}
	}
	label := *name
	if label == "" {
		label = graphLabel(*in, *dataset)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	sum, err := se.SnapshotNamed(f, map[string]*cutfit.Graph{label: g})
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d graphs, %d artifacts, %d bytes\n", *out, sum.Graphs, sum.Artifacts, sum.Bytes)
	return nil
}

// cmdRestore decodes and validates a snapshot, reporting its contents.
func cmdRestore(args []string) error {
	fs := flag.NewFlagSet("restore", flag.ExitOnError)
	in := fs.String("in", "", "input snapshot file")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("restore requires -in")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	se, named, err := cutfit.RestoreSession(f, cutfit.SessionOptions{})
	if err != nil {
		return err
	}
	stats := se.CacheStats()
	fmt.Printf("%s: %d named graphs, %d cached artifacts (%d bytes)\n", *in, len(named), stats.Entries, stats.Bytes)
	names := make([]string, 0, len(named))
	for name := range named {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := named[name]
		fmt.Printf("  %-20s %d vertices, %d edges\n", name, g.NumVertices(), g.NumEdges())
	}
	return nil
}

func cmdAdvise(args []string) error {
	fs := flag.NewFlagSet("advise", flag.ExitOnError)
	in := fs.String("in", "", "input edge-list file")
	dataset := fs.String("dataset", "", "analog dataset name")
	alg := fs.String("alg", "pagerank", algFlagHelp)
	parts := fs.Int("parts", 128, "number of partitions")
	measure := fs.Bool("measure", false, "empirically measure and rank all strategies")
	asJSON := fs.Bool("json", false, "emit the cutfitd AdviseReport JSON encoding instead of text")
	fs.Parse(args)
	g, err := loadGraph(*in, *dataset)
	if err != nil {
		return err
	}
	profile, err := cutfit.ProfileFor(*alg)
	if err != nil {
		return err
	}
	rec := (&cutfit.Session{}).Advise(g, profile, *parts)
	rep := cutfit.NewAdviseReport(*alg, *parts, rec)
	rep.Graph = graphLabel(*in, *dataset)
	if *measure {
		sel, err := cutfit.Select(g, cutfit.Strategies(), *parts, profile)
		if err != nil {
			return err
		}
		if rep.Ranking, err = cutfit.RankFromSelection(sel, profile.Metric); err != nil {
			return err
		}
	}
	if *asJSON {
		return writeJSON(rep)
	}
	fmt.Printf("recommended strategy: %s (optimize %s)\n", rep.Strategy, rep.Metric)
	fmt.Printf("reason: %s\n", rep.Reason)
	if rep.Ranking == nil {
		return nil
	}
	fmt.Printf("\nempirical ranking by %s at %d partitions:\n", profile.Metric, *parts)
	for _, r := range rep.Ranking {
		marker := " "
		if r.Selected {
			marker = "*"
		}
		fmt.Printf("  %s %-6s %s = %.0f\n", marker, r.Strategy, profile.Metric, r.Value)
	}
	return nil
}
