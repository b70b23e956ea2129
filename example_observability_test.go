package cutfit_test

import (
	"context"
	"fmt"
	"strings"

	"cutfit"
)

// ExampleMetricNames shows the serving observability surface: a Session
// doing real work feeds the process-wide metric registry, whose
// families can be enumerated (MetricNames) and scraped in Prometheus
// text format (WriteMetrics). cmd/cutfitd serves the same exposition
// under GET /metrics and layers per-endpoint request and admission
// series on top.
func ExampleMetricNames() {
	se := cutfit.NewSession(cutfit.SessionOptions{
		MaxCacheBytes: 64 << 20, // the store budget the gauges track
	})
	g, _ := cutfit.Datasets()[0].BuildCached()

	// One measure + one run: a store miss, then a hit on the cached
	// assignment, and a handful of engine supersteps.
	if _, err := se.Measure(g, cutfit.EdgePartition2D(), 8); err != nil {
		fmt.Println("measure:", err)
		return
	}
	if _, err := se.Run(context.Background(), g, cutfit.EdgePartition2D(), 8, "pagerank", 3); err != nil {
		fmt.Println("run:", err)
		return
	}

	// The registry now holds live series for every layer the request
	// crossed. The catalog in docs/OPERATIONS.md is tested against this
	// exact list.
	for _, name := range cutfit.MetricNames() {
		if strings.HasPrefix(name, "cutfit_store_") && strings.HasSuffix(name, "_total") {
			fmt.Println(name)
		}
	}

	// WriteMetrics renders all of them; the store section always
	// reports at least the miss that built the assignment.
	var buf strings.Builder
	if err := cutfit.WriteMetrics(&buf); err != nil {
		fmt.Println("write:", err)
		return
	}
	fmt.Println(strings.Contains(buf.String(), "# TYPE cutfit_store_misses_total counter"))

	// Output:
	// cutfit_store_delta_derived_total
	// cutfit_store_disk_hits_total
	// cutfit_store_evictions_total
	// cutfit_store_hits_total
	// cutfit_store_misses_total
	// cutfit_store_singleflight_waits_total
	// true
}
