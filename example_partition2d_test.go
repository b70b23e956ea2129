package cutfit_test

import (
	"fmt"
	"math"

	"cutfit"
)

// ExampleEdgePartition2D checks the replication guarantee the paper cites
// for 2D partitioning: over N partitions a vertex has at most 2⌈√N⌉ copies,
// so the mean replication factor stays under that bound at every
// granularity.
func ExampleEdgePartition2D() {
	g := analog("youtube")
	se := cutfit.NewSession(cutfit.SessionOptions{})
	for _, parts := range []int{16, 64, 128, 256} {
		m, err := se.Measure(g, cutfit.EdgePartition2D(), parts)
		if err != nil {
			panic(err)
		}
		bound := 2 * int(math.Ceil(math.Sqrt(float64(parts))))
		fmt.Printf("%d partitions: replication %.2f, bound %d, within: %v\n",
			parts, m.ReplicationFactor, bound, m.ReplicationFactor <= float64(bound))
	}
	// Output:
	// 16 partitions: replication 4.67, bound 8, within: true
	// 64 partitions: replication 6.56, bound 16, within: true
	// 128 partitions: replication 7.47, bound 24, within: true
	// 256 partitions: replication 8.07, bound 32, within: true
}
