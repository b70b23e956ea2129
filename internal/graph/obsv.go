package graph

import "cutfit/internal/obsv"

// Live metric series for the compressed block-edge tier, registered on
// the default registry at package init. Process-wide aggregates across
// every BlockStore in the process.
var (
	mScratchGets = obsv.Default.Counter("cutfit_blockstore_scratch_gets_total",
		"Decode-scratch checkouts: one per block read (a scan, a range, a batch of positions).")
	mScratchAllocs = obsv.Default.Counter("cutfit_blockstore_scratch_allocs_total",
		"Checkouts the pool could not serve from a recycled buffer (fresh allocations).")
)

// getScratch checks a decode scratch out of the pool, counting the
// checkout; the pool's New hook counts the allocations that missed, so
// gets - allocs = recycles.
func getScratch() *blockScratch {
	mScratchGets.Inc()
	return blockScratchPool.Get().(*blockScratch)
}
