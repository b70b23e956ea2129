package testutil

import (
	"runtime"
	"testing"
)

// SetGOMAXPROCS sets GOMAXPROCS to n until tb ends. Every fan-out in the
// library sizes itself by GOMAXPROCS when its call starts, so this is how a
// test runs a build, a run or a restore at a given worker count. GOMAXPROCS
// is process-wide: a test that calls this must not call t.Parallel.
func SetGOMAXPROCS(tb testing.TB, n int) {
	tb.Helper()
	prev := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}
