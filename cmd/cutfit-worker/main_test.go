package main

import (
	"net/http"
	"testing"

	"cutfit/internal/testutil"
)

// TestStalledHeadersAreClosed: the worker's listener, like the daemon's,
// hangs up on a connection that never finishes its request headers and sets
// no limit on how long a superstep may take to answer.
func TestStalledHeadersAreClosed(t *testing.T) {
	testutil.CheckStalledHeadersAreClosed(t, newHTTPServer("127.0.0.1:0", http.NotFoundHandler()))
}
