package testutil

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// CheckStalledHeadersAreClosed is the listener-configuration check the
// commands that serve HTTP (cutfitd, cutfit-worker) share: hs must bound how
// long a client may take over its request headers and how long an idle
// keep-alive connection lives, but not how long a reply may take — a run on
// a large graph legitimately takes minutes. It then serves hs on its Addr
// and shows the mechanism: a connection that sends half a request and stalls
// is closed by the server once the header timeout passes, without a reply.
func CheckStalledHeadersAreClosed(t *testing.T, hs *http.Server) {
	t.Helper()
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v: both must be set", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	if hs.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout %v: a long run must not be cut off", hs.WriteTimeout)
	}
	// The production value is seconds; the mechanism is the same at 200 ms.
	const timeout = 200 * time.Millisecond
	hs.ReadHeaderTimeout = timeout
	ln, err := net.Listen("tcp", hs.Addr)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		if err := <-served; err != http.ErrServerClosed {
			t.Errorf("Serve: %v", err)
		}
	}()

	// The server's clock for the headers starts when it accepts, after this.
	start := time.Now()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: cutfit\r\n"); err != nil {
		t.Fatal(err)
	}
	// The test's own patience: far beyond the timeout, so hitting it means
	// the server never hung up.
	conn.SetReadDeadline(start.Add(20 * timeout))
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("the server kept a connection with unfinished headers open: %v", err)
	}
	if len(reply) != 0 {
		t.Fatalf("the server answered half a request: %q", reply)
	}
	if waited := time.Since(start); waited < timeout {
		t.Fatalf("closed after %v, before the %v header timeout", waited, timeout)
	}
}
