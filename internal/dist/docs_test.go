package dist

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

func readDistributedDoc(t *testing.T) string {
	t.Helper()
	body, err := os.ReadFile("../../docs/DISTRIBUTED.md")
	if err != nil {
		t.Fatalf("reading docs/DISTRIBUTED.md: %v", err)
	}
	return string(body)
}

// TestDistributedDocCoversProtocol is the bidirectional drift guard
// between the ProtocolMessages table — the single source of truth the
// worker mux is built from — and docs/DISTRIBUTED.md:
//
//  1. every protocol entry (rpc, frame, artifact) must be named in the
//     doc, rpc entries with their exact route;
//  2. every /dist/v1 route the doc mentions must exist in the table.
//
// Together with Worker.Handler panicking on a table entry without a
// handler, an endpoint can neither exist undocumented nor be documented
// without existing.
func TestDistributedDocCoversProtocol(t *testing.T) {
	doc := readDistributedDoc(t)

	for _, pm := range ProtocolMessages {
		if !strings.Contains(doc, "`"+pm.Name+"`") {
			t.Errorf("protocol %s %q is not named in docs/DISTRIBUTED.md", pm.Kind, pm.Name)
		}
		if pm.Kind == "rpc" && !strings.Contains(doc, pm.Route) {
			t.Errorf("rpc %q: route %q missing from docs/DISTRIBUTED.md", pm.Name, pm.Route)
		}
	}

	routes := make(map[string]bool)
	for _, pm := range ProtocolMessages {
		if pm.Kind == "rpc" {
			_, path, _ := strings.Cut(pm.Route, " ")
			routes[path] = true
		}
	}
	// Match concrete /dist/v1 paths in the doc; {id} segments are part of
	// the route pattern, a trailing "/" alone is the mount prefix.
	re := regexp.MustCompile(`/dist/v1/[a-z{}/_id]*[a-z}]`)
	for _, m := range re.FindAllString(doc, -1) {
		if !routes[m] {
			t.Errorf("docs/DISTRIBUTED.md mentions %q, which is not a ProtocolMessages route", m)
		}
	}
}

// TestDistributedDocCoversHeaders keeps the shard-transfer header name in
// the doc in sync with the constant the wire actually uses.
func TestDistributedDocCoversHeaders(t *testing.T) {
	if doc := readDistributedDoc(t); !strings.Contains(doc, HeaderShardKey) {
		t.Errorf("header %q is not documented in docs/DISTRIBUTED.md", HeaderShardKey)
	}
}
