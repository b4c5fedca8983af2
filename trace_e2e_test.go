package pdce_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"pdce"
)

// failFirstOptimize is a transport that fails the first POST /optimize
// with a connection-level error, forcing exactly one pool retry; all
// later requests (including the trace export) pass through.
type failFirstOptimize struct {
	base   http.RoundTripper
	mu     sync.Mutex
	failed bool
}

func (f *failFirstOptimize) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPost && req.URL.Path == "/optimize" {
		f.mu.Lock()
		first := !f.failed
		f.failed = true
		f.mu.Unlock()
		if first {
			return nil, fmt.Errorf("induced transport failure")
		}
	}
	return f.base.RoundTrip(req)
}

// TestPoolTraceEndToEnd is the issue's acceptance path: one request
// through a three-replica pool with one induced retry must yield ONE
// trace tree — client root, a failed and a successful attempt, and the
// winning replica's full server-side subtree — retrievable from that
// replica's /debug/traces/{id} and valid against the pinned span
// schema.
func TestPoolTraceEndToEnd(t *testing.T) {
	var urls []string
	for i := 0; i < 3; i++ {
		_, ts := newTestReplica(t)
		urls = append(urls, ts.URL)
	}

	store := pdce.NewTraceStore(64, 1.0, 42)
	p, err := pdce.NewPool(urls, pdce.PoolOptions{
		HTTPClient:    &http.Client{Transport: &failFirstOptimize{base: http.DefaultTransport}},
		Traces:        store,
		ProbeInterval: -1,
		Seed:          7,
		Retry:         pdce.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if _, _, err := p.Optimize(context.Background(), "trace-e2e", poolTestSource, pdce.RequestOptions{}); err != nil {
		t.Fatalf("optimize through pool: %v", err)
	}

	// The pool's own store holds the client half of the trace.
	list := store.Summaries(0)
	if len(list.Traces) != 1 {
		t.Fatalf("pool store holds %d traces, want 1: %+v", len(list.Traces), list.Traces)
	}
	traceID := list.Traces[0].TraceID
	clientDump, ok := store.Get(traceID)
	if !ok {
		t.Fatalf("trace %s not retained client-side", traceID)
	}
	var attempts, failedAttempts int
	for _, sp := range clientDump.Spans {
		if sp.Name == "client.attempt" {
			attempts++
			if sp.Error != "" {
				failedAttempts++
			}
		}
	}
	if attempts != 2 || failedAttempts != 1 {
		t.Fatalf("want 2 attempts with 1 failure, got %d/%d: %+v", attempts, failedAttempts, clientDump.Spans)
	}

	// Exactly one replica — the winner — holds the merged trace.
	var body []byte
	var found int
	for _, u := range urls {
		resp, err := http.Get(u + "/debug/traces/" + traceID)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			found++
			body = b
		}
	}
	if found != 1 {
		t.Fatalf("trace %s retained on %d replicas, want exactly the winner", traceID, found)
	}
	checkSchema(t, "trace dump", body, "testdata/trace.schema.json")

	var dump pdce.TraceDump
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	if dump.TraceID != traceID {
		t.Fatalf("dump trace id %s, want %s", dump.TraceID, traceID)
	}
	if len(dump.Spans) < 8 {
		t.Fatalf("merged trace has %d spans, want >= 8: %+v", len(dump.Spans), dump.Spans)
	}
	byName := map[string][]pdce.SpanRecord{}
	for _, sp := range dump.Spans {
		if sp.TraceID != traceID {
			t.Fatalf("span %s carries trace %s, want %s", sp.SpanID, sp.TraceID, traceID)
		}
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	for _, name := range []string{
		"client.request", "client.key", "client.attempt",
		"server.optimize", "server.key", "server.parse", "server.admission", "server.cache",
		"solve", "solve.round", "server.encode",
	} {
		if len(byName[name]) == 0 {
			t.Errorf("merged trace missing span %q (have %v)", name, spanNameSet(dump.Spans))
		}
	}

	// Tree coherence across the process boundary: the server root's
	// parent is the winning attempt's span, which hangs off the client
	// root.
	var winner pdce.SpanRecord
	for _, sp := range byName["client.attempt"] {
		if sp.Error == "" {
			winner = sp
		}
	}
	if len(byName["server.optimize"]) != 1 || byName["server.optimize"][0].ParentID != winner.SpanID {
		t.Errorf("server root not parented by the winning attempt: %+v vs attempt %s",
			byName["server.optimize"], winner.SpanID)
	}
	if len(byName["client.request"]) != 1 || winner.ParentID != byName["client.request"][0].SpanID {
		t.Errorf("winning attempt not parented by the client root")
	}
	// The request was a miss, so the solved response was encoded once,
	// under the server root.
	if enc := byName["server.encode"]; len(enc) != 1 || len(byName["server.optimize"]) != 1 ||
		enc[0].ParentID != byName["server.optimize"][0].SpanID {
		t.Errorf("server.encode not a single child of the server root: %+v", enc)
	}
}

func spanNameSet(spans []pdce.SpanRecord) []string {
	seen := map[string]bool{}
	var names []string
	for _, sp := range spans {
		if !seen[sp.Name] {
			seen[sp.Name] = true
			names = append(names, sp.Name)
		}
	}
	return names
}
