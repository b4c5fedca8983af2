package main

import (
	"context"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"pdce/internal/server"
)

// Smoke: a short closed-loop run against two in-process replicas
// completes without errors and reports per-replica traffic.
func TestLoadSmoke(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		s, err := server.New(server.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	var out strings.Builder
	err := run(context.Background(), loadConfig{
		replicas: urls,
		conc:     4,
		duration: 300 * time.Millisecond,
		programs: 8,
		stmts:    48,
		seed:     1,
	}, &out)
	if err != nil {
		t.Fatalf("load run failed: %v\n%s", err, out.String())
	}
	report := out.String()
	if !strings.Contains(report, "0 failed") {
		t.Fatalf("report does not show a clean run:\n%s", report)
	}
	for _, u := range urls {
		if !strings.Contains(report, "replica "+u) {
			t.Fatalf("report is missing replica %s:\n%s", u, report)
		}
	}
	if !strings.Contains(report, "affinity hit rate 1.000") {
		t.Fatalf("healthy ring should route every request to its home:\n%s", report)
	}
	// 8 programs over 300ms: past each program's first requests (four
	// workers may race on one), requests are keyed through the pool's
	// alias memo.
	if !regexp.MustCompile(`key alias hits [1-9]\d* misses ([89]|[1-3]\d)\n`).MatchString(report) {
		t.Fatalf("repeated programs should be keyed through the alias memo:\n%s", report)
	}
}
