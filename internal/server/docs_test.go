package server

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"pdce"
	"pdce/internal/obs"
)

// The wire reference must not drift from the implementation: every
// query parameter the handler parses and every field /metrics emits
// has to be documented. The test derives both sets from the source of
// truth — server.go for parameters, the pdce.ServerMetrics type for
// metrics — so adding one without documenting it fails ci.

// docsAPI loads docs/API.md relative to this package.
func docsAPI(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatalf("reading docs/API.md: %v", err)
	}
	return string(data)
}

func TestDocsCoverQueryParams(t *testing.T) {
	// Every file that registers handlers: server.go owns the optimize
	// family and /metrics, trace.go the /debug/traces family.
	var src []byte
	for _, f := range []string{"server.go", "trace.go"} {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src = append(src, data...)
	}
	// Both spellings the handlers use: q.Get("...") on a bound
	// url.Values and the inline r.URL.Query().Get("...").
	re := regexp.MustCompile(`\bQuery\(\)\.Get\("([^"]+)"\)|\bq\.Get\("([^"]+)"\)`)
	params := map[string]bool{}
	for _, m := range re.FindAllStringSubmatch(string(src), -1) {
		for _, g := range m[1:] {
			if g != "" {
				params[g] = true
			}
		}
	}
	if len(params) < 5 {
		t.Fatalf("found only %d query parameters in server.go — the extraction regex no longer matches the code", len(params))
	}
	doc := docsAPI(t)
	for p := range params {
		if !strings.Contains(doc, "`"+p+"`") {
			t.Errorf("query parameter %q is parsed by server.go but not documented in docs/API.md", p)
		}
	}
}

// jsonTags collects every json field name emitted by t, recursing
// through structs, embedded fields, pointers, and slices.
func jsonTags(t reflect.Type, into map[string]bool) {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map:
		jsonTags(t.Elem(), into)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			tag := strings.Split(f.Tag.Get("json"), ",")[0]
			if tag == "-" {
				continue
			}
			if tag != "" {
				into[tag] = true
			}
			jsonTags(f.Type, into)
		}
	}
}

func TestDocsCoverMetricsFields(t *testing.T) {
	fields := map[string]bool{}
	jsonTags(reflect.TypeOf(pdce.ServerMetrics{}), fields)
	if len(fields) < 20 {
		t.Fatalf("found only %d /metrics fields — the reflection walk no longer reaches the snapshot types", len(fields))
	}
	doc := docsAPI(t)
	for f := range fields {
		if !strings.Contains(doc, "`"+f+"`") {
			t.Errorf("/metrics field %q is emitted by pdce.ServerMetrics but not documented in docs/API.md", f)
		}
	}
}

// The pool's counters have no HTTP surface, but they are JSON-tagged
// and documented beside the server's, and must not drift either.
func TestDocsCoverClientStatsFields(t *testing.T) {
	fields := map[string]bool{}
	jsonTags(reflect.TypeOf(obs.ClientSnapshot{}), fields)
	if len(fields) < 10 {
		t.Fatalf("found only %d client stats fields — the reflection walk no longer reaches the snapshot type", len(fields))
	}
	doc := docsAPI(t)
	for f := range fields {
		if !strings.Contains(doc, "`"+f+"`") {
			t.Errorf("client stats field %q is emitted by obs.ClientSnapshot but not documented in docs/API.md", f)
		}
	}
}
