package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pdce"
	"pdce/internal/bitvec"
)

// TestMain runs the command itself when a test re-executes the test
// binary as a --workload all child.
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_CHILD") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// compileCounts runs one traced pass of the compile corpus and returns
// the counted metrics, which must not depend on timing.
func compileCounts(t *testing.T, seed int64) map[string]float64 {
	t.Helper()
	entries, err := buildCompile(seed)
	if err != nil {
		t.Fatal(err)
	}
	ct := &compileTrace{ts: pdce.NewTraceStore(64, 1, seed)}
	bitvec.EnableOpCount(true)
	defer bitvec.EnableOpCount(false)
	for _, e := range entries {
		out, err := ct.op(e)
		if err != nil {
			t.Fatalf("%s/%s: %v", e.name, e.mode, err)
		}
		if e.want != "" && out != e.want {
			t.Fatalf("%s/%s: output differs from the warm-up's", e.name, e.mode)
		}
		e.want = out
	}
	v := map[string]float64{}
	ct.metrics(v)
	finalStmts, dynSavings, problems := checkCompile(entries, true)
	if len(problems) > 0 {
		t.Fatalf("correctness gate: %v", problems)
	}
	counted := map[string]float64{"final_stmts": finalStmts, "dyn_savings": dynSavings}
	for k, x := range v {
		if k == "core.rounds" || k == "bitvec.ops" || strings.HasPrefix(k, "analysis.") {
			counted[k] = x
		}
	}
	return counted
}

func TestCompileCountsRepeat(t *testing.T) {
	a, b := compileCounts(t, 7), compileCounts(t, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("counted metrics differ across two runs with one seed:\n%v\n%v", a, b)
	}
	for _, k := range []string{"final_stmts", "dyn_savings", "core.rounds", "bitvec.ops", "analysis.delay.node_visits"} {
		if a[k] <= 0 {
			t.Errorf("%s = %v, want > 0", k, a[k])
		}
	}
}

func TestServeHitCountsRepeat(t *testing.T) {
	const ops = 200
	var got []map[pdce.CacheState]int64
	for i := 0; i < 2; i++ {
		cfg := config{seed: 7, maxOps: ops, setups: 1, tmp: t.TempDir()}
		res, err := runServe(hitSpec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted != ops || res.Failed != 0 {
			t.Fatalf("run %d: correct=%v attempted=%d failed=%d %v", i, res.Correct, res.Attempted, res.Failed, res.notes)
		}
		got = append(got, res.states)
	}
	want := map[pdce.CacheState]int64{pdce.CacheHit: ops}
	if !reflect.DeepEqual(got[0], want) || !reflect.DeepEqual(got[1], want) {
		t.Fatalf("cache states %v and %v, want %v in both", got[0], got[1], want)
	}
}

func TestSeedChangesInputs(t *testing.T) {
	for si, sh := range compileShapes {
		sh.count = 2
		a, b := genPrograms(1, si, sh), genPrograms(2, si, sh)
		if !reflect.DeepEqual(a, genPrograms(1, si, sh)) {
			t.Errorf("%s: one seed generated different programs", sh.label)
		}
		for i := range a {
			if a[i].source == b[i].source {
				t.Errorf("%s-%d: seeds 1 and 2 generated the same program", sh.label, i)
			}
		}
	}
	hot := shape{label: "hot", stmts: serveStmts, count: 2}
	if genPrograms(1, streamHot, hot)[0].source == genPrograms(2, streamHot, hot)[0].source {
		t.Error("serve working set does not depend on the seed")
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json's metric names and units
// to the ones the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads %v, want %v", names, workloads)
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program %d", len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), program %s (%s)", i, c.json[i].Name, c.json[i].Unit, d.name, d.unit)
			}
		}
	}
}

// TestResultLine runs the command end to end and checks the last line.
func TestResultLine(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "serve-hit", "--seed", "3", "--seconds", "1", "--trace", trace}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res struct {
			Correct           bool
			Attempted, Failed int64
			Metrics           map[string]metric
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if trace == "1" {
			defs = perLayer
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(defs) {
			t.Fatalf("trace %s: %+v", trace, res)
		}
		if trace == "1" && res.Metrics["server.l1_hit_ratio"].Value != 1 {
			t.Errorf("serve-hit l1 hit ratio %v, want 1", res.Metrics["server.l1_hit_ratio"].Value)
		}
	}
	if code := run([]string{"--workload", "nope"}, new(bytes.Buffer), new(bytes.Buffer)); code == 0 {
		t.Error("unknown workload: exit 0")
	}
}

// TestAllRunsEachWorkloadInItsOwnProcess checks --workload all: one
// result line with every workload's end-to-end metrics, prefixed.
func TestAllRunsEachWorkloadInItsOwnProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Setenv("PERFBENCH_CHILD", "1")
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "all", "--seed", "3", "--seconds", "1", "--trace", "0"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	res := newResult()
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || len(res.Metrics) != len(workloads)*len(endToEnd) {
		t.Fatalf("%+v", res)
	}
	for _, w := range workloads {
		if res.Metrics[w+"/peak_mem_mb"].Value <= 0 {
			t.Errorf("%s/peak_mem_mb missing", w)
		}
	}
}
