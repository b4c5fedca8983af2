package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"pdce"
)

// metricDef names one reported metric. source says how a per-layer
// value is obtained: "span" from a span the benchmark or the program
// records, "replay" by calling the stage's public function again on the
// same inputs after the timed phase (the program has no span for the
// stage yet), "counter" from a counter the program keeps, "wrap" from a
// timing wrapper around the store backend's Put, "runtime" from
// runtime/metrics, "bench" from the benchmark's own bookkeeping.
type metricDef struct {
	name, unit, source string
}

// endToEnd is what a user of the system sees; every workload reports
// every one of them with --trace 0. BENCHMARK.json lists the same names.
// Times are CPU time (see cpuTime): what an op costs the machine it
// runs on, which the host's other tenants do not change.
var endToEnd = []metricDef{
	{"setup_s", "s", "bench"},
	{"ops_per_cpu_s", "1/s", "bench"},
	{"p50_cpu_ms", "ms", "bench"},
	{"p90_cpu_ms", "ms", "bench"},
	{"p99_cpu_ms", "ms", "bench"},
	{"peak_mem_mb", "MB", "bench"},
	{"final_stmts", "count", "bench"},
	{"dyn_savings", "ratio", "bench"},
}

// perLayer is the traced run's split. A layer a workload never calls
// reads 0 there. Times are means per call of the layer's function,
// except trace.unaccounted_ms, which is per op.
var perLayer = []metricDef{
	{"parser.parse_ms", "ms", "span/replay"},
	{"parser.allocs_per_op", "count", "span/replay"},
	{"parser.bytes_per_op", "B", "span/replay"},
	{"key.cachekey_ms", "ms", "replay"},
	{"key.allocs_per_op", "count", "replay"},
	{"core.optimize_ms", "ms", "span"},
	{"core.allocs_per_op", "count", "span/replay"},
	{"core.bytes_per_op", "B", "span/replay"},
	{"core.rounds", "count", "counter"},
	{"core.eliminate_ms", "ms", "span"},
	{"core.sink_ms", "ms", "span"},
	{"analysis.delay.node_visits", "count", "counter"},
	{"analysis.dead.node_visits", "count", "counter"},
	{"analysis.faint.slot_updates", "count", "counter"},
	{"analysis.reuse_rate", "ratio", "counter"},
	{"analysis.sparse_share", "ratio", "counter"},
	{"bitvec.ops", "count", "counter"},
	{"server.handle_ms", "ms", "span"},
	{"server.decode_ms", "ms", "replay"},
	{"server.cache_ms", "ms", "span"},
	{"server.l1_hit_ratio", "ratio", "counter"},
	{"server.admission_wait_ms", "ms", "span"},
	{"server.encode_ms", "ms", "replay"},
	{"server.shed_share", "ratio", "counter"},
	{"store.l2_get_ms", "ms", "span"},
	{"store.l2_put_ms", "ms", "wrap"},
	{"store.l2_hit_ratio", "ratio", "counter"},
	{"client.request_ms", "ms", "span"},
	{"client.overhead_ms", "ms", "span"},
	{"client.key_ms", "ms", "replay"},
	{"client.decode_ms", "ms", "replay"},
	{"client.failovers", "count", "counter"},
	{"runtime.gc_cpu_share", "ratio", "runtime"},
	{"runtime.alloc_bytes_per_op", "B", "runtime"},
	{"trace.overhead", "ratio", "bench"},
	{"trace.unaccounted_ms", "ms", "span"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line printed last on standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// notes are printed in the human report only.
	notes []string
	// states counts successful serve responses by cache state.
	states map[pdce.CacheState]int64
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]metric{}}
}

// set records values for the metrics of defs; names outside defs are
// a programming error.
func (r *result) set(defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		v := values[d.name]
		switch {
		case math.IsNaN(v):
			v = 0
		case math.IsInf(v, 1):
			v = math.MaxFloat64 // JSON has no infinity
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	for k := range values {
		if _, ok := r.Metrics[k]; !ok {
			panic("perfbench: metric " + k + " is not declared")
		}
	}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// report prints a human-readable table to w.
func (r *result) report(w io.Writer, workload string) {
	fmt.Fprintf(w, "== %s: correct=%v attempted=%d failed=%d\n", workload, r.Correct, r.Attempted, r.Failed)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if m, ok := r.Metrics[d.name]; ok {
				fmt.Fprintf(w, "  %-30s %14.4f %-6s [%s]\n", d.name, m.Value, m.Unit, d.source)
			}
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// quantile returns the q-quantile of sorted (linear interpolation
// between closest ranks).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if sorted[lo] == sorted[hi] {
		return sorted[lo]
	}
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// latencyMetrics fills p50/p90/p99 from per-op CPU times in ms; a
// failed op is recorded as +Inf so it misses every latency limit.
func latencyMetrics(values map[string]float64, lat []float64) {
	sort.Float64s(lat)
	values["p50_cpu_ms"] = quantile(lat, 0.50)
	values["p90_cpu_ms"] = quantile(lat, 0.90)
	values["p99_cpu_ms"] = quantile(lat, 0.99)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of a copy of xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// sum of xs.
func sum[T float64 | time.Duration](xs []T) T {
	var t T
	for _, x := range xs {
		t += x
	}
	return t
}

// safeDiv is a/b, 0 when b is 0.
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
