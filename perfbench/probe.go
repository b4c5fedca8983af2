package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pdce"
	"pdce/internal/verify"
)

// rtSample is a reading of the Go runtime's cumulative counters.
type rtSample struct {
	gcCPU, totalCPU, idleCPU, allocBytes float64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return rtSample{gcCPU: val(0), totalCPU: val(1), idleCPU: val(2), allocBytes: val(3)}
}

func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.idleCPU - b.idleCPU, a.allocBytes - b.allocBytes}
}

func (a rtSample) add(b rtSample) rtSample {
	return rtSample{a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU, a.idleCPU + b.idleCPU, a.allocBytes + b.allocBytes}
}

// gcShare is the garbage collector's share of the CPU time the process
// used (idle time excluded).
func (a rtSample) gcShare() float64 { return safeDiv(a.gcCPU, a.totalCPU-a.idleCPU) }

// allocMeter counts heap allocations across a call. ReadMemStats
// flushes every P's cache, so the counts are exact; it stops the world,
// so it is used only where the benchmark is tracing.
type allocMeter struct{ objects, bytes uint64 }

func startAllocs() allocMeter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocMeter{m.Mallocs, m.TotalAlloc}
}

func (a allocMeter) since() (objects, bytes float64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Mallocs - a.objects), float64(m.TotalAlloc - a.bytes)
}

// memPeak samples, every 10 ms while it runs, the memory the Go runtime
// holds from the OS and has not released back (what the process keeps
// resident). Its peak is the 99th percentile of the samples, which
// follows the high-water mark of the workload's ops but not one
// sample that caught a garbage collection at its latest. It reads
// runtime/metrics only, so it works without procfs and does not stop
// the world.
type memPeak struct {
	stop, done chan struct{}
	samples    []float64
}

var memNames = []string{"/memory/classes/total:bytes", "/memory/classes/heap/released:bytes"}

func startMemPeak() *memPeak {
	m := &memPeak{stop: make(chan struct{}), done: make(chan struct{})}
	s := make([]metrics.Sample, len(memNames))
	for i, n := range memNames {
		s[i].Name = n
	}
	sample := func() {
		metrics.Read(s)
		m.samples = append(m.samples, float64(s[0].Value.Uint64()-s[1].Value.Uint64()))
	}
	go func() {
		defer close(m.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			sample()
			select {
			case <-m.stop:
				sample()
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// end stops the sampler and returns the peak in MB.
func (m *memPeak) end() float64 {
	close(m.stop)
	<-m.done
	sort.Float64s(m.samples)
	return quantile(m.samples, 0.99) / (1 << 20)
}

// timedSetups builds the workload state n times and returns the last
// build with the median build time in reference-host CPU seconds (see
// cpuTime and speed.go); earlier builds are torn down first so only one
// is ever live.
func timedSetups[T any](n int, build func() (T, error), teardown func(T)) (T, float64, error) {
	var cur T
	var times []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(cur)
		}
		scale := setupScale()
		start := cpuTime()
		v, err := build()
		if err != nil {
			return cur, 0, err
		}
		times = append(times, (cpuTime()-start).Seconds()*scale)
		cur = v
	}
	return cur, median(times), nil
}

// workers is how many goroutines set-up and the checks use: the host's
// two cores.
const workers = 2

// parallel calls f(0..n-1) on workers goroutines, and returns when
// every call has.
func parallel(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// spanTotals sums the durations of a trace's spans by name.
func spanTotals(spans []pdce.SpanRecord) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.DurationNS)
	}
	return out
}

// interval is one span's extent on the wall clock.
type interval struct{ start, end time.Time }

// selfTime is root's length minus the part of it that children cover.
func selfTime(root interval, children []interval) time.Duration {
	sort.Slice(children, func(i, j int) bool { return children[i].start.Before(children[j].start) })
	var covered time.Duration
	cur := root.start
	for _, c := range children {
		s, e := c.start, c.end
		if s.Before(cur) {
			s = cur
		}
		if e.After(root.end) {
			e = root.end
		}
		if e.After(s) {
			covered += e.Sub(s)
			cur = e
		}
	}
	return root.end.Sub(root.start) - covered
}

// layerAgg accumulates one layer's calls.
type layerAgg struct {
	n             float64
	dur           time.Duration
	allocs, bytes float64
}

func (a *layerAgg) add(d time.Duration) { a.n++; a.dur += d }

func (a *layerAgg) meanMS() float64 { return safeDiv(ms(a.dur), a.n) }

// savings averages, over the programs with at least one terminating
// sampled execution, the share of dynamically executed assignments the
// optimization removed (Program.Savings per program). A per-program
// mean depends less on which programs a seed draws than the pooled
// ratio, which a few long-running executions dominate.
type savings struct{ sum, n float64 }

func (s *savings) add(c verify.CountImprovement) {
	if c.Executions > 0 {
		s.sum += c.Savings()
		s.n++
	}
}

func (s savings) value() float64 { return safeDiv(s.sum, s.n) }

// solverWork sums the solver's own counters over Optimize calls run
// with Options.Telemetry.
type solverWork struct {
	runs, rounds, bitvecOps             float64
	delayVisits, deadVisits, faintSlots float64
	seeded, seedable, sparse, dense     float64
}

func (w *solverWork) add(st pdce.Stats) {
	w.runs++
	w.rounds += float64(st.Rounds)
	t := st.Telemetry
	if t == nil {
		return
	}
	w.bitvecOps += float64(t.BitvecOps)
	w.delayVisits += float64(t.Delay.NodeVisits)
	w.deadVisits += float64(t.Dead.NodeVisits)
	w.faintSlots += float64(t.Faint.SlotUpdates)
	for _, s := range []pdce.SolverMetrics{t.Delay, t.Dead, t.Faint} {
		w.seeded += float64(s.SeededNodes)
		w.seedable += float64(s.SeedableNodes)
		w.sparse += float64(s.SparseSolves)
		w.dense += float64(s.DenseSolves)
	}
}

// metrics reports the counters per Optimize call.
func (w *solverWork) metrics(v map[string]float64) {
	v["core.rounds"] = safeDiv(w.rounds, w.runs)
	v["analysis.delay.node_visits"] = safeDiv(w.delayVisits, w.runs)
	v["analysis.dead.node_visits"] = safeDiv(w.deadVisits, w.runs)
	v["analysis.faint.slot_updates"] = safeDiv(w.faintSlots, w.runs)
	if w.runs > 0 {
		v["analysis.reuse_rate"] = 1 - safeDiv(w.seeded, w.seedable)
	}
	v["analysis.sparse_share"] = safeDiv(w.sparse, w.sparse+w.dense)
	v["bitvec.ops"] = safeDiv(w.bitvecOps, w.runs)
}
