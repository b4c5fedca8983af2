package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"pdce"
	"pdce/internal/bitvec"
	"pdce/internal/verify"
)

// Executions sampled per (program, mode) by the interpreter checks.
const (
	checkExecutions   = 12
	savingsExecutions = 24
)

// compileEntry is one op of the compile workload: a program and a mode.
type compileEntry struct {
	program
	class int // index into compileShapes
	mode  pdce.Mode
	want  string // the set-up pass's output; every repeat must match it
}

// buildCompile generates the corpus and warms up: the first program of
// each shape is compiled in both modes, which runs every code path the
// timed phase runs once. Each entry's expected output is its first
// compile's.
func buildCompile(seed int64) ([]*compileEntry, error) {
	var entries []*compileEntry
	for si, sh := range compileShapes {
		for i, p := range genPrograms(seed, si, sh) {
			// Only source text is kept: parsed inputs held for the
			// checks would be live heap that every garbage collection
			// in the timed phase had to scan.
			if _, err := pdce.ParseCFG(p.source); err != nil {
				return nil, fmt.Errorf("generated program %s: %w", p.name, err)
			}
			for _, mode := range []pdce.Mode{pdce.Dead, pdce.Faint} {
				e := &compileEntry{program: p, class: si, mode: mode}
				if i == 0 {
					var err error
					if e.want, err = compileOnce(e); err != nil {
						return nil, fmt.Errorf("warm-up %s/%s: %w", e.name, e.mode, err)
					}
				}
				entries = append(entries, e)
			}
		}
	}
	return entries, nil
}

// compileOnce is what a library user runs: source text to optimized
// source text.
func compileOnce(e *compileEntry) (string, error) {
	p, err := pdce.ParseCFG(e.source)
	if err != nil {
		return "", err
	}
	opt, _, err := p.Optimize(pdce.Options{Mode: e.mode})
	if err != nil {
		return "", err
	}
	return opt.Format(), nil
}

// compileTrace accumulates the traced passes: a root span per op and a
// child span around each public call, plus the solver's own spans and
// counters.
type compileTrace struct {
	ts                    *pdce.TraceStore
	ops                   float64
	parse, optimize, frmt layerAgg
	eliminate, sink       time.Duration
	work                  solverWork
	unaccounted           time.Duration
}

func (ct *compileTrace) op(e *compileEntry) (string, error) {
	rootStart := time.Now()
	// calls are the child spans; meter is the benchmark's own work
	// inside the root (allocation reads, which stop the world, and the
	// solver span's start and end). Both are covered time, so the
	// root's self time is what the op does outside the three calls.
	var calls, meter []interval
	call := func(agg *layerAgg, f func() error) error {
		m0 := time.Now()
		m := startAllocs()
		start := time.Now()
		err := f()
		end := time.Now()
		objs, size := m.since()
		meter = append(meter, interval{m0, start}, interval{end, time.Now()})
		agg.add(end.Sub(start))
		agg.allocs += objs
		agg.bytes += size
		calls = append(calls, interval{start, end})
		return err
	}
	var p, opt *pdce.Program
	var st pdce.Stats
	var out string
	if err := call(&ct.parse, func() (err error) {
		p, err = pdce.ParseCFG(e.source)
		return err
	}); err != nil {
		return "", err
	}
	s0 := time.Now()
	span := ct.ts.StartSpan("optimize", "perfbench", pdce.SpanContext{})
	meter = append(meter, interval{s0, time.Now()})
	if err := call(&ct.optimize, func() (err error) {
		opt, st, err = p.Optimize(pdce.Options{Mode: e.mode, Span: span, Telemetry: true})
		return err
	}); err != nil {
		return "", err
	}
	s0 = time.Now()
	span.End()
	meter = append(meter, interval{s0, time.Now()})
	call(&ct.frmt, func() error { out = opt.Format(); return nil })
	ct.unaccounted += selfTime(interval{rootStart, time.Now()}, append(calls, meter...))
	ct.ops++

	if dump, ok := ct.ts.Get(span.TraceID()); ok {
		tot := spanTotals(dump.Spans)
		ct.eliminate += tot["solve.eliminate"]
		ct.sink += tot["solve.sink"]
	}
	ct.work.add(st)
	return out, nil
}

func (ct *compileTrace) metrics(v map[string]float64) {
	v["parser.parse_ms"] = ct.parse.meanMS()
	v["parser.allocs_per_op"] = safeDiv(ct.parse.allocs, ct.parse.n)
	v["parser.bytes_per_op"] = safeDiv(ct.parse.bytes, ct.parse.n)
	v["core.optimize_ms"] = ct.optimize.meanMS()
	v["core.allocs_per_op"] = safeDiv(ct.optimize.allocs, ct.optimize.n)
	v["core.bytes_per_op"] = safeDiv(ct.optimize.bytes, ct.optimize.n)
	v["core.eliminate_ms"] = safeDiv(ms(ct.eliminate), ct.ops)
	v["core.sink_ms"] = safeDiv(ms(ct.sink), ct.ops)
	ct.work.metrics(v)
	v["trace.unaccounted_ms"] = safeDiv(ms(ct.unaccounted), ct.ops)
}

// runCompile runs the compile workload: one worker compiling the corpus
// in whole passes, each entry once per pass, until the time is up.
func runCompile(cfg config) (*result, error) {
	entries, setupS, err := timedSetups(cfg.setups,
		func() ([]*compileEntry, error) { return buildCompile(cfg.seed) },
		func([]*compileEntry) {})
	if err != nil {
		return nil, err
	}
	res := newResult()
	ct := &compileTrace{ts: pdce.NewTraceStore(64, 1, cfg.seed)}
	var lat []float64
	var mismatches int64
	var rtPlain rtSample
	var opsByMode [2]float64
	// lat[i] is op i's CPU time; passes are the lat ranges of the
	// untraced whole passes, byMode those of every pass by tracing.
	var passes [][2]int
	var byMode [2][][2]int
	var meter speedMeter
	// Untraced ops and their CPU time by shape, for the report.
	classOps := make([]float64, len(compileShapes))
	classTime := make([]time.Duration, len(compileShapes))
	var wall time.Duration // untraced ops' wall-clock time, for the report
	mem := startMemPeak()
	start := time.Now()
	for pass := 0; ; pass++ {
		traced := cfg.traced && pass%2 == 1
		over := time.Since(start) >= cfg.duration
		if cfg.maxOps > 0 {
			over = res.Attempted >= int64(cfg.maxOps)
		}
		// A traced run needs at least one pass of each kind.
		if over && (!cfg.traced || pass >= 2) {
			break
		}
		bitvec.EnableOpCount(traced)
		r0 := readRuntime()
		var passOps float64
		from := len(lat)
		for _, e := range entries {
			if cfg.maxOps > 0 && res.Attempted >= int64(cfg.maxOps) {
				break
			}
			meter.tick(len(lat))
			t0, c0 := time.Now(), cpuTime()
			var out string
			if traced {
				out, err = ct.op(e)
			} else {
				out, err = compileOnce(e)
			}
			d, w := cpuTime()-c0, time.Since(t0)
			res.Attempted++
			if err == nil && e.want == "" {
				e.want = out
			}
			if err != nil || out != e.want {
				if err == nil {
					mismatches++
				}
				res.Failed++
				lat = append(lat, math.Inf(1))
				continue
			}
			passOps++
			lat = append(lat, ms(d))
			if !traced {
				classOps[e.class]++
				classTime[e.class] += d
				wall += w
			}
		}
		mode := 0
		if traced {
			mode = 1
		} else {
			rtPlain = rtPlain.add(readRuntime().sub(r0))
		}
		byMode[mode] = append(byMode[mode], [2]int{from, len(lat)})
		opsByMode[mode] += passOps
		if mode == 0 && int(passOps) == len(entries) {
			passes = append(passes, [2]int{from, len(lat)})
		}
	}
	elapsed := time.Since(start)
	peakMem := mem.end()
	bitvec.EnableOpCount(false)
	if mismatches > 0 {
		res.Correct = false
		res.notef("%d ops produced output that differs from the first compile of the same entry", mismatches)
	}

	reportShapes(res, classOps, classTime)
	if n := sum(classOps); n > 0 {
		res.notef("untraced ops: %.2f ms CPU, %.2f ms wall-clock per op", ms(sum(classTime))/n, ms(wall)/n)
	}
	res.notef("host speed: reference-host time is %.3f times CPU time (median)", meter.medianScale())

	runtime.GOMAXPROCS(cfg.procs)
	checkStart := time.Now()
	finalStmts, dynSavings, problems := checkCompile(entries, !cfg.traced)
	for _, p := range problems {
		res.Correct = false
		res.notef("%s", p)
	}
	if res.Failed > 0 {
		res.Correct = false
	}

	v := map[string]float64{}
	defer func() {
		res.notef("set-up %.2fs (median of %d), timed %.2fs, checks %.2fs", setupS, cfg.setups, elapsed.Seconds(), time.Since(checkStart).Seconds())
	}()
	for i := range lat {
		lat[i] *= meter.scale(i)
	}
	if cfg.traced {
		// Successful ops per scaled CPU second, by tracing.
		var rate [2]float64
		for mode, ranges := range byMode {
			var cpu float64
			for _, r := range ranges {
				for _, x := range lat[r[0]:r[1]] {
					if !math.IsInf(x, 1) {
						cpu += x
					}
				}
			}
			rate[mode] = safeDiv(opsByMode[mode], cpu/1000)
		}
		ct.metrics(v)
		v["runtime.gc_cpu_share"] = rtPlain.gcShare()
		v["runtime.alloc_bytes_per_op"] = safeDiv(rtPlain.allocBytes, opsByMode[0])
		v["trace.overhead"] = 1 - safeDiv(rate[1], rate[0])
		res.set(perLayer, v)
		return res, nil
	}
	v["setup_s"] = setupS
	// The median pass: a pass with an unusual share of garbage
	// collection does not move it.
	var passRates []float64
	for _, p := range passes {
		passRates = append(passRates, float64(p[1]-p[0])/(sum(lat[p[0]:p[1]])/1000))
	}
	v["ops_per_cpu_s"] = median(passRates)
	latencyMetrics(v, lat)
	v["peak_mem_mb"] = peakMem
	v["final_stmts"] = finalStmts
	v["dyn_savings"] = dynSavings
	res.set(endToEnd, v)
	return res, nil
}

// reportShapes notes each shape's share of the untraced ops and of
// their CPU time, which is how much each shape weighs in ops_per_cpu_s.
func reportShapes(res *result, ops []float64, times []time.Duration) {
	var nOps float64
	var total time.Duration
	for i := range ops {
		nOps += ops[i]
		total += times[i]
	}
	for i, sh := range compileShapes {
		res.notef("shape %-9s %5.1f%% of ops, %5.1f%% of op CPU time, %8.2fms per op", sh.label,
			100*safeDiv(ops[i], nOps), 100*safeDiv(float64(times[i]), float64(total)), safeDiv(ms(times[i]), ops[i]))
	}
}

// checkCompile is the correctness gate, run outside the timed phase:
// every compiled (program, mode) output must preserve its input's
// observable behaviour on seeded interpreter runs. It also returns the
// outputs' total statement count and, when asked, their dynamic
// savings.
func checkCompile(entries []*compileEntry, withSavings bool) (finalStmts, dynSavings float64, problems []string) {
	type check struct {
		err   error
		stmts int
		imp   verify.CountImprovement
	}
	checks := make([]check, len(entries))
	parallel(len(entries), func(i int) {
		e, c := entries[i], &checks[i]
		if e.want == "" {
			return // never compiled: the run ended first
		}
		orig, err := pdce.ParseCFG(e.source)
		if err != nil {
			c.err = err
			return
		}
		opt, err := pdce.ParseCFG(e.want)
		if err != nil {
			c.err = fmt.Errorf("output does not parse: %w", err)
			return
		}
		c.err = orig.CheckOutputs(opt, checkExecutions)
		c.stmts = opt.NumStatements()
		if withSavings {
			c.imp = verify.MeasureImprovement(orig.Graph(), opt.Graph(), savingsExecutions, 0)
		}
	})
	var sav savings
	for i, c := range checks {
		if c.err != nil {
			problems = append(problems, fmt.Sprintf("%s/%s: %v", entries[i].name, entries[i].mode, c.err))
		}
		finalStmts += float64(c.stmts)
		sav.add(c.imp)
	}
	return finalStmts, sav.value(), problems
}
