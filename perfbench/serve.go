package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pdce"
	"pdce/internal/obs"
	"pdce/internal/server"
	"pdce/internal/store"
	"pdce/internal/verify"
)

// Sub-seed streams of the serve workloads.
const (
	streamHot = 100 + iota
	streamFresh
	streamClient
)

// serveStmts is the size of every served program: small enough that a
// request is dominated by the serving path, as pdced's callers send.
const serveStmts = 192

// clients is the number of closed-loop callers: pdced's callers each
// wait for their reply. With one, requests run one at a time, so the
// CPU time the process uses while a request is in flight is that
// request's cost, client and server together.
const clients = 1

// savingsPrograms bounds the working-set programs whose dynamic savings
// are sampled (the first 128 of serve-churn's 256): fewer make the mean
// depend on the seed's draw, all 256 take longer to interpret than the
// timed phase.
const savingsPrograms = 128

// serveSpec describes one serve workload.
type serveSpec struct {
	// hot is the working set: generated and warmed during set-up.
	hot int
	// cacheEntries bounds the server's L1 (0 = the server default).
	cacheEntries int
	// dirStore puts a replica-local directory store behind L1 as L2.
	dirStore bool
	// freshShare of requests carry a program never seen before; the
	// rest draw uniformly from the working set.
	freshShare float64
}

// On serve-churn the working set is four times the L1, and draws are
// uniform, so most working-set requests are L2 hits that write L1 and
// evict. Uniform draws also spread each percentile over the whole
// working set: under a skewed draw the latencies depend on the few
// programs that a seed puts at the head of the distribution, and the
// median falls on the step between L1 and L2 hits. serve-hit's 64
// programs are enough that dyn_savings, a mean over the working set,
// does not hinge on the seed's draw (with 32 it spread 0.088 over ten
// seeds).
var (
	hitSpec   = serveSpec{hot: 64}
	churnSpec = serveSpec{hot: 256, cacheEntries: 64, dirStore: true, freshShare: 0.2}
)

// item is one distinct program the clients send, with the response
// every request for it must reproduce.
type item struct {
	program
	mu  sync.Mutex
	got string // the first response's program
	ok  int64  // successful requests whose response matched got
}

// record checks one response against the item's first.
func (it *item) record(prog string) bool {
	it.mu.Lock()
	defer it.mu.Unlock()
	if it.got == "" {
		it.got = prog
	}
	if prog != it.got {
		return false
	}
	it.ok++
	return true
}

// stack is one in-process pdced behind a Pool.
type stack struct {
	srv   *server.Server
	pool  *pdce.Pool
	dir   string
	async *asyncBackend // with a store
	ops   *opRegistry   // traced runs only
	hot   []*item
}

func (s *stack) close() {
	s.pool.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: drain:", err)
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

var reqOpts = pdce.RequestOptions{Mode: pdce.Dead}

// handlerTransport hands each request to the server's handler in the
// caller's goroutine, as the chaos harness's in-memory wire does. Over
// loopback TCP, a request's CPU time also held the kernel's socket work
// and the wake-ups of the threads on either side, which slowed more
// than the program's own work whenever the host did (see README.md).
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// buildStack generates the working set, boots the server (and its
// store), and warms it: every working-set program is requested once,
// and with a store the set-up waits until all of them reached L2.
func buildStack(spec serveSpec, cfg config) (st *stack, err error) {
	st = &stack{}
	for _, p := range genPrograms(cfg.seed, streamHot, shape{label: "hot", stmts: serveStmts, count: spec.hot}) {
		st.hot = append(st.hot, &item{program: p})
	}
	scfg := server.Config{CacheEntries: spec.cacheEntries}
	if spec.dirStore {
		if st.dir, err = os.MkdirTemp(cfg.tmp, "store-"); err != nil {
			return nil, err
		}
		ds, err := store.NewDirStore(st.dir)
		if err != nil {
			os.RemoveAll(st.dir)
			return nil, err
		}
		st.async = newAsyncBackend(ds)
		scfg.Store = st.async
	}
	if st.srv, err = server.New(scfg); err != nil {
		return nil, err
	}
	var h http.Handler = st.srv.Handler()
	if cfg.traced {
		st.ops = &opRegistry{}
		h = &serveTracer{srv: st.srv, next: h, ops: st.ops}
	}
	var rt http.RoundTripper = handlerTransport{h}
	if cfg.traced {
		rt = opTransport{base: rt, ops: st.ops}
	}
	st.pool, err = pdce.NewPool([]string{"http://pdced"}, pdce.PoolOptions{HTTPClient: &http.Client{Transport: rt}, Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			st.close()
		}
	}()

	keys := make([]string, len(st.hot))
	errs := make([]error, len(st.hot))
	parallel(len(st.hot), func(i int) {
		it := st.hot[i]
		resp, _, err := st.pool.Optimize(context.Background(), it.name, it.source, reqOpts)
		if err == nil && resp.Degraded {
			err = fmt.Errorf("degraded: %s", resp.Error)
		}
		if err != nil {
			errs[i] = fmt.Errorf("warm-up %s: %w", it.name, err)
			return
		}
		it.record(resp.Program)
		keys[i] = resp.Key
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if scfg.Store != nil {
		if err := awaitL2(scfg.Store, keys); err != nil {
			return nil, err
		}
		// Every warm-up was a miss.
		st.async.settle(int64(len(keys)))
	}
	return st, nil
}

// awaitL2 waits for the server's asynchronous L2 puts of keys.
func awaitL2(b store.Backend, keys []string) error {
	deadline := time.Now().Add(30 * time.Second)
	for _, k := range keys {
		sk := store.VersionedKey(pdce.CacheKeyVersion(), k)
		for {
			ok, err := b.Has(sk)
			if err != nil {
				return err
			}
			if ok {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("L2 put of %s not visible after 30s", k)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// asyncBackend counts the store calls the server makes after a miss's
// response has gone out: the result blob's put, then the release of
// the solve lease (a delete). A client waits for them after each miss
// (settle), outside the op's timing. In a deployment they run on
// another core while the next request is served; on the benchmark's
// one P they would otherwise be charged to whichever request happened
// to be in flight. Their CPU time still counts in ops_per_cpu_s.
//
// It also times each result-blob put for the traced run: L2 puts have
// no span of their own (cache.l2.put only marks where a put is
// scheduled).
type asyncBackend struct {
	store.Backend
	puts, deletes atomic.Int64 // completed calls
	changed       chan struct{}
	timeouts      atomic.Int64

	mu  sync.Mutex
	put layerAgg // result-blob puts since reset
}

func newAsyncBackend(b store.Backend) *asyncBackend {
	return &asyncBackend{Backend: b, changed: make(chan struct{}, 1)}
}

func (b *asyncBackend) Put(key string, body []byte) (bool, error) {
	start := time.Now()
	created, err := b.Backend.Put(key, body)
	if !isLease(key) {
		b.mu.Lock()
		b.put.add(time.Since(start))
		b.mu.Unlock()
		b.puts.Add(1)
		b.notify()
	}
	return created, err
}

// reset forgets the puts timed so far: the timed phase starts.
func (b *asyncBackend) reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.put = layerAgg{}
}

func (b *asyncBackend) metrics(v map[string]float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	v["store.l2_put_ms"] = b.put.meanMS()
}

func (b *asyncBackend) Delete(key string) error {
	err := b.Backend.Delete(key)
	b.deletes.Add(1)
	b.notify()
	return err
}

func (b *asyncBackend) notify() {
	select {
	case b.changed <- struct{}{}:
	default:
	}
}

// settle waits until misses results have been published and their
// leases released, or a second has passed (counted as a timeout).
func (b *asyncBackend) settle(misses int64) {
	timer := time.NewTimer(time.Second)
	defer timer.Stop()
	for b.puts.Load() < misses || b.deletes.Load() < misses {
		select {
		case <-b.changed:
		case <-timer.C:
			b.timeouts.Add(1)
			return
		}
	}
}

// freshSet hands out programs never requested before, generated on
// demand from the seed (generation is input making, not timed). It
// keeps only a digest of each one's response, so that the memory the
// benchmark holds does not grow with the number of ops a run gets
// through; the check regenerates the programs.
type freshSet struct {
	seed int64
	mu   sync.Mutex
	sums [][sha256.Size]byte // by index; zero until answered
}

func (f *freshSet) item(i int) *item {
	name := fmt.Sprintf("fresh-%d", i)
	return &item{program: program{name: name, source: genSource(name, splitmix(f.seed, streamFresh, i), shape{stmts: serveStmts})}}
}

func (f *freshSet) next() (int, *item) {
	f.mu.Lock()
	i := len(f.sums)
	f.sums = append(f.sums, [sha256.Size]byte{})
	f.mu.Unlock()
	return i, f.item(i)
}

func (f *freshSet) answered(i int, prog string) {
	sum := sha256.Sum256([]byte(prog))
	f.mu.Lock()
	f.sums[i] = sum
	f.mu.Unlock()
}

// counters is a snapshot of the program's own serving counters.
type counters struct {
	srv   pdce.ServerCounters
	cache pdce.CacheMetrics
	l2    pdce.StoreMetrics
	fail  int64
}

func readCounters(st *stack) counters {
	c := counters{
		srv:   st.srv.Stats().Snapshot(),
		cache: st.srv.Cache().Metrics(),
		fail:  st.pool.Stats().Snapshot().Failovers,
	}
	if ss := st.srv.StoreStats(); ss != nil {
		c.l2 = ss.Snapshot(obs.StoreGauges{})
	}
	return c
}

// runServe runs a serve workload: closed-loop clients through a Pool
// against one in-process pdced.
func runServe(spec serveSpec, cfg config) (*result, error) {
	st, setupS, err := timedSetups(cfg.setups,
		func() (*stack, error) { return buildStack(spec, cfg) },
		func(s *stack) { s.close() })
	if err != nil {
		return nil, err
	}
	defer st.close()
	res := newResult()
	fresh := &freshSet{seed: cfg.seed}
	// Misses so far, set-up's included, for settle.
	var misses atomic.Int64
	misses.Store(int64(len(st.hot)))
	before := readCounters(st)
	if st.async != nil {
		st.async.reset()
	}

	mem := startMemPeak()
	cpuStart := cpuTime()
	// In a traced run the timed phase alternates untraced and traced
	// slices; ops are attributed to the slice they started in.
	const slice = 250 * time.Millisecond
	var phase atomic.Int32 // 1 while tracing
	var opsBy [2]atomic.Int64
	var attempted, failed, completed, mismatches atomic.Int64
	var states sync.Map // cache state -> *atomic.Int64
	stop := make(chan struct{})
	done := make([][]opDone, clients)
	meters := make([]speedMeter, clients)
	var samples sampleSet
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(splitmix(cfg.seed, streamClient, c)))
			prevEnd := cpuStart
			for {
				select {
				case <-stop:
					return
				default:
				}
				if n := attempted.Add(1); cfg.maxOps > 0 && n > int64(cfg.maxOps) {
					attempted.Add(-1)
					return
				}
				var it *item
				freshIdx := -1
				switch {
				case spec.freshShare > 0 && rng.Float64() < spec.freshShare:
					freshIdx, it = fresh.next()
				default:
					it = st.hot[rng.Intn(len(st.hot))]
				}
				mode := phase.Load()
				ctx := context.Background()
				var rec *opRec
				if mode == 1 {
					rec = &opRec{item: it}
					ctx = context.WithValue(ctx, opKey{}, rec)
				}
				refCPU := meters[c].tick(len(done[c]))
				t0, c0 := time.Now(), cpuTime()
				resp, cs, err := st.pool.Optimize(ctx, it.name, it.source, reqOpts)
				c1 := cpuTime()
				span := ms(c1 - prevEnd - refCPU)
				prevEnd = c1
				d := time.Since(t0)
				if err == nil && cs == pdce.CacheMiss && st.async != nil {
					st.async.settle(misses.Add(1))
				}
				opsBy[mode].Add(1)
				if rec != nil {
					rec.wait()
					st.ops.recs.Delete(rec.id)
				}
				switch {
				case err != nil || resp.Degraded:
					failed.Add(1)
					done[c] = append(done[c], opDone{span, math.Inf(1)})
					continue
				case !it.record(resp.Program):
					mismatches.Add(1)
					failed.Add(1)
					done[c] = append(done[c], opDone{span, math.Inf(1)})
					continue
				}
				if freshIdx >= 0 {
					fresh.answered(freshIdx, resp.Program)
				}
				completed.Add(1)
				done[c] = append(done[c], opDone{span, ms(c1 - c0)})
				v, _ := states.LoadOrStore(cs, new(atomic.Int64))
				v.(*atomic.Int64).Add(1)
				if rec != nil {
					rec.request = d
					rec.state = cs
					samples.add(rec)
				}
			}
		}(c)
	}

	var rtPlain rtSample
	var timeBy [2]time.Duration
	if cfg.traced {
		for mode := 0; ; mode ^= 1 {
			phase.Store(int32(mode))
			r0, s0 := readRuntime(), cpuTime()
			over := waitSlice(&attempted, cfg, start, slice)
			timeBy[mode] += cpuTime() - s0
			if mode == 0 {
				rtPlain = rtPlain.add(readRuntime().sub(r0))
			}
			if over {
				break
			}
		}
	} else {
		for !waitSlice(&attempted, cfg, start, time.Hour) {
		}
	}
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	peakMem := mem.end()
	after := readCounters(st)
	res.notef("wall clock: %.1f requests per second", float64(completed.Load())/elapsed.Seconds())
	if st.async != nil && st.async.timeouts.Load() > 0 {
		res.notef("%d misses' asynchronous store calls did not finish within a second", st.async.timeouts.Load())
	}

	res.Attempted = attempted.Load()
	res.Failed = failed.Load()
	if n := mismatches.Load(); n > 0 {
		res.notef("%d responses differ from an earlier response for the same program", n)
	}
	res.states = map[pdce.CacheState]int64{}
	states.Range(func(k, v any) bool {
		res.states[k.(pdce.CacheState)] = v.(*atomic.Int64).Load()
		res.notef("responses %-6s %d", k, v.(*atomic.Int64).Load())
		return true
	})

	runtime.GOMAXPROCS(cfg.procs)
	checkStart := time.Now()
	// Correctness gate, outside the timed phase: every program's
	// response equals the library's output for the same source.
	items := append([]*item(nil), st.hot...)
	for i, sum := range fresh.sums {
		if sum != ([sha256.Size]byte{}) {
			it := fresh.item(i)
			it.got, it.ok = string(sum[:]), 1
			items = append(items, it)
		}
	}
	nHot := len(st.hot)
	bad := make([]error, len(items))
	parallel(len(items), func(i int) {
		if it := items[i]; it.got != "" {
			want, err := libraryOutput(it.source)
			if i >= nHot { // a fresh program: got is the response's digest
				sum := sha256.Sum256([]byte(want))
				want = string(sum[:])
			}
			if err == nil && want != it.got {
				err = fmt.Errorf("response differs from the library output")
			}
			bad[i] = err
		}
	})
	for i, err := range bad {
		if err != nil {
			res.Failed += items[i].ok
			res.notef("%s: %v", items[i].name, err)
			res.Correct = false
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}

	v := map[string]float64{}
	defer func() {
		res.notef("set-up %.2fs (median of %d), timed %.2fs, checks %.2fs", setupS, cfg.setups, elapsed.Seconds(), time.Since(checkStart).Seconds())
	}()
	if cfg.traced {
		served := after.cache.Hits - before.cache.Hits + after.cache.Misses - before.cache.Misses
		v["server.l1_hit_ratio"] = safeDiv(float64(after.cache.Hits-before.cache.Hits), float64(served))
		v["server.shed_share"] = safeDiv(float64(after.srv.ShedQueueFull-before.srv.ShedQueueFull+after.srv.ShedDraining-before.srv.ShedDraining),
			float64(after.srv.Requests-before.srv.Requests))
		l2 := after.l2.L2Hits - before.l2.L2Hits + after.l2.L2Misses - before.l2.L2Misses
		v["store.l2_hit_ratio"] = safeDiv(float64(after.l2.L2Hits-before.l2.L2Hits), float64(l2))
		v["client.failovers"] = float64(after.fail - before.fail)
		v["runtime.gc_cpu_share"] = rtPlain.gcShare()
		v["runtime.alloc_bytes_per_op"] = safeDiv(rtPlain.allocBytes, float64(opsBy[0].Load()))
		v["trace.overhead"] = 1 - safeDiv(
			safeDiv(float64(opsBy[1].Load()), timeBy[1].Seconds()),
			safeDiv(float64(opsBy[0].Load()), timeBy[0].Seconds()))
		if st.async != nil {
			st.async.metrics(v)
		}
		samples.metrics(v)
		res.set(perLayer, v)
		return res, nil
	}

	v["setup_s"] = setupS
	for c := range done {
		for i := range done[c] {
			s := meters[c].scale(i)
			done[c][i].span *= s
			done[c][i].ms *= s
		}
		res.notef("host speed: reference-host time is %.3f times CPU time (median)", meters[c].medianScale())
	}
	serveMetrics(v, slices.Concat(done...))
	v["peak_mem_mb"] = peakMem
	imps := make([]verify.CountImprovement, len(st.hot))
	stmts := make([]int, len(st.hot))
	parallel(len(st.hot), func(i int) {
		orig, err1 := pdce.ParseCFG(st.hot[i].source)
		opt, err2 := pdce.ParseCFG(st.hot[i].got)
		if err1 != nil || err2 != nil {
			return // already failed the gate above
		}
		stmts[i] = opt.NumStatements()
		if i < savingsPrograms {
			imps[i] = verify.MeasureImprovement(orig.Graph(), opt.Graph(), savingsExecutions, 0)
		}
	})
	var sav savings
	for i := range st.hot {
		v["final_stmts"] += float64(stmts[i])
		sav.add(imps[i])
	}
	v["dyn_savings"] = sav.value()
	res.set(endToEnd, v)
	return res, nil
}

// opDone is one finished serve op: the CPU time it took and the CPU
// time since the previous op ended (its share of the run, background
// work such as serve-churn's settled L2 publishes included), in ms
// (+Inf for a failed op).
type opDone struct {
	span, ms float64
}

// blockOps is how many consecutive ops one ops_per_cpu_s sample spans.
const blockOps = 250

// serveMetrics reports ops_per_cpu_s as the median, over blocks of
// blockOps consecutive ops, of the block's successful ops per second
// of CPU time, so that a block with an unusual share of garbage
// collection or store writes does not move it. The latency percentiles
// are over every op. done is in the order the ops ended.
func serveMetrics(v map[string]float64, done []opDone) {
	var rates, lat []float64
	var ok, cpu float64
	for i, o := range done {
		lat = append(lat, o.ms)
		cpu += o.span
		if !math.IsInf(o.ms, 1) {
			ok++
		}
		if (i+1)%blockOps == 0 || (i == len(done)-1 && len(rates) == 0) {
			rates = append(rates, safeDiv(ok, cpu/1000))
			ok, cpu = 0, 0
		}
	}
	v["ops_per_cpu_s"] = median(rates)
	latencyMetrics(v, lat)
}

// waitSlice sleeps until the slice ends, the run's time is up, or (with
// maxOps) every op has been issued; it reports whether the run is over.
func waitSlice(attempted *atomic.Int64, cfg config, start time.Time, slice time.Duration) bool {
	end := time.Now().Add(slice)
	for {
		now := time.Now()
		if cfg.maxOps > 0 {
			if attempted.Load() >= int64(cfg.maxOps) {
				return true
			}
		} else if now.Sub(start) >= cfg.duration {
			return true
		}
		if !now.Before(end) {
			return false
		}
		time.Sleep(min(end.Sub(now), 5*time.Millisecond))
	}
}

// libraryOutput is what a library caller gets for src in the serve
// workloads' mode.
func libraryOutput(src string) (string, error) {
	p, err := pdce.ParseCFG(src)
	if err != nil {
		return "", err
	}
	opt, _, err := p.Optimize(pdce.Options{Mode: reqOpts.Mode})
	if err != nil {
		return "", err
	}
	return opt.Format(), nil
}
