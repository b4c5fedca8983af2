package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pdce"
	"pdce/internal/bitvec"
	"pdce/internal/server"
	"pdce/internal/store"
)

// headerOp joins a request to the benchmark's client span: the client
// transport sets it, the handler wrapper reads it.
const headerOp = "Perfbench-Op"

// opKey carries an op's record in the request context.
type opKey struct{}

// opRec is one traced serve op: the client.request span around
// Pool.Optimize, the server.handle span(s) around the server's handler,
// and the server's own spans for the same request.
type opRec struct {
	item    *item
	id      string
	request time.Duration
	state   pdce.CacheState

	mu      sync.Mutex
	sent    int // requests the client transport sent for the op
	handled int // requests the handler wrapper finished
	handle  time.Duration
	spans   map[string]time.Duration // server span time by name
	counts  map[string]int           // server span count by name
	body    []byte                   // the last response body
}

// wait blocks until the handler wrapper has finished every request the
// op sent: a client can decode a reply before the handler returns.
func (r *opRec) wait() {
	deadline := time.Now().Add(2 * time.Second)
	for {
		r.mu.Lock()
		done := r.handled >= r.sent
		r.mu.Unlock()
		if done || time.Now().After(deadline) {
			return
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// opTransport stamps traced requests with their op ID.
type opTransport struct {
	base http.RoundTripper
	ops  *opRegistry
}

// opRegistry maps op IDs to their records while the ops run.
type opRegistry struct {
	last atomic.Int64
	recs sync.Map
}

func (t opTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec, ok := req.Context().Value(opKey{}).(*opRec)
	if !ok {
		return t.base.RoundTrip(req)
	}
	rec.mu.Lock()
	if rec.id == "" {
		rec.id = strconv.FormatInt(t.ops.last.Add(1), 10)
		t.ops.recs.Store(rec.id, rec)
	}
	rec.sent++
	rec.mu.Unlock()
	r2 := req.Clone(req.Context())
	r2.Header.Set(headerOp, rec.id)
	return t.base.RoundTrip(r2)
}

// serveTracer wraps the server's handler with the server.handle span
// and collects the server's spans for the request from Server.Traces.
type serveTracer struct {
	srv  *server.Server
	next http.Handler
	ops  *opRegistry
}

func (t *serveTracer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	v, ok := t.ops.recs.Load(r.Header.Get(headerOp))
	if !ok {
		t.next.ServeHTTP(w, r)
		return
	}
	rec := v.(*opRec)
	cw := &captureWriter{ResponseWriter: w}
	start := time.Now()
	t.next.ServeHTTP(cw, r)
	d := time.Since(start)
	dump, _ := t.srv.Traces().Get(w.Header().Get(server.HeaderTraceID))
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.spans == nil {
		rec.spans, rec.counts = map[string]time.Duration{}, map[string]int{}
	}
	for _, s := range dump.Spans {
		rec.spans[s.Name] += time.Duration(s.DurationNS)
		rec.counts[s.Name]++
	}
	rec.handle += d
	rec.body = cw.buf.Bytes()
	rec.handled++
}

// captureWriter keeps a copy of the response body.
type captureWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.buf.Write(p)
	return c.ResponseWriter.Write(p)
}

func isLease(key string) bool { return strings.HasPrefix(key, store.LeaseKey("")) }

// maxReplays bounds the ops kept for replaying untraced stages.
const maxReplays = 256

// sampleSet aggregates traced serve ops and keeps a sample of them for
// the replays.
type sampleSet struct {
	mu              sync.Mutex
	ops             float64
	request, handle time.Duration
	spans           map[string]time.Duration
	counts          map[string]int
	kept            []*opRec
}

func (s *sampleSet) add(r *opRec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.spans == nil {
		s.spans, s.counts = map[string]time.Duration{}, map[string]int{}
	}
	s.ops++
	s.request += r.request
	r.mu.Lock()
	defer r.mu.Unlock()
	s.handle += r.handle
	for k, d := range r.spans {
		s.spans[k] += d
		s.counts[k] += r.counts[k]
	}
	if int(s.ops)%4 == 1 && len(s.kept) < maxReplays && r.body != nil {
		s.kept = append(s.kept, r)
	}
}

// perSpan is the mean duration of the named server span.
func (s *sampleSet) perSpan(name string) float64 {
	return safeDiv(ms(s.spans[name]), float64(s.counts[name]))
}

// perOp is the named server span's time spread over every op.
func (s *sampleSet) perOp(name string) float64 {
	return safeDiv(ms(s.spans[name]), s.ops)
}

// metrics reports the spanned stages and replays the stages the
// program does not span yet on the kept ops' inputs.
func (s *sampleSet) metrics(v map[string]float64) {
	v["client.request_ms"] = safeDiv(ms(s.request), s.ops)
	v["server.handle_ms"] = safeDiv(ms(s.handle), s.ops)
	v["client.overhead_ms"] = safeDiv(ms(s.request-s.handle), s.ops)
	v["server.cache_ms"] = s.perSpan("server.cache")
	v["server.admission_wait_ms"] = s.perSpan("server.admission")
	v["store.l2_get_ms"] = s.perSpan("cache.l2.get")
	v["core.optimize_ms"] = s.perSpan("solve")
	v["core.eliminate_ms"] = safeDiv(ms(s.spans["solve.eliminate"]), float64(s.counts["solve"]))
	v["core.sink_ms"] = safeDiv(ms(s.spans["solve.sink"]), float64(s.counts["solve"]))

	rp := replay(s.kept)
	rp.metrics(v)

	// Per-op budget: client key, decode; server decode, parse, key,
	// the spanned server stages, and encode on the ops that computed.
	missShare := safeDiv(rp.encode.n, float64(len(s.kept)))
	accounted := rp.clientKey.meanMS() + rp.decode.meanMS() +
		rp.serverDecode.meanMS() + rp.parse.meanMS() + rp.key.meanMS() +
		rp.encode.meanMS()*missShare
	for _, name := range []string{"server.cache", "server.flight.wait", "cache.l2.get", "lease.acquire", "lease.wait", "server.admission", "solve"} {
		accounted += s.perOp(name)
	}
	v["trace.unaccounted_ms"] = v["client.request_ms"] - accounted
}

// replays holds the timings of stages re-run on recorded inputs.
type replays struct {
	parse, key, clientKey, serverDecode, decode, encode, optimize layerAgg
	work                                                          solverWork
}

// replay re-runs, on each kept op's inputs, the stages the program does
// not span: the server's body read and query decode, parse, cache key
// and response encode, and the client's key and response decode. For
// ops the server computed, it also re-runs the solve with telemetry to
// count the solver's work. Times and allocation counts come from
// separate calls so the allocation meter does not perturb the times.
func replay(kept []*opRec) *replays {
	rp := &replays{}
	opts := pdce.Options{Mode: reqOpts.Mode}
	for _, r := range kept {
		src := r.item.source
		query := url.Values{"name": {r.item.name}, "mode": {reqOpts.Mode.String()}}.Encode()

		t0 := time.Now()
		_, _ = url.ParseQuery(query)
		_, _ = io.ReadAll(strings.NewReader(src))
		rp.serverDecode.add(time.Since(t0))

		t0 = time.Now()
		p, err := pdce.ParseCFG(src)
		rp.parse.add(time.Since(t0))
		if err != nil {
			continue
		}
		t0 = time.Now()
		_ = p.CacheKey(opts)
		rp.key.add(time.Since(t0))

		t0 = time.Now()
		if pdce.DetectLang(src) == "cfg" {
			if q, err := pdce.ParseCFG(src); err == nil {
				_ = q.CacheKey(opts)
			}
		}
		rp.clientKey.add(time.Since(t0))

		var resp pdce.OptimizeResponse
		t0 = time.Now()
		err = json.NewDecoder(bytes.NewReader(r.body)).Decode(&resp)
		rp.decode.add(time.Since(t0))
		if err != nil || r.state != pdce.CacheMiss {
			continue
		}
		t0 = time.Now()
		_, _ = json.Marshal(resp)
		rp.encode.add(time.Since(t0))
	}

	// Allocation counts, one call per kept op.
	for _, r := range kept {
		m := startAllocs()
		p, err := pdce.ParseCFG(r.item.source)
		objs, size := m.since()
		rp.parse.allocs += objs
		rp.parse.bytes += size
		if err != nil {
			continue
		}
		m = startAllocs()
		_ = p.CacheKey(opts)
		objs, _ = m.since()
		rp.key.allocs += objs
		if r.state != pdce.CacheMiss {
			continue
		}
		bitvec.EnableOpCount(true)
		m = startAllocs()
		_, st, err := p.Optimize(pdce.Options{Mode: reqOpts.Mode, Telemetry: true})
		objs, size = m.since()
		bitvec.EnableOpCount(false)
		if err != nil {
			continue
		}
		rp.optimize.allocs += objs
		rp.optimize.bytes += size
		rp.work.add(st)
	}
	return rp
}

func (rp *replays) metrics(v map[string]float64) {
	v["server.decode_ms"] = rp.serverDecode.meanMS()
	v["parser.parse_ms"] = rp.parse.meanMS()
	v["parser.allocs_per_op"] = safeDiv(rp.parse.allocs, rp.parse.n)
	v["parser.bytes_per_op"] = safeDiv(rp.parse.bytes, rp.parse.n)
	v["key.cachekey_ms"] = rp.key.meanMS()
	v["key.allocs_per_op"] = safeDiv(rp.key.allocs, rp.key.n)
	v["client.key_ms"] = rp.clientKey.meanMS()
	v["client.decode_ms"] = rp.decode.meanMS()
	v["server.encode_ms"] = rp.encode.meanMS()
	v["core.allocs_per_op"] = safeDiv(rp.optimize.allocs, rp.work.runs)
	v["core.bytes_per_op"] = safeDiv(rp.optimize.bytes, rp.work.runs)
	rp.work.metrics(v)
}
