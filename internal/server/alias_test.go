package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pdce"
	"pdce/internal/keymemo"
)

// The raw-request alias memo is an accelerator only: whatever path a
// request takes — alias hit, alias miss, evicted alias — its answer
// must be exactly the one parsing and canonical keying give.

// answer is what a client sees of one /optimize call.
type answer struct {
	status int
	cache  string
	body   string
}

func post(h http.Handler, query, body string) answer {
	req := httptest.NewRequest(http.MethodPost, "/optimize?"+query, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return answer{rec.Code, rec.Header().Get("X-Pdced-Cache"), rec.Body.String()}
}

func newAliasServer(t testing.TB, cfg Config) (*Server, http.Handler) {
	t.Helper()
	cfg.TraceCapacity = -1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, s.Handler()
}

// aliasVsParse sends one request twice — the second time a parseable
// request is keyed through its alias — then forgets every alias and
// sends it again, which keys it by parsing. The two later answers must
// be identical. It reports whether the request was aliased.
func aliasVsParse(t testing.TB, s *Server, h http.Handler, query, body string) (answer, bool) {
	t.Helper()
	post(h, query, body)
	before := s.stats.Snapshot().KeyAliasHits
	viaAlias := post(h, query, body)
	aliased := s.stats.Snapshot().KeyAliasHits > before
	s.aliases = keymemo.New(aliasEntries(s.cfg.CacheEntries))
	viaParse := post(h, query, body)
	if viaAlias != viaParse {
		t.Fatalf("query %q: alias path answered %d %q\n%s\nparse path answered %d %q\n%s",
			query, viaAlias.status, viaAlias.cache, viaAlias.body, viaParse.status, viaParse.cache, viaParse.body)
	}
	if aliased != (viaParse.status == http.StatusOK) {
		t.Fatalf("query %q: status %d but aliased=%v (every parseable request, and only those, is aliased)",
			query, viaParse.status, aliased)
	}
	return viaAlias, aliased
}

// variant is a whitespace-and-comment rewrite of CFG text: the same
// program under different bytes.
func variant(src string) string {
	return "# resubmitted\n" + strings.ReplaceAll(src, "\n", "  \n")
}

func TestAliasProperty(t *testing.T) {
	const programs = 200
	s, h := newAliasServer(t, Config{})
	options := []url.Values{
		{"mode": {"pfe"}},
		{"max_rounds": {"1"}},
		{"telemetry": {"1"}},
		{"explain": {"v0"}},
		{"lang": {"while"}}, // a CFG body under the wrong front end: 400
		{"name": {"renamed"}},
	}
	for seed := 0; seed < programs; seed++ {
		src := pdce.Generate(pdce.GenParams{Seed: int64(seed), Stmts: 10 + seed%30, Irreducible: seed%7 == 0}).Format()
		name := "p" + strconv.Itoa(seed)
		q := url.Values{"name": {name}}
		want, _ := aliasVsParse(t, s, h, q.Encode(), src)
		if want.status != http.StatusOK || want.cache != string(pdce.CacheHit) {
			t.Fatalf("seed %d: answered %d %q, want a 200 hit", seed, want.status, want.cache)
		}

		// A variant gets its own alias to the same canonical key: the
		// first sight is keyed by parsing and is already a hit.
		v := variant(src)
		snap := s.stats.Snapshot()
		first := post(h, q.Encode(), v)
		if first != want {
			t.Fatalf("seed %d: variant answered %d %q, want the original's hit bytes", seed, first.status, first.cache)
		}
		if again := post(h, q.Encode(), v); again != want {
			t.Fatalf("seed %d: aliased variant answered %d %q", seed, again.status, again.cache)
		}
		after := s.stats.Snapshot()
		if after.KeyAliasMisses != snap.KeyAliasMisses+1 || after.KeyAliasHits != snap.KeyAliasHits+1 {
			t.Fatalf("seed %d: variant alias misses/hits moved by %d/%d, want 1/1", seed,
				after.KeyAliasMisses-snap.KeyAliasMisses, after.KeyAliasHits-snap.KeyAliasHits)
		}

		// Changing any option, the lang, or the name never reuses the
		// alias: the first request under it is keyed by parsing.
		if seed%10 != 0 {
			continue
		}
		for _, o := range options {
			oq := url.Values{"name": {name}}
			for k, v := range o {
				oq[k] = v
			}
			snap := s.stats.Snapshot()
			got := post(h, oq.Encode(), src)
			if d := s.stats.Snapshot().KeyAliasMisses - snap.KeyAliasMisses; d != 1 {
				t.Fatalf("seed %d %v: reused an alias (alias misses moved by %d)", seed, o, d)
			}
			if o.Has("lang") && got.status != http.StatusBadRequest {
				t.Fatalf("seed %d: CFG text under lang=while answered %d, want 400", seed, got.status)
			}
			aliasVsParse(t, s, h, oq.Encode(), src)
		}
	}
}

// An unparseable body is answered 400 every time and never aliased.
func TestAliasNeverForUnparseable(t *testing.T) {
	s, h := newAliasServer(t, Config{})
	for _, body := range []string{"x := (", "graph \"g\"\nnode b1\nedge b1 nowhere\n", "if * {"} {
		for i := 0; i < 3; i++ {
			if a := post(h, "name=bad", body); a.status != http.StatusBadRequest {
				t.Fatalf("%q: answered %d, want 400", body, a.status)
			}
		}
	}
	if n := s.aliases.Len(); n != 0 {
		t.Fatalf("unparseable bodies left %d aliases", n)
	}
	snap := s.stats.Snapshot()
	if snap.KeyAliasHits != 0 || snap.KeyAliasMisses != 9 || snap.ParseFailures != 9 {
		t.Fatalf("alias hits/misses %d/%d, parse failures %d; want 0/9/9",
			snap.KeyAliasHits, snap.KeyAliasMisses, snap.ParseFailures)
	}
}

// With the memo full, evicted aliases fall back to the parse path and
// every answer stays the one first served.
func TestAliasEvictionFallsBackToParse(t *testing.T) {
	s, h := newAliasServer(t, Config{})
	s.aliases = keymemo.New(4)
	const n = 20
	want := make([]answer, n)
	src := func(i int) string { return pdce.Generate(pdce.GenParams{Seed: int64(i), Stmts: 20}).Format() }
	for i := range want {
		want[i] = post(h, "name=e", src(i))
		if want[i].status != http.StatusOK {
			t.Fatalf("program %d: %d %s", i, want[i].status, want[i].body)
		}
	}
	before := s.stats.Snapshot()
	for round := 0; round < 2; round++ {
		for i := range want {
			got := post(h, "name=e", src(i))
			if got.body != want[i].body || got.cache != string(pdce.CacheHit) {
				t.Fatalf("round %d program %d: answered %q, differing bytes=%v", round, i, got.cache, got.body != want[i].body)
			}
		}
	}
	after := s.stats.Snapshot()
	if after.KeyAliasMisses-before.KeyAliasMisses < n {
		t.Fatalf("only %d alias misses cycling %d programs through a 4-entry memo", after.KeyAliasMisses-before.KeyAliasMisses, n)
	}
	if s.aliases.Len() > 4 {
		t.Fatalf("memo holds %d aliases, bound 4", s.aliases.Len())
	}
}

// Concurrent clients racing on the same programs and their variants —
// cold misses, singleflight followers, alias hits, and evictions from a
// small memo at once — all get the bytes a sequential reference
// server gives.
func TestAliasConcurrentClients(t *testing.T) {
	const programs, clients = 24, 8
	_, ref := newAliasServer(t, Config{})
	s, h := newAliasServer(t, Config{})
	s.aliases = keymemo.New(16)
	srcs := make([]string, programs)
	want := make([]string, programs)
	for i := range srcs {
		srcs[i] = pdce.Generate(pdce.GenParams{Seed: int64(100 + i), Stmts: 25}).Format()
		want[i] = post(ref, "name=c&telemetry=1", srcs[i]).body
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < 3*programs; k++ {
				i := (c*7 + k) % programs
				body := srcs[i]
				if k%2 == 1 {
					body = variant(body)
				}
				got := post(h, "name=c&telemetry=1", body)
				if got.status != http.StatusOK || got.body != want[i] {
					t.Errorf("client %d program %d: answered %d %q with differing bytes", c, i, got.status, got.cache)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if snap := s.stats.Snapshot(); snap.KeyAliasHits == 0 {
		t.Error("no request was keyed through an alias")
	}
}

// An aliased resubmission to the async queue answers what the parse
// path would: a duplicate of the queued job, or done once cached.
func TestAliasSubmit(t *testing.T) {
	s, h := newAliasServer(t, Config{QueueDir: t.TempDir()})
	submit := func(body string) string {
		req := httptest.NewRequest(http.MethodPost, "/optimize/submit?name=q", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return fmt.Sprintf("%d %s", rec.Code, rec.Body.String())
	}
	src := pdce.Generate(pdce.GenParams{Seed: 9, Stmts: 30}).Format()
	post(h, "name=q", src) // cached by a synchronous request
	first := submit(src)
	second := submit(src)
	if first != second || !strings.HasPrefix(first, "200 ") || !strings.Contains(first, `"cached":true`) {
		t.Fatalf("submits of a cached program answered\n%s\n%s", first, second)
	}
	if hits := s.stats.Snapshot().KeyAliasHits; hits != 2 {
		t.Fatalf("alias hits %d, want 2 (both submits reuse the optimize request's alias)", hits)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// FuzzRequestPreKey: for every (name, lang, options, body), the answer
// through the alias equals the answer through parsing — 400s included.
func FuzzRequestPreKey(f *testing.F) {
	f.Add("demo", "", uint8(0), "y := a + b\nif * {\n    y := c\n}\nout(x + y)\n")
	f.Add("g", "cfg", uint8(1), pdce.Generate(pdce.GenParams{Seed: 1, Stmts: 12}).Format())
	f.Add("", "while", uint8(6), "x := 1; out(x)")
	f.Add("bad", "", uint8(2), "x := (")
	f.Add("l", "pascal", uint8(0), "x := 1")
	f.Add("e", "", uint8(12), "x := 1; y := x; out(y)")
	s, h := newAliasServer(f, Config{})
	f.Fuzz(func(t *testing.T, name, lang string, opts uint8, body string) {
		if len(body) > 4096 {
			return
		}
		q := url.Values{"name": {name}, "lang": {lang}, "mode": {"pde"}}
		if opts&1 != 0 {
			q.Set("mode", "pfe")
		}
		if opts&2 != 0 {
			q.Set("max_rounds", "2")
		}
		if opts&4 != 0 {
			q.Set("telemetry", "1")
		}
		if opts&8 != 0 {
			q.Set("explain", "x")
		}
		a, _ := aliasVsParse(t, s, h, q.Encode(), body)
		if a.status != http.StatusOK && a.status != http.StatusBadRequest {
			t.Fatalf("answered %d: %s", a.status, a.body)
		}
	})
}
