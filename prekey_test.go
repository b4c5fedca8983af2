package pdce

import (
	"crypto/sha256"
	"testing"
)

// Every field that decides the parse or the response is in the
// pre-key, so changing any one of them never reuses an alias; the
// length prefixes keep bytes from sliding between adjacent fields.
func TestRequestPreKeyIsolation(t *testing.T) {
	type req struct {
		version, name, lang, explain string
		o                            Options
		body                         string
	}
	pk := func(r req) [sha256.Size]byte {
		return requestPreKey(r.version, r.name, r.lang, r.explain, r.o, r.body)
	}
	src := Generate(GenParams{Seed: 3, Stmts: 30}).Format()
	base := req{version: cacheKeyVersion, name: "request", o: Options{Mode: Dead}, body: src}
	if pk(base) != RequestPreKey(base.name, base.lang, base.explain, base.o, base.body) {
		t.Fatal("RequestPreKey does not hash the build's cacheKeyVersion")
	}
	// lang "" means "detect": the same parse as naming the detected one.
	detected := base
	detected.lang = DetectLang(src)
	if pk(detected) != pk(base) {
		t.Error("an explicit lang equal to the detected one changed the pre-key")
	}
	variants := map[string]func(*req){
		"mode":          func(r *req) { r.o.Mode = Faint },
		"max-rounds":    func(r *req) { r.o.MaxRounds = 2 },
		"telemetry":     func(r *req) { r.o.Telemetry = true },
		"trace":         func(r *req) { r.o.Trace = true },
		"explain":       func(r *req) { r.explain = "x" },
		"lang":          func(r *req) { r.lang = "while" },
		"name":          func(r *req) { r.name = "other" },
		"version":       func(r *req) { r.version = "pdce-cache-v0" },
		"whitespace":    func(r *req) { r.body += "\n" },
		"comment":       func(r *req) { r.body = "# note\n" + r.body },
		"name/explain":  func(r *req) { r.name, r.explain = "reques", "t" },
		"explain/lang":  func(r *req) { r.explain, r.lang = "cf", "g" },
		"name/body":     func(r *req) { r.name, r.body = "request"+r.body[:1], r.body[1:] },
		"version/empty": func(r *req) { r.version = "" },
	}
	seen := map[[sha256.Size]byte]string{pk(base): "base"}
	for what, change := range variants {
		r := base
		change(&r)
		k := pk(r)
		if prev, dup := seen[k]; dup {
			t.Errorf("changing %s reuses the pre-key of %s", what, prev)
		}
		seen[k] = what
	}
}

// DetectLang only reads up to the first significant line.
func TestDetectLang(t *testing.T) {
	for src, want := range map[string]string{
		"":                            "while",
		"\n\n":                        "while",
		"# c\n// c\n  graph \"g\"\n":  "cfg",
		"\tnode b1\n":                 "cfg",
		"edge\ta b\n":                 "cfg",
		"x := 1\ngraph \"g\"\n":       "while",
		"// graph x\nnodes := 1\n":    "while",
		"graph":                       "while",
		"   \n# only comments\n// \n": "while",
	} {
		if got := DetectLang(src); got != want {
			t.Errorf("DetectLang(%q) = %q, want %q", src, got, want)
		}
	}
}
