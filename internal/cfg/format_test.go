package cfg_test

import (
	"fmt"
	"strings"
	"testing"

	"pdce/internal/cfg"
	"pdce/internal/core"
	"pdce/internal/ir"
	"pdce/internal/progen"
)

// refFormat is the fmt-based Format the package had before its append
// encoder, kept as the oracle the encoder must match byte for byte.
func refFormat(g *cfg.Graph) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph %q\n", g.Name)
	for _, n := range g.Nodes() {
		if n == g.Start || n == g.End {
			continue
		}
		if n.Synthetic {
			fmt.Fprintf(&sb, "node %s synthetic {\n", refLabel(n.Label))
		} else {
			fmt.Fprintf(&sb, "node %s {\n", refLabel(n.Label))
		}
		for _, s := range n.Stmts {
			fmt.Fprintf(&sb, "  %s\n", s)
		}
		sb.WriteString("}\n")
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, "edge %s %s\n", refLabel(e.From.Label), refLabel(e.To.Label))
	}
	return sb.String()
}

func refLabel(l string) string {
	for _, r := range l {
		if !(r == '_' || r == '.' || r >= '0' && r <= '9' ||
			r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z') {
			return fmt.Sprintf("%q", l)
		}
	}
	if l == "" {
		return `""`
	}
	return l
}

func checkFormat(t *testing.T, g *cfg.Graph) {
	t.Helper()
	want := refFormat(g)
	if got := g.Format(); got != want {
		t.Fatalf("Format diverged from the reference:\n got  %q\n want %q", got, want)
	}
	if got := string(g.AppendFormat([]byte("prefix\n"))); got != "prefix\n"+want {
		t.Fatalf("AppendFormat did not append to dst:\n got  %q\n want %q", got, "prefix\n"+want)
	}
}

// TestFormatOddNamesAndLabels covers quoting: graph names and labels
// with quotes, backslashes, newlines, tabs, control bytes, non-ASCII
// text and invalid UTF-8 must be quoted exactly as %q quotes them.
func TestFormatOddNamesAndLabels(t *testing.T) {
	odd := []string{
		"", "G", `say "hi"`, `back\slash`, "new\nline", "tab\there",
		"ünïcödé", "日本語", "emoji 🙂", "nul\x00byte", "bad\xffutf8", "​",
		"S4,5", "has space", "x.1_y", "42",
	}
	for i, name := range odd {
		g := cfg.New(name)
		prev := g.Start
		for j, label := range odd {
			if label == "s" || label == "e" {
				continue
			}
			n := g.AddNode(label)
			n.Synthetic = (i+j)%3 == 0
			if j%2 == 0 {
				n.Stmts = []ir.Stmt{
					ir.Assign{LHS: "x", RHS: ir.Add(ir.V("a"), ir.C(int64(-j)))},
					ir.Skip{},
					ir.Out{Arg: ir.Unary{Op: ir.OpNeg, X: ir.V("x")}},
				}
			}
			g.AddEdge(prev, n)
			prev = n
		}
		g.AddEdge(prev, g.End)
		checkFormat(t, g)
	}
}

// TestFormatMatchesReferenceOnCorpus compares the encoder with the
// reference on the 200-program generated corpus (the CacheKey property
// test's) and on each program's pde result with its synthetic nodes
// kept, whose labels need quoting.
func TestFormatMatchesReferenceOnCorpus(t *testing.T) {
	for seed := 0; seed < 200; seed++ {
		g := progen.Generate(progen.Params{
			Seed:        int64(seed),
			Stmts:       10 + seed%60,
			Vars:        2 + seed%6,
			Irreducible: seed%7 == 0,
		})
		checkFormat(t, g)
		opt, _, err := core.Transform(g, core.Options{Mode: core.ModeDead, KeepSynthetic: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkFormat(t, opt)
	}
}
