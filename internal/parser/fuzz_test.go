package parser_test

import (
	"testing"

	"pdce/internal/cfg"
	"pdce/internal/core"
	"pdce/internal/parser"
)

// checkLexPrecedence asserts the parsers' error precedence: when
// lexing src on its own fails, the parse must fail with exactly that
// lex error, whatever parse or validation error comes before it.
func checkLexPrecedence(t *testing.T, src string, err error) {
	t.Helper()
	lexErr := parser.LexError(src)
	if lexErr == nil {
		return
	}
	if err == nil {
		t.Fatalf("parse accepted %q, which does not lex: %v", src, lexErr)
	}
	if err.Error() != lexErr.Error() {
		t.Fatalf("parse of %q failed with %q, want the lex error %q", src, err, lexErr)
	}
}

// FuzzParseSource: the WHILE-language parser must never panic, and a
// lex error anywhere takes precedence; on success the lowered graph
// must be valid and its Format output must re-parse.
func FuzzParseSource(f *testing.F) {
	seeds := []string{
		"x := a + b\nout(x)",
		"if * { out(1) } else { out(2) }",
		"while i > 0 { i := i - 1 }\nout(i)",
		"do { x := x + 1 } while x < 10\nout(x)",
		"if a > 0 { while * { skip } }\nout(a)",
		"x := -(a*b) % (c-4)\nout(x)",
		"// comment\nx := 1; y := 2\nout(x+y)",
		"}{",
		"x :=",
		"if { }",
		"do { } until *",
		"out(((((1)))))",
		"x := := 1\n@",
		"if * { out(1) }\nx := \"a\\q\"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := parser.ParseSource("fuzz", src)
		checkLexPrecedence(t, src, err)
		if err != nil {
			return // rejected inputs are fine; panics are not
		}
		if errs := cfg.Validate(g); len(errs) > 0 {
			t.Fatalf("accepted program is invalid: %v\n%q", errs, src)
		}
		back, err := parser.ParseCFG(g.Format())
		if err != nil {
			t.Fatalf("Format output does not re-parse: %v\n%s", err, g.Format())
		}
		if !cfg.Equal(g, back) {
			t.Fatalf("Format round trip changed the graph for %q", src)
		}
	})
}

// FuzzParseCFG: the low-level parser must never panic, a lex error
// anywhere takes precedence, and accepted graphs must survive the full
// pde pipeline without breaking invariants.
func FuzzParseCFG(f *testing.F) {
	seeds := []string{
		"graph \"g\"\nnode 1 { x := a+b }\nnode 2 { out(x) }\nedge s 1\nedge 1 2\nedge 2 e",
		"node 1 {}\nedge s 1\nedge 1 e",
		"node 1 { branch(x>0) }\nnode 2 {}\nnode 3 {}\nedge s 1\nedge 1 2\nedge 1 3\nedge 2 e\nedge 3 e",
		"node \"S4,5\" synthetic {}\nedge s \"S4,5\"\nedge \"S4,5\" e",
		"node 1 { x := x+1 }\nnode 2 {}\nedge s 2\nedge 2 1\nedge 1 2\nedge 2 e",
		"edge s e",
		"node e { skip }",
		"graph",
		"node 1 { x := := }\n@",
		"node 1 { }\nedge s 1\n$",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := parser.ParseCFG(src)
		checkLexPrecedence(t, src, err)
		if err != nil {
			return
		}
		// Accepted graphs are valid by construction...
		cfg.MustValidate(g)
		// ...and the optimizer must handle them.
		opt, _, err := core.PDE(g)
		if err != nil {
			t.Fatalf("pde failed on accepted graph: %v\n%s", err, g.Format())
		}
		cfg.MustValidate(opt)
	})
}

// FuzzParseExpr: expression parsing never panics; accepted expressions
// round-trip through String.
func FuzzParseExpr(f *testing.F) {
	for _, s := range []string{
		"a+b*c", "(a+b)*c", "-x", "1/0", "a%b==c", "a<b", "((a))", "-",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := parser.ParseExpr(src)
		if err != nil {
			return
		}
		back, err := parser.ParseExpr(e.String())
		if err != nil {
			t.Fatalf("String output %q does not re-parse: %v", e.String(), err)
		}
		if back.Key() != e.Key() {
			t.Fatalf("round trip changed %q -> %q", e.Key(), back.Key())
		}
	})
}
