package parser

import "testing"

// TestParseErrorsGolden pins the exact error string of every entry
// point on inputs whose parse or validation error comes before a lex
// error, plus plain parse errors, separator runs and operator texts.
// The expected strings were taken from the lex-everything-first parser
// this package had before its lexer became a cursor: a lex error
// anywhere in the source must still win.
func TestParseErrorsGolden(t *testing.T) {
	cases := []struct{ fn, src, want string }{
		{"cfg", "node 1 { x := := }\n@", "2:2: unexpected character \"@\""},
		{"cfg", "node 1 { x := a }\nedge s 1\nedge 1 e\nedge 1 9\n\"unterminated", "5:14: unterminated string literal"},
		{"cfg", "node 1 { }\nedge s 1\n$", "3:2: unexpected character \"$\""},
		{"cfg", "node 1 { }\nnode 1 { }\nedge s 1\nedge 1 e # ok\nx := 1 ! 2", "5:9: unexpected \"!\" (expected \"!=\")"},
		{"cfg", "node 1 { x := a }\nedge s 1\nedge 1 e\nedge s 1\nn := 99999999999999999999", "5:26: integer literal \"99999999999999999999\" out of range"},
		{"cfg", "node s { out(1) }\n\"a\\q\"", "2:5: unknown escape \\q"},
		{"cfg", "graph {\n\"abc\\", "2:6: unterminated escape in string literal"},
		{"cfg", "node 1 { x := 1 }\nedge s 1\nedge 1 e\n:", "4:2: unexpected ':' (expected ':=')"},
		{"cfg", "node 1 { x := a }\nedge s 1\n// validation fails: 1 has no successor\nnode 2 { y := b = c }", "4:18: unexpected \"=\" (expected \"==\")"},
		{"cfg", "@ node 1 {}", "1:2: unexpected character \"@\""},
		{"cfg", "node 1 { x := @ $ }", "1:16: unexpected character \"@\""},
		{"cfg", "node 1 { x := := }", "1:15: expected expression, found ':=' \":=\""},
		{"cfg", "node 1 { <= }", "1:10: expected statement, found operator \"<=\""},
		{"cfg", "node 1 { x := a >= }", "1:20: expected expression, found '}' \"}\""},
		{"cfg", "node 1 {\n\n;\n x := ;;\n\n}", "4:7: expected expression, found separator \";\""},
		{"cfg", "node 1 { x := a }\nedge s 1", "invalid graph \"G\": node s cannot reach end"},
		{"cfg", "node 1 { x := a }\nedge s 1\nedge 1 e\nedge 1 q", "4:6: edge references undeclared node \"q\""},
		{"cfg", "node 1 { x := a", "1:16: unterminated node body for \"1\""},
		{"src", "if { }\nx := 99999999999999999999", "2:26: integer literal \"99999999999999999999\" out of range"},
		{"src", "x := \n out(x) : y", "2:10: unexpected ':' (expected ':=')"},
		{"src", "branch(x)\n\"a\\q\"", "2:5: unknown escape \\q"},
		{"src", "out(1)\n@", "2:2: unexpected character \"@\""},
		{"src", "while * { x := 1 \n y := != }\n=", "3:2: unexpected \"=\" (expected \"==\")"},
		{"src", "do { } until *\n#comment\n!", "3:2: unexpected \"!\" (expected \"!=\")"},
		{"src", "if * { out(1) ", "1:15: unexpected end of input (missing '}'?)"},
		{"src", "x := a == b == c", "1:13: expected statement, found operator \"==\""},
		{"src", "x := (a + b", "1:12: expected ')', found end of input \"\""},
		{"src", "x = 1", "1:4: unexpected \"=\" (expected \"==\")"},
		{"src", "x :", "1:4: unexpected ':' (expected ':=')"},
		{"expr", "a + ) ; \"\\", "1:11: unterminated escape in string literal"},
		{"expr", "a == b == c", "1:8: unexpected trailing operator \"==\""},
		{"expr", "a != b <= c", "1:8: unexpected trailing operator \"<=\""},
		{"expr", "(a + b", "1:7: expected ')', found end of input \"\""},
		{"expr", "a +\n\n; @", "3:4: unexpected character \"@\""},
		{"expr", "", "1:1: expected expression, found end of input \"\""},
	}
	for _, c := range cases {
		var err error
		switch c.fn {
		case "cfg":
			_, err = ParseCFG(c.src)
		case "src":
			_, err = ParseSource("p", c.src)
		case "expr":
			_, err = ParseExpr(c.src)
		}
		if err == nil {
			t.Errorf("%s %q: no error, want %q", c.fn, c.src, c.want)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("%s %q:\n got  %q\n want %q", c.fn, c.src, err.Error(), c.want)
		}
	}
}
