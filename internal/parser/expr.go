package parser

import (
	"fmt"

	"pdce/internal/ir"
)

// tokens is the token stream shared by both parsers: a cursor with
// one token of lookahead over the lexer. Runs of separators are merged
// here, so the grammar never sees two TokSemi in a row.
//
// A lex error ends the stream: the cursor records it and reports end
// of input from then on. finish makes that error the parse's result,
// whatever the grammar concluded from the truncated stream.
type tokens struct {
	lx  lexer
	tok Token // the lookahead
	err error // the first lex error, if any
}

func newTokens(src string) *tokens {
	t := &tokens{lx: lexer{src: src, line: 1, col: 1}}
	t.tok = t.lex()
	return t
}

// lex returns the next token from the lexer, or end of input once it
// has failed.
func (t *tokens) lex() Token {
	if t.err == nil {
		tok, err := t.lx.next()
		if err == nil {
			return tok
		}
		t.err = err
	}
	return Token{Kind: TokEOF, Line: t.lx.line, Col: t.lx.col}
}

func (t *tokens) peek() Token { return t.tok }

func (t *tokens) next() Token {
	tok := t.tok
	if tok.Kind == TokEOF {
		return tok
	}
	t.tok = t.lex()
	for tok.Kind == TokSemi && t.tok.Kind == TokSemi {
		t.tok = t.lex() // merge separator runs
	}
	return tok
}

// finish returns the outcome of a parse that ended with err (nil on
// success). It lexes the rest of the source first: a lex error
// anywhere in the source takes precedence over a parse or validation
// error, exactly as when the whole source was lexed before parsing.
func (t *tokens) finish(err error) error {
	for t.err == nil && t.tok.Kind != TokEOF {
		t.tok = t.lex()
	}
	if t.err != nil {
		return t.err
	}
	return err
}

func (t *tokens) errf(tok Token, format string, args ...any) error {
	return &Error{Line: tok.Line, Col: tok.Col, Msg: fmt.Sprintf(format, args...)}
}

func (t *tokens) expect(k TokKind) (Token, error) {
	tok := t.next()
	if tok.Kind != k {
		return tok, t.errf(tok, "expected %s, found %s %q", k, tok.Kind, tok.Text)
	}
	return tok, nil
}

// skipSemis consumes any separator tokens.
func (t *tokens) skipSemis() {
	for t.peek().Kind == TokSemi {
		t.next()
	}
}

// accept consumes the next token if it has kind k.
func (t *tokens) accept(k TokKind) bool {
	if t.peek().Kind == k {
		t.next()
		return true
	}
	return false
}

// Expression grammar (lowest to highest precedence):
//
//	expr    = additive [ relop additive ]      relop: == != < <= > >=
//	additive = multiplicative { (+|-) multiplicative }
//	multiplicative = unary { (*|/|%) unary }
//	unary   = [-] primary
//	primary = INT | IDENT | '(' expr ')'
//
// Exactly one relational operator is permitted per expression — there
// is no boolean algebra in the paper's term language.
func (t *tokens) parseExpr() (ir.Expr, error) {
	left, err := t.parseAdditive()
	if err != nil {
		return nil, err
	}
	if tok := t.peek(); tok.Kind == TokOp && isRelOp(tok.Text) {
		t.next()
		right, err := t.parseAdditive()
		if err != nil {
			return nil, err
		}
		return ir.Bin(ir.Op(tok.Text), left, right), nil
	}
	return left, nil
}

func isRelOp(s string) bool {
	switch s {
	case "==", "!=", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func (t *tokens) parseAdditive() (ir.Expr, error) {
	left, err := t.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		tok := t.peek()
		if tok.Kind != TokOp || (tok.Text != "+" && tok.Text != "-") {
			return left, nil
		}
		t.next()
		right, err := t.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = ir.Bin(ir.Op(tok.Text), left, right)
	}
}

func (t *tokens) parseMultiplicative() (ir.Expr, error) {
	left, err := t.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		tok := t.peek()
		var op ir.Op
		switch {
		case tok.Kind == TokStar:
			op = ir.OpMul
		case tok.Kind == TokOp && (tok.Text == "/" || tok.Text == "%"):
			op = ir.Op(tok.Text)
		default:
			return left, nil
		}
		t.next()
		right, err := t.parseUnary()
		if err != nil {
			return nil, err
		}
		left = ir.Bin(op, left, right)
	}
}

func (t *tokens) parseUnary() (ir.Expr, error) {
	if tok := t.peek(); tok.Kind == TokOp && tok.Text == "-" {
		t.next()
		x, err := t.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold a negated literal into a constant so "-1" round-trips.
		if c, ok := x.(ir.Const); ok {
			return ir.C(-c.Value), nil
		}
		return ir.Unary{Op: ir.OpNeg, X: x}, nil
	}
	return t.parsePrimary()
}

func (t *tokens) parsePrimary() (ir.Expr, error) {
	tok := t.next()
	switch tok.Kind {
	case TokInt:
		return ir.C(tok.Int), nil
	case TokIdent:
		return ir.V(ir.Var(tok.Text)), nil
	case TokLParen:
		e, err := t.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := t.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, t.errf(tok, "expected expression, found %s %q", tok.Kind, tok.Text)
}

// ParseExpr parses a standalone expression (used by tests and tools).
func ParseExpr(src string) (ir.Expr, error) {
	t := newTokens(src)
	e, err := parseWholeExpr(t)
	if err = t.finish(err); err != nil {
		return nil, err
	}
	return e, nil
}

func parseWholeExpr(t *tokens) (ir.Expr, error) {
	t.skipSemis()
	e, err := t.parseExpr()
	if err != nil {
		return nil, err
	}
	t.skipSemis()
	if tok := t.peek(); tok.Kind != TokEOF {
		return nil, t.errf(tok, "unexpected trailing %s %q", tok.Kind, tok.Text)
	}
	return e, nil
}

// parseSimpleStmt parses one of the paper's statement forms:
//
//	x := expr
//	out(expr)
//	branch(expr)
//	skip
func (t *tokens) parseSimpleStmt() (ir.Stmt, error) {
	tok := t.next()
	if tok.Kind != TokIdent {
		return nil, t.errf(tok, "expected statement, found %s %q", tok.Kind, tok.Text)
	}
	switch tok.Text {
	case "skip":
		return ir.Skip{}, nil
	case "out", "branch":
		if _, err := t.expect(TokLParen); err != nil {
			return nil, err
		}
		e, err := t.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := t.expect(TokRParen); err != nil {
			return nil, err
		}
		if tok.Text == "out" {
			return ir.Out{Arg: e}, nil
		}
		return ir.Branch{Cond: e}, nil
	default:
		if _, err := t.expect(TokAssign); err != nil {
			return nil, err
		}
		e, err := t.parseExpr()
		if err != nil {
			return nil, err
		}
		return ir.Assign{LHS: ir.Var(tok.Text), RHS: e}, nil
	}
}
