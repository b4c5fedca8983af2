// Package parser provides the two textual front ends of the
// repository:
//
//   - ParseCFG reads the low-level flow-graph language (explicit nodes
//     and edges) that cfg.(*Graph).Format emits, capable of expressing
//     arbitrary — including irreducible — branching structure, as the
//     paper's Figure 5 requires.
//   - ParseSource reads a small structured WHILE-language (assignments,
//     out, if/else, while, nondeterministic conditions written `*`) and
//     lowers it to a flow graph.
//
// Both share one lexer and one expression grammar.
//
// The lexer streams: the grammar reads tokens through a cursor with one
// token of lookahead (peek and next), and no token slice is ever built.
// Token texts are substrings of the source or constants. Lexing still
// behaves as if the whole source were lexed before parsing began: when
// a parse or validation error is found, the cursor lexes the rest of
// the source, and a lex error anywhere in it is the error returned. So
// the error a caller sees does not depend on where the grammar stopped
// reading, and is the same as from the lex-everything-first parser.
package parser

import (
	"fmt"
	"strconv"
	"strings"
)

// TokKind classifies tokens.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokInt
	TokString
	TokAssign // :=
	TokLBrace // {
	TokRBrace // }
	TokLParen // (
	TokRParen // )
	TokOp     // + - * / % == != < <= > >=
	TokStar   // * when used as nondeterministic condition
	TokSemi   // statement separator: ';' or newline(s)
	TokComma
)

func (k TokKind) String() string {
	switch k {
	case TokEOF:
		return "end of input"
	case TokIdent:
		return "identifier"
	case TokInt:
		return "integer"
	case TokString:
		return "string"
	case TokAssign:
		return "':='"
	case TokLBrace:
		return "'{'"
	case TokRBrace:
		return "'}'"
	case TokLParen:
		return "'('"
	case TokRParen:
		return "')'"
	case TokOp:
		return "operator"
	case TokStar:
		return "'*'"
	case TokSemi:
		return "separator"
	case TokComma:
		return "','"
	}
	return "unknown token"
}

// Token is a lexed token with its source position.
type Token struct {
	Kind TokKind
	Text string
	Int  int64 // valid when Kind == TokInt
	Line int
	Col  int
}

// Error is a parse error with position information.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

// lexer turns source text into tokens one at a time. Token texts are
// substrings of the source or constants, never copies, except for the
// decoded text of string literals.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func (l *lexer) errf(format string, args ...any) error {
	return &Error{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peekByte() (byte, bool) {
	if l.pos >= len(l.src) {
		return 0, false
	}
	return l.src[l.pos], true
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) next() (Token, error) {
	// Skip horizontal whitespace and comments.
	for {
		c, ok := l.peekByte()
		if !ok {
			return Token{Kind: TokEOF, Line: l.line, Col: l.col}, nil
		}
		if c == ' ' || c == '\t' || c == '\r' {
			l.advance()
			continue
		}
		if c == '#' || (c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/') {
			for {
				c, ok := l.peekByte()
				if !ok || c == '\n' {
					break
				}
				l.advance()
			}
			continue
		}
		break
	}
	line, col := l.line, l.col
	c := l.advance()
	mk := func(k TokKind, text string) Token {
		return Token{Kind: k, Text: text, Line: line, Col: col}
	}
	switch {
	case c == '\n' || c == ';':
		return mk(TokSemi, l.src[l.pos-1:l.pos]), nil
	case c == '{':
		return mk(TokLBrace, "{"), nil
	case c == '}':
		return mk(TokRBrace, "}"), nil
	case c == '(':
		return mk(TokLParen, "("), nil
	case c == ')':
		return mk(TokRParen, ")"), nil
	case c == ',':
		return mk(TokComma, ","), nil
	case c == ':':
		if n, ok := l.peekByte(); ok && n == '=' {
			l.advance()
			return mk(TokAssign, ":="), nil
		}
		return Token{}, l.errf("unexpected ':' (expected ':=')")
	case c == '*':
		return mk(TokStar, "*"), nil
	case c == '+' || c == '-' || c == '/' || c == '%':
		return mk(TokOp, l.src[l.pos-1:l.pos]), nil
	case c == '=' || c == '!' || c == '<' || c == '>':
		start := l.pos - 1
		if n, ok := l.peekByte(); ok && n == '=' {
			l.advance()
		} else if c == '=' || c == '!' {
			return Token{}, l.errf("unexpected %q (expected %q)", string(c), string(c)+"=")
		}
		return mk(TokOp, l.src[start:l.pos]), nil
	case c == '"':
		var sb strings.Builder
		for {
			n, ok := l.peekByte()
			if !ok || n == '\n' {
				return Token{}, l.errf("unterminated string literal")
			}
			l.advance()
			if n == '"' {
				break
			}
			if n == '\\' {
				esc, ok := l.peekByte()
				if !ok {
					return Token{}, l.errf("unterminated escape in string literal")
				}
				l.advance()
				switch esc {
				case '"', '\\':
					sb.WriteByte(esc)
				case 'n':
					sb.WriteByte('\n')
				default:
					return Token{}, l.errf("unknown escape \\%c", esc)
				}
				continue
			}
			sb.WriteByte(n)
		}
		return mk(TokString, sb.String()), nil
	case isDigit(c):
		start := l.pos - 1
		for {
			n, ok := l.peekByte()
			if !ok || !isDigit(n) {
				break
			}
			l.advance()
		}
		text := l.src[start:l.pos]
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return Token{}, l.errf("integer literal %q out of range", text)
		}
		t := mk(TokInt, text)
		t.Int = v
		return t, nil
	case isIdentStart(c):
		start := l.pos - 1
		for {
			n, ok := l.peekByte()
			if !ok || !isIdentCont(n) {
				break
			}
			l.advance()
		}
		return mk(TokIdent, l.src[start:l.pos]), nil
	}
	return Token{}, l.errf("unexpected character %q", string(c))
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) || c == '.' }
