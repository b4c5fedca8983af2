package parser

// lex drains a token cursor over src, merged separators and the final
// TokEOF included, so tests can check the lexer token by token. It
// returns the first lex error instead, if the source has one.
func lex(src string) ([]Token, error) {
	t := newTokens(src)
	var toks []Token
	for {
		tok := t.next()
		if t.err != nil {
			return nil, t.err
		}
		toks = append(toks, tok)
		if tok.Kind == TokEOF {
			return toks, nil
		}
	}
}

// LexError returns the first lex error in src, or nil, for the
// precedence checks of the package's external tests.
func LexError(src string) error {
	_, err := lex(src)
	return err
}
