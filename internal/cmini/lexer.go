package cmini

import (
	"errors"
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
		case c == ' ' || c == '\t' || c == '\r':
			l.off++
			l.col++
		case c == '\n':
			l.off++
			l.line++
			l.col = 1
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

// identCont marks the bytes that continue an identifier.
var identCont = func() (t [256]bool) {
	for c := range t {
		t[c] = isIdentStart(byte(c)) || isDigit(byte(c))
	}
	return t
}()

// skipIdent moves past the identifier bytes from the current offset,
// none of which is a newline.
func (l *Lexer) skipIdent() {
	i := l.off
	for i < len(l.src) && identCont[l.src[i]] {
		i++
	}
	l.col += i - l.off
	l.off = i
}

// Next returns the next token, or an error for malformed input.
func (l *Lexer) Next() (Token, error) {
	t := Token{Pos: diag.Pos{File: l.file}}
	if err := l.scan(&t); err != nil {
		return Token{}, err
	}
	return t, nil
}

// scan lexes the next token into *t, overwriting all of it but
// t.Pos.File, which must already name the lexer's file, or returns an
// error for malformed input. Windows lex straight into their slots,
// which hold the tokens of one file one after another: a string field
// is written only when it changes, as a pointer written to the heap
// while the collector marks costs a write barrier.
func (l *Lexer) scan(t *Token) error {
	if err := l.skipSpaceAndComments(); err != nil {
		return err
	}
	t.Pos.Line, t.Pos.Col = l.line, l.col
	if l.off >= len(l.src) {
		t.Kind, t.Lit = EOF, ""
		return nil
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		start := l.off
		l.skipIdent()
		t.Lit = l.src[start:l.off]
		t.Kind = keyword(t.Lit)
		return nil
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
		t.Kind, t.Lit = INT, l.src[start:l.off]
		return nil
	case c == '"':
		return l.lexString(t)
	case c == '\'':
		return l.lexChar(t)
	}
	return l.lexOperator(t)
}

func (l *Lexer) lexString(t *Token) error {
	l.advance() // opening quote
	// A literal without escapes is its source text.
	for i := l.off; i < len(l.src); i++ {
		if c := l.src[i]; c == '"' {
			t.Kind, t.Lit = STRING, l.src[l.off:i]
			l.col += i + 1 - l.off
			l.off = i + 1
			return nil
		} else if c == '\\' || c == '\n' {
			break
		}
	}
	var b strings.Builder
	for {
		if l.off >= len(l.src) {
			return diag.Errorf(t.Pos, "unterminated string literal")
		}
		c := l.advance()
		if c == '"' {
			t.Kind, t.Lit = STRING, b.String()
			return nil
		}
		if c == '\\' {
			if l.off >= len(l.src) {
				return diag.Errorf(t.Pos, "unterminated string escape")
			}
			e, err := unescape(l.advance())
			if err != nil {
				return &diag.Error{Pos: t.Pos, Err: err}
			}
			b.WriteByte(e)
			continue
		}
		if c == '\n' {
			return diag.Errorf(t.Pos, "newline in string literal")
		}
		b.WriteByte(c)
	}
}

func (l *Lexer) lexChar(t *Token) error {
	l.advance() // opening quote
	if l.off >= len(l.src) {
		return diag.Errorf(t.Pos, "unterminated char literal")
	}
	c := l.advance()
	if c == '\\' {
		if l.off >= len(l.src) {
			return diag.Errorf(t.Pos, "unterminated char escape")
		}
		e, err := unescape(l.advance())
		if err != nil {
			return &diag.Error{Pos: t.Pos, Err: err}
		}
		c = e
	}
	if l.off >= len(l.src) || l.advance() != '\'' {
		return diag.Errorf(t.Pos, "unterminated char literal")
	}
	t.Kind, t.Lit = CHAR, string(c)
	return nil
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

// The operator tables, indexed by an operator's first byte: the token
// the byte is alone, followed by '=', and doubled. EOF marks none.
var (
	opAlone = [256]Tok{
		'(': LPAREN, ')': RPAREN, '{': LBRACE, '}': RBRACE, '[': LBRACK,
		']': RBRACK, ';': SEMI, ',': COMMA, '=': ASSIGN, '+': PLUS, '-': MINUS,
		'*': STAR, '/': SLASH, '%': PERCENT, '&': AMP, '|': PIPE, '^': CARET,
		'~': TILDE, '!': NOT, '<': LT, '>': GT, '?': QUESTION, ':': COLON,
		'.': DOT,
	}
	opEq = [256]Tok{
		'=': EQ, '!': NE, '<': LE, '>': GE, '+': ADDEQ, '-': SUBEQ, '*': MULEQ,
		'/': DIVEQ, '%': MODEQ, '&': ANDEQ, '|': OREQ, '^': XOREQ,
	}
	opDoubled = [256]Tok{'+': INC, '-': DEC, '<': SHL, '>': SHR, '&': LAND, '|': LOR}
)

// lexOperator lexes punctuation and operators, longest match first,
// looking the first byte up in the operator tables.
func (l *Lexer) lexOperator(t *Token) error {
	c, c1 := l.peek(), l.peek2()
	k, n := opAlone[c], 1
	switch {
	case k == EOF:
		return diag.Errorf(t.Pos, "unexpected character %q", c)
	case c1 == '=' && opEq[c] != EOF:
		k, n = opEq[c], 2
	case c1 == c && opDoubled[c] != EOF:
		k, n = opDoubled[c], 2
		if (c == '<' || c == '>') && l.off+2 < len(l.src) && l.src[l.off+2] == '=' {
			k, n = SHLEQ, 3
			if c == '>' {
				k = SHREQ
			}
		}
	case c == '-' && c1 == '>':
		k, n = ARROW, 2
	}
	l.off += n // operators hold no newline
	l.col += n
	t.Kind = k
	if t.Lit != "" {
		t.Lit = ""
	}
	return nil
}

// LexAll tokenizes the whole input, returning every token up to and
// excluding EOF. The C and unit parsers read a Window instead; Click
// configurations and goals, which split their tokens into statements,
// use the slice.
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

// Window reads a lexer three tokens at a time, the most the C and unit
// parsers look at: the current token, lexed when the parser moves onto
// it, and up to two more, lexed when the parser first looks ahead to
// them. A lexing error ends the stream: from its position on every
// token is of a kind no parser accepts, so the parser fails there, and
// Err reports the lexing error unless the parser failed earlier in the
// source. Either way the error reported is the first in source order.
type Window struct {
	lex   Lexer
	cur   Token
	ahead [2]Token // the n tokens after cur that are lexed
	n     int
	err   error // the lexing error met, if any
	bad   Token // the token that stands for it
}

// badTok is the kind of the token a lexing error leaves behind.
const badTok Tok = -1

// NewWindow returns a window on the first token of src.
func NewWindow(file, src string) *Window {
	w := &Window{lex: Lexer{file: file, src: src, line: 1, col: 1}}
	w.cur.Pos.File, w.ahead[0].Pos.File, w.ahead[1].Pos.File = file, file, file
	w.lexNext(&w.cur)
	return w
}

// Cur returns the current token. It changes when the window moves: copy
// it to keep it.
func (w *Window) Cur() *Token { return &w.cur }

// Peek returns the token ahead tokens past the current one, for ahead
// 1 or 2. It changes when the window moves: copy it to keep it.
func (w *Window) Peek(ahead int) *Token {
	for w.n < ahead {
		w.lexNext(&w.ahead[w.n])
		w.n++
	}
	return &w.ahead[ahead-1]
}

// Next returns the current token and moves past it.
func (w *Window) Next() Token {
	t := w.cur
	w.skip()
	return t
}

// skip moves past the current token.
func (w *Window) skip() {
	if w.n == 0 {
		w.lexNext(&w.cur)
		return
	}
	w.cur, w.ahead[0] = w.ahead[0], w.ahead[1]
	w.n--
}

// lexNext lexes the next token into *t.
func (w *Window) lexNext(t *Token) {
	if w.err == nil {
		err := w.lex.scan(t)
		if err == nil {
			return
		}
		w.err = err
		w.bad = Token{Kind: badTok, Pos: err.(*diag.Error).Pos} // the lexer's errors are all positioned
	}
	*t = w.bad
}

// Err returns the error to report for a parse that ended with err, nil
// if it succeeded: the lexing error the window met, unless err lies
// earlier in the source.
func (w *Window) Err(err error) error {
	if w.err == nil {
		return err
	}
	var de *diag.Error
	if err != nil && errors.As(err, &de) && before(de.Pos, w.bad.Pos) {
		return err
	}
	return w.err
}

// before reports whether a is earlier in a file than b.
func before(a, b diag.Pos) bool {
	return a.Line < b.Line || a.Line == b.Line && a.Col < b.Col
}
