package cmini

import (
	"fmt"
	"reflect"
	"testing"

	"knit/internal/diag"
	"knit/internal/diag/diagtest"
)

func TestLexBasicTokens(t *testing.T) {
	toks, err := LexAll("t.c", "int x = 42; /* c */ // line\nchar *s = \"hi\\n\";")
	if err != nil {
		t.Fatal(err)
	}
	want := []Tok{KwInt, IDENT, ASSIGN, INT, SEMI, KwChar, STAR, IDENT, ASSIGN, STRING, SEMI}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(want), toks)
	}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("tok %d = %v, want %v", i, toks[i].Kind, k)
		}
	}
	if toks[3].Lit != "42" {
		t.Errorf("int literal = %q, want 42", toks[3].Lit)
	}
	if toks[9].Lit != "hi\n" {
		t.Errorf("string literal = %q, want hi\\n", toks[9].Lit)
	}
}

func TestLexOperators(t *testing.T) {
	src := "+ - * / % << >> <<= >>= <= >= == != && || ++ -- -> . ? : ~ ! ^ | & += -="
	want := []Tok{PLUS, MINUS, STAR, SLASH, PERCENT, SHL, SHR, SHLEQ, SHREQ,
		LE, GE, EQ, NE, LAND, LOR, INC, DEC, ARROW, DOT, QUESTION, COLON,
		TILDE, NOT, CARET, PIPE, AMP, ADDEQ, SUBEQ}
	toks, err := LexAll("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(want))
	}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("tok %d = %v, want %v", i, toks[i].Kind, k)
		}
	}
}

func TestLexKeywordsVsIdents(t *testing.T) {
	toks, err := LexAll("t.c", "if ifx while whilex return returning struct structs")
	if err != nil {
		t.Fatal(err)
	}
	want := []Tok{KwIf, IDENT, KwWhile, IDENT, KwReturn, IDENT, KwStruct, IDENT}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("tok %d (%q) = %v, want %v", i, toks[i].Lit, toks[i].Kind, k)
		}
	}
}

func TestLexHexLiteral(t *testing.T) {
	toks, err := LexAll("t.c", "0x1F 0XFF")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Lit != "0x1F" || toks[1].Lit != "0XFF" {
		t.Errorf("hex literals = %q %q", toks[0].Lit, toks[1].Lit)
	}
}

func TestLexCharLiterals(t *testing.T) {
	toks, err := LexAll("t.c", `'a' '\n' '\0' '\\'`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "\n", "\x00", "\\"}
	for i, w := range want {
		if toks[i].Kind != CHAR || toks[i].Lit != w {
			t.Errorf("char %d = %v %q, want CHAR %q", i, toks[i].Kind, toks[i].Lit, w)
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := LexAll("f.c", "int\n  x;")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("int pos = %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("x pos = %v", toks[1].Pos)
	}
	if toks[0].Pos.File != "f.c" {
		t.Errorf("file = %q", toks[0].Pos.File)
	}
}

func TestLexErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		pos  string
	}{
		{"unterminated string", `char *s = "abc`, "1:11"},
		{"unterminated comment", "/* never ends", "1:1"},
		{"bad char", "int x = $;", "1:9"},
		{"newline in string", "char *s = \"a\nb\";", "1:11"},
		{"bad escape", `char *s = "\q";`, "1:11"},
		{"unterminated char", "'a", "1:1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := LexAll("t.c", c.src)
			if err == nil {
				t.Fatalf("LexAll(%q) succeeded, want error", c.src)
			}
			if got := diagtest.At(t, err, c.src); got != c.pos {
				t.Errorf("error %q at %s, want %s", err, got, c.pos)
			}
		})
	}
}

// The operator tables lexOperator used before it switched on the first
// byte, kept as the reference TestLexOperatorsMatchTables checks it
// against.
var (
	refThreeCharOps = map[string]Tok{"<<=": SHLEQ, ">>=": SHREQ}
	refTwoCharOps   = map[string]Tok{
		"+=": ADDEQ, "-=": SUBEQ, "*=": MULEQ, "/=": DIVEQ, "%=": MODEQ,
		"&=": ANDEQ, "|=": OREQ, "^=": XOREQ, "++": INC, "--": DEC,
		"<<": SHL, ">>": SHR, "<=": LE, ">=": GE, "==": EQ, "!=": NE,
		"&&": LAND, "||": LOR, "->": ARROW,
	}
	refOneCharOps = map[byte]Tok{
		'(': LPAREN, ')': RPAREN, '{': LBRACE, '}': RBRACE, '[': LBRACK,
		']': RBRACK, ';': SEMI, ',': COMMA, '=': ASSIGN, '+': PLUS, '-': MINUS,
		'*': STAR, '/': SLASH, '%': PERCENT, '&': AMP, '|': PIPE, '^': CARET,
		'~': TILDE, '!': NOT, '<': LT, '>': GT, '?': QUESTION, ':': COLON,
		'.': DOT,
	}
)

func refLexOperator(l *Lexer, p diag.Pos) (Token, error) {
	if l.off+2 < len(l.src) {
		if k, ok := refThreeCharOps[l.src[l.off:l.off+3]]; ok {
			l.advance()
			l.advance()
			l.advance()
			return Token{Kind: k, Pos: p}, nil
		}
	}
	if l.off+1 < len(l.src) {
		if k, ok := refTwoCharOps[l.src[l.off:l.off+2]]; ok {
			l.advance()
			l.advance()
			return Token{Kind: k, Pos: p}, nil
		}
	}
	c := l.peek()
	if k, ok := refOneCharOps[c]; ok {
		l.advance()
		return Token{Kind: k, Pos: p}, nil
	}
	return Token{}, diag.Errorf(p, "unexpected character %q", c)
}

// refLexAll is LexAll with refLexOperator in place of lexOperator.
func refLexAll(src string) ([]Token, error) {
	l := NewLexer("t.c", src)
	var toks []Token
	for {
		if err := l.skipSpaceAndComments(); err != nil {
			return nil, err
		}
		if l.off >= len(src) {
			return toks, nil
		}
		var t Token
		var err error
		if c := l.peek(); isIdentStart(c) || isDigit(c) || c == '"' || c == '\'' {
			t, err = l.Next()
		} else {
			t, err = refLexOperator(l, l.pos())
		}
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
	}
}

// TestLexOperatorsMatchTables: every string of up to three bytes over
// the operator characters, a letter, a digit, a space and two stray
// characters lexes to the same tokens, or the same error, as with the
// operator tables — so every operator spelling lexes as before, alone
// and next to anything. (With maxLen 4, 732,540 strings, it passes too;
// that takes seconds, and tens under the race detector.)
func TestLexOperatorsMatchTables(t *testing.T) {
	alphabet := []byte("(){}[];,=+-*/%&|^~!<>?:.a1 $@")
	const maxLen = 3
	buf := make([]byte, 0, maxLen)
	n := 0
	var gen func()
	gen = func() {
		if len(buf) > 0 {
			n++
			src := string(buf)
			got, gotErr := LexAll("t.c", src)
			want, wantErr := refLexAll(src)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
				t.Fatalf("%q: lexed %v, %v; want %v, %v", src, got, gotErr, want, wantErr)
			}
		}
		if len(buf) == maxLen {
			return
		}
		for _, c := range alphabet {
			buf = append(buf, c)
			gen()
			buf = buf[:len(buf)-1]
		}
	}
	gen()
	t.Logf("%d strings", n)
}
