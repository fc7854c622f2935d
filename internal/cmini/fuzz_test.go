package cmini

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"knit/internal/diag/diagtest"
)

// TestQuickCminiParserNeverPanics: random C-ish token soup must never
// panic the parser, and every error is positioned inside the soup.
func TestQuickCminiParserNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	pieces := []string{
		"int", "char", "void", "fn", "struct", "static", "extern", "if",
		"else", "while", "for", "return", "break", "continue", "sizeof",
		"{", "}", "(", ")", "[", "]", ";", ",", "*", "&", "+", "-", "/",
		"%", "=", "==", "<", ">", "->", ".", "?", ":", "!", "~", "x", "y",
		"f", "42", `"s"`, "'c'", "++", "--", "<<", ">>", "&&", "||",
		"+=", "\n", "/*c*/", "//l\n",
	}
	fn := func() bool {
		var b strings.Builder
		n := r.Intn(80)
		for i := 0; i < n; i++ {
			b.WriteString(pieces[r.Intn(len(pieces))])
			b.WriteString(" ")
		}
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("parser panicked on %q: %v", b.String(), p)
			}
		}()
		if _, err := Parse("fuzz.c", b.String()); err != nil {
			diagtest.At(t, err, b.String())
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickCminiLexerNeverPanics: arbitrary bytes, with every error
// positioned inside them.
func TestQuickCminiLexerNeverPanics(t *testing.T) {
	fn := func(data []byte) bool {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("lexer panicked on %q: %v", data, p)
			}
		}()
		if _, err := LexAll("fuzz.c", string(data)); err != nil {
			diagtest.At(t, err, string(data))
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
