// Package cmini implements the C subset in which Knit components are
// written: a lexer, parser, AST, and source printer.
//
// The language covers the features Knit manipulates when it links and
// flattens components — global functions and variables, static (file-local)
// definitions, extern declarations (imports), structs, arrays, pointers,
// strings, and the usual expression and statement forms. It deliberately
// omits the parts of C that do not matter for component composition
// (typedefs, unions, bitfields, varargs beyond printf-style builtins,
// preprocessor).
//
// The memory model is word-oriented: every scalar (int, char, pointer,
// function pointer) occupies one word, struct fields and array elements are
// laid out in consecutive words, and sizeof counts words. This keeps the
// compiler and simulated machine simple without changing anything Knit
// cares about.
package cmini

import (
	"fmt"
	"strings"

	"knit/internal/diag"
)

// Tok identifies a lexical token kind.
type Tok int

// Token kinds.
const (
	EOF Tok = iota
	IDENT
	INT    // integer literal
	CHAR   // character literal
	STRING // string literal

	// Punctuation and operators.
	LPAREN   // (
	RPAREN   // )
	LBRACE   // {
	RBRACE   // }
	LBRACK   // [
	RBRACK   // ]
	SEMI     // ;
	COMMA    // ,
	ASSIGN   // =
	ADDEQ    // +=
	SUBEQ    // -=
	MULEQ    // *=
	DIVEQ    // /=
	MODEQ    // %=
	ANDEQ    // &=
	OREQ     // |=
	XOREQ    // ^=
	SHLEQ    // <<=
	SHREQ    // >>=
	INC      // ++
	DEC      // --
	PLUS     // +
	MINUS    // -
	STAR     // *
	SLASH    // /
	PERCENT  // %
	AMP      // &
	PIPE     // |
	CARET    // ^
	TILDE    // ~
	NOT      // !
	SHL      // <<
	SHR      // >>
	LT       // <
	GT       // >
	LE       // <=
	GE       // >=
	EQ       // ==
	NE       // !=
	LAND     // &&
	LOR      // ||
	QUESTION // ?
	COLON    // :
	ARROW    // ->
	DOT      // .

	// Keywords.
	KwInt
	KwChar
	KwVoid
	KwFn // function-pointer type (cmini extension replacing C's fn-ptr syntax)
	KwStruct
	KwStatic
	KwExtern
	KwIf
	KwElse
	KwWhile
	KwFor
	KwReturn
	KwBreak
	KwContinue
	KwSizeof
	KwNull
)

var tokNames = map[Tok]string{
	EOF: "EOF", IDENT: "identifier", INT: "int literal", CHAR: "char literal",
	STRING: "string literal",
	LPAREN: "(", RPAREN: ")", LBRACE: "{", RBRACE: "}", LBRACK: "[",
	RBRACK: "]", SEMI: ";", COMMA: ",", ASSIGN: "=", ADDEQ: "+=",
	SUBEQ: "-=", MULEQ: "*=", DIVEQ: "/=", MODEQ: "%=", ANDEQ: "&=",
	OREQ: "|=", XOREQ: "^=", SHLEQ: "<<=", SHREQ: ">>=", INC: "++",
	DEC: "--", PLUS: "+", MINUS: "-", STAR: "*", SLASH: "/", PERCENT: "%",
	AMP: "&", PIPE: "|", CARET: "^", TILDE: "~", NOT: "!", SHL: "<<",
	SHR: ">>", LT: "<", GT: ">", LE: "<=", GE: ">=", EQ: "==", NE: "!=",
	LAND: "&&", LOR: "||", QUESTION: "?", COLON: ":", ARROW: "->", DOT: ".",
	KwInt: "int", KwChar: "char", KwVoid: "void", KwFn: "fn",
	KwStruct: "struct", KwStatic: "static", KwExtern: "extern", KwIf: "if",
	KwElse: "else", KwWhile: "while", KwFor: "for", KwReturn: "return",
	KwBreak: "break", KwContinue: "continue", KwSizeof: "sizeof",
	KwNull: "NULL",
}

// String returns a human-readable name for the token kind.
func (t Tok) String() string {
	if s, ok := tokNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Tok(%d)", int(t))
}

// keyword returns the keyword word spells, or IDENT when it spells
// none.
func keyword(word string) Tok {
	switch word {
	case "int":
		return KwInt
	case "char":
		return KwChar
	case "void":
		return KwVoid
	case "fn":
		return KwFn
	case "struct":
		return KwStruct
	case "static":
		return KwStatic
	case "extern":
		return KwExtern
	case "if":
		return KwIf
	case "else":
		return KwElse
	case "while":
		return KwWhile
	case "for":
		return KwFor
	case "return":
		return KwReturn
	case "break":
		return KwBreak
	case "continue":
		return KwContinue
	case "sizeof":
		return KwSizeof
	case "NULL":
		return KwNull
	}
	return IDENT
}

// Token is a single lexed token with its position and literal text.
type Token struct {
	Kind Tok
	Lit  string // literal text for IDENT, INT, CHAR, STRING
	Pos  diag.Pos
}

// IsWord reports whether t is an identifier or a keyword, which the
// languages that borrow this lexer (Click configurations, assembly
// goals) read as a name.
func (t Token) IsWord() bool { return t.Kind == IDENT || t.Kind >= KwInt }

// String returns t's literal text, or its kind's for punctuation.
func (t Token) String() string {
	if t.Lit == "" {
		return t.Kind.String()
	}
	return t.Lit
}

// Text renders toks one space apart, as a diagnostic quotes them.
func Text(toks []Token) string {
	words := make([]string, len(toks))
	for i, t := range toks {
		words[i] = t.String()
	}
	return strings.Join(words, " ")
}

// Statements splits toks into the statements that each ';' ends; the
// last may lack its ';'. Empty statements are kept, so an index counts
// statements as a reader does.
func Statements(toks []Token) [][]Token {
	var out [][]Token
	for len(toks) > 0 {
		n := 0
		for n < len(toks) && toks[n].Kind != SEMI {
			n++
		}
		out = append(out, toks[:n])
		toks = toks[min(n+1, len(toks)):]
	}
	return out
}
