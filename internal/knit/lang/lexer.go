// Package lang implements the Knit unit-definition language: bundle
// types, atomic and compound units, dependency and rename declarations,
// initializers/finalizers, properties, and constraints — the concrete
// syntax of the paper's Section 3.3 and Section 4.
package lang

import (
	"fmt"
	"strings"

	"knit/internal/diag"
)

// Tok is a lexical token kind in the unit language.
type Tok int

// Token kinds.
const (
	EOF Tok = iota
	IDENT
	STRING

	LBRACE // {
	RBRACE // }
	LBRACK // [
	RBRACK // ]
	LPAREN // (
	RPAREN // )
	SEMI   // ;
	COMMA  // ,
	COLON  // :
	DOT    // .
	PLUS   // +
	EQ     // =
	LE     // <=
	GE     // >=
	LT     // <
	LARROW // <-

	// Keywords.
	KwBundletype
	KwFlags
	KwUnit
	KwImports
	KwExports
	KwDepends
	KwNeeds
	KwFiles
	KwWith
	KwRename
	KwTo
	KwInitializer
	KwFinalizer
	KwFor
	KwConstraints
	KwLink
	KwProperty
	KwType
	KwFallback
)

var tokNames = map[Tok]string{
	EOF: "EOF", IDENT: "identifier", STRING: "string",
	LBRACE: "{", RBRACE: "}", LBRACK: "[", RBRACK: "]", LPAREN: "(",
	RPAREN: ")", SEMI: ";", COMMA: ",", COLON: ":", DOT: ".", PLUS: "+",
	EQ: "=", LE: "<=", GE: ">=", LT: "<", LARROW: "<-",
	KwBundletype: "bundletype", KwFlags: "flags", KwUnit: "unit",
	KwImports: "imports", KwExports: "exports", KwDepends: "depends",
	KwNeeds: "needs", KwFiles: "files", KwWith: "with", KwRename: "rename",
	KwTo: "to", KwInitializer: "initializer", KwFinalizer: "finalizer",
	KwFor: "for", KwConstraints: "constraints", KwLink: "link",
	KwProperty: "property", KwType: "type", KwFallback: "fallback",
}

func (t Tok) String() string {
	if s, ok := tokNames[t]; ok {
		return s
	}
	return fmt.Sprintf("tok(%d)", int(t))
}

var keywords = map[string]Tok{
	"bundletype": KwBundletype, "flags": KwFlags, "unit": KwUnit,
	"imports": KwImports, "exports": KwExports, "depends": KwDepends,
	"needs": KwNeeds, "files": KwFiles, "with": KwWith, "rename": KwRename,
	"to": KwTo, "initializer": KwInitializer, "finalizer": KwFinalizer,
	"for": KwFor, "constraints": KwConstraints, "link": KwLink,
	"property": KwProperty, "type": KwType, "fallback": KwFallback,
}

// ops maps each operator's text to its token kind.
var ops = map[string]Tok{
	"{": LBRACE, "}": RBRACE, "[": LBRACK, "]": RBRACK, "(": LPAREN,
	")": RPAREN, ";": SEMI, ",": COMMA, ":": COLON, ".": DOT, "+": PLUS,
	"=": EQ, "<": LT, "<-": LARROW, "<=": LE, ">=": GE,
}

// Token is one lexed token.
type Token struct {
	Kind Tok
	Lit  string
	Pos  diag.Pos
}

// lex tokenizes a unit file.
func lex(file, src string) ([]Token, error) {
	var toks []Token
	line, col := 1, 1
	i := 0
	pos := func() diag.Pos { return diag.Pos{File: file, Line: line, Col: col} }
	adv := func() byte {
		c := src[i]
		i++
		if c == '\n' {
			line++
			col = 1
		} else {
			col++
		}
		return c
	}
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			adv()
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				adv()
			}
		case c == '/' && i+1 < len(src) && src[i+1] == '*':
			p := pos()
			adv()
			adv()
			closed := false
			for i < len(src) {
				if src[i] == '*' && i+1 < len(src) && src[i+1] == '/' {
					adv()
					adv()
					closed = true
					break
				}
				adv()
			}
			if !closed {
				return nil, diag.Errorf(p, "unterminated comment")
			}
		case c == '"':
			p := pos()
			adv()
			var b strings.Builder
			closed := false
			for i < len(src) {
				ch := adv()
				if ch == '"' {
					closed = true
					break
				}
				if ch == '\n' {
					return nil, diag.Errorf(p, "newline in string")
				}
				b.WriteByte(ch)
			}
			if !closed {
				return nil, diag.Errorf(p, "unterminated string")
			}
			toks = append(toks, Token{Kind: STRING, Lit: b.String(), Pos: p})
		case isIdentStart(c):
			p := pos()
			start := i
			for i < len(src) && isIdentCont(src[i]) {
				adv()
			}
			word := src[start:i]
			if kw, ok := keywords[word]; ok {
				toks = append(toks, Token{Kind: kw, Lit: word, Pos: p})
			} else {
				toks = append(toks, Token{Kind: IDENT, Lit: word, Pos: p})
			}
		default:
			p := pos()
			n := min(2, len(src)-i) // the longer operator wins
			k, ok := ops[src[i:i+n]]
			if !ok {
				n = 1
				k, ok = ops[src[i:i+1]]
			}
			if !ok {
				return nil, diag.Errorf(p, "unexpected character %q", c)
			}
			for ; n > 0; n-- {
				adv()
			}
			toks = append(toks, Token{Kind: k, Pos: p})
		}
	}
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}
