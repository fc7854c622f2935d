// Package lang implements the Knit unit-definition language: bundle
// types, atomic and compound units, dependency and rename declarations,
// initializers/finalizers, properties, and constraints — the concrete
// syntax of the paper's Section 3.3 and Section 4.
package lang

import (
	"fmt"
	"slices"
	"sync"

	"knit/internal/cmini"
	"knit/internal/diag"
)

// isKeyword reports whether word is one of the unit language's reserved
// words. Unit files lex with cmini's lexer, so every other word, C's
// keywords included, is a name.
func isKeyword(word string) bool {
	switch word {
	case "bundletype", "flags", "unit", "imports", "exports", "depends",
		"needs", "files", "with", "rename", "to", "initializer",
		"finalizer", "for", "constraints", "link", "property", "type",
		"fallback":
		return true
	}
	return false
}

// Parse parses a unit-language file.
func Parse(file, src string) (*File, error) {
	l := listPool.Get().(*lists)
	p := &parser{toks: cmini.NewWindow(file, src), lists: l}
	f, err := p.file(file)
	if err = p.toks.Err(err); err != nil {
		return nil, err // the lists go: a failed parse leaves items on them
	}
	listPool.Put(l)
	return f, nil
}

func (p *parser) file(name string) (*File, error) {
	out := &File{Name: name}
	for !p.atEOF() {
		switch p.keyword() {
		case "bundletype":
			bt, err := p.bundleType()
			if err != nil {
				return nil, err
			}
			out.BundleTypes = append(out.BundleTypes, bt)
		case "flags":
			fs, err := p.flagSet()
			if err != nil {
				return nil, err
			}
			out.FlagSets = append(out.FlagSets, fs)
		case "property":
			pr, err := p.property()
			if err != nil {
				return nil, err
			}
			out.Properties = append(out.Properties, pr)
		case "type":
			if len(out.Properties) == 0 {
				return nil, p.errf("'type' declaration before any 'property'")
			}
			pv, err := p.propValue()
			if err != nil {
				return nil, err
			}
			last := out.Properties[len(out.Properties)-1]
			last.Values = append(last.Values, pv)
		case "unit":
			u, err := p.unit()
			if err != nil {
				return nil, err
			}
			out.Units = append(out.Units, u)
		default:
			return nil, p.errf("expected declaration, found %s", p.describe())
		}
	}
	return out, nil
}

// parser reads the unit language one token ahead; the link arrow alone
// looks at a second.
type parser struct {
	toks *cmini.Window
	*lists
}

// lists holds the names and link lines of the lists being parsed,
// innermost last; a list is copied out at its length when it ends.
// Parses share them through listPool, so the stacks keep their capacity
// from one file to the next.
type lists struct {
	names []string
	links []LinkLine
}

var listPool = sync.Pool{New: func() any { return new(lists) }}

// popList appends the items pushed on *stack since mark to dst, in a
// new array of exactly the combined length, and pops them. With no
// items it returns dst.
func popList[T any](dst []T, stack *[]T, mark int) []T {
	if items := (*stack)[mark:]; len(items) > 0 {
		dst = append(append(make([]T, 0, len(dst)+len(items)), dst...), items...)
		clear(items)
	}
	*stack = (*stack)[:mark]
	return dst
}

func (p *parser) atEOF() bool { return p.kind() == cmini.EOF }

func (p *parser) cur() cmini.Token { return *p.toks.Cur() }

// kind is the current token's kind.
func (p *parser) kind() cmini.Tok { return p.toks.Cur().Kind }

func (p *parser) next() cmini.Token { return p.toks.Next() }

// keyword returns the current token's text if it is a unit keyword,
// and "" otherwise.
func (p *parser) keyword() string {
	if t := p.toks.Cur(); t.IsWord() && isKeyword(t.Lit) {
		return t.Lit
	}
	return ""
}

// isIdent reports whether the current token is a name: a word that is
// not a unit keyword.
func (p *parser) isIdent() bool {
	t := p.toks.Cur()
	return t.IsWord() && !isKeyword(t.Lit)
}

func (p *parser) accept(k cmini.Tok) bool {
	if p.kind() == k {
		p.next()
		return true
	}
	return false
}

func (p *parser) acceptKw(kw string) bool {
	if p.keyword() == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k cmini.Tok) (cmini.Token, error) {
	if p.kind() != k {
		return p.cur(), p.errf("expected %q, found %s", k.String(), p.describe())
	}
	return p.next(), nil
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %q, found %s", kw, p.describe())
	}
	return nil
}

// atArrow reports whether the current token starts the link arrow:
// '<' directly followed by '-', which cmini lexes as two tokens.
func (p *parser) atArrow() bool {
	lt := p.toks.Cur()
	if lt.Kind != cmini.LT {
		return false
	}
	minus := p.toks.Peek(1)
	return minus.Kind == cmini.MINUS &&
		minus.Pos == diag.Pos{File: lt.Pos.File, Line: lt.Pos.Line, Col: lt.Pos.Col + 1}
}

func (p *parser) arrow() error {
	if !p.atArrow() {
		return p.errf("expected \"<-\", found %s", p.describe())
	}
	p.next()
	p.next()
	return nil
}

func (p *parser) describe() string {
	t := p.cur()
	switch {
	case p.atArrow():
		return `"<-"`
	case t.IsWord() || t.Kind == cmini.STRING:
		return fmt.Sprintf("%q", t.Lit)
	case t.Kind == cmini.INT || t.Kind == cmini.CHAR:
		return fmt.Sprintf("%s %q", t.Kind, t.Lit)
	}
	return fmt.Sprintf("%q", t.Kind.String())
}

func (p *parser) errf(format string, args ...any) error {
	return diag.Errorf(p.cur().Pos, format, args...)
}

// ident accepts a name.
func (p *parser) ident() (cmini.Token, error) {
	if !p.isIdent() {
		return p.cur(), p.errf(`expected "identifier", found %s`, p.describe())
	}
	return p.next(), nil
}

func (p *parser) bundleType() (*BundleType, error) {
	pos := p.next().Pos // bundletype
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(cmini.ASSIGN); err != nil {
		return nil, err
	}
	if _, err := p.expect(cmini.LBRACE); err != nil {
		return nil, err
	}
	bt := &BundleType{Pos: pos, Name: name.Lit}
	for !p.accept(cmini.RBRACE) {
		sym, err := p.ident()
		if err != nil {
			return nil, err
		}
		if slices.Contains(bt.Syms, sym.Lit) {
			return nil, diag.Errorf(sym.Pos, "duplicate symbol %q in bundletype %s", sym.Lit, name.Lit)
		}
		bt.Syms = append(bt.Syms, sym.Lit)
		if !p.accept(cmini.COMMA) {
			if _, err := p.expect(cmini.RBRACE); err != nil {
				return nil, err
			}
			break
		}
	}
	if len(bt.Syms) == 0 {
		return nil, diag.Errorf(pos, "bundletype %s is empty", name.Lit)
	}
	return bt, nil
}

func (p *parser) flagSet() (*FlagSet, error) {
	pos := p.next().Pos // flags
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(cmini.ASSIGN); err != nil {
		return nil, err
	}
	if _, err := p.expect(cmini.LBRACE); err != nil {
		return nil, err
	}
	fs := &FlagSet{Pos: pos, Name: name.Lit}
	for !p.accept(cmini.RBRACE) {
		s, err := p.expect(cmini.STRING)
		if err != nil {
			return nil, err
		}
		fs.Values = append(fs.Values, s.Lit)
		if !p.accept(cmini.COMMA) {
			if _, err := p.expect(cmini.RBRACE); err != nil {
				return nil, err
			}
			break
		}
	}
	return fs, nil
}

func (p *parser) property() (*Property, error) {
	pos := p.next().Pos // property
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	pr := &Property{Pos: pos, Name: name.Lit}
	if p.isIdent() && p.cur().Lit == "propagates" {
		p.next()
		pr.Propagates = true
	}
	return pr, nil
}

func (p *parser) propValue() (PropValue, error) {
	pos := p.next().Pos // type
	name, err := p.ident()
	if err != nil {
		return PropValue{}, err
	}
	pv := PropValue{Pos: pos, Name: name.Lit}
	if p.accept(cmini.LT) {
		below, err := p.ident()
		if err != nil {
			return PropValue{}, err
		}
		pv.Below = below.Lit
	}
	return pv, nil
}

func (p *parser) unit() (*Unit, error) {
	pos := p.next().Pos // unit
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(cmini.ASSIGN); err != nil {
		return nil, err
	}
	if _, err := p.expect(cmini.LBRACE); err != nil {
		return nil, err
	}
	u := &Unit{Pos: pos, Name: name.Lit}
	for !p.accept(cmini.RBRACE) {
		if p.atEOF() {
			return nil, diag.Errorf(pos, "unterminated unit %s", name.Lit)
		}
		if err := p.unitSection(u); err != nil {
			return nil, err
		}
	}
	if len(u.Files) > 0 && len(u.Links) > 0 {
		return nil, diag.Errorf(pos, "unit %s has both files and link sections", name.Lit)
	}
	return u, nil
}

func (p *parser) unitSection(u *Unit) error {
	switch p.keyword() {
	case "imports":
		p.next()
		bs, err := p.bindings(u.Imports)
		if err != nil {
			return err
		}
		u.Imports = bs
	case "exports":
		p.next()
		bs, err := p.bindings(u.Exports)
		if err != nil {
			return err
		}
		u.Exports = bs
	case "depends":
		p.next()
		if _, err := p.expect(cmini.LBRACE); err != nil {
			return err
		}
		for !p.accept(cmini.RBRACE) {
			dc, err := p.depClause()
			if err != nil {
				return err
			}
			u.Depends = append(u.Depends, dc)
		}
		if _, err := p.expect(cmini.SEMI); err != nil {
			return err
		}
	case "files":
		p.next()
		if _, err := p.expect(cmini.LBRACE); err != nil {
			return err
		}
		mark := len(p.names)
		for !p.accept(cmini.RBRACE) {
			s, err := p.expect(cmini.STRING)
			if err != nil {
				return err
			}
			p.names = append(p.names, s.Lit)
			if !p.accept(cmini.COMMA) {
				if _, err := p.expect(cmini.RBRACE); err != nil {
					return err
				}
				break
			}
		}
		u.Files = popList(u.Files, &p.names, mark)
		if p.acceptKw("with") {
			if err := p.expectKw("flags"); err != nil {
				return err
			}
			fr, err := p.ident()
			if err != nil {
				return err
			}
			u.FlagsRef = fr.Lit
		}
		if _, err := p.expect(cmini.SEMI); err != nil {
			return err
		}
	case "rename":
		p.next()
		if _, err := p.expect(cmini.LBRACE); err != nil {
			return err
		}
		for !p.accept(cmini.RBRACE) {
			r, err := p.renameClause()
			if err != nil {
				return err
			}
			u.Renames = append(u.Renames, r)
		}
		if _, err := p.expect(cmini.SEMI); err != nil {
			return err
		}
	case "initializer", "finalizer":
		fin := p.next().Lit == "finalizer"
		fn, err := p.ident()
		if err != nil {
			return err
		}
		if err := p.expectKw("for"); err != nil {
			return err
		}
		b, err := p.ident()
		if err != nil {
			return err
		}
		if _, err := p.expect(cmini.SEMI); err != nil {
			return err
		}
		u.Inits = append(u.Inits, InitDecl{Pos: fn.Pos, Func: fn.Lit, Bundle: b.Lit, Finalizer: fin})
	case "fallback":
		p.next()
		fb, err := p.ident()
		if err != nil {
			return err
		}
		if u.Fallback != "" {
			return diag.Errorf(fb.Pos, "unit %s declares more than one fallback", u.Name)
		}
		if fb.Lit == u.Name {
			return diag.Errorf(fb.Pos, "unit %s names itself as fallback", u.Name)
		}
		u.Fallback = fb.Lit
		if _, err := p.expect(cmini.SEMI); err != nil {
			return err
		}
	case "constraints":
		p.next()
		if _, err := p.expect(cmini.LBRACE); err != nil {
			return err
		}
		for !p.accept(cmini.RBRACE) {
			c, err := p.constraint()
			if err != nil {
				return err
			}
			u.Constraints = append(u.Constraints, c)
		}
		if _, err := p.expect(cmini.SEMI); err != nil {
			return err
		}
	case "link":
		p.next()
		if _, err := p.expect(cmini.LBRACE); err != nil {
			return err
		}
		mark := len(p.links)
		for !p.accept(cmini.RBRACE) {
			ll, err := p.linkLine()
			if err != nil {
				return err
			}
			p.links = append(p.links, ll)
		}
		u.Links = popList(u.Links, &p.links, mark)
		if _, err := p.expect(cmini.SEMI); err != nil {
			return err
		}
	default:
		return p.errf("expected unit section, found %s", p.describe())
	}
	return nil
}

// bindings appends a bracketed binding list to out.
func (p *parser) bindings(out []Binding) ([]Binding, error) {
	if _, err := p.expect(cmini.LBRACK); err != nil {
		return nil, err
	}
	for !p.accept(cmini.RBRACK) {
		local, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(cmini.COLON); err != nil {
			return nil, err
		}
		typ, err := p.ident()
		if err != nil {
			return nil, err
		}
		out = append(out, Binding{Pos: local.Pos, Local: local.Lit, Type: typ.Lit})
		if !p.accept(cmini.COMMA) {
			if _, err := p.expect(cmini.RBRACK); err != nil {
				return nil, err
			}
			break
		}
	}
	if _, err := p.expect(cmini.SEMI); err != nil {
		return nil, err
	}
	return out, nil
}

// depTerm parses name | exports | imports | ( term { + term } ) and
// appends its names to out.
func (p *parser) depTerm(out []string) ([]string, error) {
	switch {
	case p.isIdent():
		return append(out, p.next().Lit), nil
	case p.acceptKw("exports"):
		return append(out, ExportsKeyword), nil
	case p.acceptKw("imports"):
		return append(out, ImportsKeyword), nil
	case p.accept(cmini.LPAREN):
		for {
			var err error
			if out, err = p.depTerm(out); err != nil {
				return nil, err
			}
			if p.accept(cmini.PLUS) {
				continue
			}
			if _, err := p.expect(cmini.RPAREN); err != nil {
				return nil, err
			}
			return out, nil
		}
	}
	return nil, p.errf("expected dependency term, found %s", p.describe())
}

func (p *parser) depClause() (DepClause, error) {
	pos := p.cur().Pos
	lhs, err := p.depTerm(nil)
	if err != nil {
		return DepClause{}, err
	}
	// Allow "a + b needs ..." without parens.
	for p.accept(cmini.PLUS) {
		if lhs, err = p.depTerm(lhs); err != nil {
			return DepClause{}, err
		}
	}
	if err := p.expectKw("needs"); err != nil {
		return DepClause{}, err
	}
	rhs, err := p.depTerm(nil)
	if err != nil {
		return DepClause{}, err
	}
	for p.accept(cmini.PLUS) || p.accept(cmini.COMMA) {
		if rhs, err = p.depTerm(rhs); err != nil {
			return DepClause{}, err
		}
	}
	if _, err := p.expect(cmini.SEMI); err != nil {
		return DepClause{}, err
	}
	return DepClause{Pos: pos, LHS: lhs, RHS: rhs}, nil
}

func (p *parser) renameClause() (Rename, error) {
	bundle, err := p.ident()
	if err != nil {
		return Rename{}, err
	}
	if _, err := p.expect(cmini.DOT); err != nil {
		return Rename{}, err
	}
	sym, err := p.ident()
	if err != nil {
		return Rename{}, err
	}
	if err := p.expectKw("to"); err != nil {
		return Rename{}, err
	}
	to, err := p.ident()
	if err != nil {
		return Rename{}, err
	}
	if _, err := p.expect(cmini.SEMI); err != nil {
		return Rename{}, err
	}
	return Rename{Pos: bundle.Pos, Bundle: bundle.Lit, Sym: sym.Lit, To: to.Lit}, nil
}

// constraintRef parses prop(arg) or a bare value identifier.
func (p *parser) constraintRef() (Ref, error) {
	pos := p.cur().Pos
	if !p.isIdent() {
		return Ref{}, p.errf("expected constraint operand, found %s", p.describe())
	}
	name := p.next().Lit
	if p.accept(cmini.LPAREN) {
		var arg string
		switch {
		case p.isIdent():
			arg = p.next().Lit
		case p.acceptKw("imports"):
			arg = ImportsKeyword
		case p.acceptKw("exports"):
			arg = ExportsKeyword
		default:
			return Ref{}, p.errf("expected bundle name, found %s", p.describe())
		}
		if _, err := p.expect(cmini.RPAREN); err != nil {
			return Ref{}, err
		}
		return Ref{Pos: pos, Prop: name, Arg: arg}, nil
	}
	return Ref{Pos: pos, Value: name}, nil
}

func (p *parser) constraint() (Constraint, error) {
	lhs, err := p.constraintRef()
	if err != nil {
		return Constraint{}, err
	}
	var op ConstraintOp
	switch p.kind() {
	case cmini.ASSIGN:
		op = OpEq
	case cmini.LE:
		op = OpLe
	case cmini.GE:
		op = OpGe
	default:
		return Constraint{}, p.errf("expected =, <= or >=, found %s", p.describe())
	}
	p.next()
	rhs, err := p.constraintRef()
	if err != nil {
		return Constraint{}, err
	}
	if _, err := p.expect(cmini.SEMI); err != nil {
		return Constraint{}, err
	}
	if lhs.IsValue() && rhs.IsValue() {
		return Constraint{}, diag.Errorf(lhs.Pos, "constraint relates two literal values")
	}
	return Constraint{Pos: lhs.Pos, LHS: lhs, Op: op, RHS: rhs}, nil
}

func (p *parser) linkLine() (LinkLine, error) {
	pos := p.cur().Pos
	outs, err := p.nameList()
	if err != nil {
		return LinkLine{}, err
	}
	if err := p.arrow(); err != nil {
		return LinkLine{}, err
	}
	unit, err := p.ident()
	if err != nil {
		return LinkLine{}, err
	}
	if err := p.arrow(); err != nil {
		return LinkLine{}, err
	}
	ins, err := p.nameList()
	if err != nil {
		return LinkLine{}, err
	}
	if _, err := p.expect(cmini.SEMI); err != nil {
		return LinkLine{}, err
	}
	return LinkLine{Pos: pos, Outs: outs, Unit: unit.Lit, Ins: ins}, nil
}

func (p *parser) nameList() ([]string, error) {
	if _, err := p.expect(cmini.LBRACK); err != nil {
		return nil, err
	}
	mark := len(p.names)
	for !p.accept(cmini.RBRACK) {
		n, err := p.ident()
		if err != nil {
			return nil, err
		}
		p.names = append(p.names, n.Lit)
		if !p.accept(cmini.COMMA) {
			if _, err := p.expect(cmini.RBRACK); err != nil {
				return nil, err
			}
			break
		}
	}
	return popList(nil, &p.names, mark), nil
}
