package lang

import (
	"fmt"

	"knit/internal/diag"
)

// Parse parses a unit-language file.
func Parse(file, src string) (*File, error) {
	toks, err := lex(file, src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, end: diag.End(file, src)}
	out := &File{Name: file}
	for !p.atEOF() {
		switch p.cur().Kind {
		case KwBundletype:
			bt, err := p.bundleType()
			if err != nil {
				return nil, err
			}
			out.BundleTypes = append(out.BundleTypes, bt)
		case KwFlags:
			fs, err := p.flagSet()
			if err != nil {
				return nil, err
			}
			out.FlagSets = append(out.FlagSets, fs)
		case KwProperty:
			pr, err := p.property()
			if err != nil {
				return nil, err
			}
			out.Properties = append(out.Properties, pr)
		case KwType:
			if len(out.Properties) == 0 {
				return nil, p.errf("'type' declaration before any 'property'")
			}
			pv, err := p.propValue()
			if err != nil {
				return nil, err
			}
			last := out.Properties[len(out.Properties)-1]
			last.Values = append(last.Values, pv)
		case KwUnit:
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

type parser struct {
	toks []Token
	pos  int
	end  diag.Pos // of the source, where EOF is
}

func (p *parser) atEOF() bool { return p.pos >= len(p.toks) }

func (p *parser) cur() Token {
	if p.atEOF() {
		return Token{Kind: EOF, Pos: p.end}
	}
	return p.toks[p.pos]
}

func (p *parser) next() Token {
	t := p.cur()
	p.pos++
	return t
}

func (p *parser) accept(k Tok) bool {
	if p.cur().Kind == k {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(k Tok) (Token, error) {
	t := p.cur()
	if t.Kind != k {
		return t, p.errf("expected %q, found %s", k.String(), p.describe())
	}
	p.pos++
	return t, nil
}

func (p *parser) describe() string {
	t := p.cur()
	if t.Kind == IDENT || t.Kind == STRING {
		return fmt.Sprintf("%q", t.Lit)
	}
	return fmt.Sprintf("%q", t.Kind.String())
}

func (p *parser) errf(format string, args ...any) error {
	return diag.Errorf(p.cur().Pos, format, args...)
}

// identLike accepts an identifier or a keyword used as a name (bundle
// symbols like "type" would be unusual but harmless).
func (p *parser) ident() (Token, error) {
	return p.expect(IDENT)
}

func (p *parser) bundleType() (*BundleType, error) {
	pos := p.next().Pos // bundletype
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(EQ); err != nil {
		return nil, err
	}
	if _, err := p.expect(LBRACE); err != nil {
		return nil, err
	}
	bt := &BundleType{Pos: pos, Name: name.Lit}
	seen := map[string]bool{}
	for !p.accept(RBRACE) {
		sym, err := p.ident()
		if err != nil {
			return nil, err
		}
		if seen[sym.Lit] {
			return nil, diag.Errorf(sym.Pos, "duplicate symbol %q in bundletype %s", sym.Lit, name.Lit)
		}
		seen[sym.Lit] = true
		bt.Syms = append(bt.Syms, sym.Lit)
		if !p.accept(COMMA) {
			if _, err := p.expect(RBRACE); err != nil {
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
	if _, err := p.expect(EQ); err != nil {
		return nil, err
	}
	if _, err := p.expect(LBRACE); err != nil {
		return nil, err
	}
	fs := &FlagSet{Pos: pos, Name: name.Lit}
	for !p.accept(RBRACE) {
		s, err := p.expect(STRING)
		if err != nil {
			return nil, err
		}
		fs.Values = append(fs.Values, s.Lit)
		if !p.accept(COMMA) {
			if _, err := p.expect(RBRACE); err != nil {
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
	if p.cur().Kind == IDENT && p.cur().Lit == "propagates" {
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
	if p.accept(LT) {
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
	if _, err := p.expect(EQ); err != nil {
		return nil, err
	}
	if _, err := p.expect(LBRACE); err != nil {
		return nil, err
	}
	u := &Unit{Pos: pos, Name: name.Lit}
	for !p.accept(RBRACE) {
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
	switch p.cur().Kind {
	case KwImports:
		p.next()
		bs, err := p.bindings()
		if err != nil {
			return err
		}
		u.Imports = append(u.Imports, bs...)
	case KwExports:
		p.next()
		bs, err := p.bindings()
		if err != nil {
			return err
		}
		u.Exports = append(u.Exports, bs...)
	case KwDepends:
		p.next()
		if _, err := p.expect(LBRACE); err != nil {
			return err
		}
		for !p.accept(RBRACE) {
			dc, err := p.depClause()
			if err != nil {
				return err
			}
			u.Depends = append(u.Depends, dc)
		}
		if _, err := p.expect(SEMI); err != nil {
			return err
		}
	case KwFiles:
		p.next()
		if _, err := p.expect(LBRACE); err != nil {
			return err
		}
		for !p.accept(RBRACE) {
			s, err := p.expect(STRING)
			if err != nil {
				return err
			}
			u.Files = append(u.Files, s.Lit)
			if !p.accept(COMMA) {
				if _, err := p.expect(RBRACE); err != nil {
					return err
				}
				break
			}
		}
		if p.accept(KwWith) {
			if _, err := p.expect(KwFlags); err != nil {
				return err
			}
			fr, err := p.ident()
			if err != nil {
				return err
			}
			u.FlagsRef = fr.Lit
		}
		if _, err := p.expect(SEMI); err != nil {
			return err
		}
	case KwRename:
		p.next()
		if _, err := p.expect(LBRACE); err != nil {
			return err
		}
		for !p.accept(RBRACE) {
			r, err := p.renameClause()
			if err != nil {
				return err
			}
			u.Renames = append(u.Renames, r)
		}
		if _, err := p.expect(SEMI); err != nil {
			return err
		}
	case KwInitializer, KwFinalizer:
		fin := p.next().Kind == KwFinalizer
		fn, err := p.ident()
		if err != nil {
			return err
		}
		if _, err := p.expect(KwFor); err != nil {
			return err
		}
		b, err := p.ident()
		if err != nil {
			return err
		}
		if _, err := p.expect(SEMI); err != nil {
			return err
		}
		u.Inits = append(u.Inits, InitDecl{Pos: fn.Pos, Func: fn.Lit, Bundle: b.Lit, Finalizer: fin})
	case KwFallback:
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
		if _, err := p.expect(SEMI); err != nil {
			return err
		}
	case KwConstraints:
		p.next()
		if _, err := p.expect(LBRACE); err != nil {
			return err
		}
		for !p.accept(RBRACE) {
			c, err := p.constraint()
			if err != nil {
				return err
			}
			u.Constraints = append(u.Constraints, c)
		}
		if _, err := p.expect(SEMI); err != nil {
			return err
		}
	case KwLink:
		p.next()
		if _, err := p.expect(LBRACE); err != nil {
			return err
		}
		for !p.accept(RBRACE) {
			ll, err := p.linkLine()
			if err != nil {
				return err
			}
			u.Links = append(u.Links, ll)
		}
		if _, err := p.expect(SEMI); err != nil {
			return err
		}
	default:
		return p.errf("expected unit section, found %s", p.describe())
	}
	return nil
}

func (p *parser) bindings() ([]Binding, error) {
	if _, err := p.expect(LBRACK); err != nil {
		return nil, err
	}
	var out []Binding
	for !p.accept(RBRACK) {
		local, err := p.ident()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(COLON); err != nil {
			return nil, err
		}
		typ, err := p.ident()
		if err != nil {
			return nil, err
		}
		out = append(out, Binding{Pos: local.Pos, Local: local.Lit, Type: typ.Lit})
		if !p.accept(COMMA) {
			if _, err := p.expect(RBRACK); err != nil {
				return nil, err
			}
			break
		}
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	return out, nil
}

// depTerm parses IDENT | exports | imports | ( term { + term } ).
func (p *parser) depTerm() ([]string, error) {
	switch p.cur().Kind {
	case IDENT:
		return []string{p.next().Lit}, nil
	case KwExports:
		p.next()
		return []string{ExportsKeyword}, nil
	case KwImports:
		p.next()
		return []string{ImportsKeyword}, nil
	case LPAREN:
		p.next()
		var out []string
		for {
			t, err := p.depTerm()
			if err != nil {
				return nil, err
			}
			out = append(out, t...)
			if p.accept(PLUS) {
				continue
			}
			if _, err := p.expect(RPAREN); err != nil {
				return nil, err
			}
			return out, nil
		}
	}
	return nil, p.errf("expected dependency term, found %s", p.describe())
}

func (p *parser) depClause() (DepClause, error) {
	pos := p.cur().Pos
	lhs, err := p.depTerm()
	if err != nil {
		return DepClause{}, err
	}
	// Allow "a + b needs ..." without parens.
	for p.accept(PLUS) {
		more, err := p.depTerm()
		if err != nil {
			return DepClause{}, err
		}
		lhs = append(lhs, more...)
	}
	if _, err := p.expect(KwNeeds); err != nil {
		return DepClause{}, err
	}
	rhs, err := p.depTerm()
	if err != nil {
		return DepClause{}, err
	}
	for p.accept(PLUS) || p.accept(COMMA) {
		more, err := p.depTerm()
		if err != nil {
			return DepClause{}, err
		}
		rhs = append(rhs, more...)
	}
	if _, err := p.expect(SEMI); err != nil {
		return DepClause{}, err
	}
	return DepClause{Pos: pos, LHS: lhs, RHS: rhs}, nil
}

func (p *parser) renameClause() (Rename, error) {
	bundle, err := p.ident()
	if err != nil {
		return Rename{}, err
	}
	if _, err := p.expect(DOT); err != nil {
		return Rename{}, err
	}
	sym, err := p.ident()
	if err != nil {
		return Rename{}, err
	}
	if _, err := p.expect(KwTo); err != nil {
		return Rename{}, err
	}
	to, err := p.ident()
	if err != nil {
		return Rename{}, err
	}
	if _, err := p.expect(SEMI); err != nil {
		return Rename{}, err
	}
	return Rename{Pos: bundle.Pos, Bundle: bundle.Lit, Sym: sym.Lit, To: to.Lit}, nil
}

// constraintRef parses prop(arg) or a bare value identifier.
func (p *parser) constraintRef() (Ref, error) {
	pos := p.cur().Pos
	var name string
	switch p.cur().Kind {
	case IDENT:
		name = p.next().Lit
	default:
		return Ref{}, p.errf("expected constraint operand, found %s", p.describe())
	}
	if p.accept(LPAREN) {
		var arg string
		switch p.cur().Kind {
		case IDENT:
			arg = p.next().Lit
		case KwImports:
			p.next()
			arg = ImportsKeyword
		case KwExports:
			p.next()
			arg = ExportsKeyword
		default:
			return Ref{}, p.errf("expected bundle name, found %s", p.describe())
		}
		if _, err := p.expect(RPAREN); err != nil {
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
	switch p.cur().Kind {
	case EQ:
		op = OpEq
	case LE:
		op = OpLe
	case GE:
		op = OpGe
	default:
		return Constraint{}, p.errf("expected =, <= or >=, found %s", p.describe())
	}
	p.next()
	rhs, err := p.constraintRef()
	if err != nil {
		return Constraint{}, err
	}
	if _, err := p.expect(SEMI); err != nil {
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
	if _, err := p.expect(LARROW); err != nil {
		return LinkLine{}, err
	}
	unit, err := p.ident()
	if err != nil {
		return LinkLine{}, err
	}
	if _, err := p.expect(LARROW); err != nil {
		return LinkLine{}, err
	}
	ins, err := p.nameList()
	if err != nil {
		return LinkLine{}, err
	}
	if _, err := p.expect(SEMI); err != nil {
		return LinkLine{}, err
	}
	return LinkLine{Pos: pos, Outs: outs, Unit: unit.Lit, Ins: ins}, nil
}

func (p *parser) nameList() ([]string, error) {
	if _, err := p.expect(LBRACK); err != nil {
		return nil, err
	}
	var out []string
	for !p.accept(RBRACK) {
		n, err := p.ident()
		if err != nil {
			return nil, err
		}
		out = append(out, n.Lit)
		if !p.accept(COMMA) {
			if _, err := p.expect(RBRACK); err != nil {
				return nil, err
			}
			break
		}
	}
	return out, nil
}
