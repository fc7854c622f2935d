package cmini

import (
	"fmt"
	"strconv"
	"sync"

	"knit/internal/diag"
)

// Parser is a recursive-descent parser for cmini. It looks at most two
// tokens past the current one and never backtracks.
type Parser struct {
	toks *Window
	*lists
}

// lists holds the declarations, parameters, statements and call
// arguments of the lists being parsed, innermost last; a list is copied
// out at its length when it ends. Parses share them through listPool,
// so the stacks keep their capacity from one file to the next.
type lists struct {
	decls  []Decl
	params []Param
	stmts  []Stmt
	exprs  []Expr
}

var listPool = sync.Pool{New: func() any { return new(lists) }}

// popList returns a copy of the items pushed on *stack since mark, nil
// if there are none, and pops them.
func popList[T any](stack *[]T, mark int) []T {
	items := (*stack)[mark:]
	var out []T
	if len(items) > 0 {
		out = make([]T, len(items))
		copy(out, items)
		clear(items)
	}
	*stack = (*stack)[:mark]
	return out
}

// Parse parses a cmini source file.
func Parse(file, src string) (*File, error) {
	l := listPool.Get().(*lists)
	p := &Parser{toks: NewWindow(file, src), lists: l}
	f, err := p.parseFile(file)
	if err = p.toks.Err(err); err != nil {
		return nil, err // the lists go: a failed parse leaves items on them
	}
	listPool.Put(l)
	return f, nil
}

func (p *Parser) parseFile(file string) (*File, error) {
	mark := len(p.decls)
	for !p.atEOF() {
		d, err := p.parseTopDecl()
		if err != nil {
			return nil, err
		}
		p.decls = append(p.decls, d)
	}
	return &File{Name: file, Decls: popList(&p.decls, mark)}, nil
}

func (p *Parser) atEOF() bool { return p.kind() == EOF }

func (p *Parser) cur() Token { return *p.toks.Cur() }

// kind is the current token's kind.
func (p *Parser) kind() Tok { return p.toks.Cur().Kind }

func (p *Parser) peekKind(ahead int) Tok { return p.toks.Peek(ahead).Kind }

func (p *Parser) next() Token { return p.toks.Next() }

// skip moves past the current token.
func (p *Parser) skip() { p.toks.skip() }

func (p *Parser) accept(k Tok) bool {
	if p.kind() == k {
		p.skip()
		return true
	}
	return false
}

// want moves past the current token, which must be of kind k.
func (p *Parser) want(k Tok) error {
	if p.kind() != k {
		return p.errorf("expected %s, found %s", k, describe(p.cur()))
	}
	p.skip()
	return nil
}

func (p *Parser) expect(k Tok) (Token, error) {
	if p.kind() != k {
		return p.cur(), p.errorf("expected %s, found %s", k, describe(p.cur()))
	}
	return p.next(), nil
}

func describe(t Token) string {
	switch t.Kind {
	case IDENT, INT:
		return fmt.Sprintf("%q", t.Lit)
	case STRING:
		return "string literal"
	default:
		return fmt.Sprintf("%q", t.Kind.String())
	}
}

func (p *Parser) errorf(format string, args ...any) error {
	return diag.Errorf(p.cur().Pos, format, args...)
}

// isTypeStart reports whether the current token can begin a type.
func (p *Parser) isTypeStart() bool {
	switch p.kind() {
	case KwInt, KwChar, KwVoid, KwFn, KwStruct:
		return true
	}
	return false
}

// parseType parses a base type plus pointer stars: "int", "char **",
// "struct pkt *", "fn", "void *".
func (p *Parser) parseType() (Type, error) {
	var t Type
	switch p.kind() {
	case KwInt:
		p.skip()
		t = TypeInt
	case KwChar:
		p.skip()
		t = TypeChar
	case KwVoid:
		p.skip()
		t = TypeVoid
	case KwFn:
		p.skip()
		t = TypeFn
	case KwStruct:
		p.skip()
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		t = &StructType{Name: name.Lit}
	default:
		return nil, p.errorf("expected type, found %s", describe(p.cur()))
	}
	for p.accept(STAR) {
		t = &Pointer{Elem: t}
	}
	return t, nil
}

func (p *Parser) parseTopDecl() (Decl, error) {
	start := p.cur().Pos
	// struct definition: "struct Name { ... };"
	if p.kind() == KwStruct && p.peekKind(1) == IDENT && p.peekKind(2) == LBRACE {
		return p.parseStructDecl()
	}
	static := false
	extern := false
	for {
		if p.accept(KwStatic) {
			static = true
			continue
		}
		if p.accept(KwExtern) {
			extern = true
			continue
		}
		break
	}
	if static && extern {
		return nil, diag.Errorf(start, "declaration cannot be both static and extern")
	}
	typ, err := p.parseType()
	if err != nil {
		return nil, err
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if p.kind() == LPAREN {
		return p.parseFuncRest(start, typ, name.Lit, static, extern)
	}
	return p.parseVarRest(start, typ, name.Lit, static, extern)
}

func (p *Parser) parseStructDecl() (Decl, error) {
	start := p.cur().Pos
	p.skip() // struct
	name := p.next()
	if err := p.want(LBRACE); err != nil {
		return nil, err
	}
	var fields []Field
	seen := map[string]bool{}
	for !p.accept(RBRACE) {
		ft, err := p.parseType()
		if err != nil {
			return nil, err
		}
		fn, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if seen[fn.Lit] {
			return nil, diag.Errorf(fn.Pos, "duplicate field %q in struct %s", fn.Lit, name.Lit)
		}
		seen[fn.Lit] = true
		if p.accept(LBRACK) {
			n, err := p.expect(INT)
			if err != nil {
				return nil, err
			}
			length, err := strconv.Atoi(n.Lit)
			if err != nil || length <= 0 {
				return nil, diag.Errorf(n.Pos, "invalid array length")
			}
			if err := p.want(RBRACK); err != nil {
				return nil, err
			}
			ft = &Array{Elem: ft, Len: length}
		}
		if err := p.want(SEMI); err != nil {
			return nil, err
		}
		fields = append(fields, Field{Name: fn.Lit, Type: ft})
	}
	if err := p.want(SEMI); err != nil {
		return nil, err
	}
	return &StructDecl{Pos: start, Name: name.Lit, Fields: fields}, nil
}

func (p *Parser) parseVarRest(start diag.Pos, typ Type, name string, static, extern bool) (Decl, error) {
	if p.accept(LBRACK) {
		n, err := p.expect(INT)
		if err != nil {
			return nil, err
		}
		length, err := strconv.Atoi(n.Lit)
		if err != nil || length <= 0 {
			return nil, diag.Errorf(n.Pos, "invalid array length")
		}
		if err := p.want(RBRACK); err != nil {
			return nil, err
		}
		typ = &Array{Elem: typ, Len: length}
	}
	d := &VarDecl{Pos: start, Name: name, Type: typ, Static: static, Extern: extern}
	if p.accept(ASSIGN) {
		if extern {
			return nil, diag.Errorf(start, "extern variable %q cannot have an initializer", name)
		}
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Init = init
	}
	if err := p.want(SEMI); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *Parser) parseFuncRest(start diag.Pos, result Type, name string, static, extern bool) (Decl, error) {
	p.skip() // (
	mark := len(p.params)
	if !p.accept(RPAREN) {
		if p.kind() == KwVoid && p.peekKind(1) == RPAREN {
			p.skip() // void
			p.skip() // )
		} else {
			for {
				pt, err := p.parseType()
				if err != nil {
					return nil, err
				}
				pn, err := p.expect(IDENT)
				if err != nil {
					return nil, err
				}
				p.params = append(p.params, Param{Name: pn.Lit, Type: pt})
				if p.accept(COMMA) {
					continue
				}
				if err := p.want(RPAREN); err != nil {
					return nil, err
				}
				break
			}
		}
	}
	d := &FuncDecl{Pos: start, Name: name, Params: popList(&p.params, mark), Result: result, Static: static, Extern: extern}
	if p.accept(SEMI) {
		// Prototype. Treat a bare prototype as extern (an import) unless
		// marked static, matching how component C code declares imports.
		if !static {
			d.Extern = true
		}
		return d, nil
	}
	if extern {
		return nil, diag.Errorf(start, "extern function %q cannot have a body", name)
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	d.Body = body
	return d, nil
}

func (p *Parser) parseBlock() (*Block, error) {
	start := p.cur().Pos
	if err := p.want(LBRACE); err != nil {
		return nil, err
	}
	mark := len(p.stmts)
	for !p.accept(RBRACE) {
		if p.atEOF() {
			return nil, diag.Errorf(start, "unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		p.stmts = append(p.stmts, s)
	}
	return &Block{Pos: start, Stmts: popList(&p.stmts, mark)}, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	start := p.cur().Pos
	switch p.kind() {
	case LBRACE:
		return p.parseBlock()
	case KwIf:
		return p.parseIf()
	case KwWhile:
		p.skip()
		if err := p.want(LPAREN); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.want(RPAREN); err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Pos: start, Cond: cond, Body: body}, nil
	case KwFor:
		return p.parseFor()
	case KwReturn:
		p.skip()
		s := &ReturnStmt{Pos: start}
		if p.kind() != SEMI {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.X = x
		}
		if err := p.want(SEMI); err != nil {
			return nil, err
		}
		return s, nil
	case KwBreak:
		p.skip()
		if err := p.want(SEMI); err != nil {
			return nil, err
		}
		return &BreakStmt{Pos: start}, nil
	case KwContinue:
		p.skip()
		if err := p.want(SEMI); err != nil {
			return nil, err
		}
		return &ContinueStmt{Pos: start}, nil
	}
	if p.isTypeStart() {
		return p.parseDeclStmt()
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.want(SEMI); err != nil {
		return nil, err
	}
	return &ExprStmt{Pos: start, X: x}, nil
}

func (p *Parser) parseDeclStmt() (Stmt, error) {
	start := p.cur().Pos
	typ, err := p.parseType()
	if err != nil {
		return nil, err
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if p.accept(LBRACK) {
		n, err := p.expect(INT)
		if err != nil {
			return nil, err
		}
		length, err := strconv.Atoi(n.Lit)
		if err != nil || length <= 0 {
			return nil, diag.Errorf(n.Pos, "invalid array length")
		}
		if err := p.want(RBRACK); err != nil {
			return nil, err
		}
		typ = &Array{Elem: typ, Len: length}
	}
	d := &DeclStmt{Pos: start, Name: name.Lit, Type: typ}
	if p.accept(ASSIGN) {
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Init = init
	}
	if err := p.want(SEMI); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *Parser) parseIf() (Stmt, error) {
	start := p.cur().Pos
	p.skip() // if
	if err := p.want(LPAREN); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.want(RPAREN); err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	s := &IfStmt{Pos: start, Cond: cond, Then: then}
	if p.accept(KwElse) {
		if p.kind() == KwIf {
			elseIf, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			s.Else = elseIf
		} else {
			els, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			s.Else = els
		}
	}
	return s, nil
}

func (p *Parser) parseFor() (Stmt, error) {
	start := p.cur().Pos
	p.skip() // for
	if err := p.want(LPAREN); err != nil {
		return nil, err
	}
	s := &ForStmt{Pos: start}
	if !p.accept(SEMI) {
		if p.isTypeStart() {
			init, err := p.parseDeclStmt() // consumes the ;
			if err != nil {
				return nil, err
			}
			s.Init = init
		} else {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.Init = &ExprStmt{Pos: x.ExprPos(), X: x}
			if err := p.want(SEMI); err != nil {
				return nil, err
			}
		}
	}
	if !p.accept(SEMI) {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Cond = cond
		if err := p.want(SEMI); err != nil {
			return nil, err
		}
	}
	if !p.accept(RPAREN) {
		post, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Post = post
		if err := p.want(RPAREN); err != nil {
			return nil, err
		}
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	s.Body = body
	return s, nil
}

// Expression parsing: precedence climbing.

// binPrec is each binary operator's precedence, indexed by its token;
// 0 marks every other token.
var binPrec = [...]int{
	LOR:   1,
	LAND:  2,
	PIPE:  3,
	CARET: 4,
	AMP:   5,
	EQ:    6, NE: 6,
	LT: 7, GT: 7, LE: 7, GE: 7,
	SHL: 8, SHR: 8,
	PLUS: 9, MINUS: 9,
	STAR: 10, SLASH: 10, PERCENT: 10,
}

// precedence returns op's precedence as a binary operator, 0 if it is
// not one.
func precedence(op Tok) int {
	if op < 0 || int(op) >= len(binPrec) {
		return 0
	}
	return binPrec[op]
}

// isCompound reports whether op is a compound assignment such as +=.
func isCompound(op Tok) bool { return op >= ADDEQ && op <= SHREQ }

func (p *Parser) parseExpr() (Expr, error) { return p.parseAssign() }

func (p *Parser) parseAssign() (Expr, error) {
	lhs, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	k := p.kind()
	if k == ASSIGN {
		pos := p.next().Pos
		rhs, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		if !isLvalue(lhs) {
			return nil, diag.Errorf(pos, "left side of assignment is not assignable")
		}
		return &Assign{Pos: pos, Op: ASSIGN, LHS: lhs, RHS: rhs}, nil
	}
	if isCompound(k) {
		pos := p.next().Pos
		rhs, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		if !isLvalue(lhs) {
			return nil, diag.Errorf(pos, "left side of assignment is not assignable")
		}
		return &Assign{Pos: pos, Op: k, LHS: lhs, RHS: rhs}, nil
	}
	return lhs, nil
}

func isLvalue(e Expr) bool {
	switch x := e.(type) {
	case *Ident, *Index, *Member:
		return true
	case *Unary:
		return x.Op == STAR
	}
	return false
}

func (p *Parser) parseCond() (Expr, error) {
	c, err := p.parseBinary(1)
	if err != nil {
		return nil, err
	}
	if p.kind() == QUESTION {
		pos := p.next().Pos
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.want(COLON); err != nil {
			return nil, err
		}
		els, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		return &Cond{Pos: pos, C: c, Then: then, Else: els}, nil
	}
	return c, nil
}

func (p *Parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.kind()
		prec := precedence(op)
		if prec < minPrec {
			return lhs, nil
		}
		pos := p.next().Pos
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{Pos: pos, Op: op, X: lhs, Y: rhs}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	kind, pos := p.kind(), p.toks.Cur().Pos
	switch kind {
	case MINUS, NOT, TILDE, STAR, AMP:
		p.skip()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if kind == AMP && !isAddressable(x) {
			return nil, diag.Errorf(pos, "cannot take address of expression")
		}
		return &Unary{Pos: pos, Op: kind, X: x}, nil
	case KwSizeof:
		p.skip()
		if err := p.want(LPAREN); err != nil {
			return nil, err
		}
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.want(RPAREN); err != nil {
			return nil, err
		}
		return &SizeofExpr{Pos: pos, Type: typ}, nil
	}
	return p.parsePostfix()
}

func isAddressable(e Expr) bool {
	switch x := e.(type) {
	case *Ident, *Index, *Member:
		return true
	case *Unary:
		return x.Op == STAR
	}
	return false
}

func (p *Parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		kind, pos := p.kind(), p.toks.Cur().Pos
		switch kind {
		case LPAREN:
			p.skip()
			mark := len(p.exprs)
			if !p.accept(RPAREN) {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					p.exprs = append(p.exprs, a)
					if p.accept(COMMA) {
						continue
					}
					if err := p.want(RPAREN); err != nil {
						return nil, err
					}
					break
				}
			}
			x = &Call{Pos: pos, Fun: x, Args: popList(&p.exprs, mark)}
		case LBRACK:
			p.skip()
			i, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.want(RBRACK); err != nil {
				return nil, err
			}
			x = &Index{Pos: pos, X: x, I: i}
		case ARROW:
			p.skip()
			name, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			x = &Member{Pos: pos, X: x, Name: name.Lit, Arrow: true}
		case DOT:
			p.skip()
			name, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			x = &Member{Pos: pos, X: x, Name: name.Lit}
		case INC, DEC:
			p.skip()
			if !isLvalue(x) {
				return nil, diag.Errorf(pos, "operand of ++/-- is not assignable")
			}
			x = &IncDec{Pos: pos, Op: kind, X: x}
		default:
			return x, nil
		}
	}
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case INT:
		p.skip()
		v, err := strconv.ParseInt(t.Lit, 0, 64)
		if err != nil {
			return nil, diag.Errorf(t.Pos, "invalid integer literal %q", t.Lit)
		}
		return &IntLit{Pos: t.Pos, Val: v}, nil
	case CHAR:
		p.skip()
		return &IntLit{Pos: t.Pos, Val: int64(t.Lit[0])}, nil
	case STRING:
		p.skip()
		return &StrLit{Pos: t.Pos, Val: t.Lit}, nil
	case KwNull:
		p.skip()
		return &IntLit{Pos: t.Pos, Val: 0}, nil
	case IDENT:
		p.skip()
		return &Ident{Pos: t.Pos, Name: t.Lit}, nil
	case LPAREN:
		p.skip()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.want(RPAREN); err != nil {
			return nil, err
		}
		return x, nil
	}
	return nil, p.errorf("expected expression, found %s", describe(t))
}
