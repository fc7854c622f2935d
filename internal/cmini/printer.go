package cmini

import (
	"fmt"
	"strings"
)

// Print renders a file back to cmini source. The output is parseable and
// semantically identical to the input; it is what Knit's flattener emits
// as the merged compilation unit.
func Print(f *File) string {
	var b strings.Builder
	p := printer{b: &b}
	for i, d := range f.Decls {
		if i > 0 {
			b.WriteString("\n")
		}
		p.decl(d)
	}
	return b.String()
}

// PrintType renders a type.
func PrintType(t Type) string {
	switch t := t.(type) {
	case *Prim:
		switch t.Kind {
		case Int:
			return "int"
		case Char:
			return "char"
		case Void:
			return "void"
		case Fn:
			return "fn"
		}
	case *Pointer:
		if _, nested := t.Elem.(*Pointer); nested {
			return PrintType(t.Elem) + "*"
		}
		return PrintType(t.Elem) + " *"
	case *Array:
		return fmt.Sprintf("%s[%d]", PrintType(t.Elem), t.Len)
	case *StructType:
		return "struct " + t.Name
	}
	return "?type?"
}

type printer struct {
	b      *strings.Builder
	indent int
}

func (p *printer) nl() {
	p.b.WriteString("\n")
	for i := 0; i < p.indent; i++ {
		p.b.WriteString("    ")
	}
}

func (p *printer) decl(d Decl) {
	switch d := d.(type) {
	case *StructDecl:
		fmt.Fprintf(p.b, "struct %s {", d.Name)
		p.indent++
		for _, f := range d.Fields {
			p.nl()
			p.fieldDecl(f)
		}
		p.indent--
		p.nl()
		p.b.WriteString("};\n")
	case *VarDecl:
		if d.Static {
			p.b.WriteString("static ")
		}
		if d.Extern {
			p.b.WriteString("extern ")
		}
		p.varType(d.Name, d.Type)
		if d.Init != nil {
			p.b.WriteString(" = ")
			p.expr(d.Init, 0)
		}
		p.b.WriteString(";\n")
	case *FuncDecl:
		if d.Static {
			p.b.WriteString("static ")
		}
		if d.Extern && d.Body == nil {
			p.b.WriteString("extern ")
		}
		p.typePrefix(d.Result)
		p.b.WriteString(d.Name)
		p.b.WriteString("(")
		if len(d.Params) == 0 {
			p.b.WriteString("void")
		}
		for i, prm := range d.Params {
			if i > 0 {
				p.b.WriteString(", ")
			}
			p.typePrefix(prm.Type)
			p.b.WriteString(prm.Name)
		}
		p.b.WriteString(")")
		if d.Body == nil {
			p.b.WriteString(";\n")
			return
		}
		p.b.WriteString(" ")
		p.block(d.Body)
		p.b.WriteString("\n")
	}
}

// typePrefix prints a type followed by a space, as it appears before a
// declared name ("int ", "char *", "struct pkt *").
func (p *printer) typePrefix(t Type) {
	if t == nil {
		p.b.WriteString("void ")
		return
	}
	switch t := t.(type) {
	case *Pointer:
		p.typePrefix(t.Elem)
		p.b.WriteString("*")
	default:
		p.b.WriteString(PrintType(t))
		p.b.WriteString(" ")
	}
}

func (p *printer) fieldDecl(f Field) {
	if arr, ok := f.Type.(*Array); ok {
		p.typePrefix(arr.Elem)
		fmt.Fprintf(p.b, "%s[%d];", f.Name, arr.Len)
		return
	}
	p.typePrefix(f.Type)
	p.b.WriteString(f.Name)
	p.b.WriteString(";")
}

func (p *printer) varType(name string, t Type) {
	if arr, ok := t.(*Array); ok {
		p.typePrefix(arr.Elem)
		fmt.Fprintf(p.b, "%s[%d]", name, arr.Len)
		return
	}
	p.typePrefix(t)
	p.b.WriteString(name)
}

func (p *printer) block(b *Block) {
	p.b.WriteString("{")
	p.indent++
	for _, s := range b.Stmts {
		p.nl()
		p.stmt(s)
	}
	p.indent--
	p.nl()
	p.b.WriteString("}")
}

func (p *printer) stmt(s Stmt) {
	switch s := s.(type) {
	case *Block:
		p.block(s)
	case *DeclStmt:
		p.varType(s.Name, s.Type)
		if s.Init != nil {
			p.b.WriteString(" = ")
			p.expr(s.Init, 0)
		}
		p.b.WriteString(";")
	case *ExprStmt:
		p.expr(s.X, 0)
		p.b.WriteString(";")
	case *IfStmt:
		p.b.WriteString("if (")
		p.expr(s.Cond, 0)
		p.b.WriteString(") ")
		p.block(s.Then)
		if s.Else != nil {
			p.b.WriteString(" else ")
			if elif, ok := s.Else.(*IfStmt); ok {
				p.stmt(elif)
			} else {
				p.block(s.Else.(*Block))
			}
		}
	case *WhileStmt:
		p.b.WriteString("while (")
		p.expr(s.Cond, 0)
		p.b.WriteString(") ")
		p.block(s.Body)
	case *ForStmt:
		p.b.WriteString("for (")
		switch init := s.Init.(type) {
		case *DeclStmt:
			p.varType(init.Name, init.Type)
			if init.Init != nil {
				p.b.WriteString(" = ")
				p.expr(init.Init, 0)
			}
		case *ExprStmt:
			p.expr(init.X, 0)
		}
		p.b.WriteString("; ")
		if s.Cond != nil {
			p.expr(s.Cond, 0)
		}
		p.b.WriteString("; ")
		if s.Post != nil {
			p.expr(s.Post, 0)
		}
		p.b.WriteString(") ")
		p.block(s.Body)
	case *ReturnStmt:
		p.b.WriteString("return")
		if s.X != nil {
			p.b.WriteString(" ")
			p.expr(s.X, 0)
		}
		p.b.WriteString(";")
	case *BreakStmt:
		p.b.WriteString("break;")
	case *ContinueStmt:
		p.b.WriteString("continue;")
	}
}

// expr prints e, parenthesizing when e's precedence is below min.
func (p *printer) expr(e Expr, min int) {
	switch e := e.(type) {
	case *IntLit:
		fmt.Fprintf(p.b, "%d", e.Val)
	case *StrLit:
		p.b.WriteString(Quote(e.Val))
	case *Ident:
		p.b.WriteString(e.Name)
	case *Unary:
		paren := min > 11
		if paren {
			p.b.WriteString("(")
		}
		p.b.WriteString(e.Op.String())
		p.expr(e.X, 12) // parenthesize nested unary so "- -x" never prints as "--x"
		if paren {
			p.b.WriteString(")")
		}
	case *Binary:
		prec := precedence(e.Op)
		paren := prec < min
		if paren {
			p.b.WriteString("(")
		}
		p.expr(e.X, prec)
		fmt.Fprintf(p.b, " %s ", e.Op)
		p.expr(e.Y, prec+1)
		if paren {
			p.b.WriteString(")")
		}
	case *Assign:
		paren := min > 0
		if paren {
			p.b.WriteString("(")
		}
		p.expr(e.LHS, 11)
		if e.Op == ASSIGN {
			p.b.WriteString(" = ")
		} else {
			fmt.Fprintf(p.b, " %s ", e.Op)
		}
		p.expr(e.RHS, 0)
		if paren {
			p.b.WriteString(")")
		}
	case *IncDec:
		p.expr(e.X, 12)
		p.b.WriteString(e.Op.String())
	case *Call:
		p.expr(e.Fun, 12)
		p.b.WriteString("(")
		for i, a := range e.Args {
			if i > 0 {
				p.b.WriteString(", ")
			}
			p.expr(a, 0)
		}
		p.b.WriteString(")")
	case *Index:
		p.expr(e.X, 12)
		p.b.WriteString("[")
		p.expr(e.I, 0)
		p.b.WriteString("]")
	case *Member:
		p.expr(e.X, 12)
		if e.Arrow {
			p.b.WriteString("->")
		} else {
			p.b.WriteString(".")
		}
		p.b.WriteString(e.Name)
	case *Cond:
		paren := min > 0
		if paren {
			p.b.WriteString("(")
		}
		p.expr(e.C, 1)
		p.b.WriteString(" ? ")
		p.expr(e.Then, 0)
		p.b.WriteString(" : ")
		p.expr(e.Else, 0)
		if paren {
			p.b.WriteString(")")
		}
	case *SizeofExpr:
		fmt.Fprintf(p.b, "sizeof(%s)", sizeofTypeName(e.Type))
	}
}

func sizeofTypeName(t Type) string {
	s := PrintType(t)
	return strings.TrimRight(s, " *") + strings.Repeat("*", strings.Count(s, "*"))
}
