package cmini

// This file provides AST utilities used by Knit's linker and flattener:
// deep cloning (so one unit's source can be instantiated several times)
// and identifier rewriting (the AST-level analogue of objcopy symbol
// renaming).

// CloneFile returns a deep copy of f.
func CloneFile(f *File) *File {
	out := &File{Name: f.Name}
	for _, d := range f.Decls {
		out.Decls = append(out.Decls, CloneDecl(d))
	}
	return out
}

// CloneDecl returns a deep copy of d.
func CloneDecl(d Decl) Decl {
	switch d := d.(type) {
	case *StructDecl:
		cp := *d
		cp.Fields = append([]Field(nil), d.Fields...)
		return &cp
	case *VarDecl:
		cp := *d
		cp.Init = cloneExpr(d.Init)
		return &cp
	case *FuncDecl:
		cp := *d
		cp.Params = append([]Param(nil), d.Params...)
		cp.Body = cloneBlock(d.Body)
		return &cp
	}
	return d
}

func cloneBlock(b *Block) *Block {
	if b == nil {
		return nil
	}
	out := &Block{Pos: b.Pos}
	for _, s := range b.Stmts {
		out.Stmts = append(out.Stmts, cloneStmt(s))
	}
	return out
}

func cloneStmt(s Stmt) Stmt {
	switch s := s.(type) {
	case *Block:
		return cloneBlock(s)
	case *DeclStmt:
		cp := *s
		cp.Init = cloneExpr(s.Init)
		return &cp
	case *ExprStmt:
		cp := *s
		cp.X = cloneExpr(s.X)
		return &cp
	case *IfStmt:
		cp := *s
		cp.Cond = cloneExpr(s.Cond)
		cp.Then = cloneBlock(s.Then)
		if s.Else != nil {
			cp.Else = cloneStmt(s.Else)
		}
		return &cp
	case *WhileStmt:
		cp := *s
		cp.Cond = cloneExpr(s.Cond)
		cp.Body = cloneBlock(s.Body)
		return &cp
	case *ForStmt:
		cp := *s
		if s.Init != nil {
			cp.Init = cloneStmt(s.Init)
		}
		cp.Cond = cloneExpr(s.Cond)
		cp.Post = cloneExpr(s.Post)
		cp.Body = cloneBlock(s.Body)
		return &cp
	case *ReturnStmt:
		cp := *s
		cp.X = cloneExpr(s.X)
		return &cp
	case *BreakStmt:
		cp := *s
		return &cp
	case *ContinueStmt:
		cp := *s
		return &cp
	}
	return s
}

func cloneExpr(e Expr) Expr {
	if e == nil {
		return nil
	}
	switch e := e.(type) {
	case *IntLit:
		cp := *e
		return &cp
	case *StrLit:
		cp := *e
		return &cp
	case *Ident:
		cp := *e
		return &cp
	case *Unary:
		cp := *e
		cp.X = cloneExpr(e.X)
		return &cp
	case *Binary:
		cp := *e
		cp.X = cloneExpr(e.X)
		cp.Y = cloneExpr(e.Y)
		return &cp
	case *Assign:
		cp := *e
		cp.LHS = cloneExpr(e.LHS)
		cp.RHS = cloneExpr(e.RHS)
		return &cp
	case *IncDec:
		cp := *e
		cp.X = cloneExpr(e.X)
		return &cp
	case *Call:
		cp := *e
		cp.Fun = cloneExpr(e.Fun)
		cp.Args = nil
		for _, a := range e.Args {
			cp.Args = append(cp.Args, cloneExpr(a))
		}
		return &cp
	case *Index:
		cp := *e
		cp.X = cloneExpr(e.X)
		cp.I = cloneExpr(e.I)
		return &cp
	case *Member:
		cp := *e
		cp.X = cloneExpr(e.X)
		return &cp
	case *Cond:
		cp := *e
		cp.C = cloneExpr(e.C)
		cp.Then = cloneExpr(e.Then)
		cp.Else = cloneExpr(e.Else)
		return &cp
	case *SizeofExpr:
		cp := *e
		return &cp
	}
	return e
}

// RenameGlobals rewrites, in place, every reference to a global name
// according to the mapping. It renames top-level definitions whose names
// appear in the map, and every Ident occurrence that is not shadowed by a
// local variable or parameter. Struct names and field names are untouched.
func RenameGlobals(f *File, mapping map[string]string) {
	if len(mapping) == 0 {
		return
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *VarDecl:
			if to, ok := mapping[d.Name]; ok {
				d.Name = to
			}
		case *FuncDecl:
			if to, ok := mapping[d.Name]; ok {
				d.Name = to
			}
		}
	}
	globalIdents(f, func(id *Ident) {
		if to, ok := mapping[id.Name]; ok {
			id.Name = to
		}
	})
}

// GlobalRefs returns the global names referenced from function bodies
// and initializer expressions of f, excluding references shadowed by
// locals or parameters: each name once, as its first reference, in
// source order. It reports raw references; the caller decides which are
// imports and which resolve within the file.
func GlobalRefs(f *File) []Ident {
	var refs []Ident
	seen := map[string]bool{}
	globalIdents(f, func(id *Ident) {
		if !seen[id.Name] {
			seen[id.Name] = true
			refs = append(refs, *id)
		}
	})
	return refs
}

// globalIdents calls visit on every identifier in f's function bodies
// and initializer expressions that no parameter or local shadows: the
// references to globals, in source order.
func globalIdents(f *File, visit func(*Ident)) {
	w := &scopeWalk{visit: visit}
	for _, d := range f.Decls {
		w.scope = w.scope[:0]
		switch d := d.(type) {
		case *VarDecl:
			w.expr(d.Init)
		case *FuncDecl:
			for _, p := range d.Params {
				w.scope = append(w.scope, p.Name)
			}
			w.block(d.Body)
		}
	}
}

// scopeWalk is the scope-aware traversal behind globalIdents. scope
// holds the names parameters and locals in scope shadow, innermost
// last; a block or for statement drops the names declared in it when
// it ends, so shadowing is lexical.
type scopeWalk struct {
	visit func(*Ident)
	scope []string
}

// shadowed reports whether a parameter or local in scope is named name.
func (w *scopeWalk) shadowed(name string) bool {
	for i := len(w.scope) - 1; i >= 0; i-- {
		if w.scope[i] == name {
			return true
		}
	}
	return false
}

func (w *scopeWalk) block(b *Block) {
	if b == nil {
		return
	}
	outer := len(w.scope)
	for _, s := range b.Stmts {
		w.stmt(s)
	}
	w.scope = w.scope[:outer]
}

func (w *scopeWalk) stmt(s Stmt) {
	switch s := s.(type) {
	case *Block:
		w.block(s)
	case *DeclStmt:
		w.expr(s.Init)
		w.scope = append(w.scope, s.Name) // shadows the global from here on
	case *ExprStmt:
		w.expr(s.X)
	case *IfStmt:
		w.expr(s.Cond)
		w.block(s.Then)
		if s.Else != nil {
			w.stmt(s.Else)
		}
	case *WhileStmt:
		w.expr(s.Cond)
		w.block(s.Body)
	case *ForStmt:
		outer := len(w.scope)
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.expr(s.Cond)
		w.expr(s.Post)
		w.block(s.Body)
		w.scope = w.scope[:outer]
	case *ReturnStmt:
		w.expr(s.X)
	}
}

func (w *scopeWalk) expr(e Expr) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *Ident:
		if !w.shadowed(e.Name) {
			w.visit(e)
		}
	case *Unary:
		w.expr(e.X)
	case *Binary:
		w.expr(e.X)
		w.expr(e.Y)
	case *Assign:
		w.expr(e.LHS)
		w.expr(e.RHS)
	case *IncDec:
		w.expr(e.X)
	case *Call:
		w.expr(e.Fun)
		for _, a := range e.Args {
			w.expr(a)
		}
	case *Index:
		w.expr(e.X)
		w.expr(e.I)
	case *Member:
		w.expr(e.X)
	case *Cond:
		w.expr(e.C)
		w.expr(e.Then)
		w.expr(e.Else)
	}
}
