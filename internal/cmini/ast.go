package cmini

import "knit/internal/diag"

// File is a parsed cmini translation unit: a sequence of struct
// definitions, global variable definitions, extern declarations, and
// function definitions.
type File struct {
	Name  string // source file name, for diagnostics
	Decls []Decl
}

// Decl is a top-level declaration.
type Decl interface {
	declNode()
	// DeclName returns the declared name ("" for anonymous declarations).
	DeclName() string
	// DeclPos returns the source position of the declaration.
	DeclPos() diag.Pos
}

// StructDecl defines a named struct type.
type StructDecl struct {
	Pos    diag.Pos
	Name   string
	Fields []Field
}

// Field is one struct field.
type Field struct {
	Name string
	Type Type
}

// VarDecl declares a global variable. Extern variables have no
// initializer and refer to a definition in another component. Static
// variables are file-local (hidden from linking).
type VarDecl struct {
	Pos    diag.Pos
	Name   string
	Type   Type
	Init   Expr // optional constant initializer; nil means zero
	Static bool
	Extern bool
}

// FuncDecl declares or defines a function. A nil Body together with
// Extern=true is an import declaration; a non-nil Body is a definition.
type FuncDecl struct {
	Pos    diag.Pos
	Name   string
	Params []Param
	Result Type // nil means void
	Body   *Block
	Static bool
	Extern bool
}

// Param is one function parameter.
type Param struct {
	Name string
	Type Type
}

func (*StructDecl) declNode() {}
func (*VarDecl) declNode()    {}
func (*FuncDecl) declNode()   {}

// DeclName returns the struct's name.
func (d *StructDecl) DeclName() string { return d.Name }

// DeclName returns the variable's name.
func (d *VarDecl) DeclName() string { return d.Name }

// DeclName returns the function's name.
func (d *FuncDecl) DeclName() string { return d.Name }

// DeclPos returns the declaration position.
func (d *StructDecl) DeclPos() diag.Pos { return d.Pos }

// DeclPos returns the declaration position.
func (d *VarDecl) DeclPos() diag.Pos { return d.Pos }

// DeclPos returns the declaration position.
func (d *FuncDecl) DeclPos() diag.Pos { return d.Pos }

// Type is a cmini type.
type Type interface{ typeNode() }

// PrimKind enumerates primitive types.
type PrimKind int

// Primitive type kinds.
const (
	Int PrimKind = iota
	Char
	Void
	Fn // function pointer (cmini extension; one word, holds a function)
)

// Prim is a primitive type.
type Prim struct{ Kind PrimKind }

// Pointer is a pointer type.
type Pointer struct{ Elem Type }

// Array is a fixed-size array type.
type Array struct {
	Elem Type
	Len  int
}

// StructType refers to a named struct.
type StructType struct{ Name string }

func (*Prim) typeNode()       {}
func (*Pointer) typeNode()    {}
func (*Array) typeNode()      {}
func (*StructType) typeNode() {}

// Convenience type singletons.
var (
	TypeInt  = &Prim{Kind: Int}
	TypeChar = &Prim{Kind: Char}
	TypeVoid = &Prim{Kind: Void}
	TypeFn   = &Prim{Kind: Fn}
)

// Stmt is a statement.
type Stmt interface{ stmtNode() }

// Block is a brace-delimited statement list.
type Block struct {
	Pos   diag.Pos
	Stmts []Stmt
}

// DeclStmt declares a local variable.
type DeclStmt struct {
	Pos  diag.Pos
	Name string
	Type Type
	Init Expr // optional
}

// ExprStmt evaluates an expression for effect.
type ExprStmt struct {
	Pos diag.Pos
	X   Expr
}

// IfStmt is if/else.
type IfStmt struct {
	Pos  diag.Pos
	Cond Expr
	Then *Block
	Else Stmt // *Block, *IfStmt (else-if), or nil
}

// WhileStmt is a while loop.
type WhileStmt struct {
	Pos  diag.Pos
	Cond Expr
	Body *Block
}

// ForStmt is a C-style for loop. Init and Post are optional expressions,
// Cond is optional (nil means true).
type ForStmt struct {
	Pos  diag.Pos
	Init Stmt // *DeclStmt or *ExprStmt or nil
	Cond Expr
	Post Expr
	Body *Block
}

// ReturnStmt returns from the enclosing function; X may be nil.
type ReturnStmt struct {
	Pos diag.Pos
	X   Expr
}

// BreakStmt exits the innermost loop.
type BreakStmt struct{ Pos diag.Pos }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ Pos diag.Pos }

func (*Block) stmtNode()        {}
func (*DeclStmt) stmtNode()     {}
func (*ExprStmt) stmtNode()     {}
func (*IfStmt) stmtNode()       {}
func (*WhileStmt) stmtNode()    {}
func (*ForStmt) stmtNode()      {}
func (*ReturnStmt) stmtNode()   {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}

// Expr is an expression.
type Expr interface {
	exprNode()
	// ExprPos returns the source position of the expression.
	ExprPos() diag.Pos
}

// IntLit is an integer literal.
type IntLit struct {
	Pos diag.Pos
	Val int64
}

// StrLit is a string literal; its value is the address of a NUL-terminated
// word array in read-only data.
type StrLit struct {
	Pos diag.Pos
	Val string
}

// Ident names a variable, parameter, or function.
type Ident struct {
	Pos  diag.Pos
	Name string
}

// Unary is a prefix operator: - ! ~ * (deref) & (address-of).
type Unary struct {
	Pos diag.Pos
	Op  Tok
	X   Expr
}

// Binary is an infix operator.
type Binary struct {
	Pos diag.Pos
	Op  Tok
	X   Expr
	Y   Expr
}

// Assign is an assignment, possibly compound (+=, <<=, ...). Op is ASSIGN
// for plain assignment.
type Assign struct {
	Pos diag.Pos
	Op  Tok
	LHS Expr
	RHS Expr
}

// IncDec is a postfix ++ or --.
type IncDec struct {
	Pos diag.Pos
	Op  Tok // INC or DEC
	X   Expr
}

// Call applies a function to arguments. If Fun is an Ident that resolves
// to a function symbol the call is direct; otherwise the callee value is
// computed at run time (indirect call).
type Call struct {
	Pos  diag.Pos
	Fun  Expr
	Args []Expr
}

// Index is array/pointer indexing x[i].
type Index struct {
	Pos diag.Pos
	X   Expr
	I   Expr
}

// Member is struct member access: x.f (Arrow=false) or x->f (Arrow=true).
type Member struct {
	Pos   diag.Pos
	X     Expr
	Name  string
	Arrow bool
}

// Cond is the ternary operator c ? a : b.
type Cond struct {
	Pos  diag.Pos
	C    Expr
	Then Expr
	Else Expr
}

// SizeofExpr is sizeof(type), in words.
type SizeofExpr struct {
	Pos  diag.Pos
	Type Type
}

func (*IntLit) exprNode()     {}
func (*StrLit) exprNode()     {}
func (*Ident) exprNode()      {}
func (*Unary) exprNode()      {}
func (*Binary) exprNode()     {}
func (*Assign) exprNode()     {}
func (*IncDec) exprNode()     {}
func (*Call) exprNode()       {}
func (*Index) exprNode()      {}
func (*Member) exprNode()     {}
func (*Cond) exprNode()       {}
func (*SizeofExpr) exprNode() {}

// ExprPos returns the literal's position.
func (e *IntLit) ExprPos() diag.Pos { return e.Pos }

// ExprPos returns the literal's position.
func (e *StrLit) ExprPos() diag.Pos { return e.Pos }

// ExprPos returns the identifier's position.
func (e *Ident) ExprPos() diag.Pos { return e.Pos }

// ExprPos returns the operator's position.
func (e *Unary) ExprPos() diag.Pos { return e.Pos }

// ExprPos returns the operator's position.
func (e *Binary) ExprPos() diag.Pos { return e.Pos }

// ExprPos returns the assignment's position.
func (e *Assign) ExprPos() diag.Pos { return e.Pos }

// ExprPos returns the operator's position.
func (e *IncDec) ExprPos() diag.Pos { return e.Pos }

// ExprPos returns the call's position.
func (e *Call) ExprPos() diag.Pos { return e.Pos }

// ExprPos returns the index expression's position.
func (e *Index) ExprPos() diag.Pos { return e.Pos }

// ExprPos returns the member access's position.
func (e *Member) ExprPos() diag.Pos { return e.Pos }

// ExprPos returns the conditional's position.
func (e *Cond) ExprPos() diag.Pos { return e.Pos }

// ExprPos returns the sizeof's position.
func (e *SizeofExpr) ExprPos() diag.Pos { return e.Pos }
