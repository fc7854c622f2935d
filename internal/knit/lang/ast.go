package lang

import "knit/internal/diag"

// File is a parsed unit-language file.
type File struct {
	Name        string
	BundleTypes []*BundleType
	FlagSets    []*FlagSet
	Properties  []*Property
	Units       []*Unit
}

// BundleType names a set of symbols that are imported and exported as a
// group ("bundletype Stdio = { fopen, fprintf }").
type BundleType struct {
	Pos  diag.Pos
	Name string
	Syms []string
}

// FlagSet is a named set of compiler flags. Our cmini compiler has no
// include paths, so flags are carried through for fidelity and recorded
// on units, but do not alter compilation.
type FlagSet struct {
	Pos    diag.Pos
	Name   string
	Values []string
}

// Property declares a constraint property and its partially ordered
// values (§4): "property context" followed by "type ProcessContext <
// NoContext" declarations.
//
// "property context propagates" additionally gives every unit that has
// no explicit constraint on the property the implicit constraint
// "context(exports) <= context(imports)". This implements the paper's
// §8 plan to "generalize the constraint-checking mechanism to reduce
// repetition between different constraints": in the paper's census, 70%
// of annotated units carried exactly that propagation clause.
type Property struct {
	Pos        diag.Pos
	Name       string
	Values     []PropValue
	Propagates bool
}

// PropValue is one value of a property; Below names a value this one is
// less than ("" for maximal values).
type PropValue struct {
	Pos   diag.Pos
	Name  string
	Below string
}

// Unit is an atomic or compound unit. Atomic units have Files; compound
// units have Links. (Exactly one must be present.)
type Unit struct {
	Pos         diag.Pos
	Name        string
	Imports     []Binding
	Exports     []Binding
	Depends     []DepClause
	Files       []string
	FlagsRef    string
	Renames     []Rename
	Inits       []InitDecl
	Constraints []Constraint
	Links       []LinkLine

	// Fallback names a unit the supervisor may substitute for this one
	// at runtime ("fallback SafeUnit;"). The fallback must export the
	// same bundles and import a subset of this unit's imports.
	Fallback string
}

// IsCompound reports whether the unit is built by linking sub-units.
func (u *Unit) IsCompound() bool { return len(u.Links) > 0 }

// Binding introduces a local bundle name with a bundle type
// ("serveFile : Serve").
type Binding struct {
	Pos   diag.Pos
	Local string
	Type  string
}

// DepClause is one dependency declaration: LHS needs RHS. LHS terms are
// export bundle locals, initializer/finalizer function names, or the
// keyword "exports"; RHS terms are import bundle locals or "imports".
type DepClause struct {
	Pos diag.Pos
	LHS []string
	RHS []string
}

// ExportsKeyword and ImportsKeyword are the wildcard terms usable in
// depends and constraints clauses.
const (
	ExportsKeyword = "exports"
	ImportsKeyword = "imports"
)

// Rename associates a bundle symbol with the C identifier the unit's
// implementation actually uses ("rename serveWeb.serve_web to
// serve_unlogged").
type Rename struct {
	Pos    diag.Pos
	Bundle string
	Sym    string
	To     string
}

// InitDecl declares an initializer or finalizer function for an export
// bundle.
type InitDecl struct {
	Pos       diag.Pos
	Func      string
	Bundle    string
	Finalizer bool
}

// ConstraintOp is the relation in a constraint.
type ConstraintOp int

// Constraint relations.
const (
	OpEq ConstraintOp = iota // =
	OpLe                     // <=
	OpGe                     // >=
)

func (op ConstraintOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpLe:
		return "<="
	}
	return ">="
}

// Ref is a constraint operand: a property applied to a bundle local (or
// "imports"/"exports"), e.g. context(serveLog), or a bare property value.
type Ref struct {
	Pos   diag.Pos
	Prop  string // non-empty for prop(arg) form
	Arg   string
	Value string // non-empty for a bare value
}

// IsValue reports whether the ref is a literal property value.
func (r Ref) IsValue() bool { return r.Value != "" }

// Constraint is one clause in a constraints section:
// prop(x) <= prop(y), prop(x) = Value, etc.
type Constraint struct {
	Pos diag.Pos
	LHS Ref
	Op  ConstraintOp
	RHS Ref
}

// LinkLine is one line of a compound unit's link section:
//
//	[out1, out2] <- UnitName <- [in1, in2];
//
// Outs bind local names to the sub-unit's exports positionally; Ins
// supply the sub-unit's imports positionally from local names.
type LinkLine struct {
	Pos  diag.Pos
	Outs []string
	Unit string
	Ins  []string
}
