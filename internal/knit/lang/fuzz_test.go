package lang

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"knit/internal/diag/diagtest"
)

// TestQuickParserNeverPanics throws random token soup at the parser: it
// must always return (possibly an error positioned inside the soup),
// never panic — the robustness a configuration language needs when users
// hand-edit unit files.
func TestQuickParserNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	pieces := []string{
		"unit", "bundletype", "flags", "property", "type", "imports",
		"exports", "depends", "needs", "files", "rename", "to", "link",
		"initializer", "finalizer", "for", "constraints", "with",
		"{", "}", "[", "]", "(", ")", ";", ",", ":", ".", "+", "=", "<=",
		">=", "<", "<-", "X", "Y", "serve_web", `"a.c"`, "Serve", "//c\n",
		"/*b*/", "\n",
	}
	fn := func() bool {
		var b strings.Builder
		n := r.Intn(60)
		for i := 0; i < n; i++ {
			b.WriteString(pieces[r.Intn(len(pieces))])
			b.WriteString(" ")
		}
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("parser panicked on %q: %v", b.String(), p)
			}
		}()
		if _, err := Parse("fuzz.unit", b.String()); err != nil {
			diagtest.At(t, err, b.String())
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestQuickLexerNeverPanics: arbitrary bytes, with every error
// positioned inside them.
func TestQuickLexerNeverPanics(t *testing.T) {
	fn := func(data []byte) bool {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("lexer panicked on %q: %v", data, p)
			}
		}()
		if _, err := Parse("fuzz.unit", string(data)); err != nil {
			diagtest.At(t, err, string(data))
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// ---- printer round-trip property ----

// genFile builds a random but well-formed unit file AST: a layer of
// atomic units (files, renames, initializers, depends, constraint
// annotations) under layers of compound units that link the layer
// below, so the printer's every production is exercised, including
// nested compound structure.
func genFile(r *rand.Rand) *File {
	ident := func(prefix string, i int) string {
		return prefix + string(rune('A'+i%26)) + string(rune('0'+i/26%10))
	}
	f := &File{Name: "gen.unit"}
	ntypes := 1 + r.Intn(3)
	for i := 0; i < ntypes; i++ {
		syms := []string{ident("s", i)}
		if r.Intn(2) == 0 {
			syms = append(syms, ident("t", i))
		}
		f.BundleTypes = append(f.BundleTypes, &BundleType{Name: ident("BT", i), Syms: syms})
	}
	f.Properties = append(f.Properties, &Property{
		Name:       "ctx",
		Propagates: r.Intn(2) == 0,
		Values: []PropValue{
			{Name: "Hi"},
			{Name: "Lo", Below: "Hi"},
		},
	})
	bt := func(i int) string { return f.BundleTypes[i%ntypes].Name }

	// Atomic layer.
	natomic := 1 + r.Intn(3)
	for i := 0; i < natomic; i++ {
		u := &Unit{Name: ident("Atom", i)}
		exp := ident("e", i)
		u.Exports = []Binding{{Local: exp, Type: bt(i)}}
		if r.Intn(2) == 0 {
			imp := ident("i", i)
			u.Imports = []Binding{{Local: imp, Type: bt(i + 1)}}
			u.Depends = append(u.Depends, DepClause{LHS: []string{exp}, RHS: []string{imp}})
			if r.Intn(2) == 0 {
				u.Depends = append(u.Depends, DepClause{
					LHS: []string{ExportsKeyword}, RHS: []string{ImportsKeyword}})
			}
		}
		if r.Intn(2) == 0 {
			u.Inits = append(u.Inits, InitDecl{Func: ident("init", i), Bundle: exp})
		}
		if r.Intn(3) == 0 {
			u.Inits = append(u.Inits, InitDecl{Func: ident("fini", i), Bundle: exp, Finalizer: true})
		}
		if r.Intn(3) == 0 {
			u.Fallback = ident("Safe", i)
		}
		switch r.Intn(3) {
		case 0:
			u.Constraints = append(u.Constraints, Constraint{
				LHS: Ref{Prop: "ctx", Arg: exp}, Op: OpEq, RHS: Ref{Value: "Hi"}})
		case 1:
			u.Constraints = append(u.Constraints, Constraint{
				LHS: Ref{Prop: "ctx", Arg: ExportsKeyword},
				Op:  ConstraintOp(r.Intn(3)),
				RHS: Ref{Prop: "ctx", Arg: ImportsKeyword}})
		}
		u.Files = []string{ident("f", i) + ".c"}
		if r.Intn(2) == 0 {
			u.Renames = append(u.Renames, Rename{
				Bundle: exp, Sym: f.BundleTypes[i%ntypes].Syms[0], To: ident("impl_", i)})
		}
		f.Units = append(f.Units, u)
	}

	// Compound layers: each links units from the layer below.
	prevLayer := f.Units
	depth := 1 + r.Intn(2)
	for d := 0; d < depth; d++ {
		u := &Unit{Name: ident("Comp", d)}
		var locals []string
		for i, sub := range prevLayer {
			out := ident("o", d*8+i)
			line := LinkLine{Outs: []string{out}, Unit: sub.Name}
			for range sub.Imports {
				in := out // wire imports to an already-bound local, or self
				if len(locals) > 0 {
					in = locals[r.Intn(len(locals))]
				}
				line.Ins = append(line.Ins, in)
			}
			u.Links = append(u.Links, line)
			locals = append(locals, out)
		}
		u.Exports = []Binding{{Local: locals[len(locals)-1], Type: bt(d)}}
		f.Units = append(f.Units, u)
		prevLayer = []*Unit{u}
	}
	return f
}

// TestQuickPrintParseRoundTrip: for generated files, Print is a fixed
// point of parse∘print — parsing the canonical form and reprinting it
// reproduces it byte for byte. This pins down both directions: the
// printer emits only parseable syntax, and the parser loses nothing the
// printer records.
func TestQuickPrintParseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 500; i++ {
		f := genFile(r)
		s1 := Print(f)
		p1, err := Parse("gen.unit", s1)
		if err != nil {
			t.Fatalf("case %d: canonical form does not reparse: %v\n%s", i, err, s1)
		}
		s2 := Print(p1)
		if s1 != s2 {
			t.Fatalf("case %d: round trip not stable\n-- first print --\n%s\n-- second print --\n%s", i, s1, s2)
		}
		// And once more: the reparsed AST must itself round-trip.
		p2, err := Parse("gen.unit", s2)
		if err != nil {
			t.Fatalf("case %d: second reparse failed: %v", i, err)
		}
		if s3 := Print(p2); s3 != s2 {
			t.Fatalf("case %d: third print diverged", i)
		}
	}
}
