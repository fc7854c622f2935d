package cmini

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// reprint parses src, prints it, parses the output, prints again, and
// checks the two printed forms are identical (print∘parse is idempotent).
func reprint(t *testing.T, src string) string {
	t.Helper()
	f1, err := Parse("a.c", src)
	if err != nil {
		t.Fatalf("parse original: %v", err)
	}
	out1 := Print(f1)
	f2, err := Parse("b.c", out1)
	if err != nil {
		t.Fatalf("parse printed output: %v\noutput:\n%s", err, out1)
	}
	out2 := Print(f2)
	if out1 != out2 {
		t.Fatalf("print not idempotent:\nfirst:\n%s\nsecond:\n%s", out1, out2)
	}
	return out1
}

func TestPrintRoundTrip(t *testing.T) {
	srcs := []string{
		`int x = 1 + 2 * 3;`,
		`static char *log_name = "ServerLog";`,
		`extern int fopen(char *name, char *mode);`,
		`struct pkt { int ttl; char data[64]; };`,
		`int f(int a, int b) { return a > b ? a : b; }`,
		`int g(void) { int i; for (i = 0; i < 10; i++) { continue; } return i; }`,
		`int h(int *p) { *p = *p + 1; return p[0]; }`,
		`int k(struct pkt *p) { p->ttl--; return p->ttl; }`,
		`int m(int a) { a += 2; a <<= 1; a %= 7; return ~a + !a - -a; }`,
		`int n(int c) { if (c) { return 1; } else if (c > 2) { return 2; } else { return 3; } }`,
		`static fn cb; int call_cb(int x) { return cb(x); }`,
		`int s(void) { return sizeof(struct pkt) + sizeof(int); }`,
		`int w(int x) { while (x > 0) { x = x - 1; if (x == 3) { break; } } return x; }`,
		// Every escape the lexer reads, and a raw control byte, which
		// must print in a form the lexer reads back.
		"static char *esc = \"a\\tb\\0c\\\"d\\\\e\x01\";",
	}
	for _, src := range srcs {
		reprint(t, src)
	}
}

func TestPrintNestedUnaryNotAmbiguous(t *testing.T) {
	f := &File{Decls: []Decl{&VarDecl{
		Name: "x", Type: TypeInt,
		Init: &Unary{Op: MINUS, X: &Unary{Op: MINUS, X: &Ident{Name: "y"}}},
	}}}
	out := Print(f)
	f2, err := Parse("t.c", out)
	if err != nil {
		t.Fatalf("reparse %q: %v", out, err)
	}
	init := f2.Decls[0].(*VarDecl).Init
	u1, ok := init.(*Unary)
	if !ok || u1.Op != MINUS {
		t.Fatalf("outer = %#v, want unary minus (printed %q)", init, out)
	}
	if _, ok := u1.X.(*Unary); !ok {
		t.Fatalf("inner = %#v, want unary minus (printed %q)", u1.X, out)
	}
}

func TestPrintPrecedencePreserved(t *testing.T) {
	// (1+2)*3 must keep its parentheses.
	out := reprint(t, `int x = (1 + 2) * 3;`)
	f, err := Parse("t.c", out)
	if err != nil {
		t.Fatal(err)
	}
	e := f.Decls[0].(*VarDecl).Init.(*Binary)
	if e.Op != STAR {
		t.Fatalf("top = %v, want *; printed %q", e.Op, out)
	}
	if inner, ok := e.X.(*Binary); !ok || inner.Op != PLUS {
		t.Fatalf("inner wrong; printed %q", out)
	}
}

// genExpr builds a random expression of bounded depth for the round-trip
// property test.
func genExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 {
		switch r.Intn(3) {
		case 0:
			return &IntLit{Val: int64(r.Intn(100))}
		case 1:
			return &Ident{Name: string(rune('a' + r.Intn(4)))}
		default:
			return &StrLit{Val: "s"}
		}
	}
	ops := []Tok{PLUS, MINUS, STAR, SLASH, PERCENT, SHL, SHR, LT, GT, LE,
		GE, EQ, NE, LAND, LOR, AMP, PIPE, CARET}
	switch r.Intn(6) {
	case 0, 1, 2:
		return &Binary{Op: ops[r.Intn(len(ops))],
			X: genExpr(r, depth-1), Y: genExpr(r, depth-1)}
	case 3:
		uops := []Tok{MINUS, NOT, TILDE}
		return &Unary{Op: uops[r.Intn(len(uops))], X: genExpr(r, depth-1)}
	case 4:
		return &Cond{C: genExpr(r, depth-1), Then: genExpr(r, depth-1),
			Else: genExpr(r, depth-1)}
	default:
		return &Call{Fun: &Ident{Name: "f"},
			Args: []Expr{genExpr(r, depth-1)}}
	}
}

// exprEqual compares expressions ignoring positions.
func exprEqual(a, b Expr) bool {
	switch a := a.(type) {
	case *IntLit:
		b, ok := b.(*IntLit)
		return ok && a.Val == b.Val
	case *StrLit:
		b, ok := b.(*StrLit)
		return ok && a.Val == b.Val
	case *Ident:
		b, ok := b.(*Ident)
		return ok && a.Name == b.Name
	case *Unary:
		b, ok := b.(*Unary)
		return ok && a.Op == b.Op && exprEqual(a.X, b.X)
	case *Binary:
		b, ok := b.(*Binary)
		return ok && a.Op == b.Op && exprEqual(a.X, b.X) && exprEqual(a.Y, b.Y)
	case *Cond:
		b, ok := b.(*Cond)
		return ok && exprEqual(a.C, b.C) && exprEqual(a.Then, b.Then) && exprEqual(a.Else, b.Else)
	case *Call:
		b, ok := b.(*Call)
		if !ok || !exprEqual(a.Fun, b.Fun) || len(a.Args) != len(b.Args) {
			return false
		}
		for i := range a.Args {
			if !exprEqual(a.Args[i], b.Args[i]) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a, b)
}

// TestQuickExprRoundTrip is the printer's core property: for random
// expression trees, parse(print(e)) == e (so precedence and
// parenthesization in the printer are exactly right).
func TestQuickExprRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	fn := func() bool {
		e := genExpr(r, 4)
		f := &File{Decls: []Decl{&VarDecl{Name: "x", Type: TypeInt, Init: e}}}
		out := Print(f)
		f2, err := Parse("t.c", out)
		if err != nil {
			t.Logf("reparse failed for %q: %v", out, err)
			return false
		}
		got := f2.Decls[0].(*VarDecl).Init
		if !exprEqual(e, got) {
			t.Logf("round trip changed tree; printed %q", out)
			return false
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCloneFileIsDeep(t *testing.T) {
	f := mustParse(t, `
static int counter = 0;
int bump(int n) {
    counter = counter + n;
    return counter;
}
`)
	cp := CloneFile(f)
	RenameGlobals(cp, map[string]string{"counter": "inst1_counter", "bump": "inst1_bump"})
	if f.Decls[0].(*VarDecl).Name != "counter" {
		t.Error("rename of clone mutated original var")
	}
	if f.Decls[1].(*FuncDecl).Name != "bump" {
		t.Error("rename of clone mutated original func")
	}
	orig := Print(f)
	if got := Print(cp); got == orig {
		t.Error("clone print identical after rename")
	}
}

func TestRenameGlobalsRespectsShadowing(t *testing.T) {
	f := mustParse(t, `
int g = 1;
int f(int g) {
    return g;
}
int h(void) {
    int g = 5;
    return g;
}
int uses(void) {
    return g;
}
`)
	RenameGlobals(f, map[string]string{"g": "renamed_g"})
	out := Print(f)
	f2, err := Parse("t.c", out)
	if err != nil {
		t.Fatal(err)
	}
	// f's parameter and h's local must still be g; uses() must refer to
	// renamed_g.
	fDecl := f2.Decls[1].(*FuncDecl)
	if fDecl.Params[0].Name != "g" {
		t.Errorf("parameter renamed: %q", fDecl.Params[0].Name)
	}
	ret := fDecl.Body.Stmts[0].(*ReturnStmt).X.(*Ident)
	if ret.Name != "g" {
		t.Errorf("shadowed ref renamed: %q", ret.Name)
	}
	usesRet := f2.Decls[3].(*FuncDecl).Body.Stmts[0].(*ReturnStmt).X.(*Ident)
	if usesRet.Name != "renamed_g" {
		t.Errorf("global ref not renamed: %q", usesRet.Name)
	}
}

func TestRenameGlobalsDeclStmtInitSeesOuter(t *testing.T) {
	// "int x = x + 1;" as a local: the initializer refers to the global x.
	f := mustParse(t, `
int x = 10;
int f(void) {
    int x = x + 1;
    return x;
}
`)
	RenameGlobals(f, map[string]string{"x": "gx"})
	fd := f.Decls[1].(*FuncDecl)
	ds := fd.Body.Stmts[0].(*DeclStmt)
	add := ds.Init.(*Binary)
	if add.X.(*Ident).Name != "gx" {
		t.Errorf("initializer ref = %q, want gx", add.X.(*Ident).Name)
	}
	ret := fd.Body.Stmts[1].(*ReturnStmt).X.(*Ident)
	if ret.Name != "x" {
		t.Errorf("local ref = %q, want x", ret.Name)
	}
}

func TestGlobalRefs(t *testing.T) {
	f := mustParse(t, `
extern int imported(int x);
static int local_helper(int x) { return x; }
int mine = 0;
int f(int p) {
    int l = p;
    return imported(l) + local_helper(mine) + imported(mine);
}
`)
	// Each reference once, at its first use, in source order.
	var got []string
	for _, id := range GlobalRefs(f) {
		got = append(got, fmt.Sprintf("%s@%d:%d", id.Name, id.Pos.Line, id.Pos.Col))
	}
	want := []string{"imported@7:12", "local_helper@7:26", "mine@7:39"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("GlobalRefs = %v, want %v", got, want)
	}
	refs := refSet(f)
	for _, dontWant := range []string{"p", "l", "x"} {
		if refs[dontWant] {
			t.Errorf("locals/params leaked into refs: %q", dontWant)
		}
	}
}
