package cmini

import (
	"strings"
	"testing"

	"knit/internal/diag/diagtest"
)

func mustParse(t *testing.T, src string) *File {
	t.Helper()
	f, err := Parse("test.c", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return f
}

func TestParseGlobalsAndExterns(t *testing.T) {
	f := mustParse(t, `
int counter = 0;
static int hidden;
extern int imported;
char *name = "web";
int table[16];
`)
	if len(f.Decls) != 5 {
		t.Fatalf("got %d decls, want 5", len(f.Decls))
	}
	v0 := f.Decls[0].(*VarDecl)
	if v0.Name != "counter" || v0.Static || v0.Extern || v0.Init == nil {
		t.Errorf("counter: %+v", v0)
	}
	v1 := f.Decls[1].(*VarDecl)
	if !v1.Static {
		t.Error("hidden should be static")
	}
	v2 := f.Decls[2].(*VarDecl)
	if !v2.Extern {
		t.Error("imported should be extern")
	}
	v4 := f.Decls[4].(*VarDecl)
	arr, ok := v4.Type.(*Array)
	if !ok || arr.Len != 16 {
		t.Errorf("table type = %v", PrintType(v4.Type))
	}
}

func TestParseFunctionAndPrototype(t *testing.T) {
	f := mustParse(t, `
int serve_file(int s, char *path);
int serve_web(int s, char *path) {
    if (path[0] == '/') {
        return serve_file(s, path);
    }
    return 0 - 1;
}
`)
	proto := f.Decls[0].(*FuncDecl)
	if !proto.Extern || proto.Body != nil {
		t.Errorf("prototype should be extern with no body: %+v", proto)
	}
	def := f.Decls[1].(*FuncDecl)
	if def.Extern || def.Body == nil || len(def.Params) != 2 {
		t.Errorf("definition wrong: %+v", def)
	}
	if PrintType(def.Params[1].Type) != "char *" {
		t.Errorf("param type = %q", PrintType(def.Params[1].Type))
	}
}

func TestParseStructAndMemberAccess(t *testing.T) {
	f := mustParse(t, `
struct packet {
    int ttl;
    int len;
    char data[64];
};
int dec_ttl(struct packet *p) {
    p->ttl = p->ttl - 1;
    return p->ttl;
}
`)
	sd := f.Decls[0].(*StructDecl)
	if sd.Name != "packet" || len(sd.Fields) != 3 {
		t.Fatalf("struct: %+v", sd)
	}
	if arr, ok := sd.Fields[2].Type.(*Array); !ok || arr.Len != 64 {
		t.Errorf("data field type = %v", PrintType(sd.Fields[2].Type))
	}
	fd := f.Decls[1].(*FuncDecl)
	stmt := fd.Body.Stmts[0].(*ExprStmt)
	asg := stmt.X.(*Assign)
	if _, ok := asg.LHS.(*Member); !ok {
		t.Errorf("LHS should be member access: %T", asg.LHS)
	}
}

func TestParsePrecedence(t *testing.T) {
	f := mustParse(t, `int v = 1 + 2 * 3 << 1 == 14;`)
	// ((1 + (2*3)) << 1) == 14
	e := f.Decls[0].(*VarDecl).Init.(*Binary)
	if e.Op != EQ {
		t.Fatalf("top op = %v, want ==", e.Op)
	}
	shl := e.X.(*Binary)
	if shl.Op != SHL {
		t.Fatalf("next op = %v, want <<", shl.Op)
	}
	add := shl.X.(*Binary)
	if add.Op != PLUS {
		t.Fatalf("next op = %v, want +", add.Op)
	}
	mul := add.Y.(*Binary)
	if mul.Op != STAR {
		t.Fatalf("inner op = %v, want *", mul.Op)
	}
}

func TestParseControlFlow(t *testing.T) {
	f := mustParse(t, `
int f(int n) {
    int sum = 0;
    for (int i = 0; i < n; i++) {
        if (i % 2 == 0) {
            continue;
        } else if (i > 100) {
            break;
        }
        sum += i;
    }
    while (sum > 1000) {
        sum = sum / 2;
    }
    return sum;
}
`)
	fd := f.Decls[0].(*FuncDecl)
	if len(fd.Body.Stmts) != 4 {
		t.Fatalf("got %d stmts, want 4", len(fd.Body.Stmts))
	}
	forStmt := fd.Body.Stmts[1].(*ForStmt)
	if forStmt.Init == nil || forStmt.Cond == nil || forStmt.Post == nil {
		t.Error("for loop parts missing")
	}
	ifStmt := forStmt.Body.Stmts[0].(*IfStmt)
	if _, ok := ifStmt.Else.(*IfStmt); !ok {
		t.Errorf("else-if should be IfStmt, got %T", ifStmt.Else)
	}
}

func TestParseTernaryAndCalls(t *testing.T) {
	f := mustParse(t, `
int g(int x);
int f(int x) {
    return x > 0 ? g(x) : g(0 - x);
}
`)
	fd := f.Decls[1].(*FuncDecl)
	ret := fd.Body.Stmts[0].(*ReturnStmt)
	c := ret.X.(*Cond)
	if _, ok := c.Then.(*Call); !ok {
		t.Errorf("then branch should be call, got %T", c.Then)
	}
}

func TestParsePointerOps(t *testing.T) {
	f := mustParse(t, `
int f(int *p, int **pp) {
    *p = 5;
    int *q = &*p;
    return **pp + p[3];
}
`)
	fd := f.Decls[0].(*FuncDecl)
	if PrintType(fd.Params[1].Type) != "int **" {
		t.Errorf("pp type = %q", PrintType(fd.Params[1].Type))
	}
}

func TestParseFnPointer(t *testing.T) {
	f := mustParse(t, `
static fn handler;
int dispatch(int x) {
    return handler(x);
}
int set_handler(fn h) {
    handler = h;
    return 0;
}
`)
	v := f.Decls[0].(*VarDecl)
	if p, ok := v.Type.(*Prim); !ok || p.Kind != Fn {
		t.Errorf("handler type = %v", PrintType(v.Type))
	}
}

func TestParseSizeof(t *testing.T) {
	f := mustParse(t, `
struct pkt { int a; int b; };
extern int alloc(int n);
int f(void) {
    return alloc(sizeof(struct pkt));
}
`)
	fd := f.Decls[2].(*FuncDecl)
	call := fd.Body.Stmts[0].(*ReturnStmt).X.(*Call)
	if _, ok := call.Args[0].(*SizeofExpr); !ok {
		t.Errorf("arg should be sizeof, got %T", call.Args[0])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want, pos string
	}{
		{"missing semi", "int x = 1", "expected", "1:10"},
		{"extern with init", "extern int x = 1;", "cannot have an initializer", "1:1"},
		{"extern with body", "extern int f(void) { return 1; }", "cannot have a body", "1:1"},
		{"static extern", "static extern int x;", "both static and extern", "1:1"},
		{"assign to literal", "int f(void) { 3 = 4; return 0; }", "not assignable", "1:17"},
		{"address of literal", "int f(void) { int *p = &3; return 0; }", "cannot take address", "1:24"},
		{"bad array len", "int a[0];", "invalid array length", "1:7"},
		{"dup struct field", "struct s { int a; int a; };", "duplicate field", "1:23"},
		{"garbage", "$$$", "unexpected character", "1:1"},
		// Tokens are lexed as the parser reaches them, so of a syntax
		// error and a later stray character the first is reported.
		{"syntax error before stray character", "int x = 1 int y = $;", "expected ;", "1:11"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse("t.c", c.src)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error containing %q", c.src, c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
			if got := diagtest.At(t, err, c.src); got != c.pos {
				t.Errorf("error %q at %s, want %s", err, got, c.pos)
			}
		})
	}
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := Parse("web.c", "int f(void) {\n  return ;;\n}")
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), "web.c:2") {
		t.Errorf("error %q should carry position web.c:2", err)
	}
}
