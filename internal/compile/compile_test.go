package compile

import (
	"strings"
	"testing"

	"knit/internal/cmini"
	"knit/internal/diag/diagtest"
	"knit/internal/machine"
	"knit/internal/obj"
)

// runSrc compiles src and executes entry(args...), returning the result.
func runSrc(t *testing.T, opts Options, src, entry string, args ...int64) int64 {
	t.Helper()
	m := machineFor(t, opts, src)
	v, err := m.Run(entry, args...)
	if err != nil {
		t.Fatalf("run %s: %v", entry, err)
	}
	return v
}

func machineFor(t *testing.T, opts Options, src string) *machine.M {
	t.Helper()
	f, err := cmini.Parse("test.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	o, err := Compile(f, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	img, err := machine.Load(o, machine.DefaultCosts())
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return machine.New(img)
}

// both runs the program unoptimized and optimized and requires identical
// results — the optimizer's core correctness property.
func both(t *testing.T, src, entry string, want int64, args ...int64) {
	t.Helper()
	if got := runSrc(t, Options{}, src, entry, args...); got != want {
		t.Errorf("%s unoptimized = %d, want %d", entry, got, want)
	}
	if got := runSrc(t, Options{Opt: true}, src, entry, args...); got != want {
		t.Errorf("%s optimized = %d, want %d", entry, got, want)
	}
}

func TestArithmetic(t *testing.T) {
	both(t, `int f(int a, int b) { return (a + b) * 3 - a / b % 5; }`, "f", (7+3)*3-7/3%5, 7, 3)
	both(t, `int f(int a) { return a << 3 >> 1; }`, "f", 5<<3>>1, 5)
	both(t, `int f(int a, int b) { return (a & b) | (a ^ b); }`, "f", (12&10)|(12^10), 12, 10)
	both(t, `int f(int a) { return -a + ~a + !a; }`, "f", -9+^int64(9)+0, 9)
}

func TestComparisonsAndLogic(t *testing.T) {
	both(t, `int f(int a, int b) { return (a < b) + (a <= b)*10 + (a > b)*100 + (a >= b)*1000 + (a == b)*10000 + (a != b)*100000; }`,
		"f", 1+10+0+0+0+100000, 3, 5)
	both(t, `int f(int a, int b) { return a && b; }`, "f", 1, 2, 3)
	both(t, `int f(int a, int b) { return a || b; }`, "f", 1, 0, 3)
	both(t, `int f(int a, int b) { return a && b; }`, "f", 0, 0, 3)
}

func TestShortCircuitSideEffects(t *testing.T) {
	src := `
static int hits = 0;
int bump(void) { hits = hits + 1; return 1; }
int f(int a) {
    int r = a && bump();
    return hits * 10 + r;
}
int g(int a) {
    int r = a || bump();
    return hits * 10 + r;
}
`
	both(t, src, "f", 0, 0)  // a=0: bump not called, r=0
	both(t, src, "f", 11, 5) // a=5: bump called once, r=1
	both(t, src, "g", 1, 7)  // a!=0: bump not called, r=1
	both(t, src, "g", 11, 0) // a=0: bump called, r=1
}

func TestControlFlow(t *testing.T) {
	src := `
int collatz(int n) {
    int steps = 0;
    while (n != 1) {
        if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
        steps++;
    }
    return steps;
}
int sum_odd(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        if (i % 2 == 0) { continue; }
        if (i > 20) { break; }
        s += i;
    }
    return s;
}
`
	both(t, src, "collatz", 14, 11)
	both(t, src, "sum_odd", 1+3+5+7+9+11+13+15+17+19, 100)
}

func TestRecursion(t *testing.T) {
	src := `
int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
`
	both(t, src, "fib", 55, 10)
}

func TestPointers(t *testing.T) {
	src := `
int deref(int *p) { return *p; }
int f(void) {
    int x = 41;
    int *p = &x;
    *p = *p + 1;
    return deref(p);
}
int swap_test(void) {
    int a = 1;
    int b = 2;
    int *pa = &a;
    int *pb = &b;
    int tmp = *pa;
    *pa = *pb;
    *pb = tmp;
    return a * 10 + b;
}
`
	both(t, src, "f", 42)
	both(t, src, "swap_test", 21)
}

func TestArraysAndStrings(t *testing.T) {
	src := `
static int tab[8];
int f(int n) {
    for (int i = 0; i < 8; i++) { tab[i] = i * i; }
    return tab[n];
}
int local_arr(void) {
    int a[4];
    a[0] = 3;
    a[1] = a[0] * 2;
    int *p = a;
    p[2] = p[1] + 1;
    return a[0] + a[1] + a[2];
}
int strlen_(char *s) {
    int n = 0;
    while (s[n] != 0) { n++; }
    return n;
}
int str_test(void) { return strlen_("hello"); }
`
	both(t, src, "f", 49, 7)
	both(t, src, "local_arr", 3+6+7)
	both(t, src, "str_test", 5)
}

func TestStructs(t *testing.T) {
	src := `
struct point { int x; int y; };
struct rect { struct point a; struct point b; };
int area(struct rect *r) {
    return (r->b.x - r->a.x) * (r->b.y - r->a.y);
}
int f(void) {
    struct rect r;
    r.a.x = 1;
    r.a.y = 2;
    r.b.x = 5;
    r.b.y = 10;
    return area(&r);
}
int arr_of_structs(void) {
    struct point ps[3];
    for (int i = 0; i < 3; i++) {
        ps[i].x = i;
        ps[i].y = i * 10;
    }
    return ps[2].x + ps[2].y + ps[1].y;
}
`
	both(t, src, "f", 32)
	both(t, src, "arr_of_structs", 2+20+10)
}

func TestSizeofAndPointerArith(t *testing.T) {
	src := `
struct pkt { int a; int b; int c; };
int f(void) { return sizeof(struct pkt) + sizeof(int); }
int parith(void) {
    struct pkt arr[4];
    struct pkt *p = arr;
    struct pkt *q = p + 2;
    q->a = 7;
    return arr[2].a + (q - p);
}
`
	both(t, src, "f", 4)
	both(t, src, "parith", 9)
}

func TestGlobalsAndInit(t *testing.T) {
	src := `
int counter = 5;
static char *name = "knit";
int f(void) {
    counter += 2;
    return counter;
}
int first_char(void) { return name[0]; }
`
	both(t, src, "f", 7)
	both(t, src, "first_char", int64('k'))
}

func TestFunctionPointers(t *testing.T) {
	src := `
int double_(int x) { return x * 2; }
int triple(int x) { return x * 3; }
static fn op;
int apply(int x) { return op(x); }
int f(int which, int x) {
    if (which) { op = &double_; } else { op = &triple; }
    return apply(x);
}
`
	both(t, src, "f", 14, 1, 7)
	both(t, src, "f", 21, 0, 7)
}

func TestIncDecSemantics(t *testing.T) {
	src := `
int f(void) {
    int i = 5;
    int a = i++;
    int b = i--;
    return a * 100 + b * 10 + i;
}
int ptr_inc(void) {
    int arr[3];
    arr[0] = 1; arr[1] = 2; arr[2] = 3;
    int *p = arr;
    p++;
    return *p;
}
`
	both(t, src, "f", 5*100+6*10+5)
	both(t, src, "ptr_inc", 2)
}

func TestTernary(t *testing.T) {
	both(t, `int f(int a, int b) { return a > b ? a : b; }`, "f", 9, 4, 9)
	both(t, `int f(int a) { return a ? 1 : a ? 2 : 3; }`, "f", 3, 0)
}

func TestShadowing(t *testing.T) {
	src := `
int x = 100;
int f(void) {
    int r = x;
    {
        int x = 5;
        r += x;
    }
    r += x;
    return r;
}
`
	both(t, src, "f", 205)
}

func TestVoidFunction(t *testing.T) {
	src := `
static int state = 0;
void set(int v) { state = v; }
int f(void) {
    set(33);
    return state;
}
`
	both(t, src, "f", 33)
}

func TestCompileErrors(t *testing.T) {
	cases := []struct{ name, src, want, pos string }{
		{"undeclared", `int f(void) { return nope; }`, "undeclared", "1:22"},
		{"undeclared call", `int f(void) { return nope(); }`, "undeclared", "1:26"},
		{"redefined func", "int f(void) { return 1; }\nint f(void) { return 2; }", "redefined", "2:1"},
		{"redefined global", "int x;\nint x;", "redefined", "2:1"},
		{"arity", "int g(int a) { return a; }\nint f(void) { return g(1, 2); }", "2 args, want 1", "2:23"},
		{"bad member", "struct s { int a; };\nint f(struct s *p) { return p->b; }", "no field", "2:30"},
		{"member of int", "int f(int x) { return x.a; }", "non-struct", "1:24"},
		{"nonconst global init", "int g(void) { return 1; }\nint x = g();", "constant", "2:10"},
		{"struct param", "struct s { int a; };\nint f(struct s v) { return 0; }", "by pointer", "2:1"},
		{"unknown struct", "int f(struct nope *p) { return p->x; }", "unknown struct", "1:33"},
		{"void size", "int f(void) { return sizeof(void); }", "void has no size", "1:22"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f, err := cmini.Parse("t.c", c.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			_, err = Compile(f, Options{})
			if err == nil {
				t.Fatalf("compile succeeded, want error containing %q", c.want)
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

func TestBreakContinueOutsideLoop(t *testing.T) {
	for _, src := range []string{
		`int f(void) { break; return 0; }`,
		`int f(void) { continue; return 0; }`,
	} {
		f, err := cmini.Parse("t.c", src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Compile(f, Options{}); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", src)
		}
	}
}

func TestExternLinkViaAppend(t *testing.T) {
	// Two translation units; importer calls an extern defined elsewhere.
	srcA := `
extern int provide(int x);
int use(int x) { return provide(x) + 1; }
`
	srcB := `int provide(int x) { return x * 10; }`
	fa, err := cmini.Parse("a.c", srcA)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := cmini.Parse("b.c", srcB)
	if err != nil {
		t.Fatal(err)
	}
	oa, err := Compile(fa, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ob, err := Compile(fb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	merged := obj.NewFile("merged")
	obj.Append(merged, oa)
	obj.Append(merged, ob)
	img, err := machine.Load(merged, machine.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(img)
	v, err := m.Run("use", 4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 41 {
		t.Errorf("use(4) = %d, want 41", v)
	}
}

func TestStaticCollisionAcrossFiles(t *testing.T) {
	// Both files define a static "state"; after merging they must remain
	// distinct.
	srcA := `
static int state = 1;
int get_a(void) { return state; }
int set_a(int v) { state = v; return 0; }
`
	srcB := `
static int state = 2;
int get_b(void) { return state; }
`
	fa, _ := cmini.Parse("a.c", srcA)
	fb, _ := cmini.Parse("b.c", srcB)
	oa, err := Compile(fa, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ob, err := Compile(fb, Options{})
	if err != nil {
		t.Fatal(err)
	}
	merged := obj.NewFile("merged")
	obj.Append(merged, oa)
	obj.Append(merged, ob)
	img, err := machine.Load(merged, machine.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(img)
	if _, err := m.Run("set_a", 99); err != nil {
		t.Fatal(err)
	}
	b, err := m.Run("get_b")
	if err != nil {
		t.Fatal(err)
	}
	if b != 2 {
		t.Errorf("b's static corrupted by a's write: got %d, want 2", b)
	}
	a, err := m.Run("get_a")
	if err != nil {
		t.Fatal(err)
	}
	if a != 99 {
		t.Errorf("get_a = %d, want 99", a)
	}
}

func TestConsoleBuiltin(t *testing.T) {
	src := `
extern int __console_out(int ch);
int puts_(char *s) {
    int i = 0;
    while (s[i] != 0) {
        __console_out(s[i]);
        i++;
    }
    return i;
}
int hello(void) { return puts_("hi there"); }
`
	m := machineFor(t, Options{Opt: true}, src)
	c := machine.InstallConsole(m)
	n, err := m.Run("hello")
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 || c.String() != "hi there" {
		t.Errorf("hello = %d, console %q", n, c.String())
	}
}
