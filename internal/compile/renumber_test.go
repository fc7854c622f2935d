package compile

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"knit/internal/cmini"
	"knit/internal/machine"
	"knit/internal/obj"
)

// progGen renders a cmini file whose function f(a, b) is drawn from the
// bytes of data: bounded loops, if/else, locals with and without
// initialisers (so loop-carried reads of uninitialised locals), an
// address-taken local, arrays, calls (one to a callee with an unused
// parameter), and long expressions that need many temporaries. Every choice reads one byte; once data runs out
// every choice is 0, which always terminates the program.
type progGen struct {
	data  []byte
	pos   int
	b     strings.Builder
	vars  []string // int locals in scope
	fresh int
	stmts int
}

func (g *progGen) pick(n int) int {
	if g.pos >= len(g.data) {
		return 0
	}
	g.pos++
	return int(g.data[g.pos-1]) % n
}

func (g *progGen) name(prefix string) string {
	g.fresh++
	return fmt.Sprintf("%s%d", prefix, g.fresh)
}

func (g *progGen) expr(depth int) string {
	if depth <= 0 {
		switch g.pick(3) {
		case 0:
			return g.vars[g.pick(len(g.vars))]
		case 1:
			return fmt.Sprint(g.pick(9) - 2)
		default:
			return []string{"a", "b", "*p", "t"}[g.pick(4)]
		}
	}
	d := depth - 1
	switch g.pick(9) {
	case 0, 1:
		ops := []string{"+", "-", "*", "/", "%", "<", "==", "&", "|", "^", "<<", ">>", "&&", "||"}
		return "(" + g.expr(d) + " " + ops[g.pick(len(ops))] + " " + g.expr(d) + ")"
	case 2:
		return "g(" + g.expr(d) + ", " + g.expr(d) + ")"
	case 3:
		return "arr[(" + g.expr(d) + ") & 15]"
	case 4:
		return "la[(" + g.expr(d) + ") & 3]"
	case 5:
		return []string{"-", "!", "~"}[g.pick(3)] + "(" + g.expr(d) + ")"
	case 6:
		return "(" + g.expr(d) + " ? " + g.expr(d) + " : " + g.expr(d) + ")"
	case 7:
		return "h(p)"
	case 8:
		return "k(" + g.expr(d) + ", " + g.expr(d) + ")"
	}
	return g.expr(0)
}

func (g *progGen) block(depth int) {
	scope := len(g.vars)
	n := g.pick(4)
	for i := 0; i < n && g.stmts < 40; i++ {
		g.stmt(depth)
	}
	g.vars = g.vars[:scope]
}

func (g *progGen) stmt(depth int) {
	g.stmts++
	v := func() string { return g.vars[g.pick(len(g.vars))] }
	switch k := g.pick(11); {
	case k == 0:
		fmt.Fprintf(&g.b, "%s = %s;\n", v(), g.expr(3))
	case k == 1:
		fmt.Fprintf(&g.b, "%s += %s;\n", v(), g.expr(2))
	case k == 2 && depth > 0:
		fmt.Fprintf(&g.b, "if (%s) {\n", g.expr(2))
		g.block(depth - 1)
		g.b.WriteString("} else {\n")
		g.block(depth - 1)
		g.b.WriteString("}\n")
	case k == 3 && depth > 0:
		i := g.name("i")
		fmt.Fprintf(&g.b, "for (int %s = 0; %s < %d; %s++) {\n", i, i, 1+g.pick(4), i)
		g.vars = append(g.vars, i)
		g.block(depth - 1)
		g.vars = g.vars[:len(g.vars)-1]
		g.b.WriteString("}\n")
	case k == 4 && depth > 0:
		w := g.name("w")
		fmt.Fprintf(&g.b, "{\nint %s = %d;\nwhile (%s > 0) {\n%s = %s - 1;\n", w, 1+g.pick(4), w, w, w)
		g.block(depth - 1)
		g.b.WriteString("}\n}\n")
	case k == 5:
		fmt.Fprintf(&g.b, "arr[(%s) & 15] = %s;\n", g.expr(1), g.expr(2))
	case k == 6:
		fmt.Fprintf(&g.b, "*p = %s;\n", g.expr(2))
	case k == 7:
		fmt.Fprintf(&g.b, "la[(%s) & 3] = %s;\n", g.expr(1), g.expr(2))
	case k == 9:
		// Unrolled accumulates, the strided run the compiled engine
		// fuses.
		acc := v()
		for n := 2 + g.pick(4); n > 0; n-- {
			fmt.Fprintf(&g.b, "%s += arr[%d];\n", acc, g.pick(16))
		}
	case k == 8:
		u := g.name("u") // read before any write on some paths
		fmt.Fprintf(&g.b, "int %s;\n", u)
		g.vars = append(g.vars, u)
	default:
		x := g.name("x")
		fmt.Fprintf(&g.b, "int %s = %s;\n", x, g.expr(3))
		g.vars = append(g.vars, x)
	}
}

func genProgram(data []byte) string {
	g := &progGen{data: data, vars: []string{"s", "u"}}
	g.b.WriteString(`int arr[16];
int g(int x, int y) {
int z;
if (x > y) { z = x - y; }
return z * 2 + y;
}
int h(int *q) { *q = *q + 1; return *q; }
int k(int x, int y) { int z; if (y) { z = 3; } return z; }
int f(int a, int b) {
int t = a;
int *p = &t;
int la[4];
int s = b;
int u;
`)
	for g.pos < len(g.data) && g.stmts < 40 {
		g.stmt(3)
	}
	fmt.Fprintf(&g.b, "return s + u + t + la[1] + arr[2] + %s;\n}\n", g.vars[len(g.vars)-1])
	return g.b.String()
}

// runOutcome is what one run of f must agree on across the pass.
type runOutcome struct {
	val                             int64
	trap                            string
	executed, cycles, stalls, calls int64
}

func runF(t *testing.T, o *obj.File, backend machine.Backend, a, b int64) runOutcome {
	t.Helper()
	img, err := machine.Load(o, machine.DefaultCosts())
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	m := machine.New(img)
	m.SetBackend(backend)
	m.Fuel = 1 << 20
	v, err := m.Run("f", a, b)
	out := runOutcome{val: v, executed: m.Executed, cycles: m.Cycles, stalls: m.Stalls, calls: m.Calls}
	if err != nil {
		var tr *machine.Trap
		if !errors.As(err, &tr) {
			t.Fatalf("run: %v", err)
		}
		out.val, out.trap = 0, fmt.Sprintf("%v %q pc=%d", tr.Kind, tr.Msg, tr.PC)
	}
	return out
}

// withoutRegs returns fn's code with every register operand zeroed.
func withoutRegs(fn *obj.Func) []obj.Instr {
	code := fn.Clone().Code
	for i := range code {
		operands(&code[i], func(r *obj.Reg, _ bool) { *r = 0 })
	}
	return code
}

// FuzzRenumber holds register renumbering to its contract on generated
// functions: the instruction stream is unchanged apart from register
// operands, the frame never grows, and on both engines f(a, b) returns
// the same value (or the same trap) with identical counters. The two
// engines must also agree with each other on the renumbered object.
func FuzzRenumber(f *testing.F) {
	f.Add([]byte("\x03\x02\x09\x00\x01\x04\x08\x05"), int64(3), int64(-2), true)
	f.Add([]byte("\x08\x03\x03\x00\x00\x01\x02\x07\x01"), int64(0), int64(7), false)
	f.Fuzz(func(t *testing.T, data []byte, a, b int64, opt bool) {
		if len(data) > 256 {
			return
		}
		src := genProgram(data)
		file, err := cmini.Parse("gen.c", src)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, src)
		}
		opts := Options{Opt: opt}
		pre, err := lower(file)
		if err != nil {
			t.Fatalf("lower: %v\n%s", err, src)
		}
		if opt {
			new(scratch).optimize(pre, opts)
		}
		post := pre.Clone()
		for _, fn := range post.Funcs {
			new(scratch).renumber(fn)
		}
		compiled, err := Compile(file, opts)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		for name, before := range pre.Funcs {
			after := post.Funcs[name]
			if after.NRegs > before.NRegs || after.NArgs != before.NArgs || after.Frame != before.Frame {
				t.Fatalf("%s: regs %d -> %d, args %d -> %d, frame %d -> %d", name,
					before.NRegs, after.NRegs, before.NArgs, after.NArgs, before.Frame, after.Frame)
			}
			if !reflect.DeepEqual(withoutRegs(before), withoutRegs(after)) {
				t.Fatalf("%s: renumbering changed more than registers:\n%s\n%s", name, Disasm(before), Disasm(after))
			}
			if Disasm(compiled.Funcs[name]) != Disasm(after) {
				t.Fatalf("%s: Compile differs from lower, optimize, renumber", name)
			}
		}
		var after [2]runOutcome
		for i, be := range []machine.Backend{machine.BackendInterp, machine.BackendCompiled} {
			want := runF(t, pre.Clone(), be, a, b)
			if after[i] = runF(t, post.Clone(), be, a, b); after[i] != want {
				t.Fatalf("%v: f(%d, %d) before %+v, after %+v\n%s\n%s%s", be, a, b, want, after[i],
					src, Disasm(pre.Funcs["f"]), Disasm(post.Funcs["f"]))
			}
		}
		// The engines agree on the renumbered object too; the compiled
		// one models no instruction fetch.
		in, co := after[0], after[1]
		if co.val != in.val || co.trap != in.trap || co.executed != in.executed || co.calls != in.calls ||
			co.stalls != 0 || co.cycles != in.cycles-in.stalls {
			t.Fatalf("engines disagree on renumbered f(%d, %d): interp %+v, compiled %+v\n%s", a, b, in, co, src)
		}
	})
}

// TestRenumberKeepsUninitialisedReadsZero: a local read before any
// write keeps a register of its own that frame entry zeroes, even when
// the read is loop-carried.
func TestRenumberKeepsUninitialisedReadsZero(t *testing.T) {
	both(t, `int f(int c) { int x; if (c) { x = 1; } return x; }`, "f", 0, 0)
	both(t, `int f(int c) { int x; if (c) { x = 1; } return x; }`, "f", 1, 1)
	both(t, `int f(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) { int k = i * 7 + 3; s = s + k; }
    int u;
    for (int i = 0; i < n; i++) { s = s * 2 + u; u = i + 5; }
    return s;
}`, "f", (((54*2+0)*2+5)*2+6)*2+7, 4)
}
